"""Core data model for gap-constrained subsequence matching.

A pattern p of length k embeds in a word w via a strictly increasing map
e from pattern positions to word positions (1-based) with w[e(j)] = p[j].
Between consecutive matched positions lies a gap, the factor
w[e(j)+1 .. e(j+1)-1], and each of the k-1 gaps must satisfy its gap
constraint.  Constraints come in four kinds: the empty-gap constraint, a
length window, a regular language given by a complete DFA, and the
conjunction of a window with a DFA.

Symbols are dense integer ids 1..sigma.  An Alphabet optionally carries a
glyph table so words can be read and printed as character strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

INF = float("inf")


class GapsubError(Exception):
    """Base class for all library errors."""


class InputError(GapsubError):
    """Malformed data: bad word, bad constraint file, invalid DFA."""


class UsageError(GapsubError):
    """Operation applied outside its contract, e.g. wrong constraint class."""


class BudgetError(GapsubError):
    """An enumeration would exceed the configured size budget."""


@dataclass(frozen=True)
class Alphabet:
    """Symbol universe 1..size with an optional glyph per symbol."""

    size: int
    glyphs: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InputError("alphabet size must be at least 1")
        if self.glyphs is not None:
            if len(self.glyphs) != self.size:
                raise InputError("glyph table length must equal alphabet size")
            if len(set(self.glyphs)) != self.size:
                raise InputError("glyphs must be distinct")
            for g in self.glyphs:
                if len(g) != 1:
                    raise InputError("glyphs must be single characters")

    @classmethod
    def from_glyphs(cls, glyphs: str) -> "Alphabet":
        return cls(len(glyphs), tuple(glyphs))

    def glyph(self, sym: int) -> str:
        if self.glyphs is None:
            raise UsageError("alphabet has no glyph table")
        return self.glyphs[sym - 1]

    def id_of(self, glyph: str) -> int:
        if self.glyphs is None:
            raise UsageError("alphabet has no glyph table")
        try:
            return self.glyphs.index(glyph) + 1
        except ValueError:
            raise InputError(f"glyph {glyph!r} not in alphabet") from None

    def word(self, text: str) -> "Word":
        """Word from a glyph string."""
        return Word(tuple(self.id_of(ch) for ch in text))

    def validate_word(self, w: "Word") -> None:
        for s in w.symbols:
            if not 1 <= s <= self.size:
                raise InputError(f"symbol id {s} outside alphabet 1..{self.size}")


@dataclass(frozen=True)
class Word:
    """Immutable sequence of symbol ids (1..sigma)."""

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        syms = tuple(self.symbols)
        object.__setattr__(self, "symbols", syms)
        # the per-symbol loop runs only to name the offender: long words are
        # checked by C-level passes over the symbol types and the minimum
        kinds = set(map(type, syms))
        if any(t is bool or not issubclass(t, int) for t in kinds) or min(syms, default=1) < 1:
            for s in syms:
                if isinstance(s, bool) or not isinstance(s, int) or s < 1:
                    raise InputError(f"symbol ids must be positive integers, got {s!r}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def factor(self, start: int, end: int) -> "Word":
        """Factor at 1-based closed positions start..end (empty when start > end)."""
        return Word(self.symbols[start - 1 : end])


@dataclass(frozen=True)
class ZeroGap:
    """Only the empty gap: consecutive word positions."""


def _check_window(lo: object, hi: object) -> None:
    """Raise InputError unless lo is an int >= 0 and hi is INF or an int >= lo."""
    if isinstance(lo, bool) or not isinstance(lo, int) or lo < 0:
        raise InputError(f"gap lower bound must be an int >= 0, got {lo!r}")
    if hi != INF and (isinstance(hi, bool) or not isinstance(hi, int) or hi < lo):
        raise InputError(f"gap upper bound must be an int >= lo, or INF, got {hi!r}")


@dataclass(frozen=True)
class LengthGap:
    """Gap length within [lo, hi]; hi may be INF."""

    lo: int
    hi: Union[int, float]

    def __post_init__(self) -> None:
        _check_window(self.lo, self.hi)


# what matching, counting and analysis read off a constraint's DFA
_DFA_ATTRIBUTES = ("num_states", "num_symbols", "initial", "finals", "table", "run")


def _check_dfa(dfa: object, kind: str) -> None:
    missing = [a for a in _DFA_ATTRIBUTES if not hasattr(dfa, a)]
    if missing:
        raise InputError(
            f"{kind} constraint needs a DFA; {type(dfa).__name__} lacks {', '.join(missing)}"
        )


@dataclass(frozen=True)
class RegularGap:
    """Gap must belong to the language of a complete DFA."""

    dfa: object

    def __post_init__(self) -> None:
        _check_dfa(self.dfa, "regular")


@dataclass(frozen=True)
class RegLenGap:
    """Conjunction: gap length in [lo, hi] and gap accepted by the DFA."""

    lo: int
    hi: Union[int, float]
    dfa: object

    def __post_init__(self) -> None:
        _check_window(self.lo, self.hi)
        _check_dfa(self.dfa, "reg-len")


GapConstraint = Union[ZeroGap, LengthGap, RegularGap, RegLenGap]


def is_zero_gap(c: GapConstraint) -> bool:
    """True for constraints forcing the empty gap (ZeroGap, or a (0,0) window)."""
    if isinstance(c, ZeroGap):
        return True
    return isinstance(c, LengthGap) and c.lo == 0 and c.hi == 0


def constraint_window(c: GapConstraint, n: int) -> tuple[int, int]:
    """Effective (lo, hi) length window of c inside a word of length n."""
    if isinstance(c, ZeroGap):
        return (0, 0)
    if isinstance(c, (LengthGap, RegLenGap)):
        hi = n if c.hi == INF else min(int(c.hi), n)
        return (c.lo, hi)
    return (0, n)


def constraint_dfa(c: GapConstraint):
    """The DFA of c, or None for purely length-based constraints."""
    if isinstance(c, (RegularGap, RegLenGap)):
        return c.dfa
    return None


def check_dfa_alphabet(constraints: Iterable[GapConstraint], sigma: int) -> None:
    """Raise InputError unless every constraint DFA covers the symbols 1..sigma.

    A DFA over more symbols is fine: gaps never read the extra ones.
    """
    for c in constraints:
        dfa = constraint_dfa(c)
        if dfa is not None and dfa.num_symbols < sigma:
            raise InputError(
                f"constraint DFA covers {dfa.num_symbols} symbols, the alphabet has {sigma}"
            )


def constraint_allows(c: GapConstraint, gap: Iterable[int]) -> bool:
    """Membership of a concrete gap (sequence of symbol ids) in the constraint."""
    gap = tuple(gap)
    if isinstance(c, ZeroGap):
        return len(gap) == 0
    if isinstance(c, LengthGap):
        return c.lo <= len(gap) <= c.hi
    if isinstance(c, RegularGap):
        return c.dfa.run(gap)
    if isinstance(c, RegLenGap):
        return c.lo <= len(gap) <= c.hi and c.dfa.run(gap)
    raise InputError(f"not a gap constraint: {c!r}")


def _constraint_size(c: GapConstraint) -> int:
    if isinstance(c, ZeroGap):
        return 1
    if isinstance(c, LengthGap):
        return 3
    if isinstance(c, RegularGap):
        return 1 + c.dfa.num_states * c.dfa.num_symbols
    return 3 + c.dfa.num_states * c.dfa.num_symbols


@dataclass(frozen=True)
class GappedSequence:
    """A pattern together with its k-1 gap constraints."""

    pattern: Word
    constraints: tuple[GapConstraint, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        expected = max(0, len(self.pattern) - 1)
        if len(self.constraints) != expected:
            raise InputError(
                f"pattern of length {len(self.pattern)} needs {expected} "
                f"constraints, got {len(self.constraints)}"
            )

    def __len__(self) -> int:
        return len(self.pattern)

    @property
    def nz(self) -> int:
        """Number of non-zero gap constraints."""
        return sum(1 for c in self.constraints if not is_zero_gap(c))

    @property
    def states(self) -> int:
        """Total DFA states over the non-zero constraints.

        A purely length-based constraint counts 1 state (its implicit
        accept-everything automaton).
        """
        total = 0
        for c in self.constraints:
            if is_zero_gap(c):
                continue
            dfa = constraint_dfa(c)
            total += dfa.num_states if dfa is not None else 1
        return total

    @property
    def size(self) -> int:
        """Total representation size: pattern length plus constraint encodings."""
        return len(self.pattern) + sum(_constraint_size(c) for c in self.constraints)


@dataclass(frozen=True)
class Embedding:
    """Strictly increasing 1-based word positions, one per pattern symbol."""

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(self.positions))
        if self.positions and self.positions[0] < 1:
            raise InputError("embedding positions are 1-based")
        for a, b in zip(self.positions, self.positions[1:]):
            if b <= a:
                raise InputError("embedding positions must be strictly increasing")

    def __len__(self) -> int:
        return len(self.positions)

    def gap(self, w: Word, j: int) -> Word:
        """The j-th gap (1-based, j in 1..k-1) realized in w."""
        if not 1 <= j <= len(self.positions) - 1:
            raise InputError(f"gap index {j} out of range")
        return w.factor(self.positions[j - 1] + 1, self.positions[j] - 1)


def verify_embedding(w: Word, gs: GappedSequence, e: Embedding) -> bool:
    """Check that e embeds gs.pattern in w and every gap meets its constraint.

    Positions outside 1..|w| or a length mismatch raise InputError; a plain
    symbol or constraint mismatch returns False.
    """
    n = len(w)
    if len(e) != len(gs.pattern):
        raise InputError(
            f"embedding length {len(e)} does not match pattern length {len(gs.pattern)}"
        )
    for pos in e.positions:
        if not 1 <= pos <= n:
            raise InputError(f"embedding position {pos} outside 1..{n}")
    for pos, sym in zip(e.positions, gs.pattern):
        if w.symbols[pos - 1] != sym:
            return False
    for j, c in enumerate(gs.constraints, start=1):
        if not constraint_allows(c, e.gap(w, j).symbols):
            return False
    return True


class Normalized(NamedTuple):
    gs: "GappedSequence"
    infeasible: bool


class NormalizedConstraints(NamedTuple):
    constraints: tuple[GapConstraint, ...]
    infeasible: bool


def normalize_constraints(
    constraints: Iterable[GapConstraint], n: int
) -> NormalizedConstraints:
    """Clamp windows against word length n.

    Upper bounds become min(hi, n); a (0,0) window becomes ZeroGap; the
    infeasible flag is set when some lower bound exceeds n (that constraint
    can never be met inside a word of length n).  Every entry point calls
    this, so it is where an object that is not a gap constraint raises
    InputError.
    """
    out: list[GapConstraint] = []
    infeasible = False
    for c in constraints:
        if isinstance(c, LengthGap):
            if c.lo > n:
                infeasible = True
            hi = n if c.hi == INF else min(int(c.hi), n)
            hi = max(hi, c.lo)
            if c.lo == 0 and hi == 0:
                out.append(ZeroGap())
            else:
                out.append(LengthGap(c.lo, hi))
        elif isinstance(c, RegLenGap):
            if c.lo > n:
                infeasible = True
            hi = n if c.hi == INF else min(int(c.hi), n)
            hi = max(hi, c.lo)
            out.append(RegLenGap(c.lo, hi, c.dfa))
        elif isinstance(c, (ZeroGap, RegularGap)):
            out.append(c)
        else:
            raise InputError(f"not a gap constraint: {c!r}")
    return NormalizedConstraints(tuple(out), infeasible)


def normalize(gs: GappedSequence, n: int) -> Normalized:
    """Normalize all windows of gs against word length n (see normalize_constraints)."""
    cs, infeasible = normalize_constraints(gs.constraints, n)
    return Normalized(GappedSequence(gs.pattern, cs), infeasible)


def wrap_boundary(
    p: Word, full_gc: tuple[GapConstraint, ...], sigma: int
) -> tuple[GappedSequence, Callable[[Word], Word]]:
    """Turn k+1 constraints (prefix, k-1 gaps, suffix) into a plain instance.

    Returns a gapped sequence over sigma+1 symbols whose pattern is
    $ p $ with $ = sigma+1, plus a transformer mapping each target word w
    to $ w $.  The boundary symbol pins the pattern ends to the word ends,
    so the former prefix and suffix constraints become interior gaps.
    DFAs are extended with the new symbol routed to a dead sink; legal
    embeddings never place $ inside a gap, so languages are preserved.
    """
    if len(full_gc) != len(p) + 1:
        raise InputError(
            f"boundary wrapping needs {len(p) + 1} constraints, got {len(full_gc)}"
        )
    for s in p.symbols:
        if s > sigma:
            raise InputError(f"pattern symbol {s} outside alphabet 1..{sigma}")
    dollar = sigma + 1
    extended: dict[int, object] = {}
    new_constraints: list[GapConstraint] = []
    for c in full_gc:
        dfa = constraint_dfa(c)
        if dfa is None:
            new_constraints.append(c)
            continue
        if id(dfa) not in extended:
            if dfa.num_symbols != sigma:
                raise InputError(
                    f"constraint DFA covers {dfa.num_symbols} symbols, expected {sigma}"
                )
            extended[id(dfa)] = dfa.with_extra_symbol()
        big = extended[id(dfa)]
        if isinstance(c, RegularGap):
            new_constraints.append(RegularGap(big))
        else:
            new_constraints.append(RegLenGap(c.lo, c.hi, big))
    wrapped = GappedSequence(
        Word((dollar,) + p.symbols + (dollar,)), tuple(new_constraints)
    )

    def wrap_word(w: Word) -> Word:
        for s in w.symbols:
            if s > sigma:
                raise InputError(f"word symbol {s} outside alphabet 1..{sigma}")
        return Word((dollar,) + w.symbols + (dollar,))

    return wrapped, wrap_word
