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

A DFA is checked in three places, each once: a Dfa checks its structure
when it is built (states, rows, targets), normalize_constraints checks that
it covers the alphabet of the call, and the CLI's loader checks it against
the session alphabet.  The gap engines index its table without checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, Union

INF = float("inf")


class GapsubError(Exception):
    """Base class for all library errors."""


class InputError(GapsubError):
    """Malformed data: bad word, bad constraint file, invalid DFA."""


class UsageError(GapsubError):
    """Operation applied outside its contract, e.g. wrong constraint class."""


class BudgetError(GapsubError):
    """An enumeration would exceed the configured size budget."""


DEFAULT_BUDGET = 1 << 20


def check_budget(total: int, what: str, budget: int) -> None:
    """The one refusal of an oversized enumeration.  what names the total
    symbolically ("2^30 candidates"): its decimal form can be too long to print."""
    if total > budget:
        raise BudgetError(f"enumerating {what} exceeds the budget of {budget}")


@dataclass(frozen=True)
class Alphabet:
    """Symbol universe 1..size with an optional glyph per symbol."""

    size: int
    glyphs: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InputError("alphabet size must be at least 1")
        ids = None
        if self.glyphs is not None:
            if len(self.glyphs) != self.size:
                raise InputError("glyph table length must equal alphabet size")
            ids = {g: i for i, g in enumerate(self.glyphs, 1)}
            if len(ids) != self.size:
                raise InputError("glyphs must be distinct")
            for g in self.glyphs:
                if len(g) != 1:
                    raise InputError("glyphs must be single characters")
        # the glyph -> id map is no field: equality, hash and repr ignore it
        object.__setattr__(self, "_ids", ids)

    @classmethod
    def from_glyphs(cls, glyphs: str) -> "Alphabet":
        return cls(len(glyphs), tuple(glyphs))

    def glyph(self, sym: int) -> str:
        if self.glyphs is None:
            raise UsageError("alphabet has no glyph table")
        return self.glyphs[sym - 1]

    def id_of(self, glyph: str) -> int:
        if self._ids is None:
            raise UsageError("alphabet has no glyph table")
        try:
            return self._ids[glyph]
        except KeyError:
            raise InputError(f"glyph {glyph!r} not in alphabet") from None

    def word(self, text: str) -> "Word":
        """Word from a glyph string."""
        syms = tuple(map((self._ids or {}).get, text))
        if None in syms:
            self.id_of(text[syms.index(None)])  # raises, naming the glyph
        return Word(syms)

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


def _bad_state(states: tuple, n: int) -> Optional[int]:
    """Index of the first entry that is not an int in 0..n-1, or None.  C-level
    passes decide (automata of |w|+2 states are built per call); the loop
    only names the offender."""
    if not states or set(map(type, states)) <= {int} and min(states) >= 0 and max(states) < n:
        return None
    return next(i for i, s in enumerate(states) if type(s) is not int or not 0 <= s < n)


@dataclass(frozen=True)
class Dfa:
    """Complete DFA over symbols 1..num_symbols: states 0..num_states-1, one
    table row per state with one target per symbol.  Construction raises
    InputError unless there is a state, the rows have one width, and the
    initial state, finals and targets all lie in 0..num_states-1."""

    num_states: int
    initial: int
    finals: frozenset[int]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "finals", frozenset(self.finals))
        table = tuple(map(tuple, self.table))
        object.__setattr__(self, "table", table)
        n = self.num_states
        if type(n) is not int or n < 1:
            raise InputError(f"automaton needs at least one state, got {n!r}")
        ends = (self.initial, *self.finals)
        bad = _bad_state(ends, n)
        if bad is not None:
            raise InputError(f"{'final' if bad else 'initial'} state {ends[bad]!r} out of range")
        if len(table) != n:
            raise InputError(f"transition table has {len(table)} rows, expected {n}")
        width = len(table[0])
        if len(set(map(len, table))) > 1:
            q = next(q for q, row in enumerate(table) if len(row) != width)
            raise InputError(f"state {q} has {len(table[q])} transitions, expected {width}")
        targets = tuple(chain.from_iterable(table))
        bad = _bad_state(targets, n)
        if bad is not None:
            q, a = divmod(bad, width)
            raise InputError(f"transition ({q}, {a + 1}) targets out-of-range state {targets[bad]}")

    @property
    def num_symbols(self) -> int:
        return len(self.table[0])

    def step(self, q: int, a: int) -> int:
        return self.table[q][a - 1]

    def run(self, symbols: Iterable[int]) -> bool:
        """Accept or reject the given symbol sequence."""
        q = self.initial
        for a in symbols:
            q = self.table[q][a - 1]
        return q in self.finals


@dataclass(frozen=True)
class RegularGap:
    """Gap must belong to the language of a complete DFA."""

    dfa: Dfa

    def __post_init__(self) -> None:
        if not isinstance(self.dfa, Dfa):
            raise InputError(f"regular constraint needs a Dfa, got {type(self.dfa).__name__}")


@dataclass(frozen=True)
class RegLenGap:
    """Conjunction: gap length in [lo, hi] and gap accepted by the DFA."""

    lo: int
    hi: Union[int, float]
    dfa: Dfa

    def __post_init__(self) -> None:
        _check_window(self.lo, self.hi)
        if not isinstance(self.dfa, Dfa):
            raise InputError(f"reg-len constraint needs a Dfa, got {type(self.dfa).__name__}")


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
        return (c.lo, n if c.hi == INF else min(c.hi, n))
    return (0, n)


def constraint_dfa(c: GapConstraint) -> Optional[Dfa]:
    """The DFA of c, or None for purely length-based constraints."""
    if isinstance(c, (RegularGap, RegLenGap)):
        return c.dfa
    return None


def check_dfa_alphabet(constraints: Iterable[GapConstraint], sigma: int) -> None:
    """Raise InputError unless every constraint DFA covers the symbols 1..sigma.

    A DFA over more symbols is fine: gaps never read the extra ones.  Each
    distinct constraint object, and each distinct DFA object, is looked at
    once, so gaps that repeat one constraint cost one dict entry each.
    """
    distinct = {id(c): c for c in constraints}.values()
    dfas = {id(d): d for d in map(constraint_dfa, distinct) if d is not None}
    for dfa in dfas.values():
        if dfa.num_symbols < sigma:
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
    def states(self) -> int:
        """Total DFA states over the non-zero constraints.

        A purely length-based constraint counts 1 state (its implicit
        accept-everything automaton).
        """
        dfas = [constraint_dfa(c) for c in self.constraints if not is_zero_gap(c)]
        return sum(1 if dfa is None else dfa.num_states for dfa in dfas)


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


def _normalize_window(c: Union[LengthGap, RegLenGap], n: int) -> tuple[GapConstraint, bool]:
    """The clamped form of one windowed constraint, and whether lo > n."""
    lo, hi = constraint_window(c, n)
    infeasible = lo > n
    lo = min(lo, n + 1)
    hi = max(hi, lo)
    if isinstance(c, RegLenGap):
        return RegLenGap(lo, hi, c.dfa), infeasible
    return (ZeroGap() if hi == 0 else LengthGap(lo, hi)), infeasible


def normalize_constraints(
    constraints: Iterable[GapConstraint], n: int, sigma: int
) -> NormalizedConstraints:
    """The library's one constraint boundary: check, then clamp against n.

    Every entry point calls this (or normalize), so it is where a DFA that
    does not cover the symbols 1..sigma (see check_dfa_alphabet) and an
    object that is not a gap constraint raise InputError.  Upper bounds
    become min(hi, n) and lower bounds min(lo, n + 1), so no gap engine
    meets a bound past n + 1; a (0,0) window becomes ZeroGap; the
    infeasible flag is set when some lower bound exceeds n (that constraint
    can never be met inside a word of length n).

    The work is done once per distinct constraint.  Each constraint object
    is looked at once, and windowed constraints that agree on their class,
    their window and their DFA object share one normalized result, which is
    frozen and so safe to repeat.  A DFA is compared by identity and never
    hashed, since hashing a Dfa hashes its whole table.  Zero and regular
    constraints are returned as given.
    """
    constraints = tuple(constraints)
    # one entry per constraint object, in first-seen order, so the first
    # offending gap raises, as a gap-by-gap pass would
    distinct = {id(c): c for c in constraints}
    check_dfa_alphabet(distinct.values(), sigma)
    shared: dict[tuple, tuple[GapConstraint, bool]] = {}
    infeasible = False
    for ident, c in distinct.items():
        if isinstance(c, (LengthGap, RegLenGap)):
            key = (type(c), c.lo, c.hi, id(constraint_dfa(c)))
            got = shared.get(key)
            if got is None:
                got = shared[key] = _normalize_window(c, n)
            distinct[ident], bad = got
            infeasible = infeasible or bad
        elif not isinstance(c, (ZeroGap, RegularGap)):
            raise InputError(f"not a gap constraint: {c!r}")
    return NormalizedConstraints(tuple([distinct[id(c)] for c in constraints]), infeasible)


def normalize(gs: GappedSequence, n: int, sigma: int) -> Normalized:
    """Check and normalize the constraints of gs (see normalize_constraints)."""
    cs, infeasible = normalize_constraints(gs.constraints, n, sigma)
    return Normalized(GappedSequence(gs.pattern, cs), infeasible)
