"""Hardness gadgets: encodings of classic problems as matching instances.

Each construction turns an instance of a source problem into words,
patterns, and constraints whose matching or analysis answer coincides
with the source answer, and ships with a brute-force solver for the
source problem so the two routes can be cross-checked:

- orthogonal bit vectors      -> window-constrained matching
- CNF satisfiability          -> set-cover rows -> non-universality
- independent set of size k   -> set-cover rows -> non-universality
- CNF satisfiability          -> non-equivalence over a binary alphabet
- 3-CNF satisfiability        -> matching with gap-length equalities

Alphabets are fixed glyph tables; symbol ids follow glyph order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core import (
    DEFAULT_BUDGET,
    INF,
    Alphabet,
    GapConstraint,
    GappedSequence,
    InputError,
    LengthGap,
    Word,
    ZeroGap,
    check_budget,
)
from .matchers import EqualitySystem

OV_ALPHABET = Alphabet.from_glyphs("01#@")
BIT_ALPHABET = Alphabet.from_glyphs("01")
BIN_ALPHABET = Alphabet.from_glyphs("ab")


# ---------------------------------------------------------------------------
# orthogonal vectors


@dataclass(frozen=True)
class OvInstance:
    """Two lists of n bit vectors of dimension d."""

    d: int
    a_vectors: tuple[tuple[int, ...], ...]
    b_vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_vectors", tuple(tuple(v) for v in self.a_vectors))
        object.__setattr__(self, "b_vectors", tuple(tuple(v) for v in self.b_vectors))
        if self.d < 1:
            raise InputError("dimension must be at least 1")
        if len(self.a_vectors) != len(self.b_vectors) or not self.a_vectors:
            raise InputError("need equally many vectors on both sides, at least one")
        for v in self.a_vectors + self.b_vectors:
            if len(v) != self.d:
                raise InputError(f"vector {v} does not have dimension {self.d}")
            if any(x not in (0, 1) for x in v):
                raise InputError(f"vector {v} has non-bit entries")

    @property
    def n(self) -> int:
        return len(self.a_vectors)


def solve_ov_bruteforce(inst: OvInstance) -> bool:
    """Is some a-vector orthogonal to some b-vector?"""
    for a in inst.a_vectors:
        for b in inst.b_vectors:
            if all(x * y == 0 for x, y in zip(a, b)):
                return True
    return False


def random_ov(n: int, d: int, seed: int) -> OvInstance:
    rng = random.Random(seed)

    def side() -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(n))

    return OvInstance(d, side(), side())


_SYM_0, _SYM_1, _SYM_HASH, _SYM_AT = 1, 2, 3, 4
_CODE_A = {0: (_SYM_0, _SYM_1, _SYM_0), 1: (_SYM_1, _SYM_0, _SYM_0)}
_CODE_B = {0: (_SYM_1, _SYM_0), 1: (_SYM_0, _SYM_1)}


def _ov_text_gadget(vec: tuple[int, ...]) -> list[int]:
    """15d-symbol text gadget: per coordinate, the bit's 3-symbol code framed
    by fixed separator tracks."""
    out: list[int] = []
    for bit in vec:
        out.append(_SYM_HASH)
        out.extend(_CODE_A[0])
        out.extend((_SYM_HASH, _SYM_HASH))
        out.extend(_CODE_A[bit])
        out.extend((_SYM_HASH, _SYM_HASH))
        out.extend(_CODE_A[0])
        out.append(_SYM_HASH)
    return out


class _PatternBuilder:
    """Accumulates pattern symbols with the constraint preceding each one;
    gaps with one upper bound share one constraint object."""

    def __init__(self, first: int) -> None:
        self.syms = [first]
        self.cons: list[GapConstraint] = []
        self.made: dict[int, GapConstraint] = {}

    def add(self, upper: int, sym: int) -> None:
        c = self.made.get(upper)
        if c is None:
            c = self.made[upper] = ZeroGap() if upper == 0 else LengthGap(0, upper)
        self.cons.append(c)
        self.syms.append(sym)


def ov_to_match(inst: OvInstance) -> tuple[Word, GappedSequence]:
    """Orthogonal vectors as a window-constrained matching instance.

    The word lists the a-vector gadgets twice around the middle one, each
    prefixed with a marker; the pattern chains the b-vector gadgets
    between two markers.  The pattern matches iff some a/b pair is
    orthogonal.  Needs d >= 2 so that the sliding windows are tight.
    """
    if inst.d < 2:
        raise InputError("the matching reduction needs dimension at least 2")
    n = inst.n
    wsyms: list[int] = []
    for v in inst.a_vectors[:-1]:
        wsyms.append(_SYM_AT)
        wsyms.extend(_ov_text_gadget(v))
    wsyms.append(_SYM_AT)
    wsyms.extend(_ov_text_gadget(inst.a_vectors[-1]))
    for v in inst.a_vectors[:-1]:
        wsyms.append(_SYM_AT)
        wsyms.extend(_ov_text_gadget(v))
    wsyms.append(_SYM_AT)

    pb = _PatternBuilder(_SYM_AT)
    for i, v in enumerate(inst.b_vectors):
        last = i == n - 1
        # window to the previous pattern symbol: 5 after the lead marker,
        # 6 between consecutive vector gadgets, 0 between blocks inside one
        for j, bit in enumerate(v):
            tail = j == len(v) - 1
            pb.add((5 if i == 0 else 6) if j == 0 else 0, _SYM_HASH)
            c1, c2 = _CODE_B[bit]
            pb.add(1, c1)
            pb.add(0, c2)
            pb.add(1, _SYM_HASH)
            if tail and last:
                break
            inner = 1 if tail else 0
            pb.add(inner, _SYM_HASH)
            pb.add(3, _SYM_HASH)
            pb.add(inner, _SYM_HASH)
            pb.add(3, _SYM_HASH)
    pb.add(5, _SYM_AT)
    return Word(tuple(wsyms)), GappedSequence(Word(tuple(pb.syms)), tuple(pb.cons))


# ---------------------------------------------------------------------------
# CNF formulas


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 1..num_vars; clauses are sets of nonzero literals.

    A clause containing both a literal and its negation would be a
    tautology and is rejected up front.
    """

    num_vars: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(frozenset(c) for c in self.clauses))
        if self.num_vars < 0:
            raise InputError("variable count must be nonnegative")
        for c in self.clauses:
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise InputError(f"literal {lit} out of range")
                if -lit in c:
                    raise InputError(f"clause {sorted(c)} is a tautology")


def solve_sat_bruteforce(f: CnfFormula, budget: int = DEFAULT_BUDGET) -> bool:
    """Satisfiability by assignment enumeration, guarded by the budget."""
    check_budget(2**f.num_vars, f"2^{f.num_vars} assignments", budget)
    for bits in range(2**f.num_vars):
        ok = True
        for clause in f.clauses:
            if not any(
                (bits >> (abs(lit) - 1)) & 1 == (1 if lit > 0 else 0) for lit in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


def random_cnf(
    num_vars: int, num_clauses: int, seed: int, arity: Optional[int] = None
) -> CnfFormula:
    """Random CNF; clauses have distinct variables so no tautologies arise.

    With arity None, clause sizes vary between 1 and min(3, num_vars)."""
    if num_vars < 1:
        raise InputError("need at least one variable")
    if num_clauses < 0:
        raise InputError("clause count must be nonnegative")
    if arity is not None and arity > num_vars:
        raise InputError("clause arity cannot exceed the variable count")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        size = arity if arity is not None else rng.randint(1, min(3, num_vars))
        chosen = rng.sample(range(1, num_vars + 1), size)
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(num_vars, tuple(clauses))


# ---------------------------------------------------------------------------
# graphs and independent sets


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 1..num_vertices, stored reflexively.

    The constructor adds every self-loop: the covering construction below
    relies on the edge relation being reflexive, which also keeps the
    chosen vertices pairwise distinct.  The edge list is canonical
    (sorted pairs, ascending), fixing the row order of the reduction.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise InputError("need at least one vertex")
        canon = set()
        for u, v in self.edges:
            if not (1 <= u <= self.num_vertices and 1 <= v <= self.num_vertices):
                raise InputError(f"edge ({u}, {v}) out of range")
            canon.add((min(u, v), max(u, v)))
        for u in range(1, self.num_vertices + 1):
            canon.add((u, u))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in set(self.edges)


def solve_kis_bruteforce(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Is there an independent set of k distinct vertices? (loops ignored)"""
    from itertools import combinations
    from math import comb

    if k < 0:
        raise InputError("set size must be nonnegative")
    if k == 0:
        return True
    if k > g.num_vertices:
        return False
    check_budget(comb(g.num_vertices, k), f"C({g.num_vertices}, {k}) sets", budget)
    edge_set = {e for e in g.edges if e[0] != e[1]}
    for combo in combinations(range(1, g.num_vertices + 1), k):
        if all(
            (combo[x], combo[y]) not in edge_set
            for x in range(k)
            for y in range(x + 1, k)
        ):
            return True
    return False


def random_graph(num_vertices: int, num_edges: int, seed: int) -> Graph:
    if num_edges < 0:
        raise InputError("edge count must be nonnegative")
    rng = random.Random(seed)
    pairs = [
        (u, v)
        for u in range(1, num_vertices + 1)
        for v in range(u + 1, num_vertices + 1)
    ]
    rng.shuffle(pairs)
    # Graph checks the vertex count, so a bad one is named before the edges
    graph = Graph(num_vertices, tuple(pairs[:num_edges]))
    if num_edges > len(pairs):
        raise InputError(
            f"edge count {num_edges} exceeds {len(pairs)}, the vertex pairs of {num_vertices} vertices"
        )
    return graph


# ---------------------------------------------------------------------------
# set-cover rows (the shared middle stage)


@dataclass(frozen=True)
class MetaNUniInstance:
    """q rows of k non-empty subsets of 1..gamma_size.

    Row i covers the strings whose j-th symbol lies in the j-th subset;
    the question is whether the rows fail to cover all of Gamma^k.
    """

    gamma_size: int
    k: int
    rows: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rows", tuple(tuple(frozenset(s) for s in row) for row in self.rows)
        )
        if self.gamma_size < 1 or self.k < 1:
            raise InputError("need gamma_size >= 1 and k >= 1")
        for row in self.rows:
            if len(row) != self.k:
                raise InputError(f"row has {len(row)} cells, expected {self.k}")
            for cell in row:
                if not cell:
                    raise InputError("row cells must be non-empty")
                if any(not 1 <= x <= self.gamma_size for x in cell):
                    raise InputError("row cell symbol out of range")

    @property
    def q(self) -> int:
        return len(self.rows)


def metanuni_holds_bruteforce(inst: MetaNUniInstance, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff some string in Gamma^k is covered by no row."""
    from itertools import product

    check_budget(inst.gamma_size**inst.k, f"{inst.gamma_size}^{inst.k} strings", budget)
    for x in product(range(1, inst.gamma_size + 1), repeat=inst.k):
        if not any(
            all(x[j] in row[j] for j in range(inst.k)) for row in inst.rows
        ):
            return True
    return False


def sat_to_metanuni(f: CnfFormula) -> MetaNUniInstance:
    """Clause rows cover exactly the falsifying assignments.

    Gamma = {1, 2} standing for false, true; the covering fails (some
    assignment is uncovered) iff the formula is satisfiable.
    """
    if f.num_vars < 1:
        raise InputError("the covering reduction needs at least one variable")
    rows = []
    for clause in f.clauses:
        row = []
        for j in range(1, f.num_vars + 1):
            if j in clause:
                row.append(frozenset({1}))
            elif -j in clause:
                row.append(frozenset({2}))
            else:
                row.append(frozenset({1, 2}))
        rows.append(tuple(row))
    return MetaNUniInstance(2, f.num_vars, tuple(rows))


def kis_to_metanuni(g: Graph, k: int) -> MetaNUniInstance:
    """Edge rows cover exactly the k-tuples that are not independent sets.

    Gamma is the vertex set.  For every edge (u, v), including the
    self-loops the Graph constructor added, and every ordered pair of
    distinct coordinates (r, s), one row pins coordinate r to u and
    coordinate s to v.  A string escapes all rows iff its entries are
    pairwise distinct and pairwise non-adjacent, so the covering fails
    iff the graph has an independent set of size k.  Rows are ordered
    row-major over (edge index, r, s).
    """
    if k < 1:
        raise InputError("set size must be at least 1")
    n = g.num_vertices
    full = frozenset(range(1, n + 1))
    rows = []
    for u, v in g.edges:
        for r in range(1, k + 1):
            for s in range(1, k + 1):
                if r == s:
                    continue
                row = [full] * k
                row[r - 1] = frozenset({u})
                row[s - 1] = frozenset({v})
                rows.append(tuple(row))
    return MetaNUniInstance(n, k, tuple(rows))


def metanuni_to_nuni(inst: MetaNUniInstance) -> tuple[Word, tuple[GapConstraint, ...]]:
    """Covering failure as non-universality of one word.

    Alphabet: 1..m for Gamma plus the filler m+1; constraints force every
    gap length into [m-1, 3m-1].  The word is a header block T, whose
    constrained subsequences are exactly the length-k strings using the
    filler at least once, followed by one block per row contributing that
    row's covered Gamma-strings.  The word is universal iff the rows
    cover Gamma^k.
    """
    m = inst.gamma_size
    k = inst.k
    hash_sym = m + 1
    gc = (LengthGap(m - 1, 3 * m - 1),) * (k - 1)
    gamma_run = tuple(range(1, m + 1))

    def filler(count: int) -> tuple[int, ...]:
        return (hash_sym,) * count

    # one list, extended in place: tuple += would copy the word each time
    word: list[int] = []
    for i in range(1, k + 1):
        if i > 1:
            word += filler(3 * m)
        for j in range(1, k + 1):
            if j != i:
                word += gamma_run
            word += filler(m)
    for row in inst.rows:
        word += filler(3 * m)
        for j, cell in enumerate(row):
            if j > 0:
                word += filler(m - 1)
            word += sorted(cell)
    return Word(tuple(word)), gc


def nuni_universal_word(gamma_size: int, k: int) -> Word:
    """Reference word whose constrained subsequences are all of Sigma^k."""
    m = gamma_size
    block = tuple(range(1, m + 1)) + (m + 1,) * m
    return Word(block * k)


# ---------------------------------------------------------------------------
# satisfiability as non-equivalence over a binary alphabet


def sat_to_nuni_binary(
    f: CnfFormula,
) -> tuple[Word, tuple[GapConstraint, ...], Word]:
    """Satisfiability as non-equivalence of two words over {a, b}.

    Assignments are encoded as length-2k strings in (aa|bb)^k; the
    pattern alternates zero gaps inside a variable's two symbols with
    (3, 9) windows between variables.  Returns (s, gc, reference): s is
    universal iff the clause rows cover every assignment encoding, and
    the reference word is universal outright, so equivalence of the two
    holds iff the formula is unsatisfiable.
    """
    if f.num_vars < 1:
        raise InputError("the binary reduction needs at least one variable")
    k = f.num_vars
    a, b = 1, 2
    aa = (a, a)
    abba = (a, b, b, a)
    aabba = (a, a, b, b, a)
    aba = (a, b, a)
    bab = (b, a, b)
    sep = (b,) + (a, b) * 5

    def joined(parts: list[tuple[int, ...]], glue: tuple[int, ...]) -> tuple[int, ...]:
        out: list[int] = []
        for idx, part in enumerate(parts):
            if idx:
                out += glue
            out += part
        return tuple(out)

    def clause_word(clause: frozenset[int]) -> tuple[int, ...]:
        parts = []
        for j in range(1, k + 1):
            if j in clause:
                parts.append(aa)
            elif -j in clause:
                parts.append(abba)
            else:
                parts.append(aabba)
        return joined(parts, bab)

    t_blocks = [
        joined([aba if j == i else aabba for j in range(1, k + 1)], bab)
        for i in range(1, k + 1)
    ]
    s = joined(t_blocks + [clause_word(c) for c in f.clauses], sep)
    # zero gaps inside a variable, (3, 9) windows between: one object each
    zero = ZeroGap()
    gc = (zero, LengthGap(3, 9)) * (k - 1) + (zero,)
    reference = (aabba + (b, b, b)) * k
    return Word(s), gc, Word(reference)


# ---------------------------------------------------------------------------
# 3-CNF as matching with gap-length equalities


def sat_to_match_equalities(
    f: CnfFormula,
) -> tuple[Word, GappedSequence, EqualitySystem]:
    """3-CNF satisfiability as matching with equal-length gap classes.

    Every clause must have exactly three (distinct) literals.  The
    pattern is a chain of 0/1 symbols whose gaps carry labels; gaps with
    the same label are tied to a common length by the equality system.
    The first pattern part pins each variable label to a length in
    {1, 2} (the truth value), the second replays the labels against
    wider runs so that a clause block can absorb its slack iff one of
    its literals is true.  All windows are unbounded.
    """
    n = f.num_vars
    if n < 1:
        raise InputError("the equality reduction needs at least one variable")
    for c in f.clauses:
        if len(c) != 3:
            raise InputError(
                f"clause {sorted(c)} has {len(c)} literals, the reduction needs exactly 3"
            )
    m = len(f.clauses)
    zero, one = 1, 2

    # gap labels: ('x', i), ('xp', i), ('y', i), ('yp', i), ('z', j), ('zp', j)
    labels: list[object] = []
    psyms: list[int] = [zero]

    def add(label: object, sym: int) -> None:
        labels.append(label)
        psyms.append(sym)

    for i in range(1, n + 1):
        if i > 1:
            add(("xp", i - 1), zero)
        add(("x", i), one)
    add(("xp", n), zero)
    for i in range(1, n + 1):
        add(("y", i), one)
        add(("yp", i), zero)
    for j in range(1, m + 1):
        add(("z", j), one)
        add(("zp", j), zero)
    # second part: variable replay then clause blocks
    for i in range(1, n + 1):
        add(("x", i), one)
        add(("y", i), zero)
    for j, clause in enumerate(f.clauses, start=1):
        for lit in sorted(clause):
            add(("x", abs(lit)) if lit > 0 else ("y", abs(lit)), one)
        add(("z", j), zero)

    word: list[int] = []
    for _ in range(n):
        word.extend((zero, one, one, one))
    for _ in range(n):
        word.extend((zero, one, one, one))
    for _ in range(m):
        word.extend((zero, one, one, one, one))
    for _ in range(n):
        word.extend((zero,) + (one,) * 4)
    for _ in range(m):
        word.extend((zero,) + (one,) * 10)
    word.append(zero)

    by_label: dict[object, list[int]] = {}
    for idx, lab in enumerate(labels, start=1):
        by_label.setdefault(lab, []).append(idx)
    pairs = []
    for members in by_label.values():
        pairs.extend((members[0], g) for g in members[1:])
    gs = GappedSequence(Word(tuple(psyms)), (LengthGap(0, INF),) * len(labels))
    return Word(tuple(word)), gs, EqualitySystem.from_pairs(pairs)
