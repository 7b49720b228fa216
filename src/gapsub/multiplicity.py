"""Embedding multiplicities: exact counts and count-preserving equivalence.

Two words are multiplicity-equivalent when every length-k string embeds
in both the same number of times.  One counting engine, CountingNfa,
serves the module: its paths labelled p correspond one-to-one to the
embeddings of p, and it moves a path-count vector on by one symbol with
one spread across the next gap (GapStep.reach_counts, the count-valued
gap step of matchers.py) and one filter on the symbol; this module has
no gap walk of its own.  count_embeddings steps it along the pattern,
parikh_k searches its prefixes depth-first in lexicographic order, and
path_equivalent spreads each vector once for all symbols.  Equivalence
of two counting automata is decided exactly, without enumerating
strings, by a basis computation over the reachable path-count vectors
(Tzeng, SIAM J. Comput. 1992), one layer of prefixes of one length at a
time: each layer has its own basis of at most |w1| + |w2| + 2 rows, and
the last layer, which has no successors, is compared without rows.
Arithmetic is integer and exact, so counts beyond machine range are
handled verbatim.  The witness of a difference is the least length-k
string, in lexicographic order, whose counts differ.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import mul
from typing import Optional

from .analysis import _prepare
from .core import (
    DEFAULT_BUDGET,
    Alphabet,
    GappedSequence,
    Word,
    normalize,
    normalize_constraints,
)
from .matchers import GapStep, _iter_bits


def count_embeddings(w: Word, gs: GappedSequence) -> int:
    """Number of embeddings of gs in w, exact."""
    if len(gs.pattern) == 0:
        return 1
    sigma = max(w.symbols, default=0)
    gs, infeasible = normalize(gs, len(w), sigma)
    if infeasible:
        return 0
    nfa = CountingNfa(w, gs.constraints, sigma)
    vec = nfa.start()
    for a in gs.pattern.symbols:
        vec = nfa.step(vec, a)
    return nfa.accepted(vec)


def parikh_k(
    w: Word, gc, alphabet: Alphabet, *, budget: int = DEFAULT_BUDGET
) -> dict[Word, int]:
    """Multiplicity vector: every length-k string with its embedding count.

    Only strings with a positive count appear, in lexicographic order.
    Raises BudgetError when sigma**(len(gc)+1) exceeds the budget.
    """
    gc, infeasible = _prepare(w, gc, alphabet, budget)
    out: dict[Word, int] = {}
    if infeasible:
        return out
    nfa = CountingNfa(w, gc, alphabet.size)
    # the stack pops prefixes in lexicographic order, each with its
    # path-count vector; a prefix with no path left is never pushed
    stack = [((), nfa.start())]
    while stack:
        prefix, vec = stack.pop()
        if vec[0] == nfa.k:
            out[Word(prefix)] = nfa.accepted(vec)
            continue
        nexts = nfa.step_all(vec)
        stack.extend((prefix + (a,), nexts[a]) for a in reversed(nexts))
    return out


class CountingNfa:
    """NFA whose accepting paths labelled p correspond one-to-one to embeddings.

    States are pairs (i, j): position i of the word holds the j-th pattern
    symbol.  The initial state is (0, 0), finals are the states with j = k,
    and a dead error state (n+1, k+1) absorbs every otherwise-undefined
    transition; transitions out of (0, 0) skip the gap check because the
    prefix before the first matched position is free.

    The automaton is held as the word, its normalized constraints and one
    GapStep per constraint.  A count vector (j, counts) gives the number of
    paths ending in each state (i, j) of one layer j, counts indexed by i
    in 0..n; step moves it on by one symbol, step_all by every symbol at
    the cost of one spread, and both give None once no path is left.
    transitions lists the explicit transition relation, built on first
    access.
    """

    def __init__(self, word: Word, constraints: tuple, num_symbols: int) -> None:
        self.word = word
        self.constraints = constraints
        self.num_symbols = num_symbols
        self.k = len(constraints) + 1
        self.steps = [GapStep(word.symbols, c) for c in constraints]
        self.initial = (0, 0)
        # per symbol of the word, ascending: the 0/1 list over positions 0..n holding it
        syms = word.symbols
        self._at = {a: [0] + [int(s == a) for s in syms] for a in sorted(set(syms))}

    @cached_property
    def states(self) -> tuple[tuple[int, int], ...]:
        n, k = len(self.word), self.k
        inner = ((i, j) for i in range(1, n + 1) for j in range(1, k + 1))
        return ((0, 0), *inner, (n + 1, k + 1))

    @cached_property
    def finals(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, self.k) for i in range(1, len(self.word) + 1))

    @cached_property
    def transitions(self) -> dict[tuple[tuple[int, int], int], tuple[tuple[int, int], ...]]:
        syms, n, k = self.word.symbols, len(self.word), self.k
        symbols = range(1, self.num_symbols + 1)
        error = (n + 1, k + 1)
        out = {}
        for a in symbols:
            out[((0, 0), a)] = tuple((i, 1) for i in range(1, n + 1) if syms[i - 1] == a)
        for i in range(1, n + 1):
            for j in range(1, k + 1):
                by_symbol: dict[int, list[tuple[int, int]]] = {}
                if j < k:
                    for i2 in _iter_bits(self.steps[j - 1].reach(1 << i)):
                        by_symbol.setdefault(syms[i2 - 1], []).append((i2, j + 1))
                for a in symbols:
                    out[((i, j), a)] = tuple(by_symbol.get(a, ()))
        for key, targets in out.items():
            if not targets:
                out[key] = (error,)
        for a in symbols:
            out[(error, a)] = (error,)
        return out

    def start(self) -> tuple[int, list[int]]:
        """The count vector of the empty prefix: one path, in (0, 0)."""
        return (0, [1] + [0] * len(self.word))

    def _spread(self, vec: tuple[int, list[int]]) -> list[int]:
        # counts across the gap after layer j; the prefix before layer 1 is free
        j, counts = vec
        return [counts[0]] * len(counts) if j == 0 else self.steps[j - 1].reach_counts(counts)

    def _filter(self, j: int, spread: list[int], a: int) -> Optional[tuple[int, list[int]]]:
        counts = list(map(mul, spread, self._at[a]))
        return (j + 1, counts) if any(counts) else None

    def step(
        self, vec: Optional[tuple[int, list[int]]], a: int
    ) -> Optional[tuple[int, list[int]]]:
        """Path counts after one more symbol a, or None once only the error
        state (which never accepts) is reached."""
        if vec is None or vec[0] == self.k or a not in self._at:
            return None
        return self._filter(vec[0], self._spread(vec), a)

    def step_all(
        self, vec: Optional[tuple[int, list[int]]]
    ) -> dict[int, tuple[int, list[int]]]:
        """step(vec, a) for every symbol a it leaves a path for, in
        increasing order of a, from one spread of vec."""
        if vec is None or vec[0] == self.k:
            return {}
        spread = self._spread(vec)
        nexts = {a: self._filter(vec[0], spread, a) for a in self._at}
        return {a: nxt for a, nxt in nexts.items() if nxt is not None}

    def accepted(self, vec: Optional[tuple[int, list[int]]]) -> int:
        """Paths of vec that end in a final state."""
        return sum(vec[1]) if vec is not None and vec[0] == self.k else 0


def build_counting_nfa(w: Word, gc) -> CountingNfa:
    """Counting automaton of w under gc (see CountingNfa)."""
    sigma = max(w.symbols, default=1)
    gcn, _ = normalize_constraints(gc, len(w), sigma)
    return CountingNfa(w, gcn, sigma)


def _insert_basis(vec: dict[int, int], basis: dict[int, dict[int, int]]) -> bool:
    """Fraction-free echelon insertion; True when vec was independent."""
    v = {i: c for i, c in vec.items() if c}
    while v:
        p = min(v)
        row = basis.get(p)
        if row is None:
            g = 0
            for c in v.values():
                g = gcd(g, c)
            if v[p] < 0:
                g = -g
            basis[p] = {i: c // g for i, c in v.items()}
            return True
        lead = row[p]
        coef = v[p]
        nv: dict[int, int] = {}
        for i in set(v) | set(row):
            val = v.get(i, 0) * lead - row.get(i, 0) * coef
            if val:
                nv[i] = val
        v = nv
    return False


def path_equivalent(
    n1: CountingNfa, n2: CountingNfa
) -> tuple[bool, Optional[Word]]:
    """Do the two automata assign every string the same accepting-path count?

    Breadth-first over word prefixes, one layer per length, keeping the
    vector of path counts per state of the disjoint union (coordinate i of
    n1, len(n1.word) + 1 + i of n2); the difference of the accepted counts
    must vanish on every vector.  A vector in the span of its layer's basis
    adds nothing (path counts are linear in the vector), so only independent
    vectors spawn successors: each layer has a basis of at most
    len(n1.word) + len(n2.word) + 2 rows, and the last, at depth
    max(n1.k, n2.k), is compared without rows.  Error states never accept
    and are left out.  Returns the decision and, when counts differ, the
    first string in length-then-lexicographic order whose counts differ.
    """
    offset2 = len(n1.word) + 1
    last = max(n1.k, n2.k)
    layer = [((), n1.start(), n2.start())]
    for depth in range(last + 1):
        basis: dict[int, dict[int, int]] = {}
        below = []
        for word, v1, v2 in layer:
            if n1.accepted(v1) != n2.accepted(v2):
                return (False, Word(word))
            if depth == last:
                continue
            flat = dict(enumerate(v1[1])) if v1 else {}
            if v2:
                flat.update(enumerate(v2[1], offset2))
            if _insert_basis(flat, basis):
                s1, s2 = n1.step_all(v1), n2.step_all(v2)
                for a in sorted(s1.keys() | s2.keys()):
                    below.append((word + (a,), s1.get(a), s2.get(a)))
        layer = below
    return (True, None)


def equivalence_with_multiplicities(
    w: Word, w2: Word, gc
) -> tuple[bool, Optional[Word]]:
    """Multiplicity equivalence of two words under shared constraints.

    Builds both counting automata and compares accepting-path counts; the
    witness, when counts differ, is the lexicographically least length-k
    string whose embedding counts disagree.
    """
    gc = tuple(gc)
    return path_equivalent(build_counting_nfa(w, gc), build_counting_nfa(w2, gc))
