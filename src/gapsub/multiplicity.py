"""Embedding multiplicities: exact counts and count-preserving equivalence.

Two words are multiplicity-equivalent when every length-k string embeds
in both the same number of times.  Counts move from one pattern symbol
to the next through GapStep.reach_counts, the count-valued gap step of
matchers.py, and a filter on the next symbol; this module has no gap walk
of its own.  count_embeddings takes that step once per gap, parikh_k once
per node of its search over prefixes, and CountingNfa.step once per
symbol on a path-count vector of the counting automaton, whose paths
labelled p correspond one-to-one to the embeddings of p.  Equivalence of
two counting automata is decided exactly, without enumerating strings, by
a basis computation over the reachable path-count vectors (Tzeng, SIAM J.
Comput. 1992); arithmetic is integer and exact, so counts beyond machine
range are handled verbatim.  The witness of a difference is the least
length-k string, in lexicographic order, whose counts differ.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from math import gcd
from operator import mul
from typing import Optional

from .analysis import DEFAULT_BUDGET, _check_budget, _prepare
from .core import (
    Alphabet,
    GappedSequence,
    Word,
    check_dfa_alphabet,
    normalize,
    normalize_constraints,
)
from .matchers import GapStep, _iter_bits


def _indicators(syms: tuple[int, ...]) -> dict[int, list[int]]:
    """Per symbol a of the word, the 0/1 list over positions 0..n holding a."""
    return {a: [0] + [int(s == a) for s in syms] for a in set(syms)}


def count_embeddings(w: Word, gs: GappedSequence) -> int:
    """Number of embeddings of gs in w, exact."""
    if len(gs.pattern) == 0:
        return 1
    check_dfa_alphabet(gs.constraints, max(w.symbols, default=0))
    gs, infeasible = normalize(gs, len(w))
    if infeasible:
        return 0
    syms = w.symbols
    p = gs.pattern.symbols
    at = _indicators(syms)
    if p[0] not in at:
        return 0
    cur = at[p[0]]
    for c, a in zip(gs.constraints, p[1:]):
        if a not in at:
            return 0
        cur = list(map(mul, GapStep(syms, c).reach_counts(cur), at[a]))
        if not any(cur):
            return 0
    return sum(cur)


def parikh_k(
    w: Word, gc, alphabet: Alphabet, *, budget: int = DEFAULT_BUDGET
) -> dict[Word, int]:
    """Multiplicity vector: every length-k string with its embedding count.

    Only strings with a positive count appear, in lexicographic order.
    Raises BudgetError when sigma**(len(gc)+1) exceeds the budget.
    """
    gc, infeasible = _prepare(w, gc, alphabet)
    sigma = alphabet.size
    k = len(gc) + 1
    _check_budget(sigma, k, budget)
    out: dict[Word, int] = {}
    if infeasible:
        return out
    syms = w.symbols
    at = _indicators(syms)
    present = [a for a in range(1, sigma + 1) if a in at]
    steps = [GapStep(syms, c) for c in gc]

    # the stack pops prefixes in lexicographic order; an entry holds its
    # last symbol and its parent's spread counts (None for a first symbol),
    # shared with its siblings
    path = [0] * k
    stack = [(1, None, a) for a in reversed(present)]
    while stack:
        d, spread, a = stack.pop()
        counts = at[a] if spread is None else list(map(mul, spread, at[a]))
        if not any(counts):
            continue
        path[d - 1] = a
        if d == k:
            out[Word(tuple(path))] = sum(counts)
            continue
        spread = steps[d - 1].reach_counts(counts)
        stack.extend((d + 1, spread, b) for b in reversed(present))
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
    in 0..n; step moves it on by one symbol through the gap kernel.
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
        self._at = _indicators(word.symbols)

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

    def step(
        self, vec: Optional[tuple[int, list[int]]], a: int
    ) -> Optional[tuple[int, list[int]]]:
        """Path counts after one more symbol a, or None once only the error
        state (which never accepts) is reached."""
        if vec is None or vec[0] == self.k or a not in self._at:
            return None
        j, counts = vec
        if j == 0:
            spread = [counts[0]] * len(counts)
        else:
            spread = self.steps[j - 1].reach_counts(counts)
        return (j + 1, list(map(mul, spread, self._at[a])))

    def accepted(self, vec: Optional[tuple[int, list[int]]]) -> int:
        """Paths of vec that end in a final state."""
        return sum(vec[1]) if vec is not None and vec[0] == self.k else 0


def build_counting_nfa(w: Word, gc) -> CountingNfa:
    """Counting automaton of w under gc (see CountingNfa)."""
    gc = tuple(gc)
    check_dfa_alphabet(gc, max(w.symbols, default=1))
    gcn, _ = normalize_constraints(gc, len(w))
    return CountingNfa(w, gcn, max(w.symbols, default=1))


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

    Breadth-first over word prefixes, keeping the vector of path counts
    per state of the disjoint union.  A vector already in the span of the
    basis adds nothing (path counts are linear in the vector), so only
    independent vectors, at most one per union state, spawn successors;
    the difference of the accepted counts must vanish on each.  The error
    states never accept, so their counts are left out.  Returns the
    decision and, when counts differ, the first string in length-then-
    lexicographic order whose counts differ.
    """
    sigma = max(n1.num_symbols, n2.num_symbols)
    offset2 = (n1.k + 1) * (len(n1.word) + 1)

    def flat(v1, v2) -> dict[int, int]:
        # coordinate of state (i, j) in the union: j * (n + 1) + i, then offset2
        out: dict[int, int] = {}
        for vec, base in ((v1, 0), (v2, offset2)):
            if vec is not None:
                j, counts = vec
                base += j * len(counts)
                out.update({base + i: c for i, c in enumerate(counts) if c})
        return out

    basis: dict[int, dict[int, int]] = {}
    queue: deque[tuple[tuple[int, ...], tuple]] = deque([((), (n1.start(), n2.start()))])
    while queue:
        word, (v1, v2) = queue.popleft()
        if not _insert_basis(flat(v1, v2), basis):
            continue
        if n1.accepted(v1) != n2.accepted(v2):
            return (False, Word(word))
        for a in range(1, sigma + 1):
            queue.append((word + (a,), (n1.step(v1, a), n2.step(v2, a))))
    return (True, None)


def equivalence_with_multiplicities(
    w: Word, w2: Word, gc
) -> tuple[bool, Optional[Word]]:
    """Multiplicity equivalence of two words under shared constraints.

    Builds both counting automata and compares accepting-path counts; the
    witness, when counts differ, is the lexicographically least length-k
    string whose embedding counts disagree.
    """
    return path_equivalent(build_counting_nfa(w, gc), build_counting_nfa(w2, gc))
