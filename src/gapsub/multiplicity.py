"""Embedding multiplicities: exact counts and count-preserving equivalence.

Two words are multiplicity-equivalent when every length-k string embeds
in both the same number of times.  Counting happens two ways that must
agree: a direct dynamic program over one pattern, and accepting-path
counts of a counting automaton whose paths labelled p correspond
one-to-one to the embeddings of p.  Equivalence of two counting automata
is decided exactly, without enumerating strings, by a basis computation
over the reachable path-count vectors; arithmetic is integer and exact,
so counts beyond machine range are handled verbatim.
"""

from __future__ import annotations

from collections import deque
from math import gcd
from typing import Optional

from .analysis import DEFAULT_BUDGET
from .automata import CountingNfa
from .core import (
    Alphabet,
    BudgetError,
    GappedSequence,
    Word,
    check_dfa_alphabet,
    constraint_dfa,
    constraint_window,
    normalize,
    normalize_constraints,
)


def _next_positions(syms: tuple[int, ...], n: int, c, j: int) -> list[int]:
    """Positions i > j that can host the next matched symbol: the gap
    w[j+1..i-1] satisfies c.  Symbol agreement is the caller's business."""
    lo, hi = constraint_window(c, n)
    dfa = constraint_dfa(c)
    if dfa is None:
        return list(range(j + 1 + lo, min(n, j + 1 + hi) + 1))
    out = []
    q = dfa.initial
    table, finals = dfa.table, dfa.finals
    if lo == 0 and q in finals and j + 1 <= n:
        out.append(j + 1)
    for e in range(j + 1, n + 1):
        glen = e - j
        if glen > hi:
            break
        q = table[q][syms[e - 1] - 1]
        if glen >= lo and q in finals and e + 1 <= n:
            out.append(e + 1)
    return out


def count_embeddings(w: Word, gs: GappedSequence) -> int:
    """Number of embeddings of gs in w, exact."""
    if len(gs.pattern) == 0:
        return 1
    check_dfa_alphabet(gs.constraints, max(w.symbols, default=0))
    gs, infeasible = normalize(gs, len(w))
    if infeasible:
        return 0
    syms = w.symbols
    n = len(syms)
    p = gs.pattern.symbols
    cur = [0] * (n + 1)
    for i in range(1, n + 1):
        if syms[i - 1] == p[0]:
            cur[i] = 1
    for t in range(1, len(p)):
        c = gs.constraints[t - 1]
        a = p[t]
        nxt = [0] * (n + 1)
        for j in range(1, n + 1):
            cj = cur[j]
            if cj:
                for i in _next_positions(syms, n, c, j):
                    if syms[i - 1] == a:
                        nxt[i] += cj
        cur = nxt
    return sum(cur)


def parikh_k(
    w: Word, gc, alphabet: Alphabet, *, budget: int = DEFAULT_BUDGET
) -> dict[Word, int]:
    """Multiplicity vector: every length-k string with its embedding count.

    Only strings with a positive count appear, in lexicographic order.
    Raises BudgetError when sigma**(len(gc)+1) exceeds the budget.
    """
    alphabet.validate_word(w)
    sigma = alphabet.size
    gc = tuple(gc)
    check_dfa_alphabet(gc, sigma)
    gc, infeasible = normalize_constraints(gc, len(w))
    k = len(gc) + 1
    total = sigma**k
    if total > budget:
        raise BudgetError(
            f"enumerating {sigma}^{k} = {total} candidates exceeds the budget of {budget}"
        )
    out: dict[Word, int] = {}
    if infeasible:
        return out
    syms = w.symbols
    n = len(syms)

    def rec(d: int, counts: list[int], prefix: tuple[int, ...]) -> None:
        if d == k:
            mass = sum(counts)
            if mass:
                out[Word(prefix)] = mass
            return
        c = gc[d - 1]
        spread = [0] * (n + 1)
        for j in range(1, n + 1):
            cj = counts[j]
            if cj:
                for i in _next_positions(syms, n, c, j):
                    spread[i] += cj
        for a in range(1, sigma + 1):
            nxt = [0] * (n + 1)
            alive = False
            for i in range(1, n + 1):
                if syms[i - 1] == a and spread[i]:
                    nxt[i] = spread[i]
                    alive = True
            if alive:
                rec(d + 1, nxt, prefix + (a,))

    for a in range(1, sigma + 1):
        counts0 = [0] * (n + 1)
        alive = False
        for i in range(1, n + 1):
            if syms[i - 1] == a:
                counts0[i] = 1
                alive = True
        if alive:
            rec(1, counts0, (a,))
    return out


def build_counting_nfa(w: Word, gc) -> CountingNfa:
    """Counting automaton of w under gc.

    States (i, j) mean position i carries the j-th pattern symbol; the
    initial state is (0, 0) and transitions out of it skip the gap check
    because the prefix before the first matched position is free.  Every
    otherwise-undefined transition goes to the dead error state, which
    loops on all symbols and is not final.
    """
    gc = tuple(gc)
    n = len(w)
    k = len(gc) + 1
    syms = w.symbols
    sigma = max(syms, default=1)
    check_dfa_alphabet(gc, sigma)
    gcn, _ = normalize_constraints(gc, n)
    error = (n + 1, k + 1)
    states: list[tuple[int, int]] = [(0, 0)]
    states.extend((i, j) for i in range(1, n + 1) for j in range(1, k + 1))
    states.append(error)
    transitions: dict[tuple[tuple[int, int], int], tuple[tuple[int, int], ...]] = {}
    occs: dict[int, list[int]] = {}
    for i, a in enumerate(syms, start=1):
        occs.setdefault(a, []).append(i)
    for a in range(1, sigma + 1):
        targets = tuple((i, 1) for i in occs.get(a, ()))
        transitions[((0, 0), a)] = targets if targets else (error,)
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            for a in range(1, sigma + 1):
                if j < k:
                    nxt = tuple(
                        (i2, j + 1)
                        for i2 in _next_positions(syms, n, gcn[j - 1], i)
                        if syms[i2 - 1] == a
                    )
                else:
                    nxt = ()
                transitions[((i, j), a)] = nxt if nxt else (error,)
    for a in range(1, sigma + 1):
        transitions[(error, a)] = (error,)
    finals = frozenset((i, k) for i in range(1, n + 1))
    return CountingNfa(tuple(states), (0, 0), finals, transitions, sigma)


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
    the signed final-state sum must vanish on each.  Returns the decision
    and, when counts differ, a word witnessing the difference.
    """
    sigma = max(n1.num_symbols, n2.num_symbols)
    idx: dict[tuple[int, tuple[int, int]], int] = {}
    owner: list[tuple[int, CountingNfa, tuple[int, int]]] = []
    for tag, nfa in ((0, n1), (1, n2)):
        for s in nfa.states:
            idx[(tag, s)] = len(owner)
            owner.append((tag, nfa, s))
    sign = [0] * len(owner)
    for s in n1.finals:
        sign[idx[(0, s)]] += 1
    for s in n2.finals:
        sign[idx[(1, s)]] -= 1

    def diff(v: dict[int, int]) -> int:
        return sum(c * sign[i] for i, c in v.items())

    def step(v: dict[int, int], a: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, c in v.items():
            tag, nfa, s = owner[i]
            for t in nfa.transitions.get((s, a), ()):
                j = idx[(tag, t)]
                out[j] = out.get(j, 0) + c
        return out

    v0 = {idx[(0, n1.initial)]: 1, idx[(1, n2.initial)]: 1}
    basis: dict[int, dict[int, int]] = {}
    queue: deque[tuple[tuple[int, ...], dict[int, int]]] = deque([((), v0)])
    while queue:
        word, v = queue.popleft()
        if not _insert_basis(v, basis):
            continue
        if diff(v) != 0:
            return (False, Word(word))
        for a in range(1, sigma + 1):
            queue.append((word + (a,), step(v, a)))
    return (True, None)


def equivalence_with_multiplicities(
    w: Word, w2: Word, gc
) -> tuple[bool, Optional[Word]]:
    """Multiplicity equivalence of two words under shared constraints.

    Builds both counting automata and compares accepting-path counts; the
    witness, when counts differ, is a length-k string whose embedding
    counts disagree.
    """
    return path_equivalent(build_counting_nfa(w, gc), build_counting_nfa(w2, gc))
