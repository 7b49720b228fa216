"""Independent brute-force oracles and instance generators for the tests.

Everything here recomputes results from first principles (position
tuples via itertools.combinations, gap checks by direct inspection,
languages by enumerating all candidate strings) so the library code is
never used to check itself.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Optional, Sequence

from gapsub import (
    INF,
    Dfa,
    GapConstraint,
    GappedSequence,
    LengthGap,
    RegLenGap,
    RegularGap,
    Word,
    ZeroGap,
    match_naive,
)


def gap_ok(c: GapConstraint, gap: Sequence[int]) -> bool:
    if isinstance(c, ZeroGap):
        return len(gap) == 0
    if isinstance(c, LengthGap):
        return c.lo <= len(gap) <= c.hi
    q = c.dfa.initial
    for s in gap:
        q = c.dfa.table[q][s - 1]
    ok = q in c.dfa.finals
    if isinstance(c, RegLenGap):
        ok = ok and c.lo <= len(gap) <= c.hi
    return ok


def embeds_at(
    wsyms: Sequence[int],
    psyms: Sequence[int],
    gc: Sequence[GapConstraint],
    pos: Sequence[int],
) -> bool:
    if any(wsyms[i - 1] != a for i, a in zip(pos, psyms)):
        return False
    for j in range(len(pos) - 1):
        if not gap_ok(gc[j], wsyms[pos[j] : pos[j + 1] - 1]):
            return False
    return True


def brute_embeddings(w: Word, gs: GappedSequence) -> list[tuple[int, ...]]:
    """All embedding position tuples, by trying every combination."""
    n, k = len(w), len(gs.pattern)
    if k == 0:
        return [()]
    out = []
    for pos in itertools.combinations(range(1, n + 1), k):
        if embeds_at(w.symbols, gs.pattern.symbols, gs.constraints, pos):
            out.append(pos)
    return out


def brute_match(w: Word, gs: GappedSequence) -> bool:
    """Memoized recursive scan; fast enough for the reduction-size words."""
    wsyms, psyms, gc = w.symbols, gs.pattern.symbols, gs.constraints
    n, k = len(wsyms), len(psyms)

    @lru_cache(maxsize=None)
    def go(j: int, i: int) -> bool:
        if j == k:
            return True
        for i2 in range(i + 1, n + 1):
            if wsyms[i2 - 1] != psyms[j]:
                continue
            if j == 0 or gap_ok(gc[j - 1], wsyms[i : i2 - 1]):
                if go(j + 1, i2):
                    return True
        return False

    return go(0, 0)


def brute_lang_k(
    w: Word, gc: Sequence[GapConstraint], sigma: int, k: int
) -> set[tuple[int, ...]]:
    """All length-k strings that embed into w under gc."""
    out = set()
    for p in itertools.product(range(1, sigma + 1), repeat=k):
        if brute_match(w, GappedSequence(Word(p), tuple(gc))):
            out.add(p)
    return out


def brute_parikh(
    w: Word, gc: Sequence[GapConstraint], sigma: int, k: int
) -> dict[tuple[int, ...], int]:
    """Exact embedding count for every length-k string, nonzero entries only."""
    out = {}
    for p in itertools.product(range(1, sigma + 1), repeat=k):
        cnt = len(brute_embeddings(w, GappedSequence(Word(p), tuple(gc))))
        if cnt:
            out[p] = cnt
    return out


def plain_subsequence_set(w: Word, k: int) -> frozenset[tuple[int, ...]]:
    return frozenset(itertools.combinations(w.symbols, k))


def random_dfa(rng: random.Random, states: int, sigma: int) -> Dfa:
    table = tuple(
        tuple(rng.randrange(states) for _ in range(sigma)) for _ in range(states)
    )
    finals = frozenset(q for q in range(states) if rng.random() < 0.6)
    return Dfa(states, rng.randrange(states), finals, table)


def permutation_dfa(rng: random.Random, states: int, sigma: int) -> Dfa:
    """Random DFA in which every symbol permutes the states, like "the gap
    holds an even number of 1s"."""
    perms = [rng.sample(range(states), states) for _ in range(sigma)]
    table = tuple(tuple(perm[q] for perm in perms) for q in range(states))
    finals = frozenset(q for q in range(states) if rng.random() < 0.5)
    return Dfa(states, rng.randrange(states), finals, table)


def random_constraint(
    rng: random.Random, kind: str, sigma: int
) -> GapConstraint:
    if rng.random() < 0.2:
        return ZeroGap()
    if kind == "length":
        lo = rng.randint(0, 5)
        hi = INF if rng.random() < 0.15 else lo + rng.randint(0, 6)
        return LengthGap(lo, hi)
    if kind == "regular":
        return RegularGap(random_dfa(rng, rng.randint(1, 3), sigma))
    lo = rng.randint(0, 4)
    hi = INF if rng.random() < 0.15 else lo + rng.randint(0, 5)
    return RegLenGap(lo, hi, random_dfa(rng, rng.randint(1, 3), sigma))


def random_instance(
    rng: random.Random,
    kind: str,
    max_n: int = 25,
    max_k: int = 7,
    max_sigma: int = 4,
) -> tuple[Word, GappedSequence]:
    sigma = rng.randint(1, max_sigma)
    n = rng.randint(0, max_n)
    w = Word(tuple(rng.randint(1, sigma) for _ in range(n)))
    k = rng.randint(1, max_k)
    p = Word(tuple(rng.randint(1, sigma) for _ in range(k)))
    gc = tuple(random_constraint(rng, kind, sigma) for _ in range(k - 1))
    return w, GappedSequence(p, gc)


def all_words(sigma: int, lengths: Iterable[int]) -> list[Word]:
    out = []
    for n in lengths:
        for syms in itertools.product(range(1, sigma + 1), repeat=n):
            out.append(Word(syms))
    return out


class _SetFrontier:
    """Frontiers as sets of word positions, spread by direct gap checks."""

    def __init__(self, w: Word, gc: Sequence[GapConstraint], sigma: int):
        self.syms = w.symbols
        self.gc = tuple(gc)
        self.posmask = [frozenset()] + [
            frozenset(i for i, s in enumerate(self.syms, start=1) if s == a)
            for a in range(1, sigma + 1)
        ]

    def spread(self, frontier: frozenset, t: int) -> frozenset:
        n = len(self.syms)
        return frozenset(
            i
            for j in frontier
            for i in range(j + 1, n + 1)
            if gap_ok(self.gc[t], self.syms[j : i - 1])
        )

    def start(self, a: int) -> frozenset:
        return self.posmask[a]


def _uni_subtree(fr: _SetFrontier, sigma: int, k: int, a: int):
    count = 0
    stack = [(1, fr.start(a), (a,))]
    while stack:
        d, frontier, prefix = stack.pop()
        if not frontier:
            return (False, prefix + (1,) * (k - d), count + 1)
        if d == k:
            count += 1
            continue
        base = fr.spread(frontier, d - 1)
        pending = []
        for sym in range(1, sigma + 1):
            pending.append((d + 1, base & fr.posmask[sym], prefix + (sym,)))
        stack.extend(reversed(pending))
    return (True, None, count)


def _con_subtree(fl: _SetFrontier, fr: _SetFrontier, sigma: int, k: int, a: int):
    count = 0
    stack = [(1, fl.start(a), fr.start(a), (a,))]
    while stack:
        d, lfro, rfro, prefix = stack.pop()
        if not lfro:
            count += sigma ** (k - d)
            continue
        if d == k:
            count += 1
            if not rfro:
                return (False, prefix, count)
            continue
        lbase = fl.spread(lfro, d - 1)
        rbase = fr.spread(rfro, d - 1) if rfro else frozenset()
        pending = []
        for sym in range(1, sigma + 1):
            pending.append(
                (d + 1, lbase & fl.posmask[sym], rbase & fr.posmask[sym], prefix + (sym,))
            )
        stack.extend(reversed(pending))
    return (True, None, count)


def _merge_subtrees(results) -> tuple[bool, Optional[tuple[int, ...]], int]:
    count = 0
    for ok, witness, c in results:
        count += c
        if not ok:
            return (False, witness, count)
    return (True, None, count)


def reference_universality(w: Word, gc: Sequence[GapConstraint], sigma: int):
    """Memo-free lexicographic DFS, one subtree per first symbol in order:
    (decision, witness ids or None, candidates checked)."""
    k = len(gc) + 1
    fr = _SetFrontier(w, gc, sigma)
    subtrees = (_uni_subtree(fr, sigma, k, a) for a in range(1, sigma + 1))
    return _merge_subtrees(subtrees)


def reference_containment(w: Word, w2: Word, gc: Sequence[GapConstraint], sigma: int):
    """Memo-free containment DFS; same result triple as reference_universality."""
    k = len(gc) + 1
    fl, fr = _SetFrontier(w, gc, sigma), _SetFrontier(w2, gc, sigma)
    subtrees = (_con_subtree(fl, fr, sigma, k, a) for a in range(1, sigma + 1))
    return _merge_subtrees(subtrees)


def reference_equivalence(w: Word, w2: Word, gc: Sequence[GapConstraint], sigma: int):
    """Containment both ways, counts summed, witness from the failing direction."""
    ok, witness, c1 = reference_containment(w, w2, gc, sigma)
    if not ok:
        return (ok, witness, c1)
    ok, witness, c2 = reference_containment(w2, w, gc, sigma)
    return (ok, witness, c1 + c2)


def reference_match_with_equalities(w: Word, gs: GappedSequence, eq) -> Optional[tuple[int, ...]]:
    """Backtracking over the equality classes' common lengths, classes by
    smallest gap and lengths increasing, that reruns match_naive on every
    partial assignment and prunes where it fails.  A class's candidates are
    the lengths all its gaps can take in some match that ignores the
    equalities, read off bitmasks of the positions where each pattern
    symbol can sit in a match of the symbols before / after it.  Returns
    the canonical witness positions or None."""
    n, p = len(w), gs.pattern.symbols
    windows = [(0, 0) if isinstance(c, ZeroGap) else (c.lo, min(c.hi, n)) for c in gs.constraints]
    at = {a: sum(1 << i for i, s in enumerate(w.symbols, start=1) if s == a) for a in p}
    fwd, bwd = [0, at[p[0]]], [at[p[-1]]]
    for (lo, hi), a in zip(windows, p[1:]):
        fwd.append(at[a] & reduce(or_, [fwd[-1] << (ell + 1) for ell in range(lo, hi + 1)], 0))
    for (lo, hi), a in zip(reversed(windows), reversed(p[:-1])):
        bwd.insert(0, at[a] & reduce(or_, [bwd[0] >> (ell + 1) for ell in range(lo, hi + 1)], 0))
    bwd.insert(0, 0)
    classes = [cl for cl in eq.classes(len(p) - 1) if len(cl) >= 2]
    candidates = [
        [
            ell
            for ell in range(max(windows[g - 1][0] for g in cl), min(windows[g - 1][1] for g in cl) + 1)
            if all((fwd[g] << (ell + 1)) & bwd[g + 1] for g in cl)
        ]
        for cl in classes
    ]

    def attempt(idx: int, cons: list):
        found = match_naive(w, GappedSequence(gs.pattern, tuple(cons)))
        if found is None or idx == len(classes):
            return found
        for ell in candidates[idx]:
            nxt = list(cons)
            for g in classes[idx]:
                nxt[g - 1] = LengthGap(ell, ell)
            got = attempt(idx + 1, nxt)
            if got is not None:
                return got
        return None

    found = attempt(0, list(gs.constraints))
    return None if found is None else found.positions

