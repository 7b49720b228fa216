"""Embedding multiplicities: exact counts and count-preserving equivalence.

Two words are multiplicity-equivalent when every length-k string embeds
in both the same number of times.  One counting engine, CountingNfa,
serves the module: its paths labelled p correspond one-to-one to the
embeddings of p, and it moves a path-count vector on by one symbol with
one spread across the next gap (GapStep.reach_counts, the count-valued
gap step of matchers.py) and one filter on the symbol; this module has
no gap walk of its own.  A path-count vector is one int of fixed-width
lanes, one lane per word position, each vector with lanes wide enough
for its own counts and every sum its spread forms, so a spread over a
length window is a few shift-adds and a filter is one AND.
The spread takes a batch of vectors of one layer at once: for a DFA gap
the batch is one sweep of the word whatever its size, so callers hand it
whole layers.  count_embeddings steps one vector along the pattern,
parikh_k searches its prefixes depth-first, in lexicographic order, over
chunks of consecutive prefixes of one length, one batch per chunk, and
path_equivalent spreads each layer's kept vectors as one batch per
automaton, for all symbols at once.
Equivalence of two counting automata is decided exactly by a basis
computation over the reachable path-count vectors (Tzeng, SIAM J. Comput.
1992), one layer of prefixes of one length at a time: each layer has its
own basis of at most D = |w1| + |w2| + 2 rows.  Near the last layer a
basis prunes little, so once a layer r layers above the last holds
L >= sigma**r vectors and L * sigma**r <= sigma * r * D (sigma the
distinct symbols of the two words), it and every layer below enumerate
their prefixes without inserts, at most 2 * sigma * r * D vectors in all;
the last layer, which has no successors, is compared without rows.  The
basis rows hold the unpacked lanes, and arithmetic is integer and exact,
so counts beyond machine range are handled verbatim.  The witness of a
difference is the least length-k string, in lexicographic order, whose
counts differ.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
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
from .matchers import _iter_bits, _pack_lanes, _unpack_lanes, gap_steps

# Bits of count vectors one parikh_k chunk may hold (128 KiB), so the
# search's live vectors, at most k * sigma chunks, stay within k * sigma
# times that; a DFA spread of n = 200 gains little past 32 vectors a batch.
CHUNK_BITS = 1 << 20


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
    lanes = len(w) + 1
    # the stack pops chunks in lexicographic order: a chunk is up to
    # _chunk_size consecutive prefixes of one length, each with its
    # path-count vector, spread as one batch; a prefix with no path left
    # is never pushed
    stack = [[((), nfa.start())]]
    while stack:
        chunk = stack.pop()
        if chunk[0][1][0] == nfa.k:
            for prefix, vec in chunk:
                out[Word(prefix)] = nfa.accepted(vec)
            continue
        nexts = nfa.step_all([vec for _, vec in chunk])
        children = [
            (prefix + (a,), nxt)
            for (prefix, _), below in zip(chunk, nexts)
            for a, nxt in below.items()
        ]
        if children:
            size = _chunk_size(lanes, max(_lane_width(vec[2]) for _, vec in children))
            stack.extend(children[i : i + size] for i in reversed(range(0, len(children), size)))
    return out


class CountingNfa:
    """NFA whose accepting paths labelled p correspond one-to-one to embeddings.

    States are pairs (i, j): position i of the word holds the j-th pattern
    symbol.  The initial state is (0, 0), finals are the states with j = k,
    and a dead error state (n+1, k+1) absorbs every otherwise-undefined
    transition; transitions out of (0, 0) skip the gap check because the
    prefix before the first matched position is free.

    The automaton is held as the word and one GapStep per gap, built once
    per distinct normalized constraint and shared by the gaps that have it
    (gap_steps).  A count vector (j, V, bound) gives the number
    of paths ending in each state (i, j) of one layer j: V is one int of
    lanes of _lane_width(bound) bits, lane i holding the count at position
    i, for i in 0..n, and bound is at least the sum of the lanes; counts(vec)
    unpacks it.  A spread sums lanes, so every sum it forms is at most the
    lane sum, and the lane sum of its output is at most the lane sum times
    the most positions one position reaches across the gap (its window
    size).  step widens the lanes of the next layer to hold that product
    and, when the product needs wider lanes than the vector has, first
    takes the exact lane sum in place of the bound and repacks the lanes to
    fit the product: the lanes follow the counts, and no carry crosses a
    lane.  step moves a vector on by one symbol, and gives None once no
    path is left; step_all moves a batch of vectors of one layer on by
    every symbol at the cost of one spread of the batch, a single call of
    the count kernel at the batch's widest lane width.  Keeping the
    positions of a symbol is one AND with its lane mask.
    transitions lists the explicit transition relation, built on first
    access.

    The constructor takes constraints already normalized by
    normalize_constraints, as its callers count_embeddings, parikh_k and
    build_counting_nfa (the public door) make them.
    """

    def __init__(self, word: Word, constraints: tuple, num_symbols: int) -> None:
        self.word = word
        self.num_symbols = num_symbols
        self.k = len(constraints) + 1
        self.steps = gap_steps(word, constraints)
        self.initial = (0, 0)
        n = len(word)
        # per layer j, the most positions one position of layer j reaches:
        # any of 0..n from the start, at most the window size across a gap
        # (at least 1, so a bound never falls below the sums a spread forms)
        self._reach = [n + 1] + [max(1, step.hi - step.lo + 1) for step in self.steps]
        # lane i is 1 for every position i in 0..n: the spread of the start
        self._ones = _pack_lanes([1] * (n + 1), _lane_width(n + 1))
        self._lanes: dict[int, tuple[dict[int, int], list[tuple[int, int]]]] = {}

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

    def _lanes_of(self, width: int) -> tuple[dict[int, int], list[tuple[int, int]]]:
        """At one lane width: per symbol of the word, ascending, the mask of
        the lanes of the positions holding it, and accepted's rounds, (shift,
        mask) each, from lanes 0..n down to lane 0, each adding the upper
        half of the lanes onto the lower."""
        got = self._lanes.get(width)
        if got is None:
            syms = (0, *self.word.symbols)
            full = (1 << width) - 1
            at = {
                a: _pack_lanes([full if s == a else 0 for s in syms], width)
                for a in sorted(set(self.word.symbols))
            }
            folds = []
            lanes = len(syms)
            while lanes > 1:
                lanes = (lanes + 1) // 2
                folds.append((lanes * width, (1 << lanes * width) - 1))
            got = self._lanes[width] = (at, folds)
        return got

    def _sum(self, counts: int, width: int) -> int:
        # the lane sum fits one lane, so no fold carries out of one
        for shift, mask in self._lanes_of(width)[1]:
            counts = (counts & mask) + (counts >> shift)
        return counts

    def start(self) -> tuple[int, int, int]:
        """The count vector of the empty prefix: one path, in (0, 0)."""
        return (0, 1, 1)

    def counts(self, vec: tuple[int, int, int]) -> list[int]:
        """The path counts of vec, indexed by position 0..n."""
        return _unpack_lanes(vec[1], len(self.word) + 1, _lane_width(vec[2]))

    def _spread(self, vecs: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
        """For a batch of vectors of one layer j, the counts of each across
        the gap after layer j (the prefix before layer 1 is free), their lane
        width and a bound on their lane sum: one kernel call for the batch,
        at its widest lane width, each result at its own width."""
        n, j = len(self.word), vecs[0][0]
        reach = self._reach[j]
        batch, widths, bounds = [], [], []
        for _, counts, bound in vecs:
            width = _lane_width(bound)
            grown = bound * reach
            if grown >> width:
                # the bound asks for wider lanes: take the exact sum in its place
                grown = self._sum(counts, width) * reach
                fit = _lane_width(grown)
                if fit != width:
                    counts = _repack(counts, n, width, fit)
                    width = fit
            batch.append(counts)
            widths.append(width)
            bounds.append(grown)
        if j == 0:
            return [(counts * self._ones, w, b) for counts, w, b in zip(batch, widths, bounds)]
        top = max(widths)
        mixed = top != min(widths)
        if mixed:
            batch = [_repack(counts, n, width, top) for counts, width in zip(batch, widths)]
        spreads = self.steps[j - 1].reach_counts(batch, top)
        if mixed:
            spreads = [_repack(spread, n, top, width) for spread, width in zip(spreads, widths)]
        return list(zip(spreads, widths, bounds))

    def step(
        self, vec: Optional[tuple[int, int, int]], a: int
    ) -> Optional[tuple[int, int, int]]:
        """Path counts after one more symbol a, or None once only the error
        state (which never accepts) is reached."""
        if vec is None or vec[0] == self.k:
            return None
        [(spread, width, bound)] = self._spread([vec])
        counts = spread & self._lanes_of(width)[0].get(a, 0)
        return (vec[0] + 1, counts, bound) if counts else None

    def step_all(
        self, vecs: list[Optional[tuple[int, int, int]]]
    ) -> list[dict[int, tuple[int, int, int]]]:
        """For each vector of a batch of one layer, step(vec, a) for every
        symbol a it leaves a path for, in increasing order of a, from one
        spread of the batch; {} for None and for vectors of the last layer."""
        live = [vec for vec in vecs if vec is not None and vec[0] < self.k]
        spreads = iter(self._spread(live) if live else ())
        out = []
        for vec in vecs:
            nexts = {}
            if vec is not None and vec[0] < self.k:
                spread, width, bound = next(spreads)
                for a, mask in self._lanes_of(width)[0].items():
                    counts = spread & mask
                    if counts:
                        nexts[a] = (vec[0] + 1, counts, bound)
            out.append(nexts)
        return out

    def accepted(self, vec: Optional[tuple[int, int, int]]) -> int:
        """Paths of vec that end in a final state."""
        if vec is None or vec[0] != self.k:
            return 0
        return self._sum(vec[1], _lane_width(vec[2]))


def _lane_width(bound: int) -> int:
    """The least multiple of 64 bits that holds bound."""
    return 64 * max(1, -(-bound.bit_length() // 64))


def _chunk_size(lanes: int, width: int) -> int:
    """Prefixes per parikh_k chunk: as many vectors of lanes lanes, width
    bits each, as fill CHUNK_BITS, and at least one."""
    return max(1, CHUNK_BITS // (lanes * width))


def _repack(counts: int, n: int, width: int, fit: int) -> int:
    """The lanes 0..n of counts, width bits each, repacked fit bits wide."""
    return counts if fit == width else _pack_lanes(_unpack_lanes(counts, n + 1, width), fit)


def build_counting_nfa(w: Word, gc) -> CountingNfa:
    """Counting automaton of w under gc, normalized first (see CountingNfa)."""
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


def _enumerate_rest(sigma: int, rest: int, size: int, dim: int) -> bool:
    """Whether a layer of size vectors, rest layers above the last, and every
    layer below it keep all their vectors without basis inserts: when it
    holds at least sigma**rest vectors, so a basis would prune little, and
    size * sigma**rest, which bounds each layer below it, is at most
    sigma * rest * dim."""
    # past size's bit length sigma**rest > size for sigma > 1, so stop there
    grown = sigma ** min(rest, size.bit_length())
    return grown <= size and size * grown <= sigma * rest * dim


def path_equivalent(
    n1: CountingNfa, n2: CountingNfa
) -> tuple[bool, Optional[Word]]:
    """Do the two automata assign every string the same accepting-path count?

    Breadth-first over word prefixes, one layer per length, keeping the
    vector of path counts per state of the disjoint union (coordinate i of
    n1, len(n1.word) + 1 + i of n2); the difference of the accepted counts
    must vanish on every vector.  A vector in the span of its layer's basis,
    which holds vectors of lexicographically smaller prefixes, adds nothing
    (path counts are linear in the vector, so where one of its strings
    differs a smaller string differs too), and only independent vectors
    spawn successors: a layer has a basis of at most D = len(n1.word) +
    len(n2.word) + 2 rows.  Once a layer, r layers above the last, holds
    L >= sigma**r vectors and L * sigma**r <= sigma * r * D (_enumerate_rest;
    sigma is the number of distinct symbols of the two words), it and every
    layer below pass all their vectors on, at most 2 * sigma * r * D vectors
    in all.  The last layer, at depth
    max(n1.k, n2.k), is compared without rows.  Error states never accept
    and are left out.  Returns the decision and, when counts differ, the
    first string in length-then-lexicographic order whose counts differ.
    """
    offset2 = len(n1.word) + 1
    last = max(n1.k, n2.k)
    sigma = max(1, len(set(n1.word.symbols) | set(n2.word.symbols)))
    dim = len(n1.word) + len(n2.word) + 2
    enumerating = False
    layer = [((), n1.start(), n2.start())]
    for depth in range(last + 1):
        enumerating = enumerating or _enumerate_rest(sigma, last - depth, len(layer), dim)
        basis: dict[int, dict[int, int]] = {}
        kept = []
        for word, v1, v2 in layer:
            if n1.accepted(v1) != n2.accepted(v2):
                return (False, Word(word))
            if depth == last:
                continue
            if not enumerating:
                flat = dict(enumerate(n1.counts(v1))) if v1 else {}
                if v2:
                    flat.update(enumerate(n2.counts(v2), offset2))
                if not _insert_basis(flat, basis):
                    continue
            kept.append((word, v1, v2))
        # each automaton spreads the layer's kept vectors as one batch
        s1 = n1.step_all([v1 for _, v1, _ in kept])
        s2 = n2.step_all([v2 for _, _, v2 in kept])
        layer = [
            (word + (a,), b1.get(a), b2.get(a))
            for (word, _, _), b1, b2 in zip(kept, s1, s2)
            for a in sorted(b1.keys() | b2.keys())
        ]
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
