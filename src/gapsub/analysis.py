"""Analysis of the set of gap-constrained subsequences of a word.

Sub(w) under a tuple of k-1 gap constraints is the set of length-k words
that embed in w with all gaps satisfied.  This module decides
universality (Sub(w) = Sigma^k), containment (Sub(w) included in
Sub(w2)) and equivalence, by lexicographic depth-first enumeration over
candidate strings.  The state per candidate prefix is a frontier, the
bitmask of word positions where the prefix's last symbol can sit; an
empty frontier kills the whole subtree at once.  All three problems are
hard in general, so enumeration is guarded by an explicit budget on
sigma**k.

classical_containment handles the unconstrained fixed-length case
through a product of subsequence automata instead of enumeration.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .automata import (
    build_co_subsequence_automaton,
    build_subsequence_automaton,
    product_shortest_accepted,
)
from .core import (
    Alphabet,
    BudgetError,
    GapConstraint,
    InputError,
    Word,
    constraint_dfa,
    normalize_constraints,
)
from .matchers import GapStep, position_masks

DEFAULT_BUDGET = 1 << 20


@dataclass(frozen=True)
class AnalysisReport:
    decision: bool
    witness: Optional[Word]
    candidates_checked: int


class _WordFrontier:
    """Frontier arithmetic for one word under normalized constraints."""

    def __init__(self, syms: tuple[int, ...], gc: tuple[GapConstraint, ...], sigma: int):
        n = len(syms)
        masks = position_masks(syms, range(1, sigma + 1))
        self.posmask = [0] + [masks[a] for a in range(1, sigma + 1)]
        for c in gc:
            d = constraint_dfa(c)
            if d is not None and d.num_symbols < sigma:
                raise InputError("constraint DFA does not cover the alphabet")
        self.steps = [GapStep(syms, c) for c in gc]
        self.dead = any(step.lo > n for step in self.steps)

    def spread(self, frontier: int, t: int) -> int:
        """All positions reachable from the frontier across gap t (before the
        next symbol's position filter)."""
        return self.steps[t].reach(frontier)

    def start(self, a: int) -> int:
        return 0 if self.dead else self.posmask[a]


def _check_budget(sigma: int, k: int, budget: int) -> None:
    total = sigma**k
    if total > budget:
        raise BudgetError(
            f"enumerating {sigma}^{k} = {total} candidates exceeds the budget of {budget}"
        )


def _prepare(w: Word, gc, alphabet: Alphabet):
    alphabet.validate_word(w)
    gc = tuple(gc)
    for c in gc:
        if not isinstance(c, GapConstraint.__args__):
            raise InputError(f"not a gap constraint: {c!r}")
    norm, _ = normalize_constraints(gc, len(w))
    return norm


def _uni_subtree(args) -> tuple[bool, Optional[tuple[int, ...]], int]:
    """Universality check restricted to candidates starting with symbol a.

    Returns (all present, witness ids or None, candidates checked).  The
    witness is the lexicographically least absent string in the subtree:
    depth-first order visits candidates in lexicographic order and an
    empty frontier at a prefix pins the absent string as that prefix
    padded with symbol 1.
    """
    wsyms, gc, sigma, k, a = args
    fr = _WordFrontier(wsyms, gc, sigma)
    count = 0
    stack = [(1, fr.start(a), (a,))]
    while stack:
        d, frontier, prefix = stack.pop()
        if frontier == 0:
            # emptiness is only judged at pop time, so this is the
            # lexicographically least failing prefix; pad with symbol 1
            return (False, prefix + (1,) * (k - d), count + 1)
        if d == k:
            count += 1
            continue
        base = fr.spread(frontier, d - 1)
        pending = []
        for sym in range(1, sigma + 1):
            pending.append((d + 1, base & fr.posmask[sym], prefix + (sym,)))
        # push in reverse so symbol 1 is explored first
        stack.extend(reversed(pending))
    return (True, None, count)


def _con_subtree(args) -> tuple[bool, Optional[tuple[int, ...]], int]:
    """Containment check restricted to candidates starting with symbol a.

    Tracks one frontier per word; a subtree with an empty left frontier
    is vacuously contained and accounted for in bulk, and a candidate
    reaching depth k with a live left frontier and a dead right frontier
    is the lexicographically least counterexample.
    """
    wsyms, w2syms, gc, gc2, sigma, k, a = args
    fl = _WordFrontier(wsyms, gc, sigma)
    fr = _WordFrontier(w2syms, gc2, sigma)
    count = 0
    stack = [(1, fl.start(a), fr.start(a), (a,))]
    while stack:
        d, lfro, rfro, prefix = stack.pop()
        if lfro == 0:
            # nothing from w in this subtree: vacuously contained, count in bulk
            count += sigma ** (k - d)
            continue
        if d == k:
            count += 1
            if rfro == 0:
                return (False, prefix, count)
            continue
        lbase = fl.spread(lfro, d - 1)
        rbase = fr.spread(rfro, d - 1) if rfro else 0
        pending = []
        for sym in range(1, sigma + 1):
            pending.append(
                (d + 1, lbase & fl.posmask[sym], rbase & fr.posmask[sym], prefix + (sym,))
            )
        stack.extend(reversed(pending))
    return (True, None, count)


def _run_partitions(worker, per_symbol_args, sigma: int, workers: int):
    """Run a per-first-symbol worker over all symbols, sequentially or in
    a process pool, and merge in increasing symbol order."""
    if workers <= 1:
        results = []
        for args in per_symbol_args:
            res = worker(args)
            results.append(res)
            if not res[0]:
                break
    else:
        with ProcessPoolExecutor(max_workers=min(workers, sigma)) as pool:
            results = list(pool.map(worker, per_symbol_args))
    count = 0
    for ok, witness, c in results:
        count += c
        if not ok:
            return (False, witness, count)
    return (True, None, count)


def universality(
    w: Word,
    gc,
    alphabet: Alphabet,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> AnalysisReport:
    """Does every length-k string embed in w under the constraints?

    The witness of a negative answer is the lexicographically least
    absent string.  Raises BudgetError when sigma**k exceeds the budget.
    """
    gc = _prepare(w, gc, alphabet)
    sigma = alphabet.size
    k = len(gc) + 1
    _check_budget(sigma, k, budget)
    wsyms = w.symbols
    args = [(wsyms, gc, sigma, k, a) for a in range(1, sigma + 1)]
    ok, witness, count = _run_partitions(_uni_subtree, args, sigma, workers)
    return AnalysisReport(ok, None if witness is None else Word(witness), count)


def containment(
    w: Word,
    w2: Word,
    gc,
    alphabet: Alphabet,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> AnalysisReport:
    """Is every constrained subsequence of w also one of w2?

    The witness of a negative answer is the lexicographically least
    string embedding in w but not in w2.
    """
    gcl = _prepare(w, gc, alphabet)
    gcr = _prepare(w2, gc, alphabet)
    sigma = alphabet.size
    k = len(gcl) + 1
    _check_budget(sigma, k, budget)
    args = [
        (w.symbols, w2.symbols, gcl, gcr, sigma, k, a) for a in range(1, sigma + 1)
    ]
    ok, witness, count = _run_partitions(_con_subtree, args, sigma, workers)
    return AnalysisReport(ok, None if witness is None else Word(witness), count)


def equivalence(
    w: Word,
    w2: Word,
    gc,
    alphabet: Alphabet,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> AnalysisReport:
    """Do w and w2 have the same set of constrained subsequences?

    Decided as containment in both directions; the witness comes from
    the failing direction and lies in the symmetric difference.
    """
    first = containment(w, w2, gc, alphabet, budget=budget, workers=workers)
    if not first.decision:
        return first
    second = containment(w2, w, gc, alphabet, budget=budget, workers=workers)
    return AnalysisReport(
        second.decision,
        second.witness,
        first.candidates_checked + second.candidates_checked,
    )


def classical_containment(
    w: Word, w2: Word, k: int
) -> tuple[bool, Optional[Word]]:
    """Unconstrained fixed-length containment via a product of automata.

    Decides whether every length-k plain subsequence of w is also a
    subsequence of w2, by searching the product of w's subsequence
    automaton and w2's co-subsequence automaton for a common word of
    length at most k.  Any shorter counterexample extends to a length-k
    one inside w, which is why the product criterion needs |w| >= k;
    when |w| < k the left set is empty and containment holds vacuously.
    Returns (decision, counterexample word or None).
    """
    if k < 0:
        raise InputError("length bound must be nonnegative")
    if len(w) < k:
        return (True, None)
    sigma = max(max(w.symbols, default=1), max(w2.symbols, default=1))
    sub = build_subsequence_automaton(w, sigma)
    cosub = build_co_subsequence_automaton(w2, sigma)
    found = product_shortest_accepted(sub, cosub, k)
    if found is None:
        return (True, None)
    return (False, found)
