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

One search serves all three: universality is containment of Sigma^k,
a left side whose frontier never empties, in Sub(w).  The subtree under
a prefix of length d depends only on (d, left frontier, right
frontier), so the search memoises the subtrees it has proved contained
and skips them when the same key comes back.  The memo lives for one
call only; a hit is charged as the sigma**(k-d) candidates the skipped
subtree holds, so candidates_checked, the decision and the
lexicographically least witness are those of the plain enumeration.
The memo stops growing once its keys hold MEMO_BITS frontier bits,
which bounds its memory without changing any answer or count.  The
search is sequential; the workers keyword of the three analyses accepts
only 1.

classical_containment handles the unconstrained fixed-length case
through a product of subsequence automata instead of enumeration.
"""

from __future__ import annotations

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
    NormalizedConstraints,
    UsageError,
    Word,
    check_dfa_alphabet,
    normalize_constraints,
)
from .matchers import GapStep, position_masks

DEFAULT_BUDGET = 1 << 20

# Frontier bits the memo of one search may hold (8 MiB of masks); past
# this the search inserts nothing more and runs on with what it has.
MEMO_BITS = 1 << 26


@dataclass(frozen=True)
class AnalysisReport:
    decision: bool
    witness: Optional[Word]
    candidates_checked: int
    spreads: int = 0  # GapStep.reach calls the search made


class _WordFrontier:
    """Frontier arithmetic for one word under normalized constraints."""

    def __init__(self, syms: tuple[int, ...], gc: tuple[GapConstraint, ...], sigma: int):
        n = len(syms)
        masks = position_masks(syms, range(1, sigma + 1))
        self.posmask = [0] + [masks[a] for a in range(1, sigma + 1)]
        self.steps = [GapStep(syms, c) for c in gc]
        self.dead = any(step.lo > n for step in self.steps)
        self.spreads = 0

    def spread(self, frontier: int, t: int) -> int:
        """All positions reachable from the frontier across gap t (before the
        next symbol's position filter)."""
        self.spreads += 1
        return self.steps[t].reach(frontier)

    def start(self, a: int) -> int:
        return 0 if self.dead else self.posmask[a]


class _AllStrings:
    """The left side of universality: every string, a frontier that never empties."""

    spreads = 0

    def __init__(self, sigma: int):
        self.posmask = [1] * (sigma + 1)

    def spread(self, frontier: int, t: int) -> int:
        return 1

    def start(self, a: int) -> int:
        return 1


def _check_budget(sigma: int, k: int, budget: int) -> None:
    total = sigma**k
    if total > budget:
        raise BudgetError(
            f"enumerating {sigma}^{k} = {total} candidates exceeds the budget of {budget}"
        )


def _check_workers(workers: int) -> None:
    # kept only so that callers passing workers=1 keep working
    if workers != 1:
        raise UsageError(f"the analysis search is sequential; workers must be 1, not {workers}")


def _prepare(w: Word, gc, alphabet: Alphabet) -> NormalizedConstraints:
    """The one analysis preamble: w over the alphabet, every constraint DFA
    covering it, and the constraints normalized against |w|."""
    alphabet.validate_word(w)
    gc = tuple(gc)
    check_dfa_alphabet(gc, alphabet.size)
    return normalize_constraints(gc, len(w))


def _search(left, right, sigma: int, k: int) -> AnalysisReport:
    """Is every length-k string of the left side also a string of the right?

    Each side is a _WordFrontier, or _AllStrings on the left for
    universality.  The stack pops candidates in lexicographic order, so the
    first string of length k with a live left frontier and a dead right
    frontier is the lexicographically least counterexample, and it ends the
    search.  A subtree with a dead left frontier is vacuously contained and
    counted in bulk.  A key enters the memo when its node is expanded: a key
    holds its depth, so it cannot recur inside its own subtree, and any
    later pop of it comes after that subtree was searched to the end
    without a counterexample.
    """
    memo: set[tuple[int, int, int]] = set()
    room = MEMO_BITS
    count = 0
    path = [0] * k
    lpm, rpm = left.posmask, right.posmask
    stack = [(1, left.start(a), right.start(a), a) for a in range(sigma, 0, -1)]
    while stack:
        d, lfro, rfro, sym = stack.pop()
        path[d - 1] = sym
        if not lfro:
            count += sigma ** (k - d)
            continue
        if d == k:
            count += 1
            if not rfro:
                return AnalysisReport(False, Word(path), count, left.spreads + right.spreads)
            continue
        key = (d, lfro, rfro)
        if key in memo:
            count += sigma ** (k - d)
            continue
        bits = lfro.bit_length() + rfro.bit_length()
        if bits <= room:
            room -= bits
            memo.add(key)
        lbase = left.spread(lfro, d - 1)
        rbase = right.spread(rfro, d - 1) if rfro else 0
        # push in reverse so symbol 1 is explored first
        for s in range(sigma, 0, -1):
            stack.append((d + 1, lbase & lpm[s], rbase & rpm[s], s))
    return AnalysisReport(True, None, count, left.spreads + right.spreads)


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
    workers must be 1.
    """
    _check_workers(workers)
    gc, _ = _prepare(w, gc, alphabet)
    sigma = alphabet.size
    k = len(gc) + 1
    _check_budget(sigma, k, budget)
    return _search(_AllStrings(sigma), _WordFrontier(w.symbols, gc, sigma), sigma, k)


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
    string embedding in w but not in w2.  workers must be 1.
    """
    _check_workers(workers)
    gcl, _ = _prepare(w, gc, alphabet)
    gcr, _ = _prepare(w2, gc, alphabet)
    sigma = alphabet.size
    k = len(gcl) + 1
    _check_budget(sigma, k, budget)
    left = _WordFrontier(w.symbols, gcl, sigma)
    right = _WordFrontier(w2.symbols, gcr, sigma)
    return _search(left, right, sigma, k)


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
    workers must be 1.
    """
    _check_workers(workers)
    first = containment(w, w2, gc, alphabet, budget=budget)
    if not first.decision:
        return first
    second = containment(w2, w, gc, alphabet, budget=budget)
    return AnalysisReport(
        second.decision,
        second.witness,
        first.candidates_checked + second.candidates_checked,
        first.spreads + second.spreads,
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
