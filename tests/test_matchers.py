import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gapsub import (
    INF,
    Alphabet,
    Dfa,
    Embedding,
    EqualitySystem,
    GappedSequence,
    InputError,
    LengthGap,
    RegLenGap,
    RegularGap,
    UsageError,
    Word,
    ZeroGap,
    match,
    match_naive,
    match_with_equalities,
    pattern_blocks,
    sigma_star_dfa,
    verify_embedding,
)
from gapsub import matchers
from gapsub.core import constraint_allows
from gapsub.matchers import GapStep
from gapsub.reductions import CnfFormula, random_cnf, sat_to_match_equalities
from helpers import (
    brute_embeddings,
    gap_ok,
    random_constraint,
    random_dfa,
    random_instance,
    reference_match_with_equalities,
)

ABC = Alphabet.from_glyphs("abc")


def w(s):
    return Word(tuple(ABC.id_of(ch) for ch in s))


FREE2 = (LengthGap(0, INF), LengthGap(0, INF))


def test_worked_example_single_embedding():
    word = w("abacbba")
    gs = GappedSequence(w("aaa"), FREE2)
    assert brute_embeddings(word, gs) == [(1, 3, 7)]
    for fn in (match_naive, match):
        e = fn(word, gs)
        assert e is not None and e.positions == (1, 3, 7)


def test_worked_example_two_embeddings():
    word = w("abacbba")
    gs = GappedSequence(w("cba"), FREE2)
    assert brute_embeddings(word, gs) == [(4, 5, 7), (4, 6, 7)]
    e = match_naive(word, gs)
    assert e is not None and verify_embedding(word, gs, e)
    # canonical witness: leftmost last position, then least predecessors
    assert e.positions == (4, 5, 7) == match(word, gs).positions


def test_empty_pattern_always_matches():
    for fn in (match_naive, match):
        e = fn(w(""), GappedSequence(w(""), ()))
        assert e is not None and e.positions == ()


def test_pattern_blocks_split_at_nonzero():
    gs = GappedSequence(
        w("abcab"),
        (ZeroGap(), LengthGap(1, 2), LengthGap(0, 0), RegularGap(sigma_star_dfa(3))),
    )
    blocks, joints = pattern_blocks(gs)
    assert blocks == [w("ab").symbols, w("ca").symbols, w("b").symbols]
    assert len(joints) == 2
    assert isinstance(joints[0], LengthGap)


def test_pattern_blocks_all_zero():
    gs = GappedSequence(w("aba"), (ZeroGap(), LengthGap(0, 0)))
    blocks, joints = pattern_blocks(gs)
    assert blocks == [w("aba").symbols]
    assert joints == []


def test_narrow_dfa_rejected():
    gs = GappedSequence(w("ab"), (RegularGap(sigma_star_dfa(1)),))
    with pytest.raises(InputError):
        match(w("abc"), gs)
    gs2 = GappedSequence(w("ab"), (RegLenGap(0, 2, sigma_star_dfa(1)),))
    with pytest.raises(InputError):
        match(w("abc"), gs2)


def test_match_dispatcher_picks_an_algorithm():
    # the gap step picks its case from the constraint alone
    word = w("abacbba")
    star = sigma_star_dfa(3)
    cases = [
        (LengthGap(0, 3), None),
        (RegularGap(star), False),
        (RegLenGap(0, INF, star), False),
        (RegLenGap(0, 99, star), False),
        (RegLenGap(1, 4, star), True),
        (RegLenGap(0, 4, star), True),
    ]
    for c, windowed in cases:
        step = GapStep(word.symbols, c)
        assert (step.dfa is None) == (windowed is None)
        if windowed is not None:
            assert step.windowed == windowed
        gs = GappedSequence(w("aa"), (c,))
        assert match(word, gs).positions == match_naive(word, gs).positions


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matchers_agree_with_bruteforce(data):
    kind = data.draw(st.sampled_from(["length", "regular", "reglen"]))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    word, gs = random_instance(rng, kind, max_n=10, max_k=4, max_sigma=3)
    want = bool(brute_embeddings(word, gs))
    a = match_naive(word, gs)
    b = match(word, gs)
    assert (a is not None) == want
    assert (b is not None) == want
    if b is not None:
        assert verify_embedding(word, gs, b)
        assert b.positions == a.positions


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dfa_gap_step_matches_quadratic_reference(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    n = rng.randint(0, 14)
    sigma = rng.randint(1, 3)
    syms = tuple(rng.randint(1, sigma) for _ in range(n))
    starts = sorted(rng.sample(range(0, n + 1), rng.randint(0, n + 1)))
    lo = rng.randint(0, n + 1)
    hi = INF if rng.random() < 0.2 else lo + rng.randint(0, n)
    dfa = random_dfa(rng, rng.randint(1, 4), sigma)
    step = GapStep(syms, RegLenGap(lo, hi, dfa))
    # the drawn starts, every single start (the windowed sweep stops after
    # the last start's window) and both ends (its traces reset in between)
    for case in [starts, [0, n]] + [[j] for j in range(n + 1)]:
        mask = sum(1 << j for j in case)
        got = step.reach(mask)
        for i in range(1, n + 1):
            feasible = [
                j for j in case if j < i and lo <= i - 1 - j <= hi and dfa.run(syms[j : i - 1])
            ]
            assert bool(got >> i & 1) == bool(feasible), (i, feasible)
            if feasible and feasible[0] >= 1:
                assert step.pred(mask, i) == feasible[0]
        assert got >> (n + 1) == 0 and got & 1 == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reach_counts_matches_quadratic_reference(data):
    kind = data.draw(st.sampled_from(["zero", "length", "regular", "reglen"]))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    n = rng.randint(0, 14)
    sigma = rng.randint(1, 3)
    syms = tuple(rng.randint(1, sigma) for _ in range(n))
    lo = rng.randint(0, n + 1)
    hi = INF if rng.random() < 0.2 else lo + rng.randint(0, n)
    dfa = random_dfa(rng, rng.randint(1, 4), sigma)
    c = {
        "zero": ZeroGap(),
        "length": LengthGap(lo, hi),
        "regular": RegularGap(dfa),
        "reglen": RegLenGap(lo, hi, dfa),
    }[kind]
    vec = [rng.choice((0, 0, 1, 3, 2**64 + rng.randint(1, 2**70))) for _ in range(n + 1)]
    step = GapStep(syms, c)
    # the drawn vector, every single start (the windowed sweep stops after
    # the last start's window) and both ends (its traces reset in between)
    singles = [[0] * j + [vec[j] or 1] + [0] * (n - j) for j in range(n + 1)]
    ends = [2] + [0] * (n - 1) + [3] if n else [5]
    for case in [vec, ends] + singles:
        got = step.reach_counts(case)
        want = [0] + [
            sum(case[j] for j in range(i) if constraint_allows(c, syms[j : i - 1]))
            for i in range(1, n + 1)
        ]
        assert got == want
        support = sum(1 << j for j, x in enumerate(case) if x)
        assert sum(1 << i for i, x in enumerate(got) if x) == step.reach(support)


def test_equality_system_classes():
    eq = EqualitySystem.from_pairs([(1, 3), (3, 5), (2, 4)])
    assert eq.classes(5) == [(1, 3, 5), (2, 4)]
    with pytest.raises(InputError):
        EqualitySystem.from_pairs([(0, 1)])
    with pytest.raises(InputError):
        EqualitySystem.from_pairs([(1, 9)]).classes(5)


def test_equality_satisfied_by():
    word = w("abcabca")
    eq = EqualitySystem.from_pairs([(1, 2)])
    assert eq.satisfied_by(word, Embedding((1, 3, 5)))
    assert not eq.satisfied_by(word, Embedding((1, 2, 7)))


def _brute_match_with_eq(word, gs, eq):
    for pos in brute_embeddings(word, gs):
        lens = [pos[j + 1] - pos[j] - 1 for j in range(len(pos) - 1)]
        ok = all(
            lens[a - 1] == lens[b - 1]
            for a, b in eq.pairs
        )
        if ok:
            return pos
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equality_matching_agrees_with_bruteforce(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = rng.randint(1, 3)
    n = rng.randint(0, 10)
    word = Word(tuple(rng.randint(1, sigma) for _ in range(n)))
    k = rng.randint(2, 4)
    p = Word(tuple(rng.randint(1, sigma) for _ in range(k)))
    gc = tuple(random_constraint(rng, "length", sigma) for _ in range(k - 1))
    gs = GappedSequence(p, gc)
    pairs = []
    for _ in range(rng.randint(0, 2)):
        a = rng.randint(1, k - 1)
        b = rng.randint(1, k - 1)
        if a != b:
            pairs.append((a, b))
    eq = EqualitySystem.from_pairs(pairs)
    want = _brute_match_with_eq(word, gs, eq)
    got = match_with_equalities(word, gs, eq)
    assert (got is not None) == (want is not None)
    if got is not None:
        assert verify_embedding(word, gs, got)
        assert eq.satisfied_by(word, got)
        # canonical witness: the least feasible class lengths, then match's witness
        classes = [cl for cl in eq.classes(k - 1) if len(cl) >= 2]
        least = min(
            tuple(pos[cl[0]] - pos[cl[0] - 1] - 1 for cl in classes)
            for pos in brute_embeddings(word, gs)
            if eq.satisfied_by(word, Embedding(pos))
        )
        fixed = list(gc)
        for cl, ell in zip(classes, least):
            for g in cl:
                fixed[g - 1] = LengthGap(ell, ell)
        assert got.positions == match(word, GappedSequence(p, tuple(fixed))).positions


def test_equality_witness_is_least_class_lengths():
    # every instance has an equality class, so the witness contract bites
    rng = random.Random("eq-witness")
    checked = 0
    for _ in range(1000):
        sigma = rng.randint(1, 2)
        word = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(4, 12))))
        k = rng.randint(3, 4)
        p = Word(tuple(rng.randint(1, sigma) for _ in range(k)))
        gc = tuple(random_constraint(rng, "length", sigma) for _ in range(k - 1))
        a, b = rng.sample(range(1, k), 2)
        eq = EqualitySystem.from_pairs([(a, b)])
        got = match_with_equalities(word, GappedSequence(p, gc), eq)
        lengths = sorted(
            pos[a] - pos[a - 1] - 1
            for pos in brute_embeddings(word, GappedSequence(p, gc))
            if eq.satisfied_by(word, Embedding(pos))
        )
        assert (got is None) == (not lengths)
        if got is None:
            continue
        fixed = list(gc)
        fixed[a - 1] = fixed[b - 1] = LengthGap(lengths[0], lengths[0])
        assert got.positions == match(word, GappedSequence(p, tuple(fixed))).positions
        checked += 1
    assert checked >= 100


def _full_cnf():
    """The eight 3-clauses over variables 1..3: unsatisfiable."""
    signs = itertools.product((1, -1), repeat=3)
    return CnfFormula(3, tuple(frozenset((a, 2 * b, 3 * c)) for a, b, c in signs))


def test_equality_search_agrees_with_match_naive_backtracking():
    # the mask-only search against backtracking that reruns match_naive on
    # every partial assignment: same decision and same witness
    full = _full_cnf()
    formulas = [full, CnfFormula(3, full.clauses[::-1]), CnfFormula(3, full.clauses[1:])]
    formulas += [random_cnf(3, 4, seed, arity=3) for seed in range(3)]
    formulas += [random_cnf(4, 3, seed, arity=3) for seed in (0, 2)]
    outcomes = []
    for f in formulas:
        word, gs, eq = sat_to_match_equalities(f)
        got = match_with_equalities(word, gs, eq)
        want = reference_match_with_equalities(word, gs, eq)
        assert (got is None and want is None) or got.positions == want
        outcomes.append(got is not None)
    assert outcomes[:3] == [False, False, True] and all(outcomes[3:])


def test_equality_matching_runs_match_naive_only_for_the_witness(monkeypatch):
    # the search itself runs on masks: match_naive builds the one witness of
    # a solved instance and is not re-run per partial assignment
    calls = []

    def counted(*args):
        calls.append(args)
        return match_naive(*args)

    monkeypatch.setattr(matchers, "match_naive", counted)
    word, gs, eq = sat_to_match_equalities(random_cnf(4, 6, 0, arity=3))
    got = match_with_equalities(word, gs, eq)
    assert got is not None and verify_embedding(word, gs, got) and eq.satisfied_by(word, got)
    assert len(calls) == 1
    word, gs, eq = sat_to_match_equalities(_full_cnf())
    assert match_with_equalities(word, gs, eq) is None
    assert len(calls) == 1


def test_equality_matching_needs_no_recursion():
    # 250 classes of two gaps each; the search depth must not cost frames
    k = 501
    word = Word((1, 2) * k)
    gs = GappedSequence(Word((1,) * k), (LengthGap(0, 3),) * (k - 1))
    eq = EqualitySystem.from_pairs([(g, g + 1) for g in range(1, k, 2)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        got = match_with_equalities(word, gs, eq)
    finally:
        sys.setrecursionlimit(limit)
    assert got is not None and got.positions == tuple(range(1, 2 * k, 2))


def test_equality_matching_rejects_dfa_constraints():
    gs = GappedSequence(w("ab"), (RegularGap(sigma_star_dfa(3)),))
    with pytest.raises(UsageError):
        match_with_equalities(w("ab"), gs, EqualitySystem.from_pairs([]))


def test_zero_gap_forces_contiguity():
    word = w("abab")
    gs = GappedSequence(w("ab"), (ZeroGap(),))
    for fn in (match_naive, match):
        e = fn(word, gs)
        assert e is not None and e.positions == (1, 2)
    gs2 = GappedSequence(w("aa"), (ZeroGap(),))
    for fn in (match_naive, match):
        assert fn(word, gs2) is None


def test_infeasible_window_never_matches():
    word = w("aaaa")
    gs = GappedSequence(w("aa"), (LengthGap(9, 11),))
    assert match_naive(word, gs) is None
    assert match(word, gs) is None
    assert match(word, GappedSequence(w("aa"), (RegLenGap(9, 11, sigma_star_dfa(3)),))) is None


def test_symbol_ids_beyond_a_byte():
    # position masks for ids >= 256 take the per-position path
    rng = random.Random("wide-ids")
    ids = (1, 255, 256, 300)
    for _ in range(200):
        word = Word(tuple(rng.choice(ids) for _ in range(rng.randint(0, 12))))
        p = Word(tuple(rng.choice(ids) for _ in range(rng.randint(1, 4))))
        gc = tuple(random_constraint(rng, "length", 1) for _ in range(len(p) - 1))
        gs = GappedSequence(p, gc)
        a, b = match_naive(word, gs), match(word, gs)
        assert (a is None) == (b is None) == (not brute_embeddings(word, gs))
        assert a is None or a.positions == b.positions
