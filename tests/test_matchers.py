import random

import pytest
from hypothesis import given, settings, strategies as st

from gapsub import (
    INF,
    Alphabet,
    Dfa,
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
from gapsub.core import constraint_allows
from gapsub.matchers import GapStep
from helpers import (
    brute_embeddings,
    gap_ok,
    random_constraint,
    random_dfa,
    random_instance,
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
    mask = sum(1 << j for j in starts)
    got = step.reach(mask)
    for i in range(1, n + 1):
        feasible = [j for j in starts if j < i and lo <= i - 1 - j <= hi and dfa.run(syms[j : i - 1])]
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
    got = step.reach_counts(vec)
    want = [0] + [
        sum(vec[j] for j in range(i) if constraint_allows(c, syms[j : i - 1]))
        for i in range(1, n + 1)
    ]
    assert got == want
    support = sum(1 << j for j, x in enumerate(vec) if x)
    assert sum(1 << i for i, x in enumerate(got) if x) == step.reach(support)


def test_equality_system_classes():
    eq = EqualitySystem.from_pairs([(1, 3), (3, 5), (2, 4)])
    assert eq.classes(5) == [(1, 3, 5), (2, 4)]
    with pytest.raises(InputError):
        EqualitySystem.from_pairs([(0, 1)])
    with pytest.raises(InputError):
        EqualitySystem.from_pairs([(1, 9)]).classes(5)


def test_equality_satisfied_by():
    from gapsub import Embedding

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
