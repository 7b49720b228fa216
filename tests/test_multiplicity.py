import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gapsub import (
    INF,
    Alphabet,
    BudgetError,
    GappedSequence,
    LengthGap,
    RegLenGap,
    RegularGap,
    Word,
    ZeroGap,
    build_counting_nfa,
    count_embeddings,
    equivalence_with_multiplicities,
    match,
    parikh_k,
    path_equivalent,
    sigma_star_dfa,
)
from gapsub import multiplicity
from gapsub.matchers import GapStep
from helpers import (
    brute_embeddings,
    brute_parikh,
    permutation_dfa,
    random_constraint,
    random_dfa,
)

AB = Alphabet.from_glyphs("ab")


def w(s):
    return Word(tuple(AB.id_of(ch) for ch in s))


FREE = (LengthGap(0, INF),)


def _as_str(word):
    return "".join("ab"[s - 1] for s in word.symbols)


def test_parikh_worked_examples():
    got = {
        _as_str(k): v for k, v in parikh_k(w("abba"), FREE, AB).items()
    }
    assert got == {"aa": 1, "ab": 2, "ba": 2, "bb": 1}
    got = {
        _as_str(k): v for k, v in parikh_k(w("abab"), FREE, AB).items()
    }
    assert got == {"aa": 1, "ab": 3, "ba": 1, "bb": 1}


def test_count_worked_example():
    gs = GappedSequence(w("ba"), FREE)
    assert count_embeddings(w("bbaa"), gs) == 4


def test_count_edge_cases():
    assert count_embeddings(w("ab"), GappedSequence(Word(()), ())) == 1
    gs = GappedSequence(w("aa"), (LengthGap(5, 9),))
    assert count_embeddings(w("aaa"), gs) == 0


def test_multiplicity_equivalence_spreads_each_vector_once(monkeypatch):
    # the word against itself, k = 3, sigma = 2: two independent path-count
    # vectors below the last layer at depth 1 and three at depth 2, in each
    # of the two automata, take one gap spread apiece, in one kernel call
    # per layer and automaton; a spread per symbol would make 20
    calls = []
    reach_counts = GapStep.reach_counts

    def counted(self, vecs, width):
        calls.append((self, vecs))
        return reach_counts(self, vecs, width)

    monkeypatch.setattr(GapStep, "reach_counts", counted)
    word = w("abbaba")
    assert equivalence_with_multiplicities(word, word, (LengthGap(0, 2),) * 2) == (True, None)
    assert sum(len(vecs) for _, vecs in calls) == 10
    assert len(calls) == 4


def _count_sweeps(monkeypatch):
    calls = []
    sweep = GapStep._count_sweep

    def counted(self, vec):
        calls.append(self)
        return sweep(self, vec)

    monkeypatch.setattr(GapStep, "_count_sweep", counted)
    return calls


def test_dfa_count_sweeps_once_per_layer(monkeypatch):
    # parikh_k spreads each depth's prefixes as one batch, and multiplicity
    # equivalence each layer's independent vectors as one batch per
    # automaton: one DFA sweep per gap and layer (a sweep per vector made
    # 30 and 28 here)
    rng = random.Random(7)
    dfa = random_dfa(rng, 3, 2)
    word = Word(tuple(rng.randint(1, 2) for _ in range(60)))
    gc = (RegularGap(dfa),) * 4
    calls = _count_sweeps(monkeypatch)
    got = parikh_k(word, gc, Alphabet(2))
    assert len(got) == 32 and len(calls) == 4
    assert len(set(map(id, calls))) == 1  # the four gaps share one step
    calls.clear()
    # three gaps, each spreading a layer below the last in both automata
    assert equivalence_with_multiplicities(word, word, gc[:3]) == (True, None)
    assert len(calls) == 6


def test_basis_holds_one_layer_and_never_the_last(monkeypatch):
    # each layer of the search has its own basis, so it never holds more
    # rows than a layer has coordinates, len(w1) + len(w2) + 2; the last
    # layer has no successors and is compared without an insert
    rows = []
    insert = multiplicity._insert_basis

    def recorded(vec, basis):
        independent = insert(vec, basis)
        rows.append(len(basis))
        return independent

    monkeypatch.setattr(multiplicity, "_insert_basis", recorded)
    word = Word((1, 1, 2, 2, 1))
    assert equivalence_with_multiplicities(word, word, FREE * 4) == (True, None)
    assert 0 < max(rows) <= 2 * len(word) + 2
    rows.clear()
    assert equivalence_with_multiplicities(word, word, ()) == (True, None)
    assert rows == [1]  # the start vector is the only insert


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_count_agrees_with_bruteforce(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = rng.randint(1, 3)
    n = rng.randint(0, 10)
    word = Word(tuple(rng.randint(1, sigma) for _ in range(n)))
    k = rng.randint(1, 4)
    p = Word(tuple(rng.randint(1, sigma) for _ in range(k)))
    kind = rng.choice(["length", "regular", "reglen"])
    gc = tuple(random_constraint(rng, kind, sigma) for _ in range(k - 1))
    gs = GappedSequence(p, gc)
    assert count_embeddings(word, gs) == len(brute_embeddings(word, gs))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_parikh_agrees_with_bruteforce(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = rng.randint(1, 3)
    ab = Alphabet(sigma)
    n = rng.randint(0, 9)
    word = Word(tuple(rng.randint(1, sigma) for _ in range(n)))
    k = rng.randint(1, 3)
    kind = rng.choice(["length", "regular", "reglen"])
    gc = tuple(random_constraint(rng, kind, sigma) for _ in range(k - 1))
    want = brute_parikh(word, gc, sigma, k)
    got = {kk.symbols: v for kk, v in parikh_k(word, gc, ab).items()}
    assert got == want
    assert list(got) == sorted(got)  # strings come in lexicographic order


def test_parikh_budget_guard():
    with pytest.raises(BudgetError):
        parikh_k(
            Word((1,) * 4),
            tuple(LengthGap(0, INF) for _ in range(19)),
            Alphabet(3),
        )


def _count_paths(nfa, symbols):
    vec = {nfa.initial: 1}
    for a in symbols:
        nxt = {}
        for q, c in vec.items():
            for q2 in nfa.transitions.get((q, a), ()):
                nxt[q2] = nxt.get(q2, 0) + c
        vec = nxt
    return sum(c for q, c in vec.items() if q in nfa.finals)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_counting_nfa_paths_equal_embedding_counts(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = rng.randint(1, 3)
    n = rng.randint(1, 8)
    word = Word(tuple(rng.randint(1, sigma) for _ in range(n)))
    k = rng.randint(1, 3)
    kind = rng.choice(["length", "regular", "reglen"])
    gc = tuple(random_constraint(rng, kind, sigma) for _ in range(k - 1))
    nfa = build_counting_nfa(word, gc)
    for p in itertools.product(range(1, sigma + 1), repeat=k):
        want = count_embeddings(word, GappedSequence(Word(p), gc))
        assert _count_paths(nfa, p) == want
        vec = nfa.start()
        for a in p:
            vec = nfa.step(vec, a)
        assert nfa.accepted(vec) == want


def test_counting_nfa_rejects_other_lengths():
    nfa = build_counting_nfa(w("abab"), FREE)
    # accepting paths exist only for words of length exactly 2
    assert _count_paths(nfa, (1,)) == 0
    assert _count_paths(nfa, (1, 2, 1)) == 0
    assert _count_paths(nfa, (1, 2)) == 3


def test_path_equivalent_same_nfa():
    n1 = build_counting_nfa(w("abba"), FREE)
    n2 = build_counting_nfa(w("abba"), FREE)
    ok, wit = path_equivalent(n1, n2)
    assert ok and wit is None


def test_path_equivalent_differs_with_witness():
    n1 = build_counting_nfa(w("abba"), FREE)
    n2 = build_counting_nfa(w("abab"), FREE)
    ok, wit = path_equivalent(n1, n2)
    assert not ok and wit is not None
    assert _count_paths(n1, wit.symbols) != _count_paths(n2, wit.symbols)


def test_equivalence_with_multiplicities_worked_example():
    ok, wit = equivalence_with_multiplicities(w("abba"), w("abab"), FREE)
    assert not ok
    assert wit is not None and _as_str(wit) == "ab"
    ok, wit = equivalence_with_multiplicities(w("abba"), w("abba"), FREE)
    assert ok and wit is None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equivalence_with_multiplicities_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = rng.randint(1, 3)
    k = rng.randint(1, 3)
    kind = rng.choice(["length", "regular", "reglen"])
    gc = tuple(random_constraint(rng, kind, sigma) for _ in range(k - 1))
    wa = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(1, 8))))
    wb = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(1, 8))))
    pa = brute_parikh(wa, gc, sigma, k)
    pb = brute_parikh(wb, gc, sigma, k)
    differ = [
        p for p in itertools.product(range(1, sigma + 1), repeat=k)
        if pa.get(p, 0) != pb.get(p, 0)
    ]
    ok, wit = equivalence_with_multiplicities(wa, wb, gc)
    assert ok == (not differ)
    # the witness is canonical: the least length-k string whose counts differ
    assert (wit is None) if ok else (wit.symbols == differ[0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_path_equivalent_with_different_pattern_lengths(data):
    # two words under constraint tuples of different lengths: each automaton
    # accepts strings of its own length only, and counts 0 on the other's
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = rng.randint(1, 3)
    kind = rng.choice(["length", "regular", "reglen"])
    diff: dict[tuple[int, ...], int] = {}
    nfas = []
    for sign, k in zip((1, -1), rng.sample(range(1, 5), 2)):
        word = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 8))))
        gc = tuple(random_constraint(rng, kind, sigma) for _ in range(k - 1))
        nfas.append(build_counting_nfa(word, gc))
        for p, c in brute_parikh(word, gc, sigma, k).items():
            diff[p] = diff.get(p, 0) + sign * c
    differ = sorted((len(p), p) for p, c in diff.items() if c)
    ok, wit = path_equivalent(*nfas)
    assert ok == (not differ)
    # the witness is the first differing string, shorter strings first
    assert (wit is None) if ok else (wit.symbols == differ[0][1])


def _last_vector(nfa, p):
    vec = nfa.start()
    for a in p:
        vec = nfa.step(vec, a)
    return vec


def test_exactness_beyond_64_bits():
    # comb(70, 35) passes 2**64, so the last lanes are 128 bits wide;
    # comb(140, 70) passes 2**128
    for n, k in [(70, 35), (140, 70)]:
        big = Word((1,) * n)
        gc = tuple(LengthGap(0, INF) for _ in range(k - 1))
        gs = GappedSequence(Word((1,) * k), gc)
        want = math.comb(n, k)
        assert want > 2**64
        nfa = build_counting_nfa(big, gc)
        vec = _last_vector(nfa, gs.pattern.symbols)
        assert vec[2] >= want and multiplicity._lane_width(vec[2]) > 64
        assert nfa.accepted(vec) == want
        assert count_embeddings(big, gs) == want
        assert parikh_k(big, gc, Alphabet(1)) == {Word((1,) * k): want}
        ok, wit = equivalence_with_multiplicities(big, big, gc)
        assert ok
        smaller = Word((1,) * (n - 1))
        ok, wit = equivalence_with_multiplicities(big, smaller, gc)
        assert not ok
        assert wit is not None and len(wit) == k
        assert count_embeddings(smaller, GappedSequence(wit, gc)) == math.comb(n - 1, k)
    # gaps of length 0 or 1: an embedding of 1^100 in 1^200 is a start and
    # 99 gap lengths, and the count 103 * 2**98 nearly fills 128-bit lanes
    gc = (LengthGap(0, 1),) * 99
    want = sum(math.comb(99, s) * (101 - s) for s in range(100))
    assert want == 103 * 2**98
    assert count_embeddings(Word((1,) * 200), GappedSequence(Word((1,) * 100), gc)) == want
    # a gap that cannot fit the shorter word (101 > 100 symbols) after a
    # DFA gap, with 2**96-sized counts before it: the longer word's counts
    # decide, and the shorter word's lanes still hold its counts
    gc = (LengthGap(0, INF),) * 29 + (RegularGap(sigma_star_dfa(1)), LengthGap(101, 101))
    short, long_ = Word((1,) * 100), Word((1,) * 300)
    assert count_embeddings(short, GappedSequence(Word((1,) * 32), gc)) == 0
    assert equivalence_with_multiplicities(short, long_, gc) == (False, Word((1,) * 32))
    nfa = build_counting_nfa(short, gc)
    vec = _last_vector(nfa, (1,) * 31)
    assert sum(nfa.counts(vec)) == math.comb(100, 31) > 2**64


def test_lanes_follow_the_counts():
    # 1 2 3 repeated under gaps of at most 2: each 1 starts one run, so a
    # layer never holds more than 100 paths, though 3**98 bounds the windows
    word = Word((1, 2, 3) * 100)
    gc = (LengthGap(0, 2),) * 98
    nfa = build_counting_nfa(word, gc)
    vec = nfa.start()
    for a in (1, 2, 3) * 33:
        vec = nfa.step(vec, a)
        assert multiplicity._lane_width(vec[2]) == 64
    assert nfa.accepted(vec) == 68
    assert count_embeddings(word, GappedSequence(Word((1, 2, 3) * 33), gc)) == 68


def test_counting_edges():
    empty = Word(())
    # the empty word holds no non-empty string
    assert count_embeddings(empty, GappedSequence(w("a"), ())) == 0
    assert parikh_k(empty, FREE, AB) == {}
    assert equivalence_with_multiplicities(empty, empty, FREE) == (True, None)
    ok, wit = equivalence_with_multiplicities(empty, w("ab"), FREE)
    assert not ok and _as_str(wit) == "ab"
    # k = 1: a count is the number of occurrences of the symbol
    assert {_as_str(x): c for x, c in parikh_k(w("abbab"), (), AB).items()} == {"a": 2, "b": 3}
    assert count_embeddings(w("abbab"), GappedSequence(w("b"), ())) == 3
    assert equivalence_with_multiplicities(w("abbab"), w("babba"), ()) == (True, None)
    ok, wit = equivalence_with_multiplicities(w("abbab"), w("abba"), ())
    assert not ok and _as_str(wit) == "b"
    # a lower bound past the word: nothing embeds
    far = (LengthGap(9, 12),)
    assert count_embeddings(w("abab"), GappedSequence(w("ab"), far)) == 0
    assert parikh_k(w("abab"), far, AB) == {}
    assert equivalence_with_multiplicities(w("abab"), w("ba"), far) == (True, None)
    # a gap of 9 fits one "aa" in the longer word, and "aa" comes first
    ok, wit = equivalence_with_multiplicities(w("abab"), w("a" * 11 + "b"), far)
    assert not ok and _as_str(wit) == "aa"


def test_a_lower_bound_far_past_the_word_is_clamped():
    # normalization clamps lo to n + 1, so no gap engine shifts by the raw
    # bound (a shift by 10**12 bits raised MemoryError)
    word, p = Word((1, 2, 1)), Word((1, 1))
    dfa = sigma_star_dfa(2)
    for far in (LengthGap(10**12, INF), RegLenGap(10**12, INF, dfa)):
        nfa = build_counting_nfa(word, [far])
        error = (4, 3)  # (n + 1, k + 1)
        assert all(targets == (error,) for (q, _), targets in nfa.transitions.items() if q[1] == 1)
        assert count_embeddings(word, GappedSequence(p, (far,))) == 0
        assert parikh_k(word, (far,), AB) == {}
        assert equivalence_with_multiplicities(word, Word((2, 1, 1)), (far,)) == (True, None)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_counting_layers_agree(data):
    # parikh_k against count_embeddings, count against match, and
    # multiplicity equivalence against the two parikh_k dicts, with each
    # gap of any kind
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = rng.randint(1, 3)
    k = rng.randint(1, 4)
    kinds = ("length", "regular", "reglen")
    gc = tuple(random_constraint(rng, rng.choice(kinds), sigma) for _ in range(k - 1))
    wa, wb = (Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 10)))) for _ in "ab")
    pa, pb = ({p.symbols: c for p, c in parikh_k(x, gc, Alphabet(sigma)).items()} for x in (wa, wb))
    assert all(c > 0 for c in pa.values())
    for p in itertools.product(range(1, sigma + 1), repeat=k):
        gs = GappedSequence(Word(p), gc)
        count = count_embeddings(wa, gs)
        assert pa.get(p, 0) == count
        assert (count > 0) == (match(wa, gs) is not None)
    differ = sorted(p for p in pa.keys() | pb.keys() if pa.get(p, 0) != pb.get(p, 0))
    ok, wit = equivalence_with_multiplicities(wa, wb, gc)
    assert ok == (not differ)
    # the witness is the least string whose counts differ
    assert (wit is None) if ok else (wit.symbols == differ[0])
    # a layer's vectors stepped as one batch, a None among them, step as
    # each vector alone
    nfa = build_counting_nfa(wa, gc)
    layer = [nfa.start()]
    while layer:
        batch = nfa.step_all(layer + [None])
        assert batch == [nfa.step_all([vec])[0] for vec in layer] + [{}]
        layer = [vec for nexts in batch for vec in nexts.values()]


def _any_gap(rng, sigma):
    build = permutation_dfa if rng.random() < 0.5 else random_dfa
    dfa = build(rng, rng.randint(1, 3), sigma)
    lo = rng.randint(0, 4)
    hi = INF if rng.random() < 0.2 else lo + rng.randint(0, 5)
    return rng.choice(
        [ZeroGap(), LengthGap(lo, hi), RegularGap(dfa), RegLenGap(lo, hi, dfa)]
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chunked_parikh_keeps_its_order(data):
    # chunks of 1, 2 or 3 prefixes give the same dict, in the same order,
    # as the derived chunk size and the brute-force reference
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = rng.randint(1, 3)
    k = rng.randint(1, 5)
    word = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 8))))
    gc = tuple(_any_gap(rng, sigma) for _ in range(k - 1))
    want = list(parikh_k(word, gc, Alphabet(sigma)).items())
    assert dict((x.symbols, c) for x, c in want) == brute_parikh(word, gc, sigma, k)
    assert [x.symbols for x, _ in want] == sorted(x.symbols for x, _ in want)
    for size in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multiplicity, "_chunk_size", lambda lanes, width: size)
            assert list(parikh_k(word, gc, Alphabet(sigma)).items()) == want
