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
    Word,
    ZeroGap,
    build_counting_nfa,
    count_embeddings,
    equivalence_with_multiplicities,
    parikh_k,
    path_equivalent,
)
from gapsub import multiplicity
from gapsub.matchers import GapStep
from helpers import brute_embeddings, brute_parikh, random_constraint

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
    # of the two automata, take one gap spread apiece; a spread per symbol
    # would make 20
    calls = []
    reach_counts = GapStep.reach_counts

    def counted(self, vec):
        calls.append(len(vec))
        return reach_counts(self, vec)

    monkeypatch.setattr(GapStep, "reach_counts", counted)
    word = w("abbaba")
    assert equivalence_with_multiplicities(word, word, (LengthGap(0, 2),) * 2) == (True, None)
    assert len(calls) == 10


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


def test_exactness_beyond_64_bits():
    big = Word((1,) * 70)
    gc = tuple(LengthGap(0, INF) for _ in range(34))
    gs = GappedSequence(Word((1,) * 35), gc)
    want = math.comb(70, 35)
    assert want > 2**64
    assert count_embeddings(big, gs) == want
    ok, wit = equivalence_with_multiplicities(big, big, gc)
    assert ok
    smaller = Word((1,) * 69)
    ok, wit = equivalence_with_multiplicities(big, smaller, gc)
    assert not ok
    assert wit is not None and len(wit) == 35
    assert count_embeddings(smaller, GappedSequence(wit, gc)) == math.comb(69, 35)
