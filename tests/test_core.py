import pytest
from hypothesis import given, strategies as st

from gapsub import (
    INF,
    Alphabet,
    Dfa,
    Embedding,
    GappedSequence,
    InputError,
    LengthGap,
    RegLenGap,
    RegularGap,
    UsageError,
    Word,
    ZeroGap,
    constraint_allows,
    constraint_window,
    is_zero_gap,
    normalize,
    normalize_constraints,
    sigma_star_dfa,
    verify_embedding,
)

ABC = Alphabet.from_glyphs("abc")


def w(s):
    return Word(tuple(ABC.id_of(ch) for ch in s))


def test_alphabet_glyph_round_trip():
    assert ABC.size == 3
    assert ABC.id_of("a") == 1 and ABC.glyph(3) == "c"
    assert ABC.word("cab").symbols == (3, 1, 2)
    assert ABC.word("").symbols == ()
    with pytest.raises(InputError):
        ABC.id_of("z")
    with pytest.raises(InputError):
        ABC.word("abz")
    with pytest.raises(InputError):
        Alphabet.from_glyphs("aa")
    with pytest.raises(UsageError):
        Alphabet(2).glyph(1)


def test_word_validation():
    assert Word(()).symbols == ()
    assert len(w("abc")) == 3
    with pytest.raises(InputError):
        Word((0,))
    with pytest.raises(InputError):
        Word((1, -2))
    with pytest.raises(InputError):
        Word((True, 2))
    with pytest.raises(InputError):
        Word((1, False))
    ABC.validate_word(w("cab"))
    with pytest.raises(InputError):
        Alphabet(2).validate_word(Word((3,)))


def test_word_factor_is_one_based_inclusive():
    word = w("abcab")
    assert word.factor(2, 4).symbols == w("bca").symbols
    assert word.factor(3, 2).symbols == ()


def test_constraint_validation():
    with pytest.raises(InputError):
        LengthGap(-1, 2)
    with pytest.raises(InputError):
        LengthGap(3, 2)
    LengthGap(0, INF)
    with pytest.raises(InputError):
        RegLenGap(2, 1, sigma_star_dfa(2))
    # window bounds are non-bool ints (hi may also be INF), in both classes
    for lo, hi in ((1.5, 3), ("a", 3), (True, 3), (None, 3), (0, 2.5), (0, "b"), (0, False)):
        with pytest.raises(InputError):
            LengthGap(lo, hi)
        with pytest.raises(InputError):
            RegLenGap(lo, hi, sigma_star_dfa(2))
    RegLenGap(0, INF, sigma_star_dfa(2))

    class RunOnly:
        def run(self, gap):
            return True

    class LooksLikeDfa(RunOnly):
        num_states, num_symbols, initial = 1, 2, 0
        finals, table = frozenset({0}), ((0, 0),)

    star = sigma_star_dfa(2)
    # only a Dfa, which checked its table when built, is taken
    for dfa in (RunOnly(), LooksLikeDfa(), object(), star.table):
        with pytest.raises(InputError, match="needs a Dfa"):
            RegularGap(dfa)
        with pytest.raises(InputError, match="needs a Dfa"):
            RegLenGap(0, 3, dfa)
    assert RegularGap(star).dfa is star and RegLenGap(0, 3, star).dfa is star


def test_is_zero_gap():
    assert is_zero_gap(ZeroGap())
    assert is_zero_gap(LengthGap(0, 0))
    assert not is_zero_gap(LengthGap(0, 1))
    assert not is_zero_gap(RegularGap(sigma_star_dfa(1)))


def test_constraint_window():
    assert constraint_window(ZeroGap(), 9) == (0, 0)
    assert constraint_window(LengthGap(2, INF), 9) == (2, 9)
    assert constraint_window(RegularGap(sigma_star_dfa(2)), 5) == (0, 5)
    assert constraint_window(RegLenGap(1, 3, sigma_star_dfa(2)), 9) == (1, 3)


def test_constraint_allows():
    assert constraint_allows(ZeroGap(), ())
    assert not constraint_allows(ZeroGap(), (1,))
    assert constraint_allows(LengthGap(1, 2), (1, 2))
    assert not constraint_allows(LengthGap(1, 2), ())
    star = sigma_star_dfa(2)
    assert constraint_allows(RegularGap(star), (2, 1, 2))
    assert constraint_allows(RegLenGap(0, 1, star), (1,))
    assert not constraint_allows(RegLenGap(0, 1, star), (1, 2))


def test_gapped_sequence_shape():
    gs = GappedSequence(w("ab"), (LengthGap(0, 2),))
    assert len(gs.pattern) == 2
    with pytest.raises(InputError):
        GappedSequence(w("ab"), ())
    with pytest.raises(InputError):
        GappedSequence(w("a"), (ZeroGap(),))


def test_measures_count_nonzero_constraints():
    star2 = sigma_star_dfa(2)
    gs = GappedSequence(
        w("abca"),
        (ZeroGap(), LengthGap(0, 0), RegLenGap(1, 2, star2)),
    )
    # only the reg-len gap is non-zero; sigma-star has one state
    assert gs.states == 1
    gs2 = GappedSequence(w("ab"), (LengthGap(1, 4),))
    assert gs2.states == 1


def test_verify_embedding_worked_examples():
    word = w("abacbba")
    free = GappedSequence(w("aaa"), (LengthGap(0, INF), LengthGap(0, INF)))
    assert verify_embedding(word, free, Embedding((1, 3, 7)))
    zero = GappedSequence(w("cba"), (ZeroGap(), ZeroGap()))
    assert not verify_embedding(word, zero, Embedding((4, 5, 7)))
    contiguous = GappedSequence(w("cbb"), (ZeroGap(), ZeroGap()))
    assert verify_embedding(word, contiguous, Embedding((4, 5, 6)))


def test_verify_embedding_rejects_malformed():
    word = w("abacbba")
    gs = GappedSequence(w("aa"), (LengthGap(0, INF),))
    with pytest.raises(InputError):
        Embedding((3, 3))
    with pytest.raises(InputError):
        Embedding((0, 2))
    with pytest.raises(InputError):
        verify_embedding(word, gs, Embedding((1, 8)))
    with pytest.raises(InputError):
        verify_embedding(word, gs, Embedding((1, 2, 3)))


def test_embedding_gap_extraction():
    word = w("abacbba")
    e = Embedding((1, 4, 7))
    assert e.gap(word, 1).symbols == w("ba").symbols
    assert e.gap(word, 2).symbols == w("bb").symbols
    with pytest.raises(InputError):
        e.gap(word, 3)


def test_normalize_clamps_and_rewrites():
    nc = normalize_constraints((LengthGap(0, INF),), 5, 1)
    assert nc.constraints == (LengthGap(0, 5),)
    assert not nc.infeasible
    nc = normalize_constraints((LengthGap(0, 0),), 5, 1)
    assert nc.constraints == (ZeroGap(),)
    nc = normalize_constraints((LengthGap(7, 9),), 5, 1)
    assert nc.infeasible
    # a lower bound past the word is clamped to n + 1, the flag kept
    assert normalize_constraints((LengthGap(10**12, INF),), 5, 1) == ((LengthGap(6, 6),), True)
    # reg-len windows clamp but stay reg-len: the dfa still filters
    star = sigma_star_dfa(1)
    nc = normalize_constraints((RegLenGap(0, INF, star),), 4, 1)
    (c,) = nc.constraints
    assert isinstance(c, RegLenGap) and (c.lo, c.hi) == (0, 4)


def test_normalize_gapped_sequence():
    gs = GappedSequence(w("aa"), (LengthGap(2, INF),))
    norm, infeasible = normalize(gs, 3, 1)
    assert not infeasible
    assert norm.constraints == (LengthGap(2, 3),)
    _, infeasible = normalize(gs, 1, 1)
    assert infeasible


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 10))
def test_normalize_window_invariants(lo, extra, n):
    nc = normalize_constraints((LengthGap(lo, lo + extra),), n, 1)
    if nc.infeasible:
        assert lo > n
    else:
        (c,) = nc.constraints
        lo2, hi2 = constraint_window(c, n)
        assert lo2 == lo and lo2 <= hi2 <= n


def test_dfa_alphabet_boundary_in_every_entry_point():
    from gapsub import (
        containment,
        count_embeddings,
        equivalence,
        equivalence_with_multiplicities,
        match,
        match_naive,
        parikh_k,
        universality,
    )

    word, ab = Word((1, 2, 1, 2)), Alphabet(2)

    def calls(dfa):
        gc = (RegLenGap(0, 2, dfa),)
        gs = GappedSequence(Word((1, 2)), gc)
        return [
            lambda: match(word, gs),
            lambda: match_naive(word, gs),
            lambda: universality(word, gc, ab),
            lambda: containment(word, word, gc, ab),
            lambda: equivalence(word, word, gc, ab),
            lambda: count_embeddings(word, gs),
            lambda: parikh_k(word, gc, ab),
            lambda: equivalence_with_multiplicities(word, word, gc),
        ]

    # a DFA over more symbols than the word uses is fine
    assert [bool(call()) for call in calls(sigma_star_dfa(3))] == [True] * 8
    for call in calls(sigma_star_dfa(1)):
        with pytest.raises(InputError, match="covers 1 symbols"):
            call()


def test_normalize_constraints_checks_dfa_coverage():
    gc = (RegularGap(sigma_star_dfa(2)),)
    assert normalize_constraints(iter(gc), 4, 2).constraints == gc
    with pytest.raises(InputError, match="covers 2 symbols, the alphabet has 3"):
        normalize_constraints(gc, 4, 3)


def test_dfa_is_checked_when_built():
    ok = ((0, 1), (1, 1))
    cases = [
        ((2, 0, {0}, ((0, 5), (1, 1))), "transition \\(0, 2\\) targets out-of-range state 5"),
        ((2, 0, {0}, ((0, -1), (1, 1))), "out-of-range state -1"),
        ((2, 0, {0}, ((0, 1.0), (1, 1))), "out-of-range state 1.0"),
        ((2, 7, {0}, ok), "initial state 7"),
        ((2, True, {0}, ok), "initial state True"),
        ((2, 0, {0, 2}, ok), "final state 2"),
        ((2, 0, {0}, ((0, 1), (1,))), "state 1 has 1 transitions, expected 2"),
        ((2, 0, {0}, (ok[0],)), "1 rows, expected 2"),
        ((3, 0, {0}, ok), "2 rows, expected 3"),
        ((0, 0, set(), ()), "at least one state"),
    ]
    for args, message in cases:
        with pytest.raises(InputError, match=message):
            Dfa(*args)
    d = Dfa(2, 1, [0], [[0, 1], [1, 1]])
    assert d.table == ok and d.finals == frozenset({0}) and d.num_symbols == 2


def test_malformed_dfa_rejected_by_every_entry_point():
    # one table with a target outside 0..1: match once returned (3, 4) and
    # universality False for it, while match_naive and counting raised IndexError
    from gapsub import build_counting_nfa, count_embeddings, match, match_naive, universality

    word, pattern = Word((1, 2, 1, 1)), Word((1, 1))

    def gap():
        return RegularGap(Dfa(2, 0, frozenset({0}), ((0, 5), (1, 1))))

    calls = [
        lambda: match(word, GappedSequence(pattern, (gap(),))),
        lambda: match_naive(word, GappedSequence(pattern, (gap(),))),
        lambda: count_embeddings(word, GappedSequence(pattern, (gap(),))),
        lambda: universality(word, (gap(),), Alphabet(2)),
        lambda: build_counting_nfa(word, (gap(),)),
    ]
    for call in calls:
        with pytest.raises(InputError, match="out-of-range state 5"):
            call()


def test_foreign_constraint_rejected_by_every_entry_point():
    from gapsub import (
        EqualitySystem,
        build_counting_nfa,
        containment,
        count_embeddings,
        equivalence,
        equivalence_with_multiplicities,
        match,
        match_naive,
        match_with_equalities,
        parikh_k,
        universality,
    )

    word, ab = Word((1, 2, 1, 2)), Alphabet(2)
    gc = ("junk",)
    gs = GappedSequence(Word((1, 2)), gc)
    calls = [
        lambda: normalize_constraints(gc, 4, 2),
        lambda: match(word, gs),
        lambda: match_naive(word, gs),
        lambda: match_with_equalities(word, gs, EqualitySystem.from_pairs([])),
        lambda: universality(word, gc, ab),
        lambda: containment(word, word, gc, ab),
        lambda: equivalence(word, word, gc, ab),
        lambda: count_embeddings(word, gs),
        lambda: parikh_k(word, gc, ab),
        lambda: build_counting_nfa(word, gc),
        lambda: equivalence_with_multiplicities(word, word, gc),
        lambda: verify_embedding(word, gs, Embedding((1, 2))),
    ]
    for call in calls:
        with pytest.raises(InputError, match="not a gap constraint"):
            call()
