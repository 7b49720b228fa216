import itertools

import pytest
from hypothesis import given, strategies as st

from gapsub import Dfa, InputError, Word, sigma_star_dfa
from gapsub import automata
from gapsub.automata import (
    build_co_subsequence_automaton,
    build_subsequence_automaton,
    product_shortest_accepted,
)
from helpers import plain_subsequence_set


def test_dfa_basics():
    d = Dfa(2, 0, frozenset({1}), ((1, 0), (1, 1)))
    assert d.num_symbols == 2
    assert d.step(0, 1) == 1
    assert d.run((1, 2))
    assert not d.run(())


def test_sigma_star_and_empty_word():
    star = sigma_star_dfa(3)
    assert star.run((1, 2, 3))
    assert star.run(())


def _accepts(d: Dfa, syms) -> bool:
    return d.run(syms)


def test_subsequence_automaton_small():
    w = Word((1, 2))
    a = build_subsequence_automaton(w)
    assert not _accepts(a, ())  # the empty word is not accepted
    assert _accepts(a, (1,))
    assert _accepts(a, (2,))
    assert _accepts(a, (1, 2))
    assert not _accepts(a, (2, 1))
    assert not _accepts(a, (1, 1))


@given(
    st.lists(st.integers(1, 3), min_size=0, max_size=7),
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
)
def test_subsequence_automaton_agrees_with_enumeration(wsyms, cand):
    a = build_subsequence_automaton(Word(tuple(wsyms)), sigma=3)
    want = tuple(cand) in plain_subsequence_set(Word(tuple(wsyms)), len(cand))
    assert _accepts(a, tuple(cand)) == want


@given(
    st.lists(st.integers(1, 3), min_size=0, max_size=7),
    st.lists(st.integers(1, 3), min_size=0, max_size=4),
)
def test_co_automaton_is_complement_on_nonempty(wsyms, cand):
    b = build_co_subsequence_automaton(Word(tuple(wsyms)), sigma=3)
    a = build_subsequence_automaton(Word(tuple(wsyms)), sigma=3)
    if cand:
        assert _accepts(b, tuple(cand)) != _accepts(a, tuple(cand))
    else:
        # neither accepts the empty word
        assert not _accepts(a, ()) and not _accepts(b, ())


def test_co_automaton_builds_one_dfa(monkeypatch):
    # a Dfa checks its table when built, so one table is built and checked once
    built = []

    def counted(*args):
        built.append(args)
        return Dfa(*args)

    monkeypatch.setattr(automata, "Dfa", counted)
    b = build_co_subsequence_automaton(Word((1, 2, 1)), sigma=2)
    assert len(built) == 1 and b.finals == {4}


def test_product_shortest_accepted_finds_lex_least():
    # words common to both automata: subsequences of 132 that are not
    # subsequences of 12, shortest first, lex least among shortest
    a = build_subsequence_automaton(Word((1, 3, 2)), sigma=3)
    b = build_co_subsequence_automaton(Word((1, 2)), sigma=3)
    got = product_shortest_accepted(a, b, 3)
    assert got is not None and got.symbols == (3,)


def test_product_shortest_accepted_none_within_bound():
    a = build_subsequence_automaton(Word((1, 2)), sigma=2)
    b = build_co_subsequence_automaton(Word((1, 2)), sigma=2)
    assert product_shortest_accepted(a, b, 4) is None


@given(
    st.lists(st.integers(1, 2), min_size=0, max_size=6),
    st.lists(st.integers(1, 2), min_size=0, max_size=6),
)
def test_product_shortest_accepted_oracle(wa, wb):
    # oracle: enumerate all words by length then lex, first accepted by both
    a = build_subsequence_automaton(Word(tuple(wa)), sigma=2)
    b = build_co_subsequence_automaton(Word(tuple(wb)), sigma=2)
    maxlen = 5
    want = None
    for ln in range(maxlen + 1):
        for cand in itertools.product((1, 2), repeat=ln):
            if _accepts(a, cand) and _accepts(b, cand):
                want = cand
                break
        if want is not None:
            break
    got = product_shortest_accepted(a, b, maxlen)
    assert (got.symbols if got is not None else None) == want


def test_subsequence_automaton_needs_wide_enough_sigma():
    with pytest.raises(InputError):
        build_subsequence_automaton(Word((1, 3)), sigma=2)
