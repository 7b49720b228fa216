import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gapsub import (
    INF,
    Alphabet,
    BudgetError,
    Dfa,
    GappedSequence,
    InputError,
    LengthGap,
    RegularGap,
    UsageError,
    Word,
    ZeroGap,
    classical_containment,
    containment,
    equivalence,
    equivalence_with_multiplicities,
    parikh_k,
    universality,
)
from gapsub import analysis
from gapsub.matchers import GapStep
from gapsub.cli import run_cli
from helpers import (
    brute_lang_k,
    plain_subsequence_set,
    random_constraint,
    reference_containment,
    reference_equivalence,
    reference_universality,
)

AB = Alphabet.from_glyphs("ab")


def w(s):
    return Word(tuple(AB.id_of(ch) for ch in s))


FREE = (LengthGap(0, INF),)


def test_worked_example_equivalence():
    # both words have exactly {aa, ab, ba, bb} as 2-letter subsequences
    rep = equivalence(w("abba"), w("abab"), FREE, AB)
    assert rep.decision and rep.witness is None
    assert brute_lang_k(w("abba"), FREE, 2, 2) == brute_lang_k(w("abab"), FREE, 2, 2)


def test_universality_yes_and_no():
    rep = universality(w("abba"), FREE, AB)
    assert rep.decision and rep.witness is None
    assert rep.candidates_checked == 4
    rep = universality(w("aab"), FREE, AB)
    assert not rep.decision
    assert rep.witness is not None and rep.witness.symbols == w("ba").symbols


def test_infeasible_gap_kills_only_that_word():
    # a gap longer than the word: no string embeds in it, so universality
    # fails on 1^k and the word's empty set is contained in any other
    word = w("abab")
    gc = (LengthGap(len(word) + 1, INF), LengthGap(0, INF))
    rep = universality(word, gc, AB)
    assert not rep.decision and rep.witness == Word((1, 1, 1))
    assert rep.candidates_checked == 1
    for other in (w("a"), w("ab" * 4), word):
        rep = containment(word, other, gc, AB)
        assert rep.decision and rep.witness is None
        assert rep.candidates_checked == 2**3
    # the longer word still has its own strings, aab the least of them
    rep = containment(w("ab" * 4), word, gc, AB)
    assert not rep.decision and rep.witness == w("aab")


def test_universality_witness_is_lex_least_absent():
    # missing strings of aab at k=2: ba and bb; the reported one is lex least
    lang = brute_lang_k(w("aab"), FREE, 2, 2)
    missing = sorted(
        p for p in itertools.product((1, 2), repeat=2) if p not in lang
    )
    rep = universality(w("aab"), FREE, AB)
    assert rep.witness.symbols == missing[0]


def test_containment_directions():
    rep = containment(w("aab"), w("abab"), FREE, AB)
    assert rep.decision
    rep = containment(w("abab"), w("aab"), FREE, AB)
    assert not rep.decision
    assert rep.witness is not None
    # the witness embeds in the left word only
    assert rep.witness.symbols in brute_lang_k(w("abab"), FREE, 2, 2)
    assert rep.witness.symbols not in brute_lang_k(w("aab"), FREE, 2, 2)


@pytest.mark.parametrize(
    "entry",
    [
        lambda gc: universality(w("aab"), gc, AB),
        lambda gc: containment(w("abba"), w("abab"), gc, AB),
        lambda gc: equivalence(w("abba"), w("abab"), gc, AB),
        lambda gc: parikh_k(w("abba"), gc, AB),
        lambda gc: equivalence_with_multiplicities(w("abba"), w("abab"), gc),
    ],
    ids=["universality", "containment", "equivalence", "parikh_k", "equivalence_with_multiplicities"],
)
def test_one_shot_constraint_iterables(entry):
    # each entry point reads gc once, so an iterator answers like the tuple
    gc = (LengthGap(0, INF), LengthGap(0, 1))
    assert entry(iter(gc)) == entry(gc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_analysis_agrees_with_enumeration(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = rng.randint(1, 3)
    ab = Alphabet(sigma)
    k = rng.randint(1, 3)
    kind = data.draw(st.sampled_from(["length", "regular", "reglen"]))
    gc = tuple(random_constraint(rng, kind, sigma) for _ in range(k - 1))
    wa = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 8))))
    wb = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 8))))
    la = brute_lang_k(wa, gc, sigma, k)
    lb = brute_lang_k(wb, gc, sigma, k)
    everything = set(itertools.product(range(1, sigma + 1), repeat=k))
    assert universality(wa, gc, ab).decision == (la == everything)
    assert containment(wa, wb, gc, ab).decision == (la <= lb)
    assert equivalence(wa, wb, gc, ab).decision == (la == lb)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_analysis_witness_separates(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = rng.randint(1, 3)
    ab = Alphabet(sigma)
    k = rng.randint(1, 3)
    gc = tuple(random_constraint(rng, "length", sigma) for _ in range(k - 1))
    wa = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 8))))
    wb = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 8))))
    rep = containment(wa, wb, gc, ab)
    la = brute_lang_k(wa, gc, sigma, k)
    lb = brute_lang_k(wb, gc, sigma, k)
    if rep.decision:
        assert rep.witness is None
    else:
        got = rep.witness.symbols
        assert got in la and got not in lb


def test_budget_guard_raises():
    with pytest.raises(BudgetError):
        universality(
            Word(tuple([1] * 5)),
            tuple(LengthGap(0, INF) for _ in range(19)),
            Alphabet(3),
        )
    # small budgets trip early even on tiny instances
    with pytest.raises(BudgetError):
        universality(w("ab"), FREE, AB, budget=3)


def test_budget_refusal_names_sigma_k_without_its_value():
    # 2^14301 has more decimal digits than int-to-str conversion allows
    gc = [LengthGap(0, INF)] * 14300
    for call in (
        lambda: universality(Word((1, 2)), gc, AB),
        lambda: containment(Word((1, 2)), Word((2, 1)), gc, AB),
        lambda: parikh_k(Word((1, 2)), gc, AB),
    ):
        with pytest.raises(BudgetError, match=r"enumerating 2\^14301 candidates exceeds"):
            call()


def test_workers_other_than_one_are_refused(tmp_path):
    gc = (LengthGap(0, 2),)
    for workers in (2, 0):
        with pytest.raises(UsageError):
            universality(w("abba"), gc, AB, workers=workers)
        with pytest.raises(UsageError):
            containment(w("abba"), w("abab"), gc, AB, workers=workers)
        with pytest.raises(UsageError):
            equivalence(w("abba"), w("abab"), gc, AB, workers=workers)
    assert universality(w("abba"), gc, AB, workers=1).decision
    c = tmp_path / "c"
    c.write_text("k 2\nL 0 inf\n")
    argv = ["analyze", "uni", "-w", "abba", "-c", str(c)]
    assert run_cli(argv) == 0
    assert run_cli(argv + ["--workers", "2"]) == 2


def _report_triple(rep):
    return (rep.decision, None if rep.witness is None else rep.witness.symbols,
            rep.candidates_checked)


def _memo_instances(seed, count):
    # short words over small alphabets with k up to 6 repeat frontiers often
    rng = random.Random(seed)
    for _ in range(count):
        sigma = rng.randint(1, 3)
        k = rng.randint(1, 6 if sigma < 3 else 4)
        kind = rng.choice(["length", "regular", "reglen"])
        gc = tuple(random_constraint(rng, kind, sigma) for _ in range(k - 1))
        wa = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 14))))
        wb = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 14))))
        yield sigma, gc, wa, wb


def _check_against_reference(sigma, gc, wa, wb):
    ab = Alphabet(sigma)
    uni = universality(wa, gc, ab)
    assert _report_triple(uni) == reference_universality(wa, gc, sigma)
    con = containment(wa, wb, gc, ab)
    assert _report_triple(con) == reference_containment(wa, wb, gc, sigma)
    equ = equivalence(wa, wb, gc, ab)
    assert _report_triple(equ) == reference_equivalence(wa, wb, gc, sigma)
    return uni.spreads + con.spreads + equ.spreads


def test_memoised_search_matches_plain_dfs(monkeypatch):
    spreads_memo = [
        _check_against_reference(*inst) for inst in _memo_instances("memo", 300)
    ]
    monkeypatch.setattr(analysis, "MEMO_BITS", 0)
    spreads_plain = [
        _check_against_reference(*inst) for inst in _memo_instances("memo", 300)
    ]
    # the memo never adds spreads, and it did skip some subtrees
    assert all(m <= p for m, p in zip(spreads_memo, spreads_plain))
    assert sum(spreads_memo) < sum(spreads_plain)


def test_parity_gaps_agree_with_reference(monkeypatch):
    # "an even (odd) number of 1s" permutes both its states, so a frontier
    # spread stops once its state set is {0, 1}
    even = RegularGap(Dfa(2, 0, frozenset({0}), ((1, 0), (0, 1))))
    odd = RegularGap(Dfa(2, 0, frozenset({1}), ((1, 0), (0, 1))))
    armed = []
    sweep = GapStep._sweep

    def recording_sweep(self, mask):
        out = sweep(self, mask)
        armed.append(self.settled == 0b11)
        return out

    monkeypatch.setattr(GapStep, "_sweep", recording_sweep)
    rng = random.Random("parity-analysis")
    ab = Alphabet(2)
    for _ in range(40):
        k = rng.randint(2, 4)
        gc = tuple(rng.choice([even, odd]) for _ in range(k - 1))
        wa, wb = (Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(8, 12)))) for _ in "ab")
        uni = universality(wa, gc, ab)
        assert _report_triple(uni)[:2] == reference_universality(wa, gc, 2)[:2]
        con = containment(wa, wb, gc, ab)
        assert _report_triple(con)[:2] == reference_containment(wa, wb, gc, 2)[:2]
    assert armed and all(armed)


def test_unary_universality_needs_no_recursion():
    # with sigma = 1 the budget allows any k; the search must not recurse
    k = 3000
    rep = universality(Word((1,) * k), [LengthGap(0, INF)] * (k - 1), Alphabet(1))
    assert rep.decision and rep.witness is None and rep.candidates_checked == 1
    rep = universality(Word((1,) * (k - 1)), [LengthGap(0, INF)] * (k - 1), Alphabet(1))
    assert not rep.decision and rep.witness.symbols == (1,) * k


def test_unary_parikh_needs_no_recursion():
    # sigma = 1 passes any budget; the prefix search must not recurse either
    k = 3000
    got = parikh_k(Word((1,) * (k + 100)), [LengthGap(0, 0)] * (k - 1), Alphabet(1))
    assert got == {Word((1,) * k): 101}


def test_spreads_count_memo_hits_as_skipped_work():
    # every binary string of length 12 embeds in (ab)^12 with free gaps;
    # the frontier after a prefix is fixed by the prefix's greedy end
    rep = universality(w("ab" * 12), FREE * 11, AB)
    assert rep.decision and rep.candidates_checked == 2**12
    assert 0 < rep.spreads < rep.candidates_checked // 20


def test_zero_gap_constraints_in_analysis():
    # with all-zero gaps the k-length subsequences are exactly the factors
    gc = (ZeroGap(), ZeroGap())
    rep = universality(w("abbaab"), gc, AB)
    lang = brute_lang_k(w("abbaab"), gc, 2, 3)
    assert rep.decision == (len(lang) == 8)
    assert not rep.decision


def test_classical_containment_worked_example():
    ok, wit = classical_containment(w("abba"), w("abab"), 2)
    assert ok and wit is None
    ok, wit = classical_containment(w("abab"), w("abba"), 2)
    assert ok and wit is None


def test_classical_containment_witness():
    ok, wit = classical_containment(w("abab"), w("abba"), 3)
    assert not ok
    assert wit is not None
    assert wit.symbols in plain_subsequence_set(w("abab"), 3)
    assert wit.symbols not in plain_subsequence_set(w("abba"), 3)


def test_classical_containment_short_word_is_vacuous():
    # no length-k subsequences exist on the left at all
    ok, wit = classical_containment(w("a"), w("b"), 2)
    assert ok and wit is None


def test_classical_containment_rejects_negative_k():
    with pytest.raises(InputError):
        classical_containment(w("a"), w("b"), -1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=8),
    st.lists(st.integers(1, 3), max_size=8),
    st.integers(0, 5),
)
def test_classical_containment_oracle(wa, wb, k):
    want = plain_subsequence_set(Word(tuple(wa)), k) <= plain_subsequence_set(
        Word(tuple(wb)), k
    )
    ok, wit = classical_containment(Word(tuple(wa)), Word(tuple(wb)), k)
    assert ok == want
    if not ok:
        assert wit.symbols in plain_subsequence_set(Word(tuple(wa)), len(wit))
        assert wit.symbols not in plain_subsequence_set(Word(tuple(wb)), len(wit))
