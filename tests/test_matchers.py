import contextlib
import functools
import inspect
import itertools
import math
import operator
import pickle
import random
import sys
from copy import deepcopy

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
    build_counting_nfa,
    containment,
    count_embeddings,
    equivalence,
    match,
    match_naive,
    match_with_equalities,
    parikh_k,
    sigma_star_dfa,
    universality,
    verify_embedding,
)
from gapsub import matchers
from gapsub.core import constraint_allows, constraint_window
from gapsub.matchers import GapStep, _pack_lanes, _unpack_lanes, pattern_blocks
from gapsub.reductions import CnfFormula, random_cnf, sat_to_match_equalities
from helpers import (
    brute_embeddings,
    gap_ok,
    permutation_dfa,
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


def test_equal_gaps_share_one_step(monkeypatch):
    # a word builds one GapStep per distinct constraint, so eleven gaps of
    # one DFA build one step and settle its fixpoint once
    built, settled = [], []
    init, settle = GapStep.__init__, GapStep._settle

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_settle(self):
        settled.append(self)
        settle(self)

    monkeypatch.setattr(GapStep, "__init__", counted_init)
    monkeypatch.setattr(GapStep, "_settle", counted_settle)
    rng = random.Random(20)
    dfa = permutation_dfa(rng, 3, 2)
    word = Word(tuple(rng.randint(1, 2) for _ in range(40)))
    gc = (RegularGap(dfa),) * 11
    universality(word, gc, Alphabet(2))
    assert len(built) == 1 and len(settled) == 1
    built.clear()
    nfa = build_counting_nfa(word, gc)
    assert len(built) == 1 and nfa.steps == [built[0]] * 11
    built.clear()
    match(word, GappedSequence(Word((1,) * 12), gc))
    assert len(built) == 1
    # RegularGap(dfa) and its vacuous RegLenGap read the same; a copy of
    # the DFA, another window or another kind of gap is a step of its own
    copy = Dfa(dfa.num_states, dfa.initial, dfa.finals, dfa.table)
    gaps = [
        RegularGap(dfa), RegLenGap(0, 40, dfa), RegularGap(copy), RegLenGap(1, 5, dfa),
        LengthGap(1, 5), LengthGap(1, 5), LengthGap(1, 6), ZeroGap(), LengthGap(0, 0),
    ]
    steps = matchers.gap_steps(word, gaps)
    assert [steps.index(step) for step in steps] == [0, 0, 2, 3, 4, 4, 6, 7, 7]


@pytest.mark.parametrize("seed", [3, 4])
def test_ov_instance_works_per_distinct_constraint(seed, monkeypatch):
    # the OV reduction at n = d = 12 has 1149 gaps and 5 distinct
    # constraints; every layer from the file to the gap steps builds one
    # object per distinct constraint, counted rather than timed
    from dataclasses import replace

    from gapsub import core
    from gapsub.cli import parse_constraints_text, serialize_constraints_text
    from gapsub.reductions import ov_to_match, random_ov

    word, gs = ov_to_match(random_ov(12, 12, seed))
    n, k = len(word), len(gs.pattern)
    assert k - 1 == 1149
    norm = core.normalize_constraints(gs.constraints, n, 4)
    assert len({id(c) for c in norm.constraints}) == 5
    one_by_one = [core.normalize_constraints((replace(c),), n, 4) for c in gs.constraints]
    assert list(norm.constraints) == [nc.constraints[0] for nc in one_by_one]
    assert norm.infeasible == any(nc.infeasible for nc in one_by_one)
    text = serialize_constraints_text(k, gs.constraints)
    assert text.count("\n") == 1150
    _, parsed = parse_constraints_text(text)
    assert len({id(c) for c in parsed}) == 5
    steps = matchers.gap_steps(word, norm.constraints)
    assert len({id(step) for step in steps}) == 5
    naive = match_naive(word, GappedSequence(gs.pattern, parsed))
    windows = []
    check = core._check_window

    def counted(lo, hi):
        windows.append((lo, hi))
        check(lo, hi)

    monkeypatch.setattr(core, "_check_window", counted)
    assert match(word, gs) == naive
    assert len(windows) <= 5


def test_equal_dfas_stay_apart_and_are_never_hashed(monkeypatch):
    # a DFA is compared by identity: two equal copies get two steps, and
    # no layer hashes one (that would hash its whole table)
    dfa = permutation_dfa(random.Random(4), 3, 2)
    copy = Dfa(dfa.num_states, dfa.initial, dfa.finals, dfa.table)
    assert copy == dfa and copy is not dfa

    def refuse(self):
        raise AssertionError("a Dfa was hashed")

    monkeypatch.setattr(Dfa, "__hash__", refuse)
    with pytest.raises(AssertionError):
        hash(dfa)
    from gapsub.core import normalize_constraints

    word = Word(tuple(random.Random(5).randint(1, 2) for _ in range(30)))
    gaps = [RegLenGap(1, 4, dfa), RegLenGap(1, 4, copy), RegularGap(dfa), RegularGap(copy)] * 5
    norm = normalize_constraints(gaps, len(word), 2)
    steps = matchers.gap_steps(word, norm.constraints)
    assert len({id(step) for step in steps}) == 4
    assert steps[:4] == steps[4:8]
    gs = GappedSequence(Word((1,) * (len(gaps) + 1)), tuple(gaps))
    short = GappedSequence(Word((1, 2, 1, 2, 1)), tuple(gaps[:4]))
    assert match(word, gs) == match_naive(word, gs)
    assert match(word, short) == match_naive(word, short)


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
        step = GapStep(word, c)
        assert (step.dfa is None) == (windowed is None)
        if windowed is not None:
            assert step.windowed == windowed
        gs = GappedSequence(w("aa"), (c,))
        assert match(word, gs).positions == match_naive(word, gs).positions


# values of the windowed-gap crossover that force the trace sweep (0) and
# the bit-parallel step (inf) on every DFA gap with a real window
ENGINES = (0, math.inf)

# a block size for the bit-parallel step that is not a power of two, and
# (crossover, block size) for the three windowed paths: the trace sweep,
# and the bit-parallel step with one symbol and with BLOCK symbols a step
BLOCK = 3
PATHS = ((0, 1), (math.inf, 1), (math.inf, BLOCK))


@contextlib.contextmanager
def windowed_engine(max_cost, block=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matchers, "_BIT_PARALLEL_MAX_COST", max_cost)
        if block is not None:
            mp.setattr(matchers, "_BLOCK_SYMBOLS", block)
        yield


def forced_step(syms, c, max_cost, block=None) -> GapStep:
    with windowed_engine(max_cost, block):
        step = GapStep(Word(syms), c)
    assert step.bit_parallel == (step.windowed and max_cost > 0)
    assert step.block in (1, block or matchers._BLOCK_SYMBOLS)
    assert step.bit_parallel or step.block == 1
    return step


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matchers_agree_with_bruteforce(data):
    kind = data.draw(st.sampled_from(["length", "regular", "reglen"]))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    word, gs = random_instance(rng, kind, max_n=10, max_k=4, max_sigma=3)
    want = bool(brute_embeddings(word, gs))
    a = match_naive(word, gs)
    assert (a is not None) == want
    for max_cost in ENGINES:
        with windowed_engine(max_cost):
            b = match(word, gs)
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
    for max_cost in ENGINES:
        step = forced_step(syms, RegLenGap(lo, hi, dfa), max_cost)
        # the drawn starts, every single start (the windowed sweep stops after
        # the last start's window) and both ends (its traces reset in between)
        for case in [starts, [0, n]] + [[j] for j in range(n + 1)]:
            mask = sum(1 << j for j in case)
            got = step.reach(mask)
            for i in range(1, n + 1):
                feasible = [
                    j for j in case if j < i and lo <= i - 1 - j <= hi and dfa.run(syms[j : i - 1])
                ]
                assert bool(got >> i & 1) == bool(feasible), (max_cost, i, feasible)
                if feasible and feasible[0] >= 1:
                    assert step.pred(mask, i) == feasible[0]
            assert got >> (n + 1) == 0 and got & 1 == 0


def test_windowed_engines_agree_on_long_words():
    # the three windowed paths on words of a few hundred symbols: windows
    # shorter and longer than the span of the starts, an unbounded hi, a DFA
    # whose dead state empties every mask early, and single starts
    rng = random.Random("windowed-engines")
    # "no symbol 2 in the gap": state 1 is dead
    no_two = Dfa(2, 0, frozenset({0}), ((0, 1, 0), (1, 1, 1)))
    blocked = 0
    for _ in range(60):
        n = rng.randint(200, 400)
        sigma = rng.randint(2, 3)
        syms = tuple(rng.choices(range(1, sigma + 1), [8] + [1] * (sigma - 1), k=n))
        dfa = no_two if rng.random() < 0.3 else random_dfa(rng, rng.randint(1, 5), sigma)
        lo = rng.randint(1, 20)
        hi = rng.choice([INF, lo + rng.randint(0, 30), lo + rng.randint(n // 2, 2 * n)])
        c = RegLenGap(lo, hi, dfa)
        sweep, single, block = (forced_step(syms, c, *path) for path in PATHS)
        assert single.bit_parallel and single.block == 1 and not sweep.bit_parallel
        blocked += block.block == BLOCK
        starts = sorted(rng.sample(range(n + 1), rng.randint(1, 40)))
        dense = sum(1 << j for j in range(n + 1) if rng.random() < 0.3)
        masks = [sum(1 << j for j in starts), dense, 1 << 0, 1 << n]
        masks += [1 << rng.randint(0, n) for _ in range(5)]
        for mask in masks:
            want = sweep.reach(mask)
            assert single.reach(mask) == want and block.reach(mask) == want, (n, lo, hi, mask)
    # the block rule leaves short windows of the larger DFAs at one symbol
    assert blocked >= 40, blocked


def _streamed_least(syms, mask, lo, hi, dfa) -> dict[int, int]:
    """Each reachable end i with its least start, by running the DFA from
    every start of mask over at most hi symbols."""
    n = len(syms)
    least = {}
    for j in range(n + 1):
        if mask >> j & 1:
            q = dfa.initial
            for i in range(j + 1, min(n, j + hi + 1) + 1):
                # q is the state after the gap w[j+1..i-1]
                if i - 1 - j >= lo and q in dfa.finals:
                    least.setdefault(i, j)
                q = dfa.table[q][syms[i - 1] - 1]
    return least


def test_block_step_agrees_with_single_steps():
    # the bit-parallel step with BLOCK symbols a step against one symbol a
    # step, the quadratic reference and match_naive: lo below BLOCK, above
    # it and a multiple of it, windows narrower than a block, windows that
    # run past the end of the word, a DFA with a dead state, group and
    # non-group tables, dense masks and single starts at both ends
    rng = random.Random("block-step")
    no_two = Dfa(2, 0, frozenset({0}), ((0, 1, 0), (1, 1, 1)))
    b = BLOCK
    wide = 22  # a window this wide gets blocks for up to 3 states over 2 symbols
    shapes = ("lo < b", "lo > b", "lo = mb", "hi - lo < b")
    for trial in range(96):
        shape = shapes[trial % 4]
        kind = ("dead", "group", "other")[trial // 4 % 3]
        sigma = rng.randint(2, 3)
        if kind == "dead":
            dfa = no_two
        else:
            build = permutation_dfa if kind == "group" else random_dfa
            dfa = build(rng, rng.randint(1, 3), sigma)
        if shape == "lo < b":
            lo = rng.randrange(b)
            hi = rng.randint(wide, 40)
        elif shape == "lo > b":
            lo = b * rng.randint(1, 6) + rng.randint(1, b - 1)
            hi = max(wide, lo + rng.randint(b, 20))
        elif shape == "lo = mb":
            lo = b * rng.randint(1, 8)
            hi = max(wide, lo + rng.randint(0, 20))
        else:
            lo = rng.randint(wide, 30)
            hi = lo + rng.randrange(b)
        # a word shorter than hi clamps it (unless lo = 0, where that would
        # leave no real window); every window of a start near the end runs
        # past the word
        n = rng.randint(max(wide, lo, hi + 1 if lo == 0 else 0), hi + 25)
        syms = tuple(rng.randint(1, sigma) for _ in range(n))
        c = RegLenGap(lo, hi, dfa)
        single, block = (forced_step(syms, c, *path) for path in PATHS[1:])
        assert block.block == b and single.block == 1, (shape, kind, lo, hi, n)
        dense = sum(1 << j for j in range(n + 1) if rng.random() < 0.3)
        masks = [dense, (1 << (n + 1)) - 1, 1 << 0, 1 << n, 1 << (n - 1), 1 << rng.randint(0, n)]
        for mask in masks:
            least = _streamed_least(syms, mask, lo, min(hi, n), dfa)
            want = sum(1 << i for i in least)
            assert single.reach(mask) == want, (shape, kind, lo, hi, n)
            assert block.reach(mask) == want, (shape, kind, lo, hi, n)
            for i in rng.sample(sorted(least), min(len(least), 5)):
                if least[i] >= 1:
                    assert block.pred(mask, i) == least[i]
        gs = GappedSequence(Word((rng.randint(1, sigma), rng.randint(1, sigma))), (c,))
        want = match_naive(Word(syms), gs)
        for path in PATHS:
            with windowed_engine(*path):
                got = match(Word(syms), gs)
            assert got == want, (shape, kind, path)


def _permuted_reachable(dfa: Dfa) -> int:
    """R, the states reachable from the initial one, as a bit set, if every
    symbol maps R onto R, else -1."""
    reached, todo = {dfa.initial}, [dfa.initial]
    while todo:
        for q2 in dfa.table[todo.pop()]:
            if q2 not in reached:
                reached.add(q2)
                todo.append(q2)
    onto = all({dfa.table[q][a] for q in reached} == reached for a in range(dfa.num_symbols))
    return sum(1 << q for q in reached) if onto else -1


def test_vacuous_sweep_fixpoint_exit_matches_quadratic_reference():
    # the vacuous-window sweep stops at the first column whose state set is
    # R when every symbol maps R onto R: permutation DFAs arm that exit,
    # random tables arm it only when they happen to permute R, and a DFA
    # with a sink never does
    rng = random.Random("fixpoint-exit")
    no_two = Dfa(2, 0, frozenset({0}), ((0, 1, 0), (1, 1, 1)))  # state 1 is a sink
    fired = {True: 0, False: 0}
    for trial in range(60):
        n = rng.randint(200, 400)
        sigma = rng.randint(2, 3)
        syms = tuple(rng.randint(1, sigma) for _ in range(n))
        kind = ("permutation", "random", "sink")[trial % 3]
        if kind == "permutation":
            dfa = permutation_dfa(rng, rng.randint(1, 6), sigma)
        elif kind == "random":
            dfa = random_dfa(rng, rng.randint(2, 6), sigma)
        else:
            dfa = no_two
        settled = _permuted_reachable(dfa)
        if kind != "random":
            assert (settled != -1) == (kind == "permutation")
        step = GapStep(Word(syms), RegularGap(dfa))
        dense = sum(1 << j for j in range(n + 1) if rng.random() < 0.5)
        spread = sum(1 << j for j in range(0, n + 1, rng.randint(10, 60)))
        for mask in [dense, spread, 1 << rng.randint(1, n), 1 << 0]:
            starts = [j for j in range(n + 1) if mask >> j & 1]
            # streamed from every start: least[i] is the least feasible start
            least = {}
            for j in starts:
                q = dfa.initial
                for i in range(j + 1, n + 1):
                    if q in dfa.finals:
                        least.setdefault(i, j)
                    q = dfa.table[q][syms[i - 1] - 1]
            assert step.reach(mask) == sum(1 << i for i in least), (trial, kind)
            for i in rng.sample(sorted(least), min(len(least), 15)):
                if least[i] >= 1:
                    assert step.pred(mask, i) == least[i]
            # the state set over the open gaps, column by column, as _sweep sees it
            states, hit = 1 << dfa.initial, False
            for i in range(starts[0] + 1, n + 1):
                hit = hit or states == settled
                moved = {dfa.table[q][syms[i - 1] - 1] for q in range(dfa.num_states) if states >> q & 1}
                if mask >> i & 1:
                    moved.add(dfa.initial)
                states = sum(1 << q for q in moved)
            fired[hit] += 1
        assert step.settled == settled, (trial, kind)
        # the memo never holds the images of a fixpoint R, so a sweep that
        # walked on past R would have put them back
        assert all(settled not in memo for memo in step.img)
    # both sides of the exit ran
    assert fired[True] >= 20 and fired[False] >= 20, fired


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
    step = GapStep(Word(syms), c)
    # the drawn vector, every single start (the windowed sweep stops after
    # the last start's window) and both ends (its traces reset in between)
    singles = [[0] * j + [vec[j] or 1] + [0] * (n - j) for j in range(n + 1)]
    ends = [2] + [0] * (n - 1) + [3] if n else [5]
    for case in [vec, ends] + singles:
        # no lane sum exceeds sum(case), so that many bits hold every lane
        width = 64 if sum(case) < 2**64 else 128
        [got] = step.reach_counts([_pack_lanes(case, width)], width)
        got = _unpack_lanes(got, n + 1, width)
        want = [0] + [
            sum(case[j] for j in range(i) if constraint_allows(c, syms[j : i - 1]))
            for i in range(1, n + 1)
        ]
        assert got == want
        support = sum(1 << j for j, x in enumerate(case) if x)
        assert sum(1 << i for i, x in enumerate(got) if x) == step.reach(support)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reach_counts_batch_equals_each_vector_alone(data):
    # one kernel call on a batch gives each vector's spread alone, whatever
    # the gap kind and the side of the bit-parallel cost rule it falls on,
    # for batches of one, batches holding all-zero vectors and batches that
    # mix vectors sized for 64- and for 128-bit lanes
    kind = data.draw(st.sampled_from(["zero", "length", "regular", "bit", "window"]))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    n = rng.randint(0, 16)
    sigma = rng.randint(1, 3)
    syms = tuple(rng.randint(1, sigma) for _ in range(n))
    build = permutation_dfa if rng.random() < 0.5 else random_dfa
    dfa = build(rng, rng.randint(1, 4), sigma)
    lo = rng.randint(1, n + 1)  # lo > 0: a real window for the DFA kinds
    hi = lo + rng.randint(0, n)
    c = {
        "zero": ZeroGap(),
        "length": LengthGap(lo - 1, INF if rng.random() < 0.2 else hi),
        "regular": RegularGap(dfa),
        "bit": RegLenGap(lo, hi, dfa),
        "window": RegLenGap(lo, hi, dfa),
    }[kind]
    with pytest.MonkeyPatch.context() as mp:
        if kind == "window":  # every cost passes the bound: the trace sweep
            mp.setattr(matchers, "_BIT_PARALLEL_MAX_COST", -1)
        step = GapStep(Word(syms), c)
    if kind in ("bit", "window"):
        assert step.bit_parallel == (kind == "bit")
    m = data.draw(st.integers(1, 5))
    wide = [rng.random() < 0.3 for _ in range(m)]
    vecs = []
    for big in wide:
        if rng.random() < 0.2:
            vecs.append([0] * (n + 1))
            continue
        # each vector's lane sum, the most any of its spread's sums can be,
        # stays below 2**64 or 2**128
        top = (2**127 if big else 2**63) // (n + 1)
        vecs.append([rng.choice((0, 1, rng.randint(0, top), top)) for _ in range(n + 1)])
    width = 128 if any(wide) else 64
    got = step.reach_counts([_pack_lanes(v, width) for v in vecs], width)
    assert len(got) == m
    for v, out, big in zip(vecs, got, wide):
        alone = 128 if big else 64
        [want] = step.reach_counts([_pack_lanes(v, alone)], alone)
        lanes = _unpack_lanes(out, n + 1, width)
        assert lanes == _unpack_lanes(want, n + 1, alone)
        support = sum(1 << j for j, x in enumerate(v) if x)
        assert sum(1 << i for i, x in enumerate(lanes) if x) == step.reach(support)


def _literal_or_spread(x, span):
    return functools.reduce(operator.or_, (x << s for s in range(span + 1)), 0)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_or_spread_matches_literal_or(data):
    x = data.draw(
        st.one_of(
            st.just(0),
            st.integers(0, 200).map(lambda i: 1 << i),
            st.integers(1, 2**130),  # dense
            st.lists(st.integers(0, 300), min_size=1, max_size=4).map(  # sparse
                lambda bits: sum(1 << b for b in set(bits))
            ),
        )
    )
    # the kernel saturates once span covers x from its lowest bit to its top
    cover = x.bit_length() - 1 - ((x & -x).bit_length() - 1) if x else 0
    span = data.draw(
        st.sampled_from([0, max(cover - 2, 0), max(cover - 1, 0), cover, cover + 1, cover + 500])
        | st.integers(0, 400)
    )
    assert matchers._or_spread(x, span) == _literal_or_spread(x, span)


def test_unbounded_length_gap_reach_saturates_exactly():
    # LengthGap(lo, INF) spreads over the whole word, so its window covers
    # every mask; reach and both matchers must still cut at lo and at n
    rng = random.Random("saturated-reach")
    for _ in range(300):
        n = rng.randint(1, 60)
        sigma = rng.randint(1, 3)
        syms = tuple(rng.randint(1, sigma) for _ in range(n))
        lo = rng.randint(0, n + 2)
        step = GapStep(Word(syms), LengthGap(lo, INF))
        density = rng.choice((0.05, 0.3, 0.9))
        mask = sum(1 << j for j in range(n + 1) if rng.random() < density)
        want = sum(1 << i for i in range(1, n + 1) if any(mask >> j & 1 for j in range(i - lo)))
        assert step.reach(mask) == want
        word = Word(syms)
        gs = GappedSequence(Word((rng.randint(1, sigma), rng.randint(1, sigma))), (LengthGap(lo, INF),))
        embeddings = brute_embeddings(word, gs)
        for fn in (match_naive, match):
            got = fn(word, gs)
            assert (got is None) == (not embeddings)
            assert got is None or got.positions == min(embeddings, key=lambda e: e[::-1])


def test_equality_system_classes():
    eq = EqualitySystem.from_pairs([(1, 3), (3, 5), (2, 4)])
    assert eq.classes(5) == [(1, 3, 5), (2, 4)]
    with pytest.raises(InputError):
        EqualitySystem.from_pairs([(0, 1)])
    with pytest.raises(InputError):
        EqualitySystem.from_pairs([(1, 9)]).classes(5)


def test_equality_system_refuses_non_int_indices():
    # a float index once raised TypeError from list indexing, a str one from <,
    # and True was read as gap 1
    gs = GappedSequence(w("aa"), (LengthGap(0, INF),))
    for bad in (1.5, "1", True):
        for pair in ((bad, 1), (1, bad)):
            with pytest.raises(InputError, match="gap indices"):
                match_with_equalities(w("aba"), gs, EqualitySystem.from_pairs([pair]))


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


def _rebuilt_eq_masks(word, p, windows):
    """F and B of match_with_equalities from scratch, by a literal OR over
    every length of each window."""
    at = {a: sum(1 << i for i, s in enumerate(word.symbols, start=1) if s == a) for a in p}
    F, B = [0, at[p[0]]], [at[p[-1]]]
    for (lo, hi), a in zip(windows, p[1:]):
        F.append(at[a] & _literal_or_spread(F[-1] << (lo + 1), hi - lo))
    for (lo, hi), a in zip(reversed(windows), reversed(p[:-1])):
        B.insert(0, at[a] & (_literal_or_spread(B[0], hi - lo) >> (hi + 1)))
    return F, [0] + B


def _full_rebuild_nodes(word, gs, eq):
    """The windows of every node, in visit order, of the equality search
    run with every mask rebuilt and every open class re-tested at each
    node."""
    p = gs.pattern.symbols
    base = [constraint_window(c, len(word)) for c in gs.constraints]
    classes = [cl for cl in eq.classes(len(p) - 1) if len(cl) >= 2]

    def lengths(cl, windows, F, B):
        lo = max(windows[g - 1][0] for g in cl)
        hi = min(windows[g - 1][1] for g in cl)
        return [ell for ell in range(lo, hi + 1) if all((F[g] << (ell + 1)) & B[g + 1] for g in cl)]

    nodes, stack = [], [()]
    while stack:
        fixed = stack.pop()
        windows = list(base)
        for cl, ell in zip(classes, fixed):
            for g in cl:
                windows[g - 1] = (ell, ell)
        nodes.append(windows)
        F, B = _rebuilt_eq_masks(word, p, windows)
        if F[-1] and len(fixed) == len(classes):
            break
        d = len(fixed)
        if F[-1] and all(lengths(cl, windows, F, B) for cl in classes[d + 1 :]):
            stack += [fixed + (ell,) for ell in reversed(lengths(classes[d], windows, F, B))]
    return nodes


def test_equality_search_across_interleaved_classes(monkeypatch):
    # two or three classes whose gaps interleave, as in (1, 4), (2, 5), so
    # fixing one class changes masks that another class's test reads
    update = matchers._eq_update

    def checked(posmask, p, windows, F, B, gaps):
        # every node's masks equal a rebuild under its windows, and the
        # gaps reported as changed cover every gap whose masks changed
        nodes.append(list(windows))
        old_F, old_B = list(F), list(B)
        touched = update(posmask, p, windows, F, B, gaps)
        want_F, want_B = _rebuilt_eq_masks(word, p, windows)
        if touched is None:
            assert not want_F[-1]
            return None
        assert (F, B) == (want_F, want_B)
        changed = {g for g in range(1, len(p)) if F[g] != old_F[g] or B[g + 1] != old_B[g + 1]}
        assert changed | set(gaps) <= touched
        return touched

    monkeypatch.setattr(matchers, "_eq_update", checked)
    rng = random.Random("eq-classes")
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        sigma = rng.randint(1, 2)
        k = rng.randint(5, 7)
        m = rng.randint(2, min(3, (k - 1) // 2))
        gaps = sorted(rng.sample(range(1, k), rng.randint(2 * m, k - 1)))
        classes = [gaps[i::m] for i in range(m)]
        eq = EqualitySystem.from_pairs((cl[0], g) for cl in classes for g in cl[1:])
        assert [list(cl) for cl in eq.classes(k - 1) if len(cl) >= 2] == sorted(classes)
        gc = tuple(
            ZeroGap() if rng.random() < 0.05 else LengthGap(lo, lo + rng.randint(0, 3))
            for lo in (rng.randint(0, 1) for _ in range(k - 1))
        )
        word = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(k, 16))))
        gs = GappedSequence(Word(tuple(rng.randint(1, sigma) for _ in range(k))), gc)
        nodes = []
        got = match_with_equalities(word, gs, eq)
        # the same nodes in the same order as the search that rebuilds all
        assert nodes == _full_rebuild_nodes(word, gs, eq)
        assert (got is None) == (_brute_match_with_eq(word, gs, eq) is None)
        assert (got and got.positions) == reference_match_with_equalities(word, gs, eq)
        outcomes[got is not None] += 1
        if got is None:
            continue
        # canonical: the least class lengths, then the least positions read
        # from the last one back
        solutions = [
            pos for pos in brute_embeddings(word, gs) if eq.satisfied_by(word, Embedding(pos))
        ]
        def lengths(pos):
            return tuple(pos[cl[0]] - pos[cl[0] - 1] - 1 for cl in sorted(classes))

        least = min(map(lengths, solutions))
        want = min((pos for pos in solutions if lengths(pos) == least), key=lambda pos: pos[::-1])
        assert got.positions == want
    assert min(outcomes.values()) >= 50, outcomes


def _count_calls(monkeypatch, name):
    calls = [0]
    inner = getattr(matchers, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(matchers, name, counted)
    return calls


def test_equality_search_work_counts(monkeypatch):
    # deterministic work counters instead of wall-clock: a node updates only
    # the masks its class changes and re-tests only the classes whose masks
    # changed
    spreads = _count_calls(monkeypatch, "_or_spread")
    tests = _count_calls(monkeypatch, "_class_lengths")
    assert match_with_equalities(*sat_to_match_equalities(_full_cnf())) is None
    # rebuilding every mask at each node took 5148 spreads
    assert spreads[0] <= 5148 // 3, spreads

    def chain(classes):
        # pattern 1^k over (12)^k, classes (1, 2), (3, 4), ...: a search
        # that never backtracks
        k = 2 * classes + 1
        gs = GappedSequence(Word((1,) * k), (LengthGap(0, 3),) * (k - 1))
        eq = EqualitySystem.from_pairs([(2 * i + 1, 2 * i + 2) for i in range(classes)])
        spreads[0] = tests[0] = 0
        got = match_with_equalities(Word((1, 2) * k), gs, eq)
        assert got is not None and got.positions == tuple(range(1, 2 * k, 2))
        return spreads[0], tests[0]

    (s1, t1), (s2, t2) = chain(100), chain(200)
    # a full rebuild per node grew both quadratically (spreads 40600 -> 161200)
    assert s2 <= 2.2 * s1 and t2 <= 2.2 * t1, (s1, s2, t1, t2)


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


def test_dfa_coverage_refusal_names_the_largest_symbol():
    # only a DFA must cover the word's symbols; coverage is decided from the
    # word's byte form, or by the largest id when an id is past a byte, and
    # a refusal names the word's largest symbol either way
    free = EqualitySystem.from_pairs([])
    cases = [
        (Word((1, 3, 2, 3)), sigma_star_dfa(2), "covers 2 symbols, the alphabet has 3"),
        (Word((1, 300, 256, 2)), sigma_star_dfa(299), "covers 299 symbols, the alphabet has 300"),
    ]
    for word, dfa, message in cases:
        for c in (RegularGap(dfa), RegLenGap(0, 2, dfa)):
            gs = GappedSequence(Word((1, 2)), (c,))
            for fn in (match, match_naive):
                with pytest.raises(InputError, match=message):
                    fn(word, gs)
            with pytest.raises(InputError, match=message):
                match_with_equalities(word, gs, free)
    # the first DFA, in gap order, that misses a symbol is the one named
    two = GappedSequence(Word((1, 2, 3)), (RegularGap(sigma_star_dfa(3)), RegularGap(sigma_star_dfa(2))))
    with pytest.raises(InputError, match="covers 2 symbols, the alphabet has 3"):
        match(Word((3, 1, 2, 3)), two)
    # DFAs that cover the word: ids past a byte, and 255 symbols or more,
    # which cover every byte
    for word, dfa in [(Word((1, 300, 256, 2)), sigma_star_dfa(300)), (Word((1, 255, 2)), sigma_star_dfa(255))]:
        gs = GappedSequence(Word((1, 2)), (RegularGap(dfa),))
        assert match(word, gs) == match_naive(word, gs) == Embedding((1, len(word)))
    # a length-only pattern over ids past a byte still matches, and the
    # word is not read to check a coverage no constraint needs
    word, gs = Word((300, 1, 257)), GappedSequence(Word((300, 257)), (LengthGap(0, 2),))
    for fn in (match, match_naive, lambda x, y: match_with_equalities(x, y, free)):
        assert fn(word, gs) == Embedding((1, 3))
    fresh = Word(word.symbols)
    assert matchers._dfa_sigma(fresh, gs.constraints) == 0
    assert fresh.position_masks._top_first is False


def test_one_word_answers_every_call_as_a_fresh_word_does():
    # one Word reused across patterns, constraint kinds, windowed engines
    # and entry points answers every call as a fresh Word with equal
    # symbols does: the index it builds on first use is shared by every
    # call and never stale
    rng = random.Random("shared-index")
    words = [
        (),
        tuple(rng.randint(1, 3) for _ in range(240)),
        tuple(rng.choice((1, 2, 256, 300)) for _ in range(120)),  # ids past a byte
    ]
    for syms in words:
        shared = Word(syms)
        sigma = max(syms, default=1)
        alphabet = Alphabet(sigma)
        letters = sorted(set(syms)) or [1]
        wide = random_dfa(rng, 3, sigma + 2)  # more symbols than the word has
        group = permutation_dfa(rng, 2, sigma)
        gaps = [
            LengthGap(1, 9), LengthGap(0, INF), RegularGap(wide), RegularGap(group),
            RegLenGap(2, 30, wide), RegLenGap(1, 25, group),
        ]
        calls = []
        for c in gaps:
            for _ in range(2):
                gs = GappedSequence(Word(tuple(rng.choice(letters) for _ in range(3))), (c, c))
                # match through the trace sweep, and b = 1 and b = BLOCK
                calls += [(path, functools.partial(match, gs=gs)) for path in PATHS]
                calls += [
                    (None, functools.partial(match_naive, gs=gs)),
                    (None, functools.partial(count_embeddings, gs=gs)),
                ]
        free = GappedSequence(Word((letters[0], letters[-1], letters[0])), FREE2)
        eq = EqualitySystem.from_pairs([(1, 2)])
        calls.append((None, lambda word: match_with_equalities(word, free, eq)))
        other = Word(syms[::-1])
        for gc in ([LengthGap(0, 4)], [RegLenGap(1, 20, wide)], [RegularGap(group)] * 2):
            if sigma ** (len(gc) + 1) > 10**5:
                gc = gc[:1]
            calls += [
                (None, lambda word, gc=gc: universality(word, gc, alphabet)),
                (None, lambda word, gc=gc: containment(word, other, gc, alphabet)),
                (None, lambda word, gc=gc: containment(other, word, gc, alphabet)),
                (None, lambda word, gc=gc: equivalence(word, other, gc, alphabet)),
            ]
            if sigma < 256:
                calls.append((None, lambda word, gc=gc: parikh_k(word, gc, alphabet)))
        rng.shuffle(calls)
        for path, call in calls:
            with windowed_engine(*path) if path else contextlib.nullcontext():
                assert call(shared) == call(Word(syms)), (len(syms), path, call)
        if syms:
            with windowed_engine(math.inf, BLOCK):
                assert GapStep(shared, RegLenGap(2, 30, wide)).block == BLOCK
        # the index changes neither equality, hash nor repr, and a copy
        # carries none of it
        assert shared == Word(syms) and hash(shared) == hash(Word(syms))
        assert repr(shared) == repr(Word(syms)) == f"Word(symbols={syms!r})"
        assert pickle.dumps(shared) == pickle.dumps(Word(syms))
        gs = GappedSequence(Word((letters[-1], letters[0])), (RegLenGap(0, 30, wide),))
        for twin in (pickle.loads(pickle.dumps(shared)), deepcopy(shared)):
            assert twin == shared and hash(twin) == hash(shared)
            assert match(twin, gs) == match(shared, gs) == match_naive(Word(syms), gs)


def test_equality_matching_checks_dfa_coverage_first():
    # like every entry point, it refuses a DFA that misses a word symbol
    gs = GappedSequence(w("ab"), (RegularGap(sigma_star_dfa(1)),))
    with pytest.raises(InputError, match="covers 1 symbols"):
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
