"""End-to-end acceptance checks.

Each test here covers one observable guarantee of the package: the hand-worked
examples, the README's library example and its CLI transcript come out
exactly, every matcher agrees with the reference matcher on large random and
exhaustive input grids, the hardness reduction chains agree with brute-force
solvers of the source problems, multiplicity comparison is exact beyond
machine-word sizes, its basis work is bounded per layer and its spreads
polynomially, it gives the known answers on Thue-Morse pairs, universality
gives the known answers of arch counts, the tuned matcher
scales near-linearly in both word length and automaton size, classical
containment agrees with plain enumeration, and oversized analyses fail loudly
instead of truncating.

Every test prints a one-line summary and enforces its own wall-clock budget.
"""

import gc as _gc
import itertools
import math
import pathlib
import random
import re
import shlex
import statistics
import time

import pytest

from helpers import (
    all_words,
    arch_universality,
    brute_embeddings,
    brute_lang_k,
    brute_parikh,
    plain_subsequence_set,
    random_instance,
    reglen_instance,
)

from gapsub import (
    INF,
    Alphabet,
    BudgetError,
    CnfFormula,
    Dfa,
    EqualitySystem,
    GappedSequence,
    Graph,
    LengthGap,
    OvInstance,
    RegLenGap,
    RegularGap,
    Word,
    ZeroGap,
    classical_containment,
    count_embeddings,
    equivalence,
    equivalence_with_multiplicities,
    kis_to_metanuni,
    match,
    match_with_equalities,
    metanuni_holds_bruteforce,
    metanuni_to_nuni,
    nuni_universal_word,
    ov_to_match,
    parikh_k,
    path_equivalent,
    build_counting_nfa,
    random_cnf,
    random_graph,
    random_ov,
    sat_to_match_equalities,
    sat_to_metanuni,
    sat_to_nuni_binary,
    solve_kis_bruteforce,
    solve_ov_bruteforce,
    solve_sat_bruteforce,
    universality,
    verify_embedding,
)
from gapsub import multiplicity
from gapsub.cli import run_cli
from gapsub.matchers import GapStep, match_naive

FREE = LengthGap(0, INF)


def _w(text: str) -> Word:
    return Word(tuple("abc".index(ch) + 1 for ch in text))


def test_worked_examples_exact():
    t0 = time.perf_counter()
    w = _w("abacbba")
    aaa = GappedSequence(_w("aaa"), (FREE, FREE))
    assert brute_embeddings(w, aaa) == [(1, 3, 7)]
    assert count_embeddings(w, aaa) == 1
    got = match(w, aaa)
    assert got is not None and got.positions == (1, 3, 7)

    cba = GappedSequence(_w("cba"), (FREE, FREE))
    assert len(brute_embeddings(w, cba)) == 2
    assert count_embeddings(w, cba) == 2

    two_free = (FREE,)
    vec_abba = parikh_k(_w("abba"), two_free, Alphabet(2))
    assert vec_abba == {_w("aa"): 1, _w("ab"): 2, _w("ba"): 2, _w("bb"): 1}
    vec_abab = parikh_k(_w("abab"), two_free, Alphabet(2))
    assert vec_abab == {_w("aa"): 1, _w("ab"): 3, _w("ba"): 1, _w("bb"): 1}

    assert count_embeddings(_w("bbaa"), GappedSequence(_w("ba"), (FREE,))) == 4
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"pass: worked examples exact in {dt:.3f}s")


def test_readme_library_example(capsys):
    t0 = time.perf_counter()
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    # each print line ends in a comment holding what it prints
    want = [line.rsplit("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(want) == 3
    exec(compile(block, str(readme), "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"pass: README library example prints its {len(want)} commented values in {dt:.3f}s")


def test_readme_cli_transcript(tmp_path, monkeypatch, capsys):
    t0 = time.perf_counter()
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    # in the ``` blocks, each "$ " line is followed by what it prints, up to
    # the next blank line
    lines = "\n".join(re.findall(r"^```\n(.*?)^```", text, re.S | re.M)).splitlines()
    monkeypatch.chdir(tmp_path)
    ran = 0
    for i, line in enumerate(lines):
        if not line.startswith("$ "):
            continue
        want = list(itertools.takewhile(bool, lines[i + 1 :]))
        command, *argv = shlex.split(line[2:])
        if command == "cat":
            (tmp_path / argv[0]).write_text("\n".join(want) + "\n")
        else:
            assert command == "gapsub"
            run_cli(argv)
            assert capsys.readouterr().out.splitlines() == want, line
            ran += 1
    assert ran == 8
    dt = time.perf_counter() - t0
    assert dt < 2.0
    print(f"pass: README CLI transcript reproduces its {ran} gapsub commands in {dt:.3f}s")


EVEN_LEN = Dfa(2, 0, frozenset({0}), ((1, 1), (0, 0)))
HAS_FIRST = Dfa(2, 0, frozenset({1}), ((1, 0), (1, 1)))
STAR2 = Dfa(1, 0, frozenset({0}), ((0, 0),))

CONSTRAINT_BASES = {
    "length": [ZeroGap(), LengthGap(0, 0), LengthGap(1, 2), LengthGap(0, INF), LengthGap(2, INF)],
    "regular": [RegularGap(EVEN_LEN), RegularGap(HAS_FIRST), RegularGap(STAR2)],
    "reglen": [
        RegLenGap(0, 2, EVEN_LEN),
        RegLenGap(1, INF, HAS_FIRST),
        RegLenGap(0, INF, STAR2),
        RegLenGap(0, 0, STAR2),
    ],
}

def _pools(kind: str, k: int) -> list[tuple]:
    tuples = list(itertools.product(CONSTRAINT_BASES[kind], repeat=k - 1))
    if len(tuples) > 10:
        tuples = random.Random(f"pool:{kind}:{k}").sample(tuples, 10)
    return tuples


def test_matchers_agree_with_naive_reference():
    t0 = time.perf_counter()
    per_class = 10_000
    checked = 0
    for kind in CONSTRAINT_BASES:
        rng = random.Random(f"agree:{kind}")
        for _ in range(per_class):
            w, gs = random_instance(rng, kind, max_n=25, max_k=7, max_sigma=4)
            a = match_naive(w, gs)
            b = match(w, gs)
            assert (a is None) == (b is None), (kind, w, gs)
            if b is not None:
                assert verify_embedding(w, gs, b)
                assert b.positions == a.positions, (kind, w, gs)
            checked += 1
    words = all_words(2, range(0, 9))
    for kind in CONSTRAINT_BASES:
        for k in (1, 2, 3):
            pats = all_words(2, [k])
            for cons in _pools(kind, k):
                for p in pats:
                    gs = GappedSequence(p, cons)
                    for w in words:
                        a = match_naive(w, gs)
                        b = match(w, gs)
                        assert (a is None) == (b is None), (kind, w, gs)
                        if b is not None:
                            assert b.positions == a.positions, (kind, w, gs)
                        checked += 1
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"pass: {checked} matcher agreement checks in {dt:.1f}s")


def _all_two_var_formulas() -> list[CnfFormula]:
    singles = [frozenset({lit}) for lit in (1, -1, 2, -2)]
    pairs = [frozenset({a, b}) for a in (1, -1) for b in (2, -2)]
    clauses = singles + pairs
    out = [CnfFormula(2, (c,)) for c in clauses]
    out.extend(
        CnfFormula(2, (c1, c2)) for c1, c2 in itertools.combinations(clauses, 2)
    )
    return out


def _covered_strings(inst) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for row in inst.rows:
        out.update(itertools.product(*[sorted(cell) for cell in row]))
    return out


def _filler_strings(inst) -> set[tuple[int, ...]]:
    full = itertools.product(range(1, inst.gamma_size + 2), repeat=inst.k)
    return {s for s in full if inst.gamma_size + 1 in s}


def _binary_encoding(assignment: tuple[bool, ...]) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for val in assignment:
        out += (2, 2) if val else (1, 1)
    return out


def test_reduction_chains_match_bruteforce_oracles():
    t0 = time.perf_counter()

    # orthogonal-vectors chain, exhaustive over every small bit pattern
    for n, d in ((1, 2), (1, 3), (1, 4), (2, 2)):
        for bits in itertools.product((0, 1), repeat=2 * n * d):
            vecs = [tuple(bits[i * d : (i + 1) * d]) for i in range(2 * n)]
            inst = OvInstance(d, tuple(vecs[:n]), tuple(vecs[n:]))
            w, gs = ov_to_match(inst)
            got = match(w, gs)
            assert (got is not None) == solve_ov_bruteforce(inst)
            if got is not None:
                assert verify_embedding(w, gs, got)
    for seed in range(500):
        rng = random.Random(f"ov:{seed}")
        inst = random_ov(rng.randint(1, 5), rng.randint(2, 4), seed)
        w, gs = ov_to_match(inst)
        got = match(w, gs)
        assert (got is not None) == solve_ov_bruteforce(inst)
        if got is not None:
            assert verify_embedding(w, gs, got)

    # covering instances: word language checked string by string, then the
    # universality decision, for every small formula and graph
    for f in _all_two_var_formulas():
        inst = sat_to_metanuni(f)
        word, gc = metanuni_to_nuni(inst)
        lang = brute_lang_k(word, gc, inst.gamma_size + 1, inst.k)
        want = _filler_strings(inst) | _covered_strings(inst)
        assert set(lang) == want
        holds = metanuni_holds_bruteforce(inst)
        assert holds == solve_sat_bruteforce(f)
        rep = universality(word, gc, Alphabet(inst.gamma_size + 1))
        assert rep.decision == (not holds)
    for seed in range(500):
        rng = random.Random(f"satuni:{seed}")
        f = random_cnf(rng.randint(1, 4), rng.randint(0, 5), seed)
        inst = sat_to_metanuni(f)
        word, gc = metanuni_to_nuni(inst)
        rep = universality(word, gc, Alphabet(inst.gamma_size + 1))
        assert rep.decision == (not solve_sat_bruteforce(f))

    num_vertices = 3
    edge_pool = list(itertools.combinations(range(1, num_vertices + 1), 2))
    for r in range(len(edge_pool) + 1):
        for edges in itertools.combinations(edge_pool, r):
            g = Graph(num_vertices, tuple(edges))
            for k in (1, 2, 3, 4):
                inst = kis_to_metanuni(g, k)
                word, gc = metanuni_to_nuni(inst)
                lang = brute_lang_k(word, gc, inst.gamma_size + 1, inst.k)
                want = _filler_strings(inst) | _covered_strings(inst)
                assert set(lang) == want
                holds = metanuni_holds_bruteforce(inst)
                assert holds == solve_kis_bruteforce(g, k)
                rep = universality(word, gc, Alphabet(inst.gamma_size + 1))
                assert rep.decision == (not holds)
    for seed in range(500):
        rng = random.Random(f"kis:{seed}")
        nv = rng.randint(1, 4)
        g = random_graph(nv, rng.randint(0, nv * (nv - 1) // 2), seed)
        k = rng.randint(1, 4)
        inst = kis_to_metanuni(g, k)
        word, gc = metanuni_to_nuni(inst)
        rep = universality(word, gc, Alphabet(inst.gamma_size + 1))
        assert rep.decision == (not solve_kis_bruteforce(g, k))

    # binary-alphabet chain: the reference word is universal, the encoded
    # word misses exactly the satisfying assignments
    for f in _all_two_var_formulas():
        s, gc, ref = sat_to_nuni_binary(f)
        k2 = 2 * f.num_vars
        assert set(brute_lang_k(ref, gc, 2, k2)) == set(
            itertools.product((1, 2), repeat=k2)
        )
        missing = set(itertools.product((1, 2), repeat=k2)) - set(
            brute_lang_k(s, gc, 2, k2)
        )
        sat_encodings = {
            _binary_encoding(assignment)
            for assignment in itertools.product((False, True), repeat=f.num_vars)
            if all(
                any((lit > 0) == assignment[abs(lit) - 1] for lit in c)
                for c in f.clauses
            )
        }
        assert missing == sat_encodings
    for seed in range(500):
        rng = random.Random(f"bin:{seed}")
        f = random_cnf(rng.randint(1, 4), rng.randint(0, 5), seed)
        s, gc, ref = sat_to_nuni_binary(f)
        rep = equivalence(s, ref, gc, Alphabet(2))
        assert rep.decision == (not solve_sat_bruteforce(f))

    # gap-length-equality chain
    for signs in itertools.product((1, -1), repeat=3):
        f = CnfFormula(3, (frozenset({signs[0] * 1, signs[1] * 2, signs[2] * 3}),))
        w, gs, eq = sat_to_match_equalities(f)
        got = match_with_equalities(w, gs, eq)
        assert got is not None  # a single 3-literal clause is always satisfiable
        assert verify_embedding(w, gs, got) and eq.satisfied_by(w, got)
    for seed in range(500):
        rng = random.Random(f"eq:{seed}")
        f = random_cnf(rng.randint(3, 4), rng.randint(1, 4), seed, arity=3)
        w, gs, eq = sat_to_match_equalities(f)
        got = match_with_equalities(w, gs, eq)
        assert (got is not None) == solve_sat_bruteforce(f)
        if got is not None:
            assert verify_embedding(w, gs, got) and eq.satisfied_by(w, got)

    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(f"pass: reduction chains agree with brute-force oracles in {dt:.1f}s")


def test_multiplicity_equivalence_and_bigint_exactness():
    t0 = time.perf_counter()
    rng = random.Random("multacc")
    kinds = ("length", "regular", "reglen")
    for trial in range(200):
        kind = kinds[trial % 3]
        wa, gs = random_instance(rng, kind, max_n=10, max_k=4, max_sigma=3)
        sigma = max([1] + [s for word in (wa,) for s in word.symbols])
        sigma = max(sigma, max(gs.pattern.symbols))
        wb = Word(tuple(rng.randint(1, sigma) for _ in range(rng.randint(0, 10))))
        gc = gs.constraints
        k = len(gc) + 1
        got, wit = equivalence_with_multiplicities(wa, wb, gc)
        want = brute_parikh(wa, gc, sigma, k) == brute_parikh(wb, gc, sigma, k)
        assert got == want
        if wit is not None:
            ca = len(brute_embeddings(wa, GappedSequence(wit, gc)))
            cb = len(brute_embeddings(wb, GappedSequence(wit, gc)))
            assert ca != cb

    # counts past 64 bits stay exact
    long_a = Word((1,) * 70)
    short_a = Word((1,) * 69)
    k = 35
    gc = (FREE,) * (k - 1)
    pattern = GappedSequence(Word((1,) * k), gc)
    assert count_embeddings(long_a, pattern) == math.comb(70, 35) > 2**64
    assert count_embeddings(short_a, pattern) == math.comb(69, 35)
    same, _ = path_equivalent(
        build_counting_nfa(long_a, gc), build_counting_nfa(long_a, gc)
    )
    assert same
    differ, wit = equivalence_with_multiplicities(long_a, short_a, gc)
    assert not differ and wit is not None and len(wit) == k
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"pass: multiplicity comparison exact (incl. >2^64 counts) in {dt:.1f}s")


def test_multiplicity_basis_work_is_bounded_per_layer(monkeypatch):
    # a word against itself is the worst case: no difference stops the
    # search early.  Each layer below the last inserts at most sigma
    # children of each of the at most 2n + 2 independent vectors of the
    # layer above, and the last layer inserts nothing
    t0 = time.perf_counter()
    sigma, k = 4, 5
    calls = []
    insert = multiplicity._insert_basis

    def counted(vec, basis):
        calls.append(len(vec))
        return insert(vec, basis)

    monkeypatch.setattr(multiplicity, "_insert_basis", counted)
    rng = random.Random("multscale")
    rows = []
    for n in (80, 160, 320):
        word = Word(tuple(rng.randint(1, sigma) for _ in range(n)))
        calls.clear()
        t = time.perf_counter()
        got = equivalence_with_multiplicities(word, word, (LengthGap(0, 3),) * (k - 1))
        rows.append(f"n={n}: {len(calls)} inserts in {time.perf_counter() - t:.2f}s")
        assert got == (True, None)
        assert len(calls) <= 1 + sigma * (k - 1) * (2 * n + 2), (n, len(calls))
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"pass: multiplicity equivalence, sigma={sigma}, k={k}: " + "; ".join(rows))


def test_multiplicity_spread_work_is_polynomial(monkeypatch):
    # a layer with a basis keeps at most D = 2n + 2 independent vectors,
    # and once the layers below are enumerated they hold at most
    # 2 * sigma * k * D vectors together, so the two automata spread at most
    # 2 * (k * D + 2 * sigma * k * D) vectors.  Words of one symbol have
    # one string per length: they spread one vector per layer
    t0 = time.perf_counter()
    spread = []
    reach_counts = GapStep.reach_counts

    def counted(self, vecs, width):
        spread.append(len(vecs))
        return reach_counts(self, vecs, width)

    monkeypatch.setattr(GapStep, "reach_counts", counted)
    rng = random.Random("multspread")
    rows = []
    cases = [
        (4, 5, 320, LengthGap(0, 3)),
        (3, 6, 320, FREE),
        (2, 8, 160, FREE),
        (2, 14, 60, FREE),  # enumerating every layer would pass the bound
    ]
    for sigma, k, n, gap in cases:
        word = Word(tuple(rng.randint(1, sigma) for _ in range(n)))
        spread.clear()
        assert equivalence_with_multiplicities(word, word, (gap,) * (k - 1)) == (True, None)
        dim = 2 * n + 2
        assert sum(spread) <= 2 * (k * dim + 2 * sigma * k * dim), (sigma, k, n, sum(spread))
        rows.append(f"sigma={sigma} k={k} n={n}: {sum(spread)} vectors")
    ones, fewer = Word((2,) * 200), Word((2,) * 199)
    for k in (2, 30):
        gc = (FREE,) * (k - 1)
        spread.clear()
        assert equivalence_with_multiplicities(ones, ones, gc) == (True, None)
        assert spread == [1] * (2 * (k - 1))
        assert equivalence_with_multiplicities(ones, fewer, gc) == (False, Word((2,) * k))
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print("pass: multiplicity spreads polynomially bounded: " + "; ".join(rows) + f" in {dt:.1f}s")


def _thue_morse(m: int, first: int) -> Word:
    syms = [first]
    for _ in range(m):
        syms = [s for x in syms for s in (x, 3 - x)]
    return Word(tuple(syms))


def test_thue_morse_multiplicity_known_answers():
    # mu^m(a) and mu^m(b) are m-binomially but not (m+1)-binomially
    # equivalent (Ochsenschlaeger 1981; Rigo & Salimov, TCS 2015): under
    # free gaps they are multiplicity-equivalent at k = m, and at k = m + 1
    # the least string whose counts differ is a^m b.  At n = 128 and 256
    # no brute force reaches these answers
    t0 = time.perf_counter()
    for m in (7, 8):
        a, b = _thue_morse(m, 1), _thue_morse(m, 2)
        assert len(a) == 2**m and a != b
        assert equivalence_with_multiplicities(a, b, (FREE,) * (m - 1)) == (True, None)
        wit = GappedSequence(Word((1,) * m + (2,)), (FREE,) * m)
        assert equivalence_with_multiplicities(a, b, wit.constraints) == (False, wit.pattern)
        assert count_embeddings(a, wit) != count_embeddings(b, wit)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"pass: Thue-Morse pairs at n = 128, 256 equivalent at k = m, not at m + 1, in {dt:.1f}s")


def test_arch_universality_known_answers():
    # under free gaps w is k-universal exactly when it has k arches (factors
    # holding every symbol), and the least absent string follows greedily
    # from suffix arch counts, so decision, witness and candidates_checked
    # are known on words far past brute force
    t0 = time.perf_counter()
    ab = Alphabet.from_glyphs("ab")
    w = ab.word("aaabaaabaaabba")  # four arches
    rep = universality(w, (FREE,) * 3, ab)
    assert (rep.decision, rep.witness, rep.candidates_checked) == (True, None, 16)
    rep = universality(w, (FREE,) * 4, ab)
    assert (rep.decision, rep.witness, rep.candidates_checked) == (False, ab.word("bbbaa"), 29)

    rng = random.Random(12)
    checked = longest = 0
    for sigma, arches in ((2, 18), (3, 10), (4, 8)):
        for _ in range(3):
            # an arch ends at the first occurrence of its last symbol; the
            # tail lacks one symbol, so it holds no further arch
            syms = []
            for _ in range(arches):
                last = rng.randint(1, sigma)
                body = [a for a in range(1, sigma + 1) if a != last]
                body += rng.choices(body, k=rng.randint(0, 8))
                rng.shuffle(body)
                syms += body + [last]
            lacking = rng.randint(1, sigma)
            present = [a for a in range(1, sigma + 1) if a != lacking]
            syms += rng.choices(present, k=rng.randint(0, 8))
            w = Word(tuple(syms))
            longest = max(longest, len(w))
            for k in range(arches - 1, arches + 3):
                rep = universality(w, (FREE,) * (k - 1), Alphabet(sigma))
                decision, witness, rank = arch_universality(w, sigma, k)
                assert rep.decision == decision == (k <= arches), (sigma, k)
                assert rep.witness == (None if witness is None else Word(witness)), (sigma, k)
                assert rep.candidates_checked == rank, (sigma, k)
                checked += 1
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"pass: {checked} arch-built universality answers (n up to {longest}) in {dt:.2f}s")


def _round_robin_medians(instances, trials: int) -> list[float]:
    """Median ns of match per instance: an untimed warm-up each, then
    trials rounds over every instance with the garbage collector off, so a
    slow or fast spell of the host falls on every instance alike."""
    for w, gs in instances:
        assert match(w, gs) is not None
    samples = [[] for _ in instances]
    _gc.disable()
    try:
        for _ in range(trials):
            for (w, gs), times in zip(instances, samples):
                t = time.perf_counter_ns()
                match(w, gs)
                times.append(time.perf_counter_ns() - t)
    finally:
        _gc.enable()
    return [statistics.median(times) for times in samples]


def test_reglen_runtime_scales_near_linearly():
    t0 = time.perf_counter()
    sizes = [10_000, 20_000, 40_000, 80_000]
    times = _round_robin_medians([reglen_instance(n, 3, 3, 11) for n in sizes], trials=5)
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    assert all(r <= 2.6 for r in ratios), ratios

    # the 2-state baseline is timed in the same round-robin loop as the
    # 4- to 64-state rows, so host drift does not move their ratio
    states = (2, 4, 8, 16, 32, 64)
    medians = _round_robin_medians([reglen_instance(20_000, 3, s, 0) for s in states], trials=3)
    base_per_state, *per_state = (t / s for t, s in zip(medians, states))
    for s, cost in zip(states[1:], per_state):
        assert cost <= 1.3 * base_per_state, (s, cost, base_per_state)
    dt = time.perf_counter() - t0
    print(
        "pass: doubling ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + " (bound 2.6); per-state cost within 1.3x of the 2-state baseline"
        + f" in {dt:.1f}s"
    )


def test_classical_containment_matches_enumeration():
    t0 = time.perf_counter()
    structured = [
        "", "a", "b", "ab", "ba", "aa", "abc", "cba", "aab", "abab",
        "abba", "aabb", "baba", "abcabc", "ccc", "abccba", "aaaaa", "abcba",
        "bac", "cab",
    ]
    rng = random.Random("classic-corpus")
    corpus = [_w(t) for t in structured]
    for _ in range(8):
        n = rng.randint(1, 10)
        corpus.append(Word(tuple(rng.randint(1, 3) for _ in range(n))))
    sets = {}
    for i, w in enumerate(corpus):
        for k in range(6):
            sets[(i, k)] = plain_subsequence_set(w, k)
    checked = 0
    for i, w1 in enumerate(corpus):
        for j, w2 in enumerate(corpus):
            for k in range(6):
                got, wit = classical_containment(w1, w2, k)
                if len(w1) < k:
                    want = True
                else:
                    want = sets[(i, k)] <= sets[(j, k)]
                assert got == want, (w1, w2, k)
                if wit is not None:
                    m = len(wit)
                    assert wit.symbols in plain_subsequence_set(w1, m)
                    assert wit.symbols not in plain_subsequence_set(w2, m)
                checked += 1
    both = (classical_containment(_w("abba"), _w("abab"), 2),
            classical_containment(_w("abab"), _w("abba"), 2))
    assert both[0][0] and both[1][0]
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"pass: {checked} classical containment checks in {dt:.1f}s")


def test_oversized_analysis_fails_loudly(tmp_path, capsys):
    gc = (FREE,) * 19
    w = Word(tuple((i % 3) + 1 for i in range(30)))
    with pytest.raises(BudgetError) as err:
        universality(w, gc, Alphabet(3))
    assert "3^20" in str(err.value) and "budget" in str(err.value)

    cfile = tmp_path / "huge.constraints"
    cfile.write_text("k 20\n" + "L 0 inf\n" * 19)
    code = run_cli(["analyze", "uni", "-w", "abcabc", "-c", str(cfile)])
    captured = capsys.readouterr()
    assert code == 2
    assert "universal" not in captured.out
    assert "budget" in captured.err.lower()
    print("pass: oversized universality raises a budget error, library and cli")
