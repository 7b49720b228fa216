import itertools
import random

import pytest

from gapsub import (
    Alphabet,
    CnfFormula,
    GappedSequence,
    Graph,
    InputError,
    LengthGap,
    MetaNUniInstance,
    OvInstance,
    Word,
    ZeroGap,
    kis_to_metanuni,
    match,
    match_with_equalities,
    metanuni_holds_bruteforce,
    metanuni_to_nuni,
    nuni_universal_word,
    ov_to_match,
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
from gapsub.reductions import _CODE_A, _CODE_B
from helpers import brute_lang_k, brute_match


# ---------------------------------------------------------------------------
# instance types


def test_ov_instance_validation():
    OvInstance(2, ((0, 1),), ((1, 1),))
    with pytest.raises(InputError):
        OvInstance(2, ((0, 1),), ((1, 1), (0, 0)))
    with pytest.raises(InputError):
        OvInstance(2, ((0, 1, 0),), ((1, 1),))
    with pytest.raises(InputError):
        OvInstance(2, ((0, 2),), ((1, 1),))


def test_ov_bruteforce():
    yes = OvInstance(2, ((1, 0),), ((0, 1),))
    no = OvInstance(2, ((1, 1),), ((0, 1),))
    assert solve_ov_bruteforce(yes)
    assert not solve_ov_bruteforce(no)


def test_cnf_validation_rejects_tautology_and_bad_vars():
    CnfFormula(2, (frozenset({1, -2}),))
    with pytest.raises(InputError):
        CnfFormula(2, (frozenset({1, -1}),))
    with pytest.raises(InputError):
        CnfFormula(2, (frozenset({3}),))
    # an empty clause is legal and simply unsatisfiable
    f = CnfFormula(2, (frozenset(),))
    assert not solve_sat_bruteforce(f)


def test_sat_bruteforce():
    assert solve_sat_bruteforce(CnfFormula(1, (frozenset({1}),)))
    assert not solve_sat_bruteforce(
        CnfFormula(1, (frozenset({1}), frozenset({-1})))
    )


def test_graph_canonicalizes():
    g = Graph(3, ((2, 1), (1, 2)))
    assert (1, 2) in g.edges
    # self loops on every vertex are implicit
    assert (1, 1) in g.edges and (3, 3) in g.edges
    assert g.adjacent(1, 2) and g.adjacent(2, 1)
    assert not g.adjacent(1, 3)
    with pytest.raises(InputError):
        Graph(2, ((1, 3),))


def test_kis_bruteforce():
    path = Graph(3, ((1, 2), (2, 3)))
    assert solve_kis_bruteforce(path, 2)  # {1, 3}
    assert not solve_kis_bruteforce(path, 3)
    assert solve_kis_bruteforce(path, 0)
    assert not solve_kis_bruteforce(path, 4)


def test_random_generators_are_deterministic():
    assert random_ov(3, 3, 7) == random_ov(3, 3, 7)
    assert random_cnf(3, 3, 7) == random_cnf(3, 3, 7)
    assert random_graph(4, 3, 7) == random_graph(4, 3, 7)
    assert random_ov(3, 3, 7) != random_ov(3, 3, 8)


def test_random_generators_refuse_negative_counts():
    # a negative count once sliced pairs[:-1] or made an empty formula
    with pytest.raises(InputError, match="edge count"):
        random_graph(4, -1, 7)
    with pytest.raises(InputError, match="clause count"):
        random_cnf(3, -2, 7)
    assert random_graph(4, 0, 7).edges == tuple((u, u) for u in range(1, 5))
    assert random_cnf(3, 0, 7).clauses == ()


# ---------------------------------------------------------------------------
# orthogonal vectors as matching


def test_ov_code_tables_factor_law():
    # code_b(x) is a zero-gap factor of code_a(y) exactly when x * y = 0
    for x in (0, 1):
        for y in (0, 1):
            a = _CODE_A[y]
            b = _CODE_B[x]
            hits = [
                i
                for i in range(len(a) - len(b) + 1)
                if a[i : i + len(b)] == b
            ]
            assert bool(hits) == (x * y == 0)


def test_ov_gadget_sizes():
    for n, d in ((1, 2), (2, 3), (3, 4)):
        inst = random_ov(n, d, seed=5)
        w, gs = ov_to_match(inst)
        assert len(w) == (2 * n - 1) * (15 * d + 1) + 1
        assert len(gs.pattern) == 8 * n * d - 2
        # all constraints are length windows of width at most 6
        for c in gs.constraints:
            assert isinstance(c, (ZeroGap, LengthGap))
            if isinstance(c, LengthGap):
                assert c.lo == 0 and c.hi <= 6


def test_ov_needs_two_dimensions():
    with pytest.raises(InputError):
        ov_to_match(OvInstance(1, ((1,),), ((0,),)))


def test_ov_chain_exhaustive_tiny():
    for n, d in ((1, 2), (2, 2)):
        for bits in itertools.product((0, 1), repeat=2 * n * d):
            vecs = [tuple(bits[i * d : (i + 1) * d]) for i in range(2 * n)]
            inst = OvInstance(d, tuple(vecs[:n]), tuple(vecs[n:]))
            want = solve_ov_bruteforce(inst)
            w, gs = ov_to_match(inst)
            e = match(w, gs)
            assert (e is not None) == want
            if e is not None:
                assert verify_embedding(w, gs, e)


def test_ov_chain_random():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 5)
        d = rng.randint(2, 4)
        inst = random_ov(n, d, seed=rng.randint(0, 10**6))
        want = solve_ov_bruteforce(inst)
        got = match(ov_to_match(inst)[0], ov_to_match(inst)[1])
        assert (got is not None) == want


# ---------------------------------------------------------------------------
# covering matrices


def test_metanuni_validation_and_bruteforce():
    inst = MetaNUniInstance(2, 2, (({1}, {1, 2}),))
    assert inst.q == 1
    assert metanuni_holds_bruteforce(inst)  # (2, 1) is uncovered
    full = MetaNUniInstance(1, 1, (({1},),))
    assert not metanuni_holds_bruteforce(full)
    with pytest.raises(InputError):
        MetaNUniInstance(2, 2, ((set(), {1}),))
    with pytest.raises(InputError):
        MetaNUniInstance(2, 2, (({3}, {1}),))


def _all_small_formulas(num_vars, max_clauses):
    lits = [v for v in range(1, num_vars + 1)] + [
        -v for v in range(1, num_vars + 1)
    ]
    clauses = []
    for size in (1, 2):
        for combo in itertools.combinations(lits, size):
            if any(-l in combo for l in combo):
                continue
            clauses.append(frozenset(combo))
    out = []
    for count in range(1, max_clauses + 1):
        for chosen in itertools.combinations(clauses, count):
            out.append(CnfFormula(num_vars, tuple(chosen)))
    return out


def test_sat_to_metanuni_exhaustive_small():
    # uncovered string exists iff satisfiable
    for f in _all_small_formulas(2, 2):
        meta = sat_to_metanuni(f)
        assert meta.gamma_size == 2 and meta.k == f.num_vars
        assert metanuni_holds_bruteforce(meta) == solve_sat_bruteforce(f)


def test_sat_to_metanuni_row_shape():
    f = CnfFormula(3, (frozenset({1, -2}),))
    meta = sat_to_metanuni(f)
    # a clause row covers exactly its falsifying assignments:
    # positive literal -> {false}, negated -> {true}, absent -> both
    assert meta.rows == (({1}, {2}, {1, 2}),)


def test_kis_to_metanuni_exhaustive_small():
    for n in (1, 2, 3):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for picks in itertools.product((0, 1), repeat=len(pairs)):
            edges = tuple(p for p, keep in zip(pairs, picks) if keep)
            g = Graph(n, edges)
            for k in range(1, n + 2):
                want = solve_kis_bruteforce(g, k)
                meta = kis_to_metanuni(g, k)
                assert metanuni_holds_bruteforce(meta) == want


def test_metanuni_to_nuni_language_lemma():
    # constrained k-subsequences of the built word are exactly: strings
    # using the filler somewhere, plus the rows' covered Gamma-strings
    instances = [
        MetaNUniInstance(2, 2, (({1}, {1, 2}),)),
        MetaNUniInstance(2, 2, (({1}, {1}), ({2}, {1, 2}))),
        MetaNUniInstance(3, 2, (({1, 3}, {2}),)),
        MetaNUniInstance(2, 3, (({1}, {1, 2}, {2}),)),
    ]
    for inst in instances:
        m, k = inst.gamma_size, inst.k
        sigma = m + 1
        w, gc = metanuni_to_nuni(inst)
        lang = brute_lang_k(w, gc, sigma, k)
        filler_strings = {
            x
            for x in itertools.product(range(1, sigma + 1), repeat=k)
            if sigma in x
        }
        covered = set()
        for row in inst.rows:
            covered |= set(itertools.product(*[sorted(c) for c in row]))
        assert lang == filler_strings | covered


def test_metanuni_to_nuni_universality_iff_cover():
    rng = random.Random(17)
    for _ in range(25):
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        q = rng.randint(1, 3)
        rows = tuple(
            tuple(
                set(rng.sample(range(1, m + 1), rng.randint(1, m)))
                for _ in range(k)
            )
            for _ in range(q)
        )
        inst = MetaNUniInstance(m, k, rows)
        w, gc = metanuni_to_nuni(inst)
        rep = universality(w, gc, Alphabet(m + 1))
        assert rep.decision == (not metanuni_holds_bruteforce(inst))


def test_nuni_universal_word():
    for m, k in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2)):
        w = nuni_universal_word(m, k)
        gc = tuple(LengthGap(m - 1, 3 * m - 1) for _ in range(k - 1))
        rep = universality(w, gc, Alphabet(m + 1))
        assert rep.decision, (m, k)


# ---------------------------------------------------------------------------
# binary-alphabet equivalence chain


def _encode_assignment(bits):
    # variable true -> bb, false -> aa
    out = ()
    for b in bits:
        out += (2, 2) if b else (1, 1)
    return out


def test_binary_chain_language_lemma():
    # the reference is universal; the built word misses exactly the
    # encodings of satisfying assignments
    for f in _all_small_formulas(2, 2)[:40]:
        s, gc, ref = sat_to_nuni_binary(f)
        k = f.num_vars
        assert brute_lang_k(ref, gc, 2, 2 * k) == set(
            itertools.product((1, 2), repeat=2 * k)
        )
        sat_encodings = set()
        for bits in itertools.product((0, 1), repeat=k):
            assignment = {i + 1: bool(b) for i, b in enumerate(bits)}
            if all(
                any(
                    assignment[abs(l)] == (l > 0)
                    for l in clause
                )
                for clause in f.clauses
            ):
                sat_encodings.add(_encode_assignment(bits))
        lang = brute_lang_k(s, gc, 2, 2 * k)
        everything = set(itertools.product((1, 2), repeat=2 * k))
        assert lang == everything - sat_encodings


def test_binary_chain_decision_random():
    from gapsub import equivalence

    rng = random.Random(23)
    for _ in range(40):
        f = random_cnf(rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 10**6))
        s, gc, ref = sat_to_nuni_binary(f)
        rep = equivalence(s, ref, gc, Alphabet(2))
        assert rep.decision == (not solve_sat_bruteforce(f))


# ---------------------------------------------------------------------------
# equality-matching chain


def test_equality_chain_sizes():
    f = CnfFormula(3, (frozenset({1, -2, 3}),))
    w, gs, eq = sat_to_match_equalities(f)
    n, m = 3, 1
    assert len(gs.pattern) == 6 * n + 6 * m + 1
    assert len(w) == 13 * n + 16 * m + 1


def test_equality_chain_rejects_wrong_arity():
    with pytest.raises(InputError):
        sat_to_match_equalities(CnfFormula(3, (frozenset({1, 2}),)))


def test_equality_chain_exhaustive_single_clause():
    # all exactly-3-literal clauses over three variables
    for signs in itertools.product((1, -1), repeat=3):
        clause = frozenset(s * v for s, v in zip(signs, (1, 2, 3)))
        f = CnfFormula(3, (clause,))
        w, gs, eq = sat_to_match_equalities(f)
        got = match_with_equalities(w, gs, eq)
        assert got is not None  # a single clause is always satisfiable
        assert verify_embedding(w, gs, got)
        assert eq.satisfied_by(w, got)


def test_equality_chain_unsat_instance():
    # x1 forced both ways through three-literal clauses
    clauses = (
        frozenset({1, 2, 3}),
        frozenset({1, -2, 3}),
        frozenset({1, 2, -3}),
        frozenset({1, -2, -3}),
        frozenset({-1, 2, 3}),
        frozenset({-1, -2, 3}),
        frozenset({-1, 2, -3}),
        frozenset({-1, -2, -3}),
    )
    f = CnfFormula(3, clauses)
    assert not solve_sat_bruteforce(f)
    w, gs, eq = sat_to_match_equalities(f)
    assert match_with_equalities(w, gs, eq) is None


def test_equality_chain_random():
    rng = random.Random(41)
    for _ in range(25):
        f = random_cnf(rng.randint(3, 4), rng.randint(1, 3), rng.randint(0, 10**6), arity=3)
        want = solve_sat_bruteforce(f)
        w, gs, eq = sat_to_match_equalities(f)
        got = match_with_equalities(w, gs, eq)
        assert (got is not None) == want


# ---------------------------------------------------------------------------
# brute oracles cross-check each other on overlapping ground


def test_brute_match_agrees_with_matcher_on_reduction_words():
    inst = random_ov(2, 3, seed=9)
    w, gs = ov_to_match(inst)
    assert brute_match(w, gs) == (match(w, gs) is not None)
