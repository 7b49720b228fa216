import os
import subprocess
import sys

import pytest

from gapsub import (
    INF,
    Alphabet,
    Dfa,
    InputError,
    LengthGap,
    RegLenGap,
    RegularGap,
    Word,
    ZeroGap,
    sigma_star_dfa,
    solve_ov_bruteforce,
    solve_sat_bruteforce,
)
from gapsub.cli import (
    bench_match,
    parse_constraints_text,
    parse_cnf_text,
    parse_dfa_text,
    parse_eq_text,
    parse_graph_text,
    parse_ov_text,
    parse_word_text,
    resolve_words,
    run_cli,
    serialize_cnf_text,
    serialize_constraints_text,
    serialize_dfa_text,
    serialize_graph_text,
    serialize_ov_text,
    serialize_word_text,
    load_word_value,
)
from gapsub.reductions import random_cnf, random_graph, random_ov


def test_word_file_round_trip_char():
    ab = Alphabet.from_glyphs("ab#")
    w = Word((1, 3, 2, 3))
    text = serialize_word_text(w, ab, "char")
    back = parse_word_text(text)
    alphabet, words, mode = resolve_words([back])
    assert mode == "char"
    assert words[0].symbols == w.symbols
    assert alphabet.glyphs == ab.glyphs


def test_word_file_round_trip_int():
    ab = Alphabet(5)
    w = Word((5, 1, 4))
    text = serialize_word_text(w, ab, "int")
    back = parse_word_text(text)
    alphabet, words, mode = resolve_words([back])
    assert mode == "int"
    assert words[0].symbols == w.symbols
    assert alphabet.size == 5


def test_word_file_comment_and_hash_glyph():
    text = "# a comment line\nmode char\nglyphs 01#@\nword #0#@\n"
    back = parse_word_text(text)
    alphabet, words, _ = resolve_words([back])
    assert words[0].symbols == (3, 1, 3, 4)


def test_empty_word_line():
    back = parse_word_text("mode char\nglyphs ab\nword\n")
    _, words, _ = resolve_words([back])
    assert words[0].symbols == ()


def test_mixing_modes_rejected():
    a = parse_word_text("mode char\nword ab\n")
    b = parse_word_text("mode int\nsigma 2\nword 1 2\n")
    with pytest.raises(InputError):
        resolve_words([a, b])


def test_conflicting_glyph_tables_rejected():
    a = parse_word_text("mode char\nglyphs ab\nword ab\n")
    b = parse_word_text("mode char\nglyphs ba\nword ab\n")
    with pytest.raises(InputError):
        resolve_words([a, b])


def test_inline_words_use_sorted_union():
    a = load_word_value("ba")
    b = load_word_value("ac")
    alphabet, words, _ = resolve_words([a, b])
    assert "".join(alphabet.glyphs) == "abc"
    assert words[0].symbols == (2, 1)
    assert words[1].symbols == (1, 3)


def test_dfa_file_round_trip():
    d = Dfa(2, 0, frozenset({1}), ((1, 0), (0, 1)))
    text = serialize_dfa_text(d)
    assert parse_dfa_text(text) == d


def test_dfa_file_missing_transition():
    text = "states 2\ninitial 0\nfinal 1\nalphabet 1\ntrans 0 1 1\n"
    with pytest.raises(InputError):
        parse_dfa_text(text)


def test_constraints_round_trip(tmp_path):
    gc = (ZeroGap(), LengthGap(0, 4), LengthGap(2, INF))
    text = serialize_constraints_text(4, gc)
    k, back = parse_constraints_text(text, str(tmp_path))
    assert k == 4 and back == gc


def test_constraints_with_dfa_reference(tmp_path):
    dfa = sigma_star_dfa(2)
    (tmp_path / "star.dfa").write_text(serialize_dfa_text(dfa))
    text = "k 3\nR star.dfa\nRL 1 inf star.dfa\n"
    k, gc = parse_constraints_text(text, str(tmp_path))
    assert k == 3
    assert isinstance(gc[0], RegularGap) and gc[0].dfa == dfa
    assert isinstance(gc[1], RegLenGap) and gc[1].lo == 1 and gc[1].hi == INF


def test_constraints_wrong_count():
    with pytest.raises(InputError):
        parse_constraints_text("k 3\nZ\n", ".")


def test_ov_file_round_trip():
    inst = random_ov(3, 4, seed=2)
    assert parse_ov_text(serialize_ov_text(inst)) == inst


def test_cnf_file_round_trip():
    f = random_cnf(4, 5, seed=3)
    assert parse_cnf_text(serialize_cnf_text(f)) == f


def test_graph_file_round_trip():
    g = random_graph(5, 4, seed=4)
    assert parse_graph_text(serialize_graph_text(g)) == g


def test_eq_file_parse():
    eq = parse_eq_text("# pairs\n1 3\n2 4\n")
    assert eq.pairs == frozenset({(1, 3), (2, 4)})


def _write_constraints(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_match_yes_no_and_witness(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c2", "k 3\nL 0 inf\nL 0 inf\n")
    code = run_cli(["match", "-w", "abacbba", "-p", "aaa", "-c", c, "--witness"])
    out = capsys.readouterr().out
    assert code == 0
    assert "match: yes" in out
    assert "witness: 1 3 7" in out
    code = run_cli(["match", "-w", "abacbba", "-p", "ccc", "-c", c])
    out = capsys.readouterr().out
    assert code == 1 and "match: no" in out


def test_cli_match_canonical_witness(tmp_path, capsys):
    # accept-all two-state DFA under a 2..6 window: several embeddings end
    # at 6; the witness takes the least feasible predecessor, 2
    (tmp_path / "all.dfa").write_text(
        "states 2\ninitial 0\nfinal 0 1\nalphabet 2\n"
        "trans 0 1 1\ntrans 0 2 1\ntrans 1 1 0\ntrans 1 2 0\n"
    )
    c = _write_constraints(tmp_path, "c", "k 2\nRL 2 6 all.dfa\n")
    code = run_cli(["match", "-w", "abbabaaaab", "-p", "ba", "-c", c, "--witness"])
    out = capsys.readouterr().out
    assert code == 0 and "witness: 2 6" in out
    # no option selects the matcher any more
    code = run_cli(["match", "-w", "ab", "-p", "ab", "-c", c, "--algo", "naive"])
    capsys.readouterr()
    assert code == 2


def test_python_m_entry_points_exit_codes(tmp_path):
    c = _write_constraints(tmp_path, "c", "k 2\nL 0 inf\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cases = [
        (["-w", "abc", "-p", "ac", "-c", c, "--witness"], 0, "witness: 1 3"),
        (["-w", "abc", "-p", "ca", "-c", c], 1, "match: no"),
        (["-w", "abc", "-p", "ac", "-c", str(tmp_path / "missing")], 2, ""),
    ]
    for module in ("gapsub", "gapsub.cli"):
        for args, want, text in cases:
            got = subprocess.run(
                [sys.executable, "-m", module, "match", *args],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert got.returncode == want, (module, args, got.stderr)
            assert text in got.stdout
            if want == 2:
                assert "error:" in got.stderr and got.stdout == ""


def test_cli_match_pattern_length_mismatch(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 3\nL 0 inf\nL 0 inf\n")
    code = run_cli(["match", "-w", "ab", "-p", "ab", "-c", c])
    err = capsys.readouterr().err
    assert code == 2 and "error:" in err


def test_cli_exit_2_never_prints_witness(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 2\nL 0 nonsense\n")
    code = run_cli(["match", "-w", "ab", "-p", "ab", "-c", c, "--witness"])
    captured = capsys.readouterr()
    assert code == 2
    assert "witness" not in captured.out
    assert "witness" not in captured.err


def test_cli_match_with_word_files(tmp_path, capsys):
    wfile = tmp_path / "w.word"
    wfile.write_text("mode char\nglyphs abc\nword abacbba\n")
    pfile = tmp_path / "p.word"
    pfile.write_text("mode char\nglyphs abc\nword aaa\n")
    c = _write_constraints(tmp_path, "c", "k 3\nL 0 inf\nL 0 inf\n")
    code = run_cli(["match", "-w", f"@{wfile}", "-p", f"@{pfile}", "-c", c])
    capsys.readouterr()
    assert code == 0


def test_cli_analyze_uni(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 2\nL 0 inf\n")
    code = run_cli(["analyze", "uni", "-w", "abba", "-c", c])
    out = capsys.readouterr().out
    assert code == 0 and "universal: yes" in out
    code = run_cli(["analyze", "uni", "-w", "aab", "-c", c])
    out = capsys.readouterr().out
    assert code == 1
    assert "universal: no" in out and "witness: ba" in out


def test_cli_analyze_equ_and_con(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 2\nL 0 inf\n")
    code = run_cli(["analyze", "equ", "-w", "abba", "-W", "abab", "-c", c])
    out = capsys.readouterr().out
    assert code == 0 and "equivalent: yes" in out
    code = run_cli(["analyze", "con", "-w", "abab", "-W", "aab", "-c", c])
    out = capsys.readouterr().out
    assert code == 1 and "contained: no" in out and "witness:" in out
    code = run_cli(["analyze", "con", "-w", "abab", "-c", c])
    assert code == 2


def test_cli_analyze_uni_refuses_a_second_word(tmp_path, capsys):
    # universality reads one word; a -W would otherwise be silently dropped
    c = _write_constraints(tmp_path, "c", "k 2\nL 0 inf\n")
    code = run_cli(["analyze", "uni", "-w", "abba", "-W", "abab", "-c", c])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: analyze uni takes no -W" in captured.err
    code = run_cli(["analyze", "con", "-w", "abab", "-c", c])
    captured = capsys.readouterr()
    assert code == 2 and "error: analyze con needs -W" in captured.err


def test_cli_analyze_budget_exit(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 20\n" + "L 0 inf\n" * 19)
    code = run_cli(["analyze", "uni", "-w", "abc", "-c", c])
    captured = capsys.readouterr()
    assert code == 2
    assert "witness" not in captured.out
    assert "budget" in captured.err.lower()


def test_cli_analyze_budget_refusal_of_a_huge_k(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 14301\n" + "L 0 inf\n" * 14300)
    code = run_cli(["analyze", "uni", "-w", "ab", "-c", c])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "2^14301 candidates exceeds the budget" in captured.err


def test_cli_count(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 2\nL 0 inf\n")
    code = run_cli(["count", "-w", "bbaa", "-p", "ba", "-c", c])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "4"
    code = run_cli(["count", "-w", "bb", "-p", "ab", "-c", c])
    out = capsys.readouterr().out
    assert code == 1 and out.strip() == "0"


def test_cli_dfa_alphabet_boundary(tmp_path, capsys):
    for n in (1, 3):
        trans = "".join(f"trans 0 {a} 0\n" for a in range(1, n + 1))
        (tmp_path / f"s{n}.dfa").write_text(
            f"states 1\ninitial 0\nfinal 0\nalphabet {n}\n{trans}"
        )
        _write_constraints(tmp_path, f"c{n}", f"k 2\nR s{n}.dfa\n")
    commands = [
        ["match", "-w", "abab", "-p", "ab"],
        ["analyze", "uni", "-w", "abab"],
        ["analyze", "con", "-w", "abab", "-W", "abab"],
        ["analyze", "equ", "-w", "abab", "-W", "abab"],
        ["count", "-w", "abab", "-p", "ab"],
        ["equ-mult", "-w", "abab", "-W", "abab"],
    ]
    for argv in commands:
        # a 3-symbol DFA over a binary session is accepted, a 1-symbol one is not
        assert run_cli(argv + ["-c", str(tmp_path / "c3")]) == 0, argv
        assert run_cli(argv + ["-c", str(tmp_path / "c1")]) == 2, argv
        assert "covers 1 symbols" in capsys.readouterr().err


def test_cli_equ_mult(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 2\nL 0 inf\n")
    code = run_cli(["equ-mult", "-w", "abba", "-W", "abab", "-c", c])
    out = capsys.readouterr().out
    assert code == 1 and "equivalent: no" in out and "witness: ab" in out
    code = run_cli(["equ-mult", "-w", "abba", "-W", "abba", "-c", c])
    out = capsys.readouterr().out
    assert code == 0 and "equivalent: yes" in out


def test_cli_classic_con(capsys):
    code = run_cli(["classic-con", "-w", "abba", "-W", "abab", "-k", "2"])
    out = capsys.readouterr().out
    assert code == 0 and "contained: yes" in out
    code = run_cli(["classic-con", "-w", "abab", "-W", "abba", "-k", "3"])
    out = capsys.readouterr().out
    assert code == 1 and "witness:" in out


def test_cli_match_with_equalities(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 3\nL 0 inf\nL 0 inf\n")
    eqf = tmp_path / "pairs.eq"
    eqf.write_text("1 2\n")
    code = run_cli(
        ["match", "-w", "acbca", "-p", "aba", "-c", c, "--eq", str(eqf), "--witness"]
    )
    out = capsys.readouterr().out
    assert code == 0 and "match: yes" in out and "witness: 1 3 5" in out
    # abca embeds aba only with gap lengths 0 and 1, so the equality kills it
    code = run_cli(["match", "-w", "abca", "-p", "aba", "-c", c, "--eq", str(eqf)])
    capsys.readouterr()
    assert code == 1
    code = run_cli(["match", "-w", "abca", "-p", "aba", "-c", c])
    capsys.readouterr()
    assert code == 0


def test_cli_gen_ov_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    code = run_cli(["gen", "ov", "--out", prefix, "--seed", "3", "--n", "2", "--d", "2"])
    capsys.readouterr()
    assert code == 0
    inst = parse_ov_text((tmp_path / "inst.ov").read_text())
    want = solve_ov_bruteforce(inst)
    code = run_cli(
        [
            "match",
            "-w",
            f"@{prefix}.word",
            "-p",
            f"@{prefix}.pattern",
            "-c",
            f"{prefix}.constraints",
        ]
    )
    capsys.readouterr()
    assert code == (0 if want else 1)


def test_cli_gen_ov_from_file(tmp_path, capsys):
    src = tmp_path / "given.ov"
    src.write_text("1 2\n10\n01\n")
    prefix = str(tmp_path / "fromfile")
    code = run_cli(["gen", "ov", "--in", str(src), "--out", prefix])
    capsys.readouterr()
    assert code == 0
    assert parse_ov_text((tmp_path / "fromfile.ov").read_text()) == parse_ov_text(
        src.read_text()
    )


def test_cli_gen_sat_nuni_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "s")
    code = run_cli(["gen", "sat-nuni", "--out", prefix, "--seed", "5", "--vars", "2", "--clauses", "2"])
    capsys.readouterr()
    assert code == 0
    f = parse_cnf_text((tmp_path / "s.cnf").read_text())
    code = run_cli(["analyze", "uni", "-w", f"@{prefix}.word", "-c", f"{prefix}.constraints"])
    capsys.readouterr()
    # universal iff unsatisfiable
    assert code == (1 if solve_sat_bruteforce(f) else 0)


def test_cli_gen_sat_nuni_bin_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "b")
    code = run_cli(["gen", "sat-nuni-bin", "--out", prefix, "--seed", "2", "--vars", "2", "--clauses", "2"])
    capsys.readouterr()
    assert code == 0
    f = parse_cnf_text((tmp_path / "b.cnf").read_text())
    code = run_cli(
        [
            "analyze",
            "equ",
            "-w",
            f"@{prefix}.word",
            "-W",
            f"@{prefix}.reference",
            "-c",
            f"{prefix}.constraints",
        ]
    )
    capsys.readouterr()
    assert code == (1 if solve_sat_bruteforce(f) else 0)


def test_cli_gen_kis_nuni_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "g")
    code = run_cli(
        ["gen", "kis-nuni", "--out", prefix, "--seed", "7", "--vertices", "3", "--edges", "2", "--k", "2"]
    )
    capsys.readouterr()
    assert code == 0
    from gapsub import solve_kis_bruteforce

    g = parse_graph_text((tmp_path / "g.graph").read_text())
    code = run_cli(["analyze", "uni", "-w", f"@{prefix}.word", "-c", f"{prefix}.constraints"])
    capsys.readouterr()
    assert code == (1 if solve_kis_bruteforce(g, 2) else 0)


def test_cli_gen_sat_eq_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "e")
    code = run_cli(["gen", "sat-eq", "--out", prefix, "--seed", "6", "--vars", "3", "--clauses", "2"])
    capsys.readouterr()
    assert code == 0
    f = parse_cnf_text((tmp_path / "e.cnf").read_text())
    code = run_cli(
        [
            "match",
            "-w",
            f"@{prefix}.word",
            "-p",
            f"@{prefix}.pattern",
            "-c",
            f"{prefix}.constraints",
            "--eq",
            f"{prefix}.eq",
        ]
    )
    capsys.readouterr()
    assert code == (0 if solve_sat_bruteforce(f) else 1)


def test_cli_bench_smoke(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code = run_cli(
        ["bench", "--algo", "length", "--sizes", "200,400", "--trials", "2", "--csv", str(csv_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "algo,n,k,states,mean_ns"
    assert len(lines) == 3
    assert "length,200," in lines[1]
    assert "length,200," in out


def test_bench_match_rows():
    rows = bench_match("regular", [100], trials=2, k=3, states=2, seed=1)
    assert len(rows) == 1
    assert rows[0]["algo"] == "regular" and rows[0]["n"] == 100
    assert rows[0]["mean_ns"] > 0
    assert rows[0]["states"] == 4  # two joints at two states each


def test_cli_bench_csv_keeps_crlf_rows(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code = run_cli(["bench", "--algo", "length", "--sizes", "200", "--trials", "1", "--csv", str(csv_path)])
    assert code == 0
    assert f"wrote {csv_path}" in capsys.readouterr().out
    data = csv_path.read_bytes()
    assert data.startswith(b"algo,n,k,states,mean_ns\r\nlength,200,3,")
    assert data.endswith(b"\r\n") and data.count(b"\n") == 2


def test_cli_bench_unwritable_csv_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "rows.csv"
    code = run_cli(["bench", "--algo", "length", "--sizes", "200", "--trials", "1", "--csv", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_bench_refuses_fewer_than_one_trial(trials, capsys):
    code = run_cli(["bench", "--algo", "length", "--sizes", "200", "--trials", trials])
    captured = capsys.readouterr()
    assert code == 2
    assert f"--trials must be at least 1, not {trials}" in captured.err
    assert captured.out == ""
    with pytest.raises(InputError, match="at least 1"):
        bench_match("length", [100], trials=0)


@pytest.mark.parametrize(
    "flags, refusal",
    [
        (["--sizes", "0"], "--sizes value must be at least 1, not 0"),
        (["--sizes", "200,-5"], "--sizes value must be at least 1, not -5"),
        (["--sizes", "200", "--states", "0"], "--states must be at least 1, not 0"),
        (["--sizes", "200", "--k", "0"], "--k must be at least 1, not 0"),
    ],
)
def test_cli_bench_refuses_sizes_states_and_k_below_one(flags, refusal, capsys):
    code = run_cli(["bench", "--algo", "regular", "--trials", "1"] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert refusal in captured.err
    assert captured.out == ""


def test_cli_usage_error_exit_2(capsys):
    assert run_cli(["match", "-w", "ab"]) == 2
    capsys.readouterr()
    assert run_cli(["nonsense"]) == 2
    capsys.readouterr()


def test_cli_missing_file_exit_2(capsys):
    code = run_cli(["match", "-w", "@/does/not/exist", "-p", "a", "-c", "/nope"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["match", "-w", "@{d}/missing.word", "-p", "a", "-c", "{d}/c"], "word"),
        (["match", "-w", "@{d}/latin1.word", "-p", "a", "-c", "{d}/c"], "word"),
        (["match", "-w", "ab", "-p", "ab", "-c", "{d}/names-missing-dfa"], "dfa"),
        (["match", "-w", "ab", "-p", "a", "-c", "{d}/missing"], "constraint"),
        (["match", "-w", "ab", "-p", "a", "-c", "{d}/c", "--eq", "{d}/missing.eq"], "equality"),
        (["gen", "ov", "--in", "{d}/missing.ov", "--out", "{d}/out"], "instance"),
        (["gen", "ov", "--in", "", "--out", "{d}/out"], "instance"),
    ],
    ids=["word", "non-ascii-word", "dfa", "constraint", "equality", "instance", "empty-instance-path"],
)
def test_cli_unreadable_input_exit_2(tmp_path, capsys, argv, kind):
    (tmp_path / "c").write_text("k 1\n")
    (tmp_path / "names-missing-dfa").write_text("k 2\nR missing.dfa\n")
    (tmp_path / "latin1.word").write_bytes(b"word \xe9\n")
    code = run_cli([a.format(d=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: cannot read {kind} file " in captured.err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["match", "-w", "ab", "-p", "ab", "-c", "{d}/c"], "states\ninitial 0\nalphabet 2\n"),
        (["match", "-w", "ab", "-p", "ab", "-c", "{d}/c"], "states 1\ninitial\nalphabet 2\n"),
        (["match", "-w", "ab", "-p", "ab", "-c", "{d}/c"], "states 1\ninitial 0\nalphabet\n"),
        (["gen", "kis-nuni", "--in", "{d}/in", "--out", "{d}/out"], "vertices\n"),
    ],
    ids=["states", "initial", "alphabet", "vertices"],
)
def test_cli_directive_without_value_exit_2(tmp_path, capsys, argv, text):
    # the text is the DFA file the constraint file names, or the graph file
    (tmp_path / "in").write_text(text)
    (tmp_path / "c").write_text("k 2\nR in\n")
    code = run_cli([a.format(d=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: bad " in captured.err


def test_cli_gen_empty_input_file_exit_2(tmp_path, capsys):
    (tmp_path / "empty.ov").write_text("")
    code = run_cli(["gen", "ov", "--in", str(tmp_path / "empty.ov"), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "empty ov file" in captured.err
    assert not (tmp_path / "x.ov").exists()


def test_cli_gen_unwritable_output_exit_2(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x"
    code = run_cli(["gen", "ov", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: cannot write {out}.ov: " in captured.err


def test_cli_second_word_is_required(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 2\nL 0 inf\n")
    for argv in (["equ-mult", "-w", "ab", "-c", c], ["classic-con", "-w", "ab", "-k", "2"]):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "-W/--word2" in captured.err


def test_cli_empty_pattern_embeds_once(tmp_path, capsys):
    # the empty embedding has length 0: it is a match, not a falsy miss
    c = _write_constraints(tmp_path, "c", "k 0\n")
    assert run_cli(["match", "-w", "ab", "-p", "", "-c", c]) == 0
    assert capsys.readouterr().out == "match: yes\n"
    assert run_cli(["count", "-w", "ab", "-p", "", "-c", c]) == 0
    assert capsys.readouterr().out == "1\n"
