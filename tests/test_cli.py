import os
import random
import subprocess
import sys

import pytest

from gapsub import (
    INF,
    Alphabet,
    Dfa,
    GappedSequence,
    InputError,
    LengthGap,
    RegLenGap,
    RegularGap,
    Word,
    ZeroGap,
    containment,
    count_embeddings,
    equivalence,
    equivalence_with_multiplicities,
    match_with_equalities,
    sigma_star_dfa,
    solve_ov_bruteforce,
    solve_sat_bruteforce,
    universality,
)
from gapsub import cli
from gapsub.cli import (
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
from gapsub.reductions import random_cnf, random_graph, random_ov, sat_to_match_equalities
from helpers import permutation_dfa, random_dfa


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


def test_constraints_k_line_with_extra_tokens_rejected():
    # the k line once read its first token and ignored the rest
    with pytest.raises(InputError, match="bad k line 'k 3 junk'"):
        parse_constraints_text("k 3 junk\nL 0 1\nL 0 1\n", ".")


def test_equal_constraint_lines_share_one_object(tmp_path):
    (tmp_path / "star.dfa").write_text(serialize_dfa_text(sigma_star_dfa(2)))
    text = "k 7\nZ\nL 0 1\nR star.dfa\nL 0 1\nRL 1 inf star.dfa\nZ\n"
    k, gc = parse_constraints_text(text, str(tmp_path))
    assert k == 7 and gc[1] is gc[3] and gc[0] is gc[5]
    assert gc[2].dfa is gc[4].dfa
    assert gc == (ZeroGap(), LengthGap(0, 1), gc[2], LengthGap(0, 1), gc[4], ZeroGap())


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


def test_cli_glyph_outside_the_table_names_glyph_and_word(tmp_path, capsys):
    c = _write_constraints(tmp_path, "c", "k 1\n")
    code = run_cli(["match", "-w", "abz", "-p", "a", "-c", c, "--glyphs", "ab"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "'z'" in captured.err and "'abz'" in captured.err


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


def _seeded_instances(tmp_path, seed):
    """20 instances over "abc": (trial, gaps, constraint file, text, text2,
    pattern), each gap a DFA gap (vacuous or windowed, group or not), a
    length gap or a zero gap, the DFA and constraint files in tmp_path."""
    rng = random.Random(seed)
    glyphs = "abc"
    for trial in range(20):
        build = permutation_dfa if trial % 2 else random_dfa
        dfa = build(rng, rng.randint(1, 3), 3)
        (tmp_path / f"g{trial}.dfa").write_text(serialize_dfa_text(dfa))
        k = rng.randint(1, 4)
        gc, lines = [], []
        for _ in range(k - 1):
            lo = rng.randint(0, 3)
            hi = lo + rng.randint(0, 4)
            gap, line = rng.choice([
                (RegularGap(dfa), f"R g{trial}.dfa"),
                (RegLenGap(lo, hi, dfa), f"RL {lo} {hi} g{trial}.dfa"),
                (LengthGap(lo, hi), f"L {lo} {hi}"),
                (ZeroGap(), "Z"),
            ])
            gc.append(gap)
            lines.append(line)
        c = _write_constraints(tmp_path, f"c{trial}", f"k {k}\n" + "".join(x + "\n" for x in lines))
        text, text2, pattern = (
            "".join(rng.choice(glyphs) for _ in range(size))
            for size in (rng.randint(0, 14), rng.randint(0, 14), k)
        )
        yield trial, gc, c, text, text2, pattern


def test_cli_count_and_equ_mult_agree_with_the_library(tmp_path, capsys):
    # 20 seeded instances in one process
    glyphs = "abc"
    for trial, gc, c, text, text2, pattern in _seeded_instances(tmp_path, 18):
        word, word2, p = (Word(tuple(glyphs.index(ch) + 1 for ch in x)) for x in (text, text2, pattern))
        total = count_embeddings(word, GappedSequence(p, tuple(gc)))
        code = run_cli(["count", "-w", text, "-p", pattern, "-c", c, "--glyphs", glyphs])
        assert (code, capsys.readouterr().out) == (0 if total else 1, f"{total}\n"), trial
        ok, wit = equivalence_with_multiplicities(word, word2, gc)
        want = f"equivalent: {'yes' if ok else 'no'}\n"
        if wit is not None:
            want += "witness: " + "".join(glyphs[a - 1] for a in wit.symbols) + "\n"
        code = run_cli(["equ-mult", "-w", text, "-W", text2, "-c", c, "--glyphs", glyphs])
        assert (code, capsys.readouterr().out) == (0 if ok else 1, want), trial


def test_cli_analyze_agrees_with_the_library(tmp_path, capsys):
    # the decision, candidate count and witness of analyze uni, con and
    # equ are those of the library's AnalysisReport; uni reads the two
    # words joined, so that some instances are universal
    glyphs = "abc"
    ab = Alphabet.from_glyphs(glyphs)
    for trial, gc, c, text, text2, _ in _seeded_instances(tmp_path, 20):
        word, word2 = ab.word(text), ab.word(text2)
        both = ["-w", text, "-W", text2]
        runs = [
            ("uni", "universal", ["-w", text + text2], universality(ab.word(text + text2), gc, ab)),
            ("con", "contained", both, containment(word, word2, gc, ab)),
            ("equ", "equivalent", both, equivalence(word, word2, gc, ab)),
        ]
        for mode, label, words, report in runs:
            want = f"{label}: {'yes' if report.decision else 'no'}\n"
            want += f"candidates: {report.candidates_checked}\n"
            if report.witness is not None:
                want += "witness: " + "".join(glyphs[a - 1] for a in report.witness.symbols) + "\n"
            code = run_cli(["analyze", mode, *words, "-c", c, "--glyphs", glyphs])
            assert (code, capsys.readouterr().out) == (0 if report.decision else 1, want), (trial, mode)


def test_cli_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # run_cli reuses one parser for every call, subcommands, usage errors
    # and --help alike, with a fresh Namespace each time
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        c = _write_constraints(tmp_path, "c", "k 2\nL 0 inf\n")
        runs = [
            (["match", "-w", "abc", "-p", "ac", "-c", c, "--witness"], 0, "match: yes\nwitness: 1 3\n"),
            (["match", "-w", "abc", "-p", "ac", "-c", c], 0, "match: yes\n"),
            (["count", "-w", "bbaa", "-p", "ba", "-c", c], 0, "4\n"),
            (["equ-mult", "-w", "abba", "-W", "abab", "-c", c], 1, "equivalent: no\nwitness: ab\n"),
            (["match", "-w", "ab"], 2, ""),
            (["frobnicate"], 2, ""),
            (["classic-con", "-w", "ab", "-W", "ab", "-k", "x"], 2, ""),
            (["--help"], 0, build().format_help()),
            (["count", "--help"], 0, None),
            (["count", "-w", "bbaa", "-p", "ba", "-c", c], 0, "4\n"),
        ]
        for argv, code, out in runs:
            assert run_cli(argv) == code, argv
            got = capsys.readouterr()
            if out is not None:
                assert got.out == out, argv
            if code == 2:
                assert got.err.startswith("usage: gapsub"), argv
        assert builds == [1]
    finally:
        cli._parser.cache_clear()


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
    suffixes = ("ov", "word", "pattern", "constraints")
    assert capsys.readouterr().out.splitlines() == [f"wrote {prefix}.{s}" for s in suffixes]
    assert code == 0
    # files keep \n line endings on every platform
    assert all(b"\r" not in (tmp_path / f"inst.{s}").read_bytes() for s in suffixes)
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


@pytest.mark.parametrize("seed, want", [(3, True), (54, False)])
def test_cli_match_agrees_with_the_library_on_paper_ov(seed, want, tmp_path, capsys):
    # the paper's lower-bound instance at n = d = 12: 1149 gaps, 5 distinct
    # constraints; the file round-trips byte for byte and the CLI's answer
    # and witness are those of match and match_naive
    from gapsub import match, match_naive
    from gapsub.reductions import ov_to_match

    prefix = str(tmp_path / "ov")
    argv = ["gen", "ov", "--n", "12", "--d", "12", "--seed", str(seed), "--out", prefix]
    assert run_cli(argv) == 0
    capsys.readouterr()
    inst = parse_ov_text((tmp_path / "ov.ov").read_text())
    assert inst == random_ov(12, 12, seed) and solve_ov_bruteforce(inst) == want
    w, gs = ov_to_match(inst)
    text = (tmp_path / "ov.constraints").read_text()
    assert serialize_constraints_text(len(gs.pattern), parse_constraints_text(text)[1]) == text
    got = match(w, gs)
    assert got == match_naive(w, gs) and (got is not None) == want
    code = run_cli(["match", "-w", f"@{prefix}.word", "-p", f"@{prefix}.pattern",
                    "-c", f"{prefix}.constraints", "--witness"])
    expected = "match: no\n" if got is None else (
        "match: yes\nwitness: " + " ".join(map(str, got.positions)) + "\n")
    assert (code, capsys.readouterr().out) == (0 if want else 1, expected)


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


def test_cli_match_eq_agrees_with_library(tmp_path, capsys):
    # gen sat-eq then match --eq --witness: the exit code and witness line
    # of the CLI are those of match_with_equalities on the same formula
    answers = []
    for seed in range(20):
        prefix = str(tmp_path / f"e{seed}")
        argv = ["gen", "sat-eq", "--out", prefix, "--seed", str(seed), "--vars", "3"]
        assert run_cli(argv + ["--clauses", str(8 + seed)]) == 0
        capsys.readouterr()
        f = parse_cnf_text((tmp_path / f"e{seed}.cnf").read_text())
        code = run_cli(
            ["match", "-w", f"@{prefix}.word", "-p", f"@{prefix}.pattern", "-c",
             f"{prefix}.constraints", "--eq", f"{prefix}.eq", "--witness"]
        )
        lines = capsys.readouterr().out.splitlines()
        got = match_with_equalities(*sat_to_match_equalities(f))
        assert code == (1 if got is None else 0)
        if got is None:
            assert lines == ["match: no"]
        else:
            assert lines == ["match: yes", "witness: " + " ".join(map(str, got.positions))]
        answers.append(got is not None)
    assert 5 <= sum(answers) <= 15, answers


def test_cli_usage_error_exit_2(capsys):
    assert run_cli(["match", "-w", "ab"]) == 2
    capsys.readouterr()
    assert run_cli(["nonsense"]) == 2
    capsys.readouterr()
    # no timing command ships with the package
    assert run_cli(["bench", "--sizes", "100"]) == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


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


def test_cli_k0_refused_without_a_pattern(tmp_path, capsys):
    # the analyses read k as len(gc) + 1, so a k 0 file would run as k 1
    c = _write_constraints(tmp_path, "c", "k 0\n")
    commands = [
        ["equ-mult", "-w", "a", "-W", "b"],
        ["analyze", "uni", "-w", "a", "--glyphs", "ab"],
        ["analyze", "con", "-w", "a", "-W", "b"],
        ["analyze", "equ", "-w", "a", "-W", "b"],
    ]
    for argv in commands:
        assert run_cli(argv + ["-c", c]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "needs k >= 1" in captured.err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["kis-nuni", "--vertices", "4", "--edges", "-1"], "edge count must be nonnegative"),
        (["sat-nuni", "--vars", "3", "--clauses", "-2"], "clause count must be nonnegative"),
        (["sat-eq", "--vars", "3", "--clauses", "-1"], "clause count must be nonnegative"),
        (["kis-nuni", "--vertices", "3", "--edges", "10"], "edge count 10 exceeds 3, the vertex pairs"),
    ],
    ids=["edges", "clauses", "eq-clauses", "too-many-edges"],
)
def test_cli_gen_negative_sizes_exit_2(tmp_path, capsys, argv, what):
    prefix = tmp_path / "g"
    code = run_cli(["gen", *argv, "--out", str(prefix)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert what in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_dfa_file_with_bad_target_exit_2(tmp_path, capsys):
    (tmp_path / "bad.dfa").write_text(
        "states 2\ninitial 0\nfinal 0\nalphabet 2\n"
        "trans 0 1 0\ntrans 0 2 5\ntrans 1 1 1\ntrans 1 2 1\n"
    )
    c = _write_constraints(tmp_path, "c", "k 2\nR bad.dfa\n")
    for argv in (["match", "-w", "abaa", "-p", "aa"], ["analyze", "uni", "-w", "abaa"]):
        assert run_cli(argv + ["-c", c]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "out-of-range state 5" in captured.err
