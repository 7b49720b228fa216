"""The benchmark's three workloads, built from a seed.

Each workload is a fixed list of ops.  An op makes one call into the
library (or one in-process CLI call) and has a check that compares the
result with an answer fixed before the timed loop: a planted or
constructed answer, a brute-force solver of a source problem, or a
reference from ``oracle``.  Sizes are fixed per op; the seed only
changes content, so run-to-run differences in time come from the
content, not from the amount of work.

- match-long: direct ``match`` calls on long random words (n = 50k-100k,
  sigma 4) with short patterns.  The gap step does almost all the work;
  analysis, multiplicity and the CLI do none.
- reductions-cli: in-process ``run_cli`` calls that generate OV, SAT and
  independent-set reductions and solve them from their files.  Thousands
  of gaps over short words make per-gap set-up, parsing and the
  reduction builders count.
- sets-and-counts: universality, containment, equivalence and classical
  containment, embedding counts, Parikh vectors and multiplicity
  equivalence on structured words.  The matchers and the CLI do none of
  the work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import shutil
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable, Optional

import oracle
from oracle import Auto, Gap

WORKLOADS = ("match-long", "reductions-cli", "sets-and-counts")


@dataclass
class Op:
    family: str  # match | cli | analysis | count | mult
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when the result is right
    key: str  # digest of the inputs and the expected answer


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class _Lib:
    """Converts oracle specs into library objects of one imported gapsub."""

    def __init__(self, lib):
        self.lib = lib
        self._dfas: dict[Auto, Any] = {}

    def word(self, syms):
        return self.lib.core.Word(tuple(syms))

    def gap(self, g: Gap):
        core = self.lib.core
        hi = core.INF if g.hi is None else g.hi
        if g.dfa is None:
            return core.LengthGap(g.lo, hi)
        dfa = self._dfas.get(g.dfa)
        if dfa is None:
            a = g.dfa
            dfa = self._dfas[a] = self.lib.automata.Dfa(len(a.table), a.initial, a.finals, a.table)
        if g.lo == 0 and g.hi is None:
            return core.RegularGap(dfa)
        return core.RegLenGap(g.lo, hi, dfa)

    def gaps(self, gaps):
        return tuple(self.gap(g) for g in gaps)

    def gapped(self, pattern, gaps):
        return self.lib.core.GappedSequence(self.word(pattern), self.gaps(gaps))


def build(name: str, lib, seed: int, workdir: Path, small: bool = False) -> list[Op]:
    """The op list of workload ``name``; ``small`` shrinks sizes for self-tests."""
    rng = random.Random(f"{name}:{seed}")
    if name == "match-long":
        return _match_long(_Lib(lib), rng, small)
    if name == "reductions-cli":
        return _reductions_cli(_Lib(lib), rng, workdir, small)
    if name == "sets-and-counts":
        return _sets_and_counts(_Lib(lib), rng, small)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# match-long


def _group_auto(rng, states: int, sigma: int) -> Auto:
    """Random DFA in which every symbol permutes the states (like "the gap has
    an even number of 1s").  Traces from different starts never merge, so the
    work per gap depends on the size of the DFA and not on its luck."""
    table = [[0] * sigma for _ in range(states)]
    for a in range(sigma):
        image = list(range(states))
        rng.shuffle(image)
        for q in range(states):
            table[q][a] = image[q]
    finals = frozenset(q for q in range(states) if rng.random() < 0.5)
    return Auto(tuple(map(tuple, table)), finals or frozenset({states - 1}), 0)


def _accepted(auto: Auto, length: int, allowed, rng) -> Optional[tuple]:
    """Random string of exactly ``length`` symbols from ``allowed`` that auto accepts."""
    states = range(len(auto.table))
    can = [auto.finals]  # can[l]: states with an accepted continuation of length l
    for _ in range(length):
        prev = can[-1]
        can.append(frozenset(q for q in states if any(auto.table[q][a - 1] in prev for a in allowed)))
    q = auto.initial
    if q not in can[length]:
        return None
    out = []
    for left in range(length, 0, -1):
        a = rng.choice([a for a in allowed if auto.table[q][a - 1] in can[left - 1]])
        out.append(a)
        q = auto.table[q][a - 1]
    return tuple(out)


def _filler(gap: Gap, allowed, rng) -> Optional[tuple]:
    """Gap content that the spec allows, or None if none was found."""
    top = gap.lo + 60 if gap.hi is None else min(gap.hi, gap.lo + 60)
    for _ in range(20):
        length = rng.randint(gap.lo, top)
        if gap.dfa is None:
            return tuple(rng.choice(allowed) for _ in range(length))
        got = _accepted(gap.dfa, length, allowed, rng)
        if got is not None:
            return got
    return None


def _match_gaps(rng, cls: str, k: int, states: int) -> list[Gap]:
    gaps = []
    for t in range(k - 1):
        if cls == "length":
            if t == 0:
                gaps.append(Gap(0, None))
            else:
                lo = rng.randint(1, 20)
                gaps.append(Gap(lo, lo + rng.randint(10, 200)))
        elif cls == "regular":
            gaps.append(Gap(0, None, _group_auto(rng, states, 4)))
        else:
            # lo in 4..7 keeps the number of binary-lifting levels fixed
            lo = rng.randint(4, 7)
            gaps.append(Gap(lo, lo + rng.randint(20, 300), _group_auto(rng, states, 4)))
    return gaps


def _plant(word: list, start: int, pattern, gaps, allowed, rng) -> Optional[tuple]:
    """Write pattern into word from position start with allowed gap contents."""
    positions = [start]
    word[start - 1] = pattern[0]
    for t, gap in enumerate(gaps):
        fill = _filler(gap, allowed, rng)
        if fill is None:
            return None
        at = positions[-1] + 1
        if at + len(fill) > len(word):
            return None
        word[at - 1 : at - 1 + len(fill)] = fill
        positions.append(at + len(fill))
        word[positions[-1] - 1] = pattern[t + 1]
    return tuple(positions)


def _match_instance(rng, n: int, k: int, cls: str, states: int, planted: bool):
    """Random word with a planted embedding, or one that fails at the last gap.

    The failing word has symbol 3 only in its first half and symbol 4
    only in its second half.  The pattern starts with 4 and ends with 3,
    with its first k-1 symbols planted in the second half, so every gap
    step but the last finds live positions and the last finds none.
    """
    while True:
        gaps = _match_gaps(rng, cls, k, states)
        if planted:
            word = [rng.randint(1, 4) for _ in range(n)]
            pattern = tuple(rng.randint(1, 4) for _ in range(k))
            pos = _plant(word, rng.randint(1, n // 4), pattern, gaps, (1, 2, 3, 4), rng)
            if pos is not None and oracle.embeds_at(word, pattern, gaps, pos):
                return tuple(word), pattern, gaps
        else:
            half = n // 2
            word = [rng.choice((1, 2, 3)) for _ in range(half)]
            word += [rng.choice((1, 2, 4)) for _ in range(n - half)]
            pattern = (4,) + tuple(rng.randint(1, 2) for _ in range(k - 2)) + (3,)
            start = half + 1 + rng.randrange(n // 8)
            pos = _plant(word, start, pattern[:-1], gaps[:-1], (1, 2, 4), rng)
            if pos is not None and oracle.embeds_at(word, pattern[:-1], gaps[:-1], pos):
                return tuple(word), pattern, gaps


# (gap class, n, k, DFA states, planted): each class twice planted, twice failing
_MATCH_SHAPES = [
    ("length", 50_000, 4, 0, True),
    ("length", 100_000, 6, 0, False),
    ("length", 100_000, 5, 0, True),
    ("length", 50_000, 5, 0, False),
    ("regular", 50_000, 4, 4, True),
    ("regular", 50_000, 4, 16, False),
    ("regular", 50_000, 5, 16, True),
    ("regular", 50_000, 5, 4, False),
    ("reglen", 50_000, 4, 2, False),
    ("reglen", 50_000, 4, 4, True),
    ("reglen", 50_000, 4, 4, False),
    ("reglen", 50_000, 4, 2, True),
]


def _match_long(L: _Lib, rng, small: bool) -> list[Op]:
    ops = []
    for cls, n, k, states, planted in _MATCH_SHAPES:
        if small:
            n //= 20
        word, pattern, gaps = _match_instance(rng, n, k, cls, states, planted)
        w, gs = L.word(word), L.gapped(pattern, gaps)
        label = f"match {cls} n={n} k={k} states={states} {'planted' if planted else 'fails-last'}"
        ops.append(
            Op(
                "match",
                label,
                _match_call(L.lib, w, gs),
                _match_check(L.lib, w, gs, word, pattern, gaps, planted),
                _digest(word, pattern, gaps, planted),
            )
        )
    return ops


def _match_call(lib, w, gs):
    return lambda: lib.matchers.match(w, gs)


def _match_check(lib, w, gs, word, pattern, gaps, expect_yes: bool):
    def check(got):
        if not expect_yes:
            return None if got is None else f"expected no embedding, got {got}"
        if got is None:
            return "expected an embedding, got none"
        if not lib.core.verify_embedding(w, gs, got):
            return f"verify_embedding rejects witness {got.positions}"
        if not oracle.embeds_at(word, pattern, gaps, got.positions):
            return f"witness {got.positions} is not an embedding"
        return None

    return check


# ---------------------------------------------------------------------------
# reductions-cli


def _run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _lines(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(": ")
        if sep:
            out[key] = rest
    return out


def _random_ov(lib, rng, n: int, d: int, want: bool):
    """OV instance with ones at density 0.6 whose answer is ``want``."""
    while True:
        def side():
            return tuple(tuple(int(rng.random() < 0.6) for _ in range(d)) for _ in range(n))

        inst = lib.reductions.OvInstance(d, side(), side())
        if lib.reductions.solve_ov_bruteforce(inst) == want:
            return inst


def _random_cnf(lib, rng, num_vars: int, clauses: int, arity, want: bool):
    """CNF with distinct variables per clause whose satisfiability is ``want``."""
    while True:
        cl = []
        for _ in range(clauses):
            size = arity or rng.randint(1, min(3, num_vars))
            chosen = rng.sample(range(1, num_vars + 1), size)
            cl.append(frozenset(v if rng.random() < 0.5 else -v for v in chosen))
        f = lib.reductions.CnfFormula(num_vars, tuple(cl))
        if lib.reductions.solve_sat_bruteforce(f) == want:
            return f


def _random_graph(lib, rng, vertices: int, edges: int, k: int, want: bool):
    pairs = [(u, v) for u in range(1, vertices + 1) for v in range(u + 1, vertices + 1)]
    while True:
        g = lib.reductions.Graph(vertices, tuple(rng.sample(pairs, edges)))
        if lib.reductions.solve_kis_bruteforce(g, k) == want:
            return g


def _gen_op(L, prefix: Path, argv, exts) -> Op:
    lib = L.lib
    expected = sorted(f"wrote {prefix}{ext}" for ext in exts)

    def check(got):
        code, out, err = got
        if code != 0:
            return f"gen exit {code}: {err.strip()}"
        if sorted(out.splitlines()) != expected:
            return f"gen wrote {out.splitlines()}, expected {expected}"
        return None

    return Op("cli", f"cli gen {argv[1]} {prefix.name}", lambda: _run_cli(lib, argv), check,
              _digest(argv[1], prefix.name, exts))


def _answer_check(expect_yes: bool, label: str, extra: Callable[[dict], Optional[str]]):
    """Exit code and 'label: yes|no' line must match, then extra(fields)."""

    def check(got):
        code, out, err = got
        fields = _lines(out)
        want = "yes" if expect_yes else "no"
        if code != (0 if expect_yes else 1):
            return f"exit {code}, expected {0 if expect_yes else 1}: {err.strip()}"
        if fields.get(label) != want:
            return f"{label}: {fields.get(label)!r}, expected {want!r}"
        return extra(fields)

    return check


def _spec(c) -> Gap:
    """Oracle spec of a zero or length constraint made by a reduction."""
    if type(c).__name__ == "ZeroGap":
        return Gap(0, 0)
    return Gap(c.lo, None if c.hi == float("inf") else int(c.hi))


def _reductions_cli(L: _Lib, rng, workdir: Path, small: bool) -> list[Op]:
    lib = L.lib
    red, cli = lib.reductions, lib.cli
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops: list[Op] = []

    def write(name: str, text: str) -> Path:
        path = workdir / name
        path.write_text(text, encoding="ascii")
        return path

    def witness_ids(fields):
        return tuple(int(tok) for tok in fields.get("witness", "").split())

    ov_sizes = [(8, 10, True), (8, 10, False), (12, 12, True), (12, 12, False)]
    if small:
        ov_sizes = [(3, 4, True), (3, 4, False)]
    for i, (n, d, want) in enumerate(ov_sizes):
        inst = _random_ov(lib, rng, n, d, want)
        src = write(f"ov{i}.ov", cli.serialize_ov_text(inst))
        prefix = workdir / f"ov{i}"
        ops.append(_gen_op(L, prefix, ["gen", "ov", "--in", str(src), "--out", str(prefix)],
                           (".ov", ".word", ".pattern", ".constraints")))
        w, gs = red.ov_to_match(inst)
        word, pattern = w.symbols, gs.pattern.symbols
        gaps = [_spec(c) for c in gs.constraints]

        def ov_witness(fields, w=w, gs=gs, word=word, pattern=pattern, gaps=gaps, want=want):
            if not want:
                return "witness printed for a no answer" if "witness" in fields else None
            pos = witness_ids(fields)
            if not oracle.embeds_at(word, pattern, gaps, pos):
                return f"witness {pos} is not an embedding"
            if not lib.core.verify_embedding(w, gs, lib.core.Embedding(pos)):
                return f"verify_embedding rejects witness {pos}"
            return None

        argv = ["match", "-w", f"@{prefix}.word", "-p", f"@{prefix}.pattern",
                "-c", f"{prefix}.constraints", "--witness"]
        ops.append(Op("cli", f"cli match ov n={n} d={d} {'yes' if want else 'no'}",
                      lambda argv=argv: _run_cli(lib, argv),
                      _answer_check(want, "match", ov_witness), _digest(inst, want)))

    def nuni_solve(prefix: Path, word, gc, sigma: int, want_universal: bool, tag: str):
        gaps = [_spec(c) for c in gc]
        absent = oracle.least_absent(word, gaps, sigma)
        if (absent is None) != want_universal:
            raise RuntimeError(f"{tag}: reference disagrees with the source solver")

        def witness(fields):
            got = witness_ids(fields) or None
            return None if got == absent else f"witness {got}, expected {absent}"

        argv = ["analyze", "uni", "-w", f"@{prefix}.word", "-c", f"{prefix}.constraints"]
        return Op("cli", f"cli analyze uni {tag}", lambda: _run_cli(lib, argv),
                  _answer_check(want_universal, "universal", witness), _digest(tag, word, absent))

    sat_sizes = [(7, 10, True), (7, 40, False)] if not small else [(3, 3, True), (3, 12, False)]
    for i, (v, c, sat) in enumerate(sat_sizes):
        f = _random_cnf(lib, rng, v, c, None, sat)
        src = write(f"sat{i}.cnf", cli.serialize_cnf_text(f))
        prefix = workdir / f"satnuni{i}"
        ops.append(_gen_op(L, prefix, ["gen", "sat-nuni", "--in", str(src), "--out", str(prefix)],
                           (".cnf", ".word", ".constraints")))
        meta = red.sat_to_metanuni(f)
        w, gc = red.metanuni_to_nuni(meta)
        ops.append(nuni_solve(prefix, w.symbols, gc, meta.gamma_size + 1, not sat,
                              f"sat-nuni vars={v} clauses={c}"))

    kis_sizes = [(6, 7, 3, True), (6, 11, 3, False)]
    if small:
        kis_sizes = [(4, 2, 2, True), (4, 6, 2, False)]
    for i, (nv, ne, k, has) in enumerate(kis_sizes):
        g = _random_graph(lib, rng, nv, ne, k, has)
        src = write(f"kis{i}.graph", cli.serialize_graph_text(g))
        prefix = workdir / f"kisnuni{i}"
        ops.append(_gen_op(L, prefix, ["gen", "kis-nuni", "--in", str(src), "--out", str(prefix),
                                       "--k", str(k)], (".graph", ".word", ".constraints")))
        meta = red.kis_to_metanuni(g, k)
        w, gc = red.metanuni_to_nuni(meta)
        ops.append(nuni_solve(prefix, w.symbols, gc, meta.gamma_size + 1, not has,
                              f"kis-nuni vertices={nv} edges={ne} k={k}"))

    bin_sizes = [(5, 8, True), (5, 30, False)] if not small else [(2, 2, True), (2, 6, False)]
    for i, (v, c, sat) in enumerate(bin_sizes):
        f = _random_cnf(lib, rng, v, c, None, sat)
        src = write(f"bin{i}.cnf", cli.serialize_cnf_text(f))
        prefix = workdir / f"satbin{i}"
        ops.append(_gen_op(L, prefix, ["gen", "sat-nuni-bin", "--in", str(src), "--out", str(prefix)],
                           (".cnf", ".word", ".reference", ".constraints")))
        s, gc, ref = red.sat_to_nuni_binary(f)
        gaps = [_spec(x) for x in gc]
        sep = oracle.least_separating(s.symbols, ref.symbols, gaps, 2) or oracle.least_separating(
            ref.symbols, s.symbols, gaps, 2)
        if (sep is None) == sat:
            raise RuntimeError("sat-nuni-bin: reference disagrees with the source solver")
        expected = None if sep is None else "".join("ab"[x - 1] for x in sep)

        def bin_witness(fields, expected=expected):
            got = fields.get("witness")
            return None if got == expected else f"witness {got!r}, expected {expected!r}"

        argv = ["analyze", "equ", "-w", f"@{prefix}.word", "-W", f"@{prefix}.reference",
                "-c", f"{prefix}.constraints"]
        ops.append(Op("cli", f"cli analyze equ sat-nuni-bin vars={v} clauses={c}",
                      lambda argv=argv: _run_cli(lib, argv),
                      _answer_check(not sat, "equivalent", bin_witness), _digest(f, expected)))

    eq_sizes = [(4, 6, True), (3, 12, False)] if not small else [(3, 2, True), (3, 8, False)]
    for i, (v, c, sat) in enumerate(eq_sizes):
        f = _random_cnf(lib, rng, v, c, 3, sat)
        src = write(f"eq{i}.cnf", cli.serialize_cnf_text(f))
        prefix = workdir / f"sateq{i}"
        ops.append(_gen_op(L, prefix, ["gen", "sat-eq", "--in", str(src), "--out", str(prefix)],
                           (".cnf", ".word", ".pattern", ".constraints", ".eq")))
        w, gs, eq = red.sat_to_match_equalities(f)

        def eq_witness(fields, w=w, gs=gs, eq=eq, sat=sat):
            if not sat:
                return "witness printed for a no answer" if "witness" in fields else None
            e = lib.core.Embedding(witness_ids(fields))
            if not lib.core.verify_embedding(w, gs, e):
                return f"verify_embedding rejects witness {e.positions}"
            if any(len(e.gap(w, a)) != len(e.gap(w, b)) for a, b in eq.pairs):
                return f"witness {e.positions} breaks a gap equality"
            return None

        argv = ["match", "-w", f"@{prefix}.word", "-p", f"@{prefix}.pattern",
                "-c", f"{prefix}.constraints", "--eq", f"{prefix}.eq", "--witness"]
        ops.append(Op("cli", f"cli match --eq sat-eq vars={v} clauses={c}",
                      lambda argv=argv: _run_cli(lib, argv),
                      _answer_check(sat, "match", eq_witness), _digest(f, sat)))
    return ops


# ---------------------------------------------------------------------------
# sets-and-counts


def _perm_word(rng, sigma: int, n: int) -> tuple:
    """Concatenated random permutations of the alphabet: every short string
    fits with gaps of at most 2*sigma - 2."""
    out: list[int] = []
    while len(out) < n:
        block = list(range(1, sigma + 1))
        rng.shuffle(block)
        out += block
    return tuple(out[:n])


def _runs_word(rng, sigma: int, runs: int, longest: int) -> tuple:
    """Runs of one symbol each, of lengths longest//2..longest; few arches."""
    out: list[int] = []
    prev = None
    for _ in range(runs):
        a = rng.choice([x for x in range(1, sigma + 1) if x != prev])
        out += [a] * rng.randint(longest // 2, longest)
        prev = a
    return tuple(out)


def _stretch_runs(rng, word: tuple) -> tuple:
    """Lengthen every run by 0..2 symbols; runs at least k long keep the
    unconstrained length-k subsequences unchanged."""
    out: list[int] = []
    for i, a in enumerate(word):
        out.append(a)
        if i + 1 == len(word) or word[i + 1] != a:
            out += [a] * rng.randint(0, 2)
    return tuple(out)


def _random_word(rng, sigma: int, n: int) -> tuple:
    return tuple(rng.randint(1, sigma) for _ in range(n))


def _dfa3(rng, sigma: int) -> Auto:
    """Random 3-state group DFA (see _group_auto) that accepts the empty gap."""
    auto = _group_auto(rng, 3, sigma)
    return Auto(auto.table, auto.finals | {auto.initial}, auto.initial)


def _sets_and_counts(L: _Lib, rng, small: bool) -> list[Op]:
    lib = L.lib
    ops: list[Op] = []
    scale = 10 if small else 1

    def n_(x):
        return max(x // scale, 8)

    free, l05, l29 = Gap(0, None), Gap(0, 5), Gap(2, 9)

    def embeds(word, pattern, gaps) -> bool:
        return lib.matchers.match(L.word(word), L.gapped(pattern, gaps)) is not None

    def analysis_op(kind, word, word2, gaps, sigma, label):
        k = len(gaps) + 1
        if small:
            k = min(k, 6)
            gaps = gaps[: k - 1]
        A = lib.core.Alphabet(sigma)
        w, gc = L.word(word), L.gaps(gaps)
        if kind == "uni":
            expect = oracle.least_absent(word, gaps, sigma)
            call = lambda: lib.analysis.universality(w, gc, A, workers=1)  # noqa: E731
        else:
            w2 = L.word(word2)
            fwd = oracle.least_separating(word, word2, gaps, sigma)
            if kind == "con":
                expect = fwd
                call = lambda: lib.analysis.containment(w, w2, gc, A, workers=1)  # noqa: E731
            else:
                back = None if fwd is not None else oracle.least_separating(word2, word, gaps, sigma)
                expect = fwd if fwd is not None else back
                call = lambda: lib.analysis.equivalence(w, w2, gc, A, workers=1)  # noqa: E731

        both_ways: list[bool] = []  # library containment w<=w2 and w2<=w, asked once

        def check(rep):
            got = None if rep.witness is None else rep.witness.symbols
            if rep.decision != (expect is None) or got != expect:
                return f"{kind}: decision {rep.decision} witness {got}, expected witness {expect}"
            if kind == "equ":
                if not both_ways:
                    both_ways.append(lib.analysis.containment(w, w2, gc, A).decision
                                     and lib.analysis.containment(w2, w, gc, A).decision)
                if rep.decision != both_ways[0]:
                    return f"equivalence {rep.decision} but containment both ways {both_ways[0]}"
            if expect is None:
                return None
            # cross-layer: the witness really separates the two sets
            if kind == "uni" and embeds(word, expect, gaps):
                return f"universality witness {expect} embeds in w"
            if kind == "con" and (not embeds(word, expect, gaps) or embeds(word2, expect, gaps)):
                return f"containment witness {expect} does not separate w from w2"
            if kind == "equ" and embeds(word, expect, gaps) == embeds(word2, expect, gaps):
                return f"equivalence witness {expect} is in both sets or neither"
            return None

        answer = "yes" if expect is None else "no"
        ops.append(Op("analysis", f"{kind} sigma={sigma} k={k} n={len(word)} {label} -> {answer}",
                      call, check, _digest(kind, word, word2, gaps, expect)))

    r3 = _dfa3(rng, 2)
    analysis_op("uni", _perm_word(rng, 2, n_(800)), None, [free] * 13, 2, "L 0 inf, permutations")
    analysis_op("uni", _perm_word(rng, 2, n_(1200)), None, [l05] * 15, 2, "L 0 5, permutations")
    analysis_op("uni", _perm_word(rng, 3, n_(600)), None, [l29] * 9, 3, "L 2 9, permutations")
    analysis_op("uni", _perm_word(rng, 2, n_(300)), None, [Gap(0, None, r3)] * 11, 2, "3-state DFA")
    analysis_op("uni", _runs_word(rng, 2, 30, 30), None, [l05] * 13, 2, "L 0 5, runs")
    analysis_op("con", _runs_word(rng, 2, 30, 30), _perm_word(rng, 2, n_(800)), [free] * 13, 2,
                "L 0 inf, runs in permutations")
    analysis_op("con", _perm_word(rng, 3, n_(600)), _runs_word(rng, 3, 30, 30), [l05] * 9, 3,
                "L 0 5, permutations in runs")
    analysis_op("equ", _perm_word(rng, 2, n_(600)), _perm_word(rng, 2, n_(600)), [l29] * 11, 2,
                "L 2 9, two permutation words")
    base = _perm_word(rng, 2, n_(200))
    analysis_op("equ", base, base[: len(base) - 7], [Gap(0, None, _dfa3(rng, 2))] * 9, 2,
                "3-state DFA, word and its prefix")
    runs = _runs_word(rng, 2, 12, 40)
    analysis_op("equ", runs, _stretch_runs(rng, runs), [free] * 13, 2, "L 0 inf, stretched runs")

    def classical_op(word, word2, k, label):
        expect = oracle.classical(word, word2, k)
        w, w2 = L.word(word), L.word(word2)

        def check(got):
            ok, wit = got
            got_w = None if wit is None else wit.symbols
            if (ok, got_w) != expect:
                return f"classical: ({ok}, {got_w}), expected {expect}"
            return None

        answer = "yes" if expect[0] else "no"
        ops.append(Op("analysis", f"classical k={k} n={len(word)} {label} -> {answer}",
                      lambda: lib.analysis.classical_containment(w, w2, k), check,
                      _digest(word, word2, k, expect)))

    classical_op(_perm_word(rng, 2, n_(400)), _runs_word(rng, 2, 10, 30), 12, "permutations in runs")
    sub = _runs_word(rng, 2, 20, 20)
    classical_op(sub, _stretch_runs(rng, sub), 10, "runs in stretched runs")

    def count_op(word, pattern, gaps, label):
        expect = oracle.count(word, pattern, gaps)
        w, gs = L.word(word), L.gapped(pattern, gaps)

        def check(got):
            return None if got == expect else f"count {got}, expected {expect}"

        ops.append(Op("count", f"count n={len(word)} k={len(pattern)} {label}",
                      lambda: lib.multiplicity.count_embeddings(w, gs), check,
                      _digest(word, pattern, gaps, expect)))

    count_op(_random_word(rng, 2, n_(1000)), _random_word(rng, 2, 5), [free] * 4, "L 0 inf")
    count_op(_random_word(rng, 2, n_(4000)), _random_word(rng, 2, 6), [l29] * 5, "L 2 9")
    count_op(_random_word(rng, 2, n_(1000)), _random_word(rng, 2, 4), [Gap(0, None, _dfa3(rng, 2))] * 3,
             "3-state DFA")

    def parikh_op(word, gaps, sigma, label):
        expect = oracle.parikh(word, gaps, sigma)
        A = lib.core.Alphabet(sigma)
        w, gc = L.word(word), L.gaps(gaps)
        k = len(gaps) + 1
        probes = sorted(expect)
        probes = [probes[0], probes[len(probes) // 2], probes[-1]] if probes else []
        absent = next((x for x in product(range(1, sigma + 1), repeat=k) if x not in expect), None)

        def check(got):
            got_t = {x.symbols: c for x, c in got.items()}
            if got_t != expect:
                wrong = sorted(set(got_t.items()) ^ set(expect.items()))[:3]
                return f"parikh differs from the reference, e.g. {wrong}"
            # cross-layer: entries agree with count_embeddings
            for x in probes + ([absent] if absent else []):
                c = lib.multiplicity.count_embeddings(w, L.gapped(x, gaps))
                if c != got_t.get(x, 0):
                    return f"parikh[{x}] = {got_t.get(x, 0)} but count_embeddings = {c}"
            return None

        ops.append(Op("count", f"parikh sigma={sigma} k={k} n={len(word)} {label}",
                      lambda: lib.multiplicity.parikh_k(w, gc, A), check,
                      _digest(word, gaps, sorted(expect.items()))))

    parikh_op(_random_word(rng, 2, n_(400)), [l29] * 7, 2, "L 2 9")
    parikh_op(_random_word(rng, 3, n_(300)), [l05] * 4, 3, "L 0 5")
    parikh_op(_random_word(rng, 2, n_(200)), [Gap(0, None, _dfa3(rng, 2))] * 4, 2, "3-state DFA")

    def mult_op(word, word2, gaps, label):
        k = len(gaps) + 1
        sigma = max(word + word2)
        equal = oracle.parikh(word, gaps, sigma) == oracle.parikh(word2, gaps, sigma)
        w, w2, gc = L.word(word), L.word(word2), L.gaps(gaps)

        def check(got):
            ok, wit = got
            if ok != equal:
                return f"multiplicity equivalence {ok}, expected {equal}"
            if ok:
                return None if wit is None else f"witness {wit} for an equivalent pair"
            if wit is None or len(wit) != k:
                return f"witness {wit} is not a length-{k} string"
            # cross-layer: the witness has different counts in the two words
            gs = L.gapped(wit.symbols, gaps)
            a, b = lib.multiplicity.count_embeddings(w, gs), lib.multiplicity.count_embeddings(w2, gs)
            if a == b or oracle.count(word, wit.symbols, gaps) == oracle.count(word2, wit.symbols, gaps):
                return f"witness {wit.symbols} has equal counts {a} in both words"
            return None

        ops.append(Op("mult", f"mult n={len(word)} k={k} {label} -> {'yes' if equal else 'no'}",
                      lambda: lib.multiplicity.equivalence_with_multiplicities(w, w2, gc), check,
                      _digest(word, word2, gaps, equal)))

    def flipped(word):
        i = rng.randrange(len(word))
        return word[:i] + (3 - word[i],) + word[i + 1:]

    equal_pairs = [
        (300, free, "L 0 inf"), (400, l29, "L 2 9"), (200, Gap(0, None, _dfa3(rng, 2)), "3-state DFA")
    ]
    for n, gap, label in equal_pairs:
        word = _random_word(rng, 2, n_(n))
        mult_op(word, word, [gap] * 3, f"{label}, equal words")
    word = _random_word(rng, 2, n_(300))
    mult_op(word, flipped(word), [l05] * 3, "L 0 5, one symbol flipped")
    return ops
