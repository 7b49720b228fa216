"""Command-line interface and file formats.

All files are line-oriented ASCII; a line starting with '#' is a
comment.  Content always follows a directive keyword, so glyphs such as
'#' may appear inside word content.

word file         mode char|int, then either glyphs <table> and
                  word <glyph string>, or sigma <n> and word <ids...>
constraint file   k <k> header, then k-1 lines: Z | L lo hi|inf |
                  R <dfa file> | RL lo hi|inf <dfa file>
dfa file          states N / initial q / final q... / alphabet s /
                  trans q a q' (one per state-symbol pair, complete)
ov file           n d header, then 2n bit rows (a-vectors, b-vectors)
cnf file          DIMACS: p cnf vars clauses, clauses end with 0
graph file        vertices N, then edge u v lines
eq file           pairs of gap indices, one 'i j' per line

A -w/-p/-W value is taken verbatim as a char-mode word, or read from a
word file when it starts with '@'.  Every command's inputs pass through one
loader: _read_text reads each named file, and the commands that take a
constraint file check its DFAs against the session alphabet in _load.
Exit codes: 0 yes/true, 1 no/false, 2 usage or data error (witnesses are
never printed on exit 2).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .analysis import (
    classical_containment,
    containment,
    equivalence,
    universality,
)
from .core import (
    DEFAULT_BUDGET,
    INF,
    Alphabet,
    Dfa,
    GapConstraint,
    GappedSequence,
    GapsubError,
    InputError,
    LengthGap,
    RegLenGap,
    RegularGap,
    UsageError,
    Word,
    ZeroGap,
    check_dfa_alphabet,
)
from .matchers import EqualitySystem, match, match_with_equalities
from .multiplicity import count_embeddings, equivalence_with_multiplicities
from .reductions import (
    BIN_ALPHABET,
    BIT_ALPHABET,
    OV_ALPHABET,
    CnfFormula,
    Graph,
    OvInstance,
    kis_to_metanuni,
    metanuni_to_nuni,
    ov_to_match,
    random_cnf,
    random_graph,
    random_ov,
    sat_to_match_equalities,
    sat_to_metanuni,
    sat_to_nuni_binary,
)


def _content_lines(text: str) -> list[str]:
    return [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]


def _read_text(path: str, what: str) -> str:
    """The one reader of user-named input files."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from None


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InputError(f"bad {what}: expected an integer, got {tok!r}") from None


# ---------------------------------------------------------------------------
# word files


@dataclass
class WordInput:
    """A word value before the session alphabet is known."""

    char_text: Optional[str] = None
    glyph_table: Optional[str] = None
    ids: Optional[tuple[int, ...]] = None
    sigma_hint: int = 0


def parse_word_text(text: str) -> WordInput:
    mode = "char"
    glyphs: Optional[str] = None
    sigma = 0
    word_line: Optional[str] = None
    for line in _content_lines(text):
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "mode":
            if rest not in ("char", "int"):
                raise InputError(f"unknown word mode {rest!r}")
            mode = rest
        elif key == "glyphs":
            glyphs = rest
        elif key == "sigma":
            sigma = _int(rest, "sigma directive")
        elif key == "word":
            word_line = rest
        else:
            raise InputError(f"unknown word file directive {key!r}")
    if word_line is None:
        raise InputError("word file has no word line")
    if mode == "char":
        return WordInput(char_text=word_line, glyph_table=glyphs)
    try:
        ids = tuple(int(tok) for tok in word_line.split())
    except ValueError as exc:
        raise InputError(f"bad int-mode word line: {exc}") from None
    return WordInput(ids=ids, sigma_hint=sigma)


def load_word_value(value: str) -> WordInput:
    """'@path' reads a word file; anything else is a literal char-mode word."""
    if value.startswith("@"):
        return parse_word_text(_read_text(value[1:], "word"))
    return WordInput(char_text=value)


def resolve_words(
    inputs: Sequence[WordInput],
    glyphs_flag: Optional[str] = None,
    sigma_flag: int = 0,
) -> tuple[Alphabet, list[Word], str]:
    """Bind all word inputs to one session alphabet.

    Char and int inputs cannot mix.  An explicit glyph table (from a
    file or --glyphs) fixes the glyph-to-id map and every table given
    must agree; otherwise ids follow the sorted union of glyphs seen.
    """
    chars = [w for w in inputs if w.char_text is not None]
    ints = [w for w in inputs if w.ids is not None]
    if chars and ints:
        raise InputError("cannot mix char-mode and int-mode words in one invocation")
    if ints:
        sigma = max(
            [sigma_flag] + [w.sigma_hint for w in ints] + [max(w.ids, default=0) for w in ints]
        )
        sigma = max(sigma, 1)
        alphabet = Alphabet(sigma)
        words = []
        for w in ints:
            word = Word(w.ids)
            alphabet.validate_word(word)
            words.append(word)
        return alphabet, words, "int"
    tables = {w.glyph_table for w in chars if w.glyph_table is not None}
    if glyphs_flag is not None:
        tables.add(glyphs_flag)
    if len(tables) > 1:
        raise InputError(f"conflicting glyph tables: {sorted(tables)}")
    if tables:
        table = next(iter(tables))
    else:
        table = "".join(sorted({ch for w in chars for ch in w.char_text}))
        if not table:
            table = "a"
    alphabet = Alphabet.from_glyphs(table)
    words = []
    for w in chars:
        try:
            words.append(alphabet.word(w.char_text))
        except InputError as exc:
            raise InputError(f"word {w.char_text!r}: {exc}") from None
    return alphabet, words, "char"


def _glyph_text(w: Word, glyphs: tuple[str, ...]) -> str:
    """The glyphs of w's symbols, indexing the glyph table once per symbol."""
    return "".join([glyphs[s - 1] for s in w.symbols])


def serialize_word_text(w: Word, alphabet: Alphabet, mode: str) -> str:
    if mode == "char":
        if alphabet.glyphs is None:
            raise UsageError("alphabet has no glyph table")
        body = _glyph_text(w, alphabet.glyphs)
        return f"mode char\nglyphs {''.join(alphabet.glyphs)}\nword {body}\n"
    body = " ".join(str(s) for s in w.symbols)
    return f"mode int\nsigma {alphabet.size}\nword {body}\n"


def format_word(w: Word, alphabet: Alphabet, mode: str) -> str:
    if mode == "char" and alphabet.glyphs is not None:
        return _glyph_text(w, alphabet.glyphs)
    return " ".join(str(s) for s in w.symbols)


# ---------------------------------------------------------------------------
# DFA and constraint files


def parse_dfa_text(text: str) -> Dfa:
    num_states = None
    initial = None
    finals: set[int] = set()
    sigma = None
    trans: dict[tuple[int, int], int] = {}
    for line in _content_lines(text):
        toks = line.split()
        key = toks[0]
        if key in ("states", "initial", "alphabet") and len(toks) != 2:
            raise InputError(f"bad dfa {key} line {line!r}")
        if key == "states":
            num_states = _int(toks[1], "dfa states line")
        elif key == "initial":
            initial = _int(toks[1], "dfa initial line")
        elif key == "final":
            finals.update(_int(t, "dfa final line") for t in toks[1:])
        elif key == "alphabet":
            sigma = _int(toks[1], "dfa alphabet line")
        elif key == "trans":
            if len(toks) != 4:
                raise InputError(f"bad transition line {line!r}")
            q, a, q2 = (_int(t, "dfa transition") for t in toks[1:4])
            if (q, a) in trans:
                raise InputError(f"duplicate transition for state {q} symbol {a}")
            trans[(q, a)] = q2
        else:
            raise InputError(f"unknown dfa directive {key!r}")
    if num_states is None or initial is None or sigma is None:
        raise InputError("dfa file needs states, initial, and alphabet lines")
    cells = ((q, a) for q in range(num_states) for a in range(1, sigma + 1))
    missing = next((c for c in cells if c not in trans), None)
    if missing is not None:
        raise InputError("missing transition for state %d symbol %d" % missing)
    extra = sorted(c for c in trans if not (0 <= c[0] < num_states and 1 <= c[1] <= sigma))
    if extra:
        raise InputError("transition for state %d symbol %d out of declared range" % extra[0])
    table = [[trans[q, a] for a in range(1, sigma + 1)] for q in range(num_states)]
    return Dfa(num_states, initial, finals, table)


def serialize_dfa_text(d: Dfa) -> str:
    lines = [
        f"states {d.num_states}",
        f"initial {d.initial}",
        "final " + " ".join(str(q) for q in sorted(d.finals)),
        f"alphabet {d.num_symbols}",
    ]
    for q, row in enumerate(d.table):
        for a, q2 in enumerate(row, start=1):
            lines.append(f"trans {q} {a} {q2}")
    return "\n".join(lines) + "\n"


def _parse_bound(tok: str) -> int | float:
    if tok == "inf":
        return INF
    return _int(tok, "length bound")


def parse_constraints_text(text: str, base_dir: str = ".") -> tuple[int, tuple[GapConstraint, ...]]:
    """Returns (k, constraints); DFA paths are resolved against base_dir.

    Equal constraint lines give one shared constraint object, so a file of
    many gaps and few distinct constraints parses each distinct line once."""
    lines = _content_lines(text)
    if not lines or not lines[0].startswith("k "):
        raise InputError("constraint file must start with a 'k <k>' line")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"bad k line {lines[0]!r}: expected 'k <k>'")
    k = _int(head[1], "k line")
    if k < 0:
        raise InputError("k must be nonnegative")
    need = max(0, k - 1)
    body = lines[1:]
    if len(body) != need:
        raise InputError(f"expected {need} constraint lines for k {k}, got {len(body)}")
    dfas: dict[str, Dfa] = {}

    def load_dfa(path: str) -> Dfa:
        full = os.path.join(base_dir, path)
        if full not in dfas:
            dfas[full] = parse_dfa_text(_read_text(full, "dfa"))
        return dfas[full]

    def parse_line(line: str) -> GapConstraint:
        toks = line.split()
        kind = toks[0]
        if kind == "Z" and len(toks) == 1:
            return ZeroGap()
        if kind == "L" and len(toks) == 3:
            return LengthGap(_int(toks[1], "length bound"), _parse_bound(toks[2]))
        if kind == "R" and len(toks) == 2:
            return RegularGap(load_dfa(toks[1]))
        if kind == "RL" and len(toks) == 4:
            return RegLenGap(_int(toks[1], "length bound"), _parse_bound(toks[2]), load_dfa(toks[3]))
        raise InputError(f"bad constraint line {line!r}")

    parsed: dict[str, GapConstraint] = {}
    for line in body:
        if line not in parsed:
            parsed[line] = parse_line(line)
    return k, tuple(map(parsed.__getitem__, body))


def serialize_constraints_text(k: int, gc: Sequence[GapConstraint]) -> str:
    """The constraint file of gc; each distinct constraint object is
    formatted once."""

    def format_line(c: GapConstraint) -> str:
        if isinstance(c, ZeroGap):
            return "Z"
        if isinstance(c, LengthGap):
            hi = "inf" if c.hi == INF else str(c.hi)
            return f"L {c.lo} {hi}"
        raise InputError("only zero and length constraints can be serialized here")

    formatted: dict[int, str] = {}
    lines = [f"k {k}"]
    for c in gc:
        line = formatted.get(id(c))
        if line is None:
            line = formatted[id(c)] = format_line(c)
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# instance files


def parse_ov_text(text: str) -> OvInstance:
    lines = _content_lines(text)
    if not lines:
        raise InputError("empty ov file")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError("ov file must start with 'n d'")
    n, d = _int(head[0], "ov header"), _int(head[1], "ov header")
    rows = lines[1:]
    if len(rows) != 2 * n:
        raise InputError(f"expected {2 * n} vector rows, got {len(rows)}")
    vecs = []
    for row in rows:
        if len(row) != d or any(ch not in "01" for ch in row):
            raise InputError(f"bad bit row {row!r}")
        vecs.append(tuple(int(ch) for ch in row))
    return OvInstance(d, tuple(vecs[:n]), tuple(vecs[n:]))


def serialize_ov_text(inst: OvInstance) -> str:
    lines = [f"{inst.n} {inst.d}"]
    for v in inst.a_vectors + inst.b_vectors:
        lines.append("".join(str(x) for x in v))
    return "\n".join(lines) + "\n"


def parse_cnf_text(text: str) -> CnfFormula:
    num_vars = None
    tokens: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        if line.startswith("p"):
            toks = line.split()
            if len(toks) != 4 or toks[1] != "cnf":
                raise InputError(f"bad problem line {line!r}")
            num_vars = _int(toks[2], "cnf problem line")
            continue
        tokens.extend(_int(t, "cnf literal") for t in line.split())
    if num_vars is None:
        raise InputError("cnf file has no 'p cnf' line")
    clauses = []
    cur: list[int] = []
    for t in tokens:
        if t == 0:
            clauses.append(frozenset(cur))
            cur = []
        else:
            cur.append(t)
    if cur:
        raise InputError("last clause is not terminated by 0")
    return CnfFormula(num_vars, tuple(clauses))


def serialize_cnf_text(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for c in f.clauses:
        lines.append(" ".join(str(lit) for lit in sorted(c)) + " 0")
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    num_vertices = None
    edges = []
    for line in _content_lines(text):
        toks = line.split()
        if toks[0] == "vertices":
            if len(toks) != 2:
                raise InputError(f"bad vertices line {line!r}")
            num_vertices = _int(toks[1], "vertices line")
        elif toks[0] == "edge":
            if len(toks) != 3:
                raise InputError(f"bad edge line {line!r}")
            edges.append((_int(toks[1], "edge line"), _int(toks[2], "edge line")))
        else:
            raise InputError(f"unknown graph directive {toks[0]!r}")
    if num_vertices is None:
        raise InputError("graph file has no vertices line")
    return Graph(num_vertices, tuple(edges))


def serialize_graph_text(g: Graph) -> str:
    lines = [f"vertices {g.num_vertices}"]
    for u, v in g.edges:
        if u != v:
            lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def parse_eq_text(text: str) -> EqualitySystem:
    pairs = []
    for line in _content_lines(text):
        toks = line.split()
        if len(toks) != 2:
            raise InputError(f"bad equality line {line!r}")
        pairs.append((_int(toks[0], "equality line"), _int(toks[1], "equality line")))
    return EqualitySystem.from_pairs(pairs)


# ---------------------------------------------------------------------------
# commands


def _load(args, values: Sequence[str]) -> tuple[Alphabet, list[Word], str, tuple[GapConstraint, ...]]:
    """Session words, then constraints: k must fit the pattern (or be at least 1
    without one, since the analyses read k as len(gc) + 1), each distinct DFA
    the session alphabet, once."""
    inputs = [load_word_value(v) for v in values]
    alphabet, words, mode = resolve_words(inputs, args.glyphs, args.sigma)
    path = args.constraints
    k, gc = parse_constraints_text(_read_text(path, "constraint"), os.path.dirname(path) or ".")
    if "pattern" in args:
        if k != len(words[1]):
            raise InputError(f"constraint file is for k {k}, pattern has length {len(words[1])}")
    elif k < 1:
        raise InputError(f"constraint file is for k {k}, this command needs k >= 1")
    check_dfa_alphabet(gc, alphabet.size)
    return alphabet, words, mode, gc


def _pattern_instance(args) -> tuple[Word, GappedSequence]:
    _, (w, p), _, gc = _load(args, [args.word, args.pattern])
    return w, GappedSequence(p, gc)


def _verdict(label: str, ok: bool, witness: Optional[Word], alphabet: Alphabet, mode: str) -> int:
    print(f"{label}: {'yes' if ok else 'no'}")
    if witness is not None:
        print("witness: " + format_word(witness, alphabet, mode))
    return 0 if ok else 1


def _cmd_match(args) -> int:
    w, gs = _pattern_instance(args)
    if args.eq is not None:
        got = match_with_equalities(w, gs, parse_eq_text(_read_text(args.eq, "equality")))
    else:
        got = match(w, gs)
    if got is None:
        print("match: no")
        return 1
    print("match: yes")
    if args.witness:
        print("witness: " + " ".join(map(str, got.positions)))
    return 0


def _cmd_analyze(args) -> int:
    two = args.mode in ("con", "equ")
    if two != (args.word2 is not None):
        raise InputError(f"analyze {args.mode} {'needs' if two else 'takes no'} -W")
    values = [args.word] + ([args.word2] if two else [])
    alphabet, words, mode, gc = _load(args, values)
    if args.mode == "uni":
        report = universality(words[0], gc, alphabet, budget=args.budget)
        label = "universal"
    elif args.mode == "con":
        report = containment(words[0], words[1], gc, alphabet, budget=args.budget)
        label = "contained"
    else:
        report = equivalence(words[0], words[1], gc, alphabet, budget=args.budget)
        label = "equivalent"
    print(f"{label}: {'yes' if report.decision else 'no'}")
    print(f"candidates: {report.candidates_checked}")
    if report.witness is not None:
        print("witness: " + format_word(report.witness, alphabet, mode))
    return 0 if report.decision else 1


def _cmd_count(args) -> int:
    total = count_embeddings(*_pattern_instance(args))
    print(total)
    return 0 if total > 0 else 1


def _cmd_equ_mult(args) -> int:
    alphabet, (w, w2), mode, gc = _load(args, [args.word, args.word2])
    return _verdict("equivalent", *equivalence_with_multiplicities(w, w2, gc), alphabet, mode)


def _cmd_classic_con(args) -> int:
    inputs = [load_word_value(args.word), load_word_value(args.word2)]
    alphabet, (w, w2), mode = resolve_words(inputs, args.glyphs, args.sigma)
    return _verdict("contained", *classical_containment(w, w2, args.k), alphabet, mode)


def _write(path: str, text: str) -> None:
    # newline="" keeps gen files' \n line endings on every platform
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
    print(f"wrote {path}")


def _cmd_gen(args) -> int:
    prefix = args.out
    kind = args.kind
    given = args.infile is not None  # an empty --in file is an error, not "no --in"
    text = _read_text(args.infile, "instance") if given else ""
    if kind == "ov":
        inst = parse_ov_text(text) if given else random_ov(args.n, args.d, args.seed)
        w, gs = ov_to_match(inst)
        _write(prefix + ".ov", serialize_ov_text(inst))
        _write(prefix + ".word", serialize_word_text(w, OV_ALPHABET, "char"))
        _write(prefix + ".pattern", serialize_word_text(gs.pattern, OV_ALPHABET, "char"))
        _write(prefix + ".constraints", serialize_constraints_text(len(gs.pattern), gs.constraints))
    elif kind in ("sat-nuni", "kis-nuni"):
        if kind == "sat-nuni":
            f = parse_cnf_text(text) if given else random_cnf(args.vars, args.clauses, args.seed)
            meta = sat_to_metanuni(f)
            _write(prefix + ".cnf", serialize_cnf_text(f))
        else:
            g = parse_graph_text(text) if given else random_graph(args.vertices, args.edges, args.seed)
            meta = kis_to_metanuni(g, args.k)
            _write(prefix + ".graph", serialize_graph_text(g))
        w, gc = metanuni_to_nuni(meta)
        alphabet = Alphabet(meta.gamma_size + 1)
        _write(prefix + ".word", serialize_word_text(w, alphabet, "int"))
        _write(prefix + ".constraints", serialize_constraints_text(meta.k, gc))
    elif kind == "sat-nuni-bin":
        f = parse_cnf_text(text) if given else random_cnf(args.vars, args.clauses, args.seed)
        s, gc, ref = sat_to_nuni_binary(f)
        _write(prefix + ".cnf", serialize_cnf_text(f))
        _write(prefix + ".word", serialize_word_text(s, BIN_ALPHABET, "char"))
        _write(prefix + ".reference", serialize_word_text(ref, BIN_ALPHABET, "char"))
        _write(prefix + ".constraints", serialize_constraints_text(2 * f.num_vars, gc))
    elif kind == "sat-eq":
        f = parse_cnf_text(text) if given else random_cnf(args.vars, args.clauses, args.seed, arity=3)
        w, gs, eq = sat_to_match_equalities(f)
        _write(prefix + ".cnf", serialize_cnf_text(f))
        _write(prefix + ".word", serialize_word_text(w, BIT_ALPHABET, "char"))
        _write(prefix + ".pattern", serialize_word_text(gs.pattern, BIT_ALPHABET, "char"))
        _write(prefix + ".constraints", serialize_constraints_text(len(gs.pattern), gs.constraints))
        _write(
            prefix + ".eq",
            "".join(f"{a} {b}\n" for a, b in sorted(eq.pairs)),
        )
    else:
        raise InputError(f"unknown generator {kind!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapsub",
        description="matching and analysis of subsequences with gap constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def word_flags(p, second: Optional[bool] = None, pattern: bool = False) -> None:
        p.add_argument("-w", "--word", required=True, help="word, or @file")
        if pattern:
            p.add_argument("-p", "--pattern", required=True, help="pattern, or @file")
        if second is not None:
            p.add_argument("-W", "--word2", required=second, help="second word, or @file")
        p.add_argument("--glyphs", help="explicit glyph table for char mode")
        p.add_argument("--sigma", type=int, default=0, help="alphabet size for int mode")

    p = sub.add_parser("match", help="decide whether the pattern embeds in the word")
    word_flags(p, pattern=True)
    p.add_argument("-c", "--constraints", required=True, help="constraint file")
    p.add_argument("--witness", action="store_true", help="print embedding positions")
    p.add_argument("--eq", help="equality file: gaps forced to equal lengths")
    p.set_defaults(fn=_cmd_match)

    p = sub.add_parser("analyze", help="universality, containment, equivalence")
    p.add_argument("mode", choices=["uni", "con", "equ"])
    word_flags(p, second=False)
    p.add_argument("-c", "--constraints", required=True, help="constraint file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("count", help="number of embeddings of the pattern")
    word_flags(p, pattern=True)
    p.add_argument("-c", "--constraints", required=True, help="constraint file")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("equ-mult", help="multiplicity equivalence of two words")
    word_flags(p, second=True)
    p.add_argument("-c", "--constraints", required=True, help="constraint file")
    p.set_defaults(fn=_cmd_equ_mult)

    p = sub.add_parser("classic-con", help="fixed-length plain subsequence containment")
    word_flags(p, second=True)
    p.add_argument("-k", type=int, required=True, help="subsequence length")
    p.set_defaults(fn=_cmd_classic_con)

    p = sub.add_parser("gen", help="generate reduction instances")
    p.add_argument("kind", choices=["ov", "sat-nuni", "sat-nuni-bin", "kis-nuni", "sat-eq"])
    p.add_argument("--in", dest="infile", help="source instance file")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=2, help="ov: vectors per side")
    p.add_argument("--d", type=int, default=3, help="ov: dimension")
    p.add_argument("--vars", type=int, default=4, help="cnf: variables")
    p.add_argument("--clauses", type=int, default=4, help="cnf: clauses")
    p.add_argument("--vertices", type=int, default=4, help="graph: vertices")
    p.add_argument("--edges", type=int, default=3, help="graph: edges")
    p.add_argument("--k", type=int, default=2, help="kis: independent set size")
    p.set_defaults(fn=_cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: parse_args reads no state
    from an earlier call and gives a fresh Namespace each time."""
    return build_parser()


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except GapsubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
