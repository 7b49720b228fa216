"""Per-layer spans, recorded by wrappers around the library's public functions.

A wrapper is installed at the name its caller looks up (for example
``gapsub.cli.match``, which the CLI calls, and ``gapsub.matchers.match``,
which the benchmark calls), so the library itself is not edited.  Each
call made while the tracer is active records a span (name, start, end,
parent span, op id) in memory; counts are taken from the call's inputs
and return value, so they repeat exactly from run to run.  ``remove``
puts every original function back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("core", "automata", "matchers", "analysis", "multiplicity", "reductions", "cli")

_FILE_FLAGS = ("-c", "--constraints", "--eq", "--in")
_PARSERS = (
    "cli.parse_word_text", "cli.parse_constraints_text", "cli.parse_dfa_text", "cli.parse_eq_text"
)
_TOP_ANALYSES = ("analysis.universality", "analysis.containment", "analysis.equivalence")


def _gap_class(constraints) -> str:
    kinds = {type(c).__name__ for c in constraints}
    if kinds <= {"ZeroGap", "LengthGap"}:
        return "length"
    if kinds <= {"ZeroGap", "RegularGap"}:
        return "regular"
    return "reglen"


def _nonzero_gaps(constraints) -> int:
    def zero(c):
        return type(c).__name__ == "ZeroGap" or (
            type(c).__name__ == "LengthGap" and c.lo == 0 and c.hi == 0
        )

    return sum(1 for c in constraints if not zero(c))


def _on_match(tr, idx, args, result):
    w, gs = args[0], args[1]
    tr.tags[idx] = _gap_class(gs.constraints)
    tr.counts["matchers.gap_symbols"] += len(w) * _nonzero_gaps(gs.constraints)


def _on_analysis(tr, idx, args, result):
    parent = tr.spans[idx][3]
    if parent == -1 or not tr.spans[parent][0].startswith("analysis."):
        tr.counts["analysis.candidates"] += result.candidates_checked


def _on_count(tr, idx, args, result):
    tr.counts["multiplicity.count_bits"] = max(
        tr.counts["multiplicity.count_bits"], result.bit_length()
    )


def _on_parikh(tr, idx, args, result):
    bits = max((v.bit_length() for v in result.values()), default=0)
    tr.counts["multiplicity.count_bits"] = max(tr.counts["multiplicity.count_bits"], bits)


def _on_nfa(tr, idx, args, result):
    tr.counts["multiplicity.nfa_states"] += len(result.states)
    tr.counts["multiplicity.nfa_edges"] += sum(len(t) for t in result.transitions.values())


def _cli_input_bytes(argv) -> int:
    total = 0
    for i, tok in enumerate(argv):
        path = None
        if tok.startswith("@"):
            path = tok[1:]
        elif i > 0 and argv[i - 1] in _FILE_FLAGS:
            path = tok
        if path is not None and os.path.isfile(path):
            total += os.path.getsize(path)
    return total


def _on_run_cli(tr, idx, args, result):
    tr.counts["cli.input_bytes"] += _cli_input_bytes(args[0])


# (module the caller looks the name up in, attribute, span name, after-hook)
SITES = [
    ("matchers", "match", "matchers.match", _on_match),
    ("cli", "match", "matchers.match", _on_match),
    ("cli", "match_with_equalities", "matchers.match_with_equalities", None),
    ("matchers", "match_naive", "matchers.match_naive", None),
    ("matchers", "pattern_blocks", "matchers.pattern_blocks", None),
    ("matchers", "normalize", "core.normalize", None),
    ("multiplicity", "normalize", "core.normalize", None),
    ("core", "normalize_constraints", "core.normalize_constraints", None),
    ("analysis", "normalize_constraints", "core.normalize_constraints", None),
    ("multiplicity", "normalize_constraints", "core.normalize_constraints", None),
    ("analysis", "universality", "analysis.universality", _on_analysis),
    ("analysis", "containment", "analysis.containment", _on_analysis),
    ("analysis", "equivalence", "analysis.equivalence", _on_analysis),
    ("analysis", "classical_containment", "analysis.classical_containment", None),
    ("cli", "universality", "analysis.universality", _on_analysis),
    ("cli", "containment", "analysis.containment", _on_analysis),
    ("cli", "equivalence", "analysis.equivalence", _on_analysis),
    ("cli", "classical_containment", "analysis.classical_containment", None),
    ("analysis", "build_subsequence_automaton", "automata.build_subsequence_automaton", None),
    ("automata", "build_subsequence_automaton", "automata.build_subsequence_automaton", None),
    ("analysis", "build_co_subsequence_automaton", "automata.build_co_subsequence_automaton", None),
    ("analysis", "product_shortest_accepted", "automata.product_shortest_accepted", None),
    ("multiplicity", "count_embeddings", "multiplicity.count_embeddings", _on_count),
    ("multiplicity", "parikh_k", "multiplicity.parikh_k", _on_parikh),
    ("multiplicity", "equivalence_with_multiplicities",
     "multiplicity.equivalence_with_multiplicities", None),
    ("multiplicity", "build_counting_nfa", "multiplicity.build_counting_nfa", _on_nfa),
    ("multiplicity", "path_equivalent", "multiplicity.path_equivalent", None),
    ("cli", "count_embeddings", "multiplicity.count_embeddings", _on_count),
    ("cli", "equivalence_with_multiplicities", "multiplicity.equivalence_with_multiplicities", None),
    ("cli", "ov_to_match", "reductions.ov_to_match", None),
    ("cli", "sat_to_metanuni", "reductions.sat_to_metanuni", None),
    ("cli", "kis_to_metanuni", "reductions.kis_to_metanuni", None),
    ("cli", "metanuni_to_nuni", "reductions.metanuni_to_nuni", None),
    ("cli", "sat_to_nuni_binary", "reductions.sat_to_nuni_binary", None),
    ("cli", "sat_to_match_equalities", "reductions.sat_to_match_equalities", None),
    ("cli", "run_cli", "cli.run_cli", _on_run_cli),
    ("cli", "parse_word_text", "cli.parse_word_text", None),
    ("cli", "parse_constraints_text", "cli.parse_constraints_text", None),
    ("cli", "parse_dfa_text", "cli.parse_dfa_text", None),
    ("cli", "parse_eq_text", "cli.parse_eq_text", None),
    ("cli", "resolve_words", "cli.resolve_words", None),
]

# Per-layer metrics: name -> (unit, workloads on which the layer runs).
ML, RC, SC = "match-long", "reductions-cli", "sets-and-counts"
METRICS = {
    "matchers.match.calls": ("count", (ML, RC)),
    "matchers.match.s": ("s", (ML, RC)),
    "matchers.match.length.s": ("s", (ML, RC)),
    "matchers.match.regular.s": ("s", (ML,)),
    "matchers.match.reglen.s": ("s", (ML,)),
    "matchers.gap_symbols": ("count", (ML, RC)),
    "matchers.ns_per_gap_symbol": ("ns", (ML, RC)),
    "matchers.pattern_blocks.s": ("s", (ML, RC)),
    "matchers.match_with_equalities.s": ("s", (RC,)),
    "matchers.eq_attempts": ("count", (RC,)),
    "analysis.universality.s": ("s", (SC, RC)),
    "analysis.containment.s": ("s", (SC, RC)),
    "analysis.equivalence.s": ("s", (SC, RC)),
    "analysis.classical_containment.s": ("s", (SC,)),
    "analysis.candidates": ("count", (SC, RC)),
    "analysis.ns_per_candidate": ("ns", (SC, RC)),
    "automata.build_subsequence_automaton.s": ("s", (SC,)),
    "automata.build_co_subsequence_automaton.s": ("s", (SC,)),
    "automata.product_shortest_accepted.s": ("s", (SC,)),
    "multiplicity.count_embeddings.s": ("s", (SC,)),
    "multiplicity.parikh_k.s": ("s", (SC,)),
    "multiplicity.count_bits": ("bits", (SC,)),
    "multiplicity.build_counting_nfa.s": ("s", (SC,)),
    "multiplicity.path_equivalent.s": ("s", (SC,)),
    "multiplicity.nfa_states": ("count", (SC,)),
    "multiplicity.nfa_edges": ("count", (SC,)),
    "core.normalize.s": ("s", (ML, RC, SC)),
    "core.normalize_constraints.s": ("s", (ML, RC, SC)),
    "reductions.build.s": ("s", (RC,)),
    "cli.run_cli.calls": ("count", (RC,)),
    "cli.run_cli.self_s": ("s", (RC,)),
    "cli.parse.s": ("s", (RC,)),
    "cli.resolve_words.s": ("s", (RC,)),
    "cli.input_bytes": ("B", (RC,)),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.errors"] = ("count", ())
METRICS["trace.overhead_s"] = ("s", ())

# Counts that must repeat exactly between passes and between runs of one seed.
EXACT = (
    "analysis.candidates",
    "multiplicity.nfa_states",
    "multiplicity.nfa_edges",
    "matchers.eq_attempts",
    "matchers.gap_symbols",
    "cli.input_bytes",
    "matchers.match.calls",
    "cli.run_cli.calls",
    "multiplicity.count_bits",
)


class Tracer:
    """In-memory span recorder; wrappers record only while ``active``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op_id]
        self.tags: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.op_id = -1
        self.active = False
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._raised: list[BaseException] = []

    def install(self, lib) -> None:
        for mod_name, attr, name, hook in SITES:
            module = getattr(lib, mod_name)
            orig = getattr(module, attr)
            setattr(module, attr, self._wrap(orig, name, hook))
            self._installed.append((module, attr, orig))

    def remove(self) -> None:
        while self._installed:
            module, attr, orig = self._installed.pop()
            setattr(module, attr, orig)

    def _wrap(self, orig, name, hook):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = [name, 0, 0, parent, tracer.op_id]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                if not any(exc is seen for seen in tracer._raised):
                    tracer._raised.append(exc)
                    tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, idx, args, result)
            return result

        return wrapper

    def take_counts(self) -> Counter:
        """Counts since the last call, for one pass over the op list."""
        got, self.counts = self.counts, Counter()
        return got

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, tags, counts) -> dict[str, float]:
    """Per-layer metrics of one pass from its (index, span) pairs and counts."""
    summary = span_summary(spans)
    by_index = dict(spans)

    def s(name):
        return summary[name]["s"] if name in summary else 0.0

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def outermost_s(names):
        # inclusive time of the spans in names that no other span in names encloses
        ns = 0
        for _idx, (name, t0, t1, parent, _op) in spans:
            if name in names and (parent not in by_index or by_index[parent][0] not in names):
                ns += t1 - t0
        return ns / 1e9

    by_class: dict[str, float] = defaultdict(float)
    for idx, cls in tags.items():
        if idx in by_index:
            _name, t0, t1, _p, _o = by_index[idx]
            by_class[cls] += (t1 - t0) / 1e9
    gap_symbols = counts["matchers.gap_symbols"]
    candidates = counts["analysis.candidates"]
    out = {
        "matchers.match.calls": calls("matchers.match"),
        "matchers.match.s": s("matchers.match"),
        "matchers.match.length.s": by_class["length"],
        "matchers.match.regular.s": by_class["regular"],
        "matchers.match.reglen.s": by_class["reglen"],
        "matchers.gap_symbols": gap_symbols,
        "matchers.ns_per_gap_symbol": s("matchers.match") * 1e9 / gap_symbols if gap_symbols else 0.0,
        "matchers.pattern_blocks.s": s("matchers.pattern_blocks"),
        "matchers.match_with_equalities.s": s("matchers.match_with_equalities"),
        "matchers.eq_attempts": calls("matchers.match_naive"),
        "analysis.universality.s": s("analysis.universality"),
        "analysis.containment.s": s("analysis.containment"),
        "analysis.equivalence.s": s("analysis.equivalence"),
        "analysis.classical_containment.s": s("analysis.classical_containment"),
        "analysis.candidates": candidates,
        "analysis.ns_per_candidate": (
            outermost_s(_TOP_ANALYSES) * 1e9 / candidates if candidates else 0.0
        ),
        "automata.build_subsequence_automaton.s": s("automata.build_subsequence_automaton"),
        "automata.build_co_subsequence_automaton.s": s("automata.build_co_subsequence_automaton"),
        "automata.product_shortest_accepted.s": s("automata.product_shortest_accepted"),
        "multiplicity.count_embeddings.s": s("multiplicity.count_embeddings"),
        "multiplicity.parikh_k.s": s("multiplicity.parikh_k"),
        "multiplicity.count_bits": counts["multiplicity.count_bits"],
        "multiplicity.build_counting_nfa.s": s("multiplicity.build_counting_nfa"),
        "multiplicity.path_equivalent.s": s("multiplicity.path_equivalent"),
        "multiplicity.nfa_states": counts["multiplicity.nfa_states"],
        "multiplicity.nfa_edges": counts["multiplicity.nfa_edges"],
        "core.normalize.s": s("core.normalize"),
        "core.normalize_constraints.s": s("core.normalize_constraints"),
        "reductions.build.s": sum(v["s"] for k, v in summary.items() if k.startswith("reductions.")),
        "cli.run_cli.calls": calls("cli.run_cli"),
        "cli.run_cli.self_s": summary["cli.run_cli"]["self_s"] if "cli.run_cli" in summary else 0.0,
        "cli.parse.s": outermost_s(_PARSERS),
        "cli.resolve_words.s": s("cli.resolve_words"),
        "cli.input_bytes": counts["cli.input_bytes"],
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = counts[f"{layer}.errors"]
    return out


def span_summary(spans) -> dict[str, dict]:
    """calls, inclusive seconds and self seconds per span name."""
    child: dict[int, int] = defaultdict(int)
    for idx, (name, t0, t1, parent, _op) in spans:
        if parent != -1:
            child[parent] += t1 - t0
    out: dict[str, dict] = {}
    for idx, (name, t0, t1, _parent, _op) in spans:
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += (t1 - t0) / 1e9
        row["self_s"] += (t1 - t0 - child[idx]) / 1e9
    return out
