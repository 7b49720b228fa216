"""Self-tests of the benchmark, on shrunken op lists.

    python3 -m pytest benchmark
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _ops(lib, name, seed, tmp_path):
    return workloads.build(name, lib, seed, tmp_path / f"{name}-{seed}", small=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_op_list_is_deterministic_for_a_seed(lib, name, tmp_path):
    first = [(op.family, op.label, op.key) for op in _ops(lib, name, 7, tmp_path)]
    again = [(op.family, op.label, op.key) for op in _ops(lib, name, 7, tmp_path)]
    other = [(op.family, op.label, op.key) for op in _ops(lib, name, 8, tmp_path)]
    assert first == again
    assert [key for *_, key in first] != [key for *_, key in other]


def _corrupt(lib, op, got):
    """A wrong answer of the same shape as ``got``."""
    if op.family == "match":
        return None if got is not None else lib.core.Embedding((1, 2, 3, 4))
    if op.family == "cli":
        code, out, err = got
        return (1 if code == 0 else 0, out, err)
    if isinstance(got, lib.analysis.AnalysisReport):
        return dataclasses.replace(got, decision=not got.decision)
    if isinstance(got, tuple):  # classical containment, multiplicity equivalence
        return (not got[0], got[1])
    if isinstance(got, int):
        return got + 1
    wrong = dict(got)
    key = next(iter(wrong))
    wrong[key] += 1
    return wrong


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checker_accepts_right_and_flags_wrong_answers(lib, name, tmp_path):
    for op in _ops(lib, name, 3, tmp_path):
        got = op.call()
        assert op.check(got) is None, op.label
        assert op.check(_corrupt(lib, op, got)) is not None, op.label


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))
    value, pct = run.tail(samples)
    assert value == 90 and sum(1 for x in samples if x > value) == 10 and pct == 90.0


def test_benchmark_json_names_the_reported_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _where) in tracer.METRICS.items()
    }
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "wall_s", "op.p50_ms", "op.tail_ms", "peak_rss_mb"
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric(lib, name, tmp_path):
    ops = _ops(lib, name, 5, tmp_path)
    m = run.measure(ops, lib, 0, trace=True)
    assert all(err is None for _f, _dt, err, _l in m.results)
    values = run.layer_values(m)
    assert set(values) == {metric["name"] for metric in SPEC["per_layer"]}
    running = [n for n, (_unit, where) in tracer.METRICS.items() if name in where]
    assert running
    assert [n for n in running if not values[n] > 0] == []
    assert all(values[f"{layer}.errors"] == 0 for layer in tracer.LAYERS)
    # the wrappers are gone after the traced run
    assert not hasattr(lib.matchers.match, "__wrapped__")
    assert not hasattr(lib.cli.run_cli, "__wrapped__")
