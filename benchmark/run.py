"""gapsub benchmark: one workload, one seed, one closed loop with one caller.

    python3 benchmark/run.py --workload match-long --seed 1 --seconds 30 --trace 0
    python3 -m pytest benchmark          # the benchmark's self-tests

Run from the root of a source checkout; the library is imported from its
``src/`` directory and from nowhere else.  Set-up imports the library,
builds the workload's inputs and reference answers from the seed and
writes the CLI's input files; it is repeated and ``setup_s`` is its
median.  The timed loop then runs passes over the fixed op list, timing
each call alone and checking each result outside the timed region, until
``--seconds`` have passed.

With ``--trace 0`` the last line carries the end-to-end metrics:

- ``setup_s``: median set-up time;
- ``wall_s``: the op list once, as the sum of each op's median time;
- ``op.p50_ms``, ``op.tail_ms``: median and tail latency over every op
  of the workload.  The workload runs one family of calls, so on
  match-long these are the latencies of ``match``, on reductions-cli of
  ``run_cli``; on sets-and-counts they cover the analysis, counting and
  multiplicity calls together;
- ``peak_rss_mb``: peak resident memory of the process.

The tail is the highest percentile with at least ten samples beyond it.
The line before the last is a report: per-family latencies
(``match.p50_ms``, ``cli.tail_ms``, ``analysis.*``, ``count.*``,
``mult.*``) with the tail's percentile and sample count, ``fail_ratio``
with its base, each op's median, and the run context (seed, commit,
Python, nproc, CPU, and a speed probe taken before and after the loop).

With ``--trace 1`` the first half of the time runs untraced and the
second half with span wrappers installed (see ``tracer``); the last line
carries every per-layer metric, reported on every workload and zero
where the layer does no work.  Times are medians over traced passes;
counts are per pass and must repeat exactly, between passes and between
runs of one seed, or the run fails.  Reports and spans are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
FAMILIES = ("match", "cli", "analysis", "count", "mult")


def load_library():
    """Import gapsub afresh from the checkout's src/ (re-executing every module)."""
    for name in [m for m in sys.modules if m == "gapsub" or m.startswith("gapsub.")]:
        del sys.modules[name]
    lib = importlib.import_module("gapsub")
    importlib.import_module("gapsub.cli")
    if Path(lib.__file__).resolve().parent != SRC / "gapsub":
        raise SystemExit(f"gapsub imported from {lib.__file__}, not from {SRC}")
    return lib


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def latency(samples_ns: list[int]) -> dict:
    """Median and tail in ms, with the tail's percentile and the sample count."""
    ms = [x / 1e6 for x in samples_ns]
    value, pct = tail(ms)
    return {"p50_ms": statistics.median(ms), "tail_ms": value, "tail_pct": round(pct, 2),
            "samples": len(ms)}


def run_pass(ops, tracer, results, first_op_id: int) -> int:
    """Run every op once; append (family, ns, error or None). Returns op-time sum in ns."""
    busy = 0
    for i, op in enumerate(ops):
        gc.collect()
        if tracer is not None:
            tracer.op_id = first_op_id + i
            tracer.active = True
        error = None
        t0 = time.perf_counter_ns()
        try:
            got = op.call()
        except Exception as exc:  # a raising op is a failed op, reported below
            dt = time.perf_counter_ns() - t0
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                error = op.check(got)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        busy += dt
        results.append((op.family, dt, error, op.label))
    return busy


def measure(ops, lib, seconds: float, trace: bool) -> SimpleNamespace:
    """Run passes over ops for ``seconds`` (at least one pass).

    When tracing, untraced passes fill the first half of the time and
    traced passes the second half; ``per_pass`` holds the per-layer
    metrics of each traced pass.
    """
    m = SimpleNamespace(results=[], walls=[], traced_walls=[], per_pass=[], tracer=None)
    start = time.perf_counter()
    untraced_until = seconds / 2 if trace else seconds
    while not m.walls or time.perf_counter() - start < untraced_until:
        m.walls.append(run_pass(ops, None, m.results, 0) / 1e9)
    m.untraced = len(m.results)
    if not trace:
        return m
    m.tracer = tr = tracing.Tracer()
    tr.install(lib)
    try:
        while not m.traced_walls or time.perf_counter() - start < seconds:
            first_span = len(tr.spans)
            first_op = len(m.traced_walls) * len(ops)
            m.traced_walls.append(run_pass(ops, tr, m.results, first_op) / 1e9)
            spans = list(enumerate(tr.spans))[first_span:]
            m.per_pass.append(tracing.layer_metrics(spans, tr.tags, tr.take_counts()))
    finally:
        tr.remove()
    return m


def layer_values(m) -> dict:
    """Per-layer metric values: medians of times over traced passes, counts
    of the first traced pass, errors summed, and the tracing overhead."""
    out = {}
    for name in tracing.METRICS:
        if name == "trace.overhead_s":
            out[name] = (sum(_per_op(m.results[m.untraced:]).values())
                         - sum(_per_op(m.results[: m.untraced]).values())) / 1e3
        elif name.endswith(".errors"):
            out[name] = sum(p[name] for p in m.per_pass)
        elif name in tracing.EXACT:
            out[name] = m.per_pass[0][name]
        else:
            out[name] = statistics.median(p[name] for p in m.per_pass)
    return out


def speed_probe() -> float:
    """Median ms of a fixed pure-Python loop.  Shared hosts change speed by
    up to 2x over minutes; this reading lets runs made at different times be
    compared.  It does not enter any metric."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(200_000):
            acc += (i * i) & 0xFF
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(samples)


def _per_op(results) -> dict[str, float]:
    by_label: dict[str, list[int]] = {}
    for _fam, dt, _err, label in results:
        by_label.setdefault(label, []).append(dt)
    return {label: statistics.median(v) / 1e6 for label, v in by_label.items()}


def context(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gapsub").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def check_exact(name: str, seed: int, per_pass: list[dict], src_sha: str, exact) -> str | None:
    """Exact counts must agree between passes and with earlier runs of this seed."""
    first = {k: per_pass[0][k] for k in exact}
    for i, counts in enumerate(per_pass[1:], start=2):
        now = {k: counts[k] for k in exact}
        if now != first:
            return f"exact counts of pass {i} differ from pass 1: {now} vs {first}"
    path = OUT / "counters" / f"{name}-seed{seed}-{src_sha}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != first:
            return f"exact counts differ from an earlier run of this seed: {first} vs {before}"
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first, sort_keys=True))
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gapsub" / "__init__.py").is_file():
        print(f"error: no gapsub sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = load_library()
        ops = workloads.build(args.workload, lib, args.seed, workdir)
        setups.append(time.perf_counter() - t0)

    probe_before = speed_probe()
    m = measure(ops, lib, args.seconds, bool(args.trace))
    probe_after = speed_probe()
    results, walls = m.results, m.walls
    untraced = results[: m.untraced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(workdir, ignore_errors=True)

    failures = [(label, err) for _fam, _dt, err, label in results if err is not None]
    ctx = context(args.seed)
    ctx["speed_probe_ms"] = [probe_before, probe_after]
    families = {}
    for fam in FAMILIES:
        samples = [dt for f, dt, _e, _l in untraced if f == fam]
        if samples:
            families[fam] = latency(samples)
    op_latency = latency([dt for _f, dt, _e, _l in untraced])
    per_op = _per_op(untraced)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "context": ctx,
        "ops_per_pass": len(ops),
        "passes": len(walls),
        "setup_runs_s": setups,
        "wall_s_runs": walls,
        "families": families,
        "op": op_latency,
        "op_median_ms": per_op,
        "fail_ratio": {"value": len(failures) / len(results), "failed": len(failures),
                       "base": len(results)},
        "failures": failures[:20],
    }
    for label, err in failures[:20]:
        print(f"FAILED {label}: {err}", file=sys.stderr)

    if args.trace:
        tracer = m.tracer
        metrics_raw = layer_values(m)
        mismatch = check_exact(args.workload, args.seed, m.per_pass, ctx["src_sha256"],
                               tracing.EXACT)
        report.update({
            "traced_passes": len(m.traced_walls),
            "traced_wall_s_runs": m.traced_walls,
            "spans": tracing.span_summary(list(enumerate(tracer.spans))),
        })
        metrics = {k: {"value": v, "unit": tracing.METRICS[k][0]} for k, v in metrics_raw.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        if mismatch is not None:
            print(f"error: {mismatch}", file=sys.stderr)
            return 3
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(per_op.values()) / 1e3, "unit": "s"},
            "op.p50_ms": {"value": op_latency["p50_ms"], "unit": "ms"},
            "op.tail_ms": {"value": op_latency["tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
