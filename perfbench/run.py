"""canonalg benchmark: one workload, closed loop, one process, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; canonalg is imported from its
``src/``.  Set-up (import plus input generation from the seed) is done three
times and its median reported.  The timed region then runs whole passes over
the workload's operations, one at a time, as many as fit in about S seconds
(at least one).  Every result is checked after the timed region.  With ``--trace 0``
the reach sweep follows and the end-to-end metrics are reported; with
``--trace 1`` one more pass runs under span tracing and one under ``Ring``
operation counting, and the per-layer metrics are reported.

Every gated time is in reference seconds (see ``speed.py``): wall time
divided by the host's slowness, sampled by a fixed kernel every 50 ms while
the work runs, so that the drift of a shared host's speed cancels out.  The
wall-clock figures are printed beside them.

Human-readable tables and a ``meta`` line come first; the last line of
standard output is the JSON result.  The exit code is 1 when a correctness
check failed and 2 when the checkout has no canonalg sources.
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

import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

# name -> (unit, better); the gated metrics, identical on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "op_s.p50": ("s", "lower"),
    "reach_cap": ("degree", "higher"),
    "decided_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_LAYERS = [
    ("linalg.solve_many", ("calls", "self_s", "cells", "nnz")),
    ("linalg.matrix_rank", ("calls", "self_s")),
    ("weyl.inverse_search", ("calls", "self_s")),
    ("weyl.WeylElement.__mul__", ("calls", "self_s", "term_pairs")),
    ("weyl.WeylEndo.compose", ("calls", "self_s")),
    ("weyl.is_central", ("calls", "self_s")),
    ("weyl.center_slice_check", ("self_s",)),
    ("reduction.induced_center_endo", ("calls", "self_s")),
    ("poly.Poly.__mul__", ("calls", "self_s", "term_pairs")),
    ("poly.PolyEndo.compose", ("calls", "self_s")),
    ("poly.PolyMatrix.determinant", ("calls", "self_s")),
    ("poly.Poly.evaluate", ("calls", "self_s")),
    ("poisson.is_symplectic", ("calls", "self_s")),
    ("conjectures.inverse_search_poly", ("calls", "self_s")),
    ("conjectures.extension_degree_estimate", ("self_s",)),
    ("conjectures.kraus_check", ("self_s", "primes")),
    ("parsing.parse_endo_file", ("calls", "self_s", "bytes")),
    ("report.dump_report", ("self_s", "bytes")),
    ("cli.main", ("calls", "self_s", "exit2")),
]

# name -> unit; reported by the traced run, identical on every workload.
PER_LAYER = {"rings.ops.fp": "count", "rings.ops.q": "count"}
for _layer, _fields in _LAYERS:
    for _field in _fields:
        PER_LAYER[f"{_layer}.{_field}"] = "s" if _field == "self_s" else "count"
PER_LAYER["conjectures.search.caps_per_search"] = "ratio"
PER_LAYER["trace.overhead_ratio"] = "ratio"


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def _purge_canonalg() -> None:
    for key in [k for k in sys.modules if k == "canonalg" or k.startswith("canonalg.")]:
        del sys.modules[key]


def set_up(workload: str, seed: int, workdir: Path):
    """Import canonalg and build the inputs SETUP_REPEATS times; keep the last.

    Returns the inputs and the median set-up time in reference seconds.
    """
    intervals = []
    with speed.Sampler() as sampler:
        for _ in range(SETUP_REPEATS):
            _purge_canonalg()
            t0 = time.perf_counter()
            importlib.import_module("canonalg")
            built = workloads.build(workload, seed, workdir)
            intervals.append((t0, time.perf_counter()))
    return built, statistics.median(sampler.ref_seconds(a, b) for a, b in intervals)


def run_passes(ops, seconds: float):
    """Whole passes over ``ops``: round(seconds / first pass time), at least one.

    Whole passes keep the mix of operations the same whatever the machine's
    speed, so ``ops_per_s`` does not depend on where a time limit cuts a
    pass.  Returns (passes, latencies, wall latencies, results): latencies
    in reference seconds, then in wall seconds; results[k] holds one
    (collected result, exception text) per pass for op k.
    """
    intervals = []
    results = [[] for _ in ops]
    clock = time.perf_counter
    passes = wanted = 1
    with speed.Sampler() as sampler:
        while passes <= wanted:
            for k, op in enumerate(ops):
                t0 = clock()
                try:
                    out, err = op.run(), None
                except Exception as exc:  # a crashing operation is a failed one
                    out, err = None, f"{type(exc).__name__}: {exc}"
                intervals.append((t0, clock()))
                results[k].append((out if err else op.collect(out), err))
            if passes == 1:
                wanted = max(1, round(seconds / (clock() - intervals[0][0])))
            passes += 1
    latencies = [sampler.ref_seconds(a, b) for a, b in intervals]
    return wanted, latencies, [b - a for a, b in intervals], results


def check_results(ops, results):
    """(failed operations, problems, verdicts, fingerprint of the first pass)."""
    failed = 0
    problems = []
    verdicts = []
    prints = []
    for op, runs in zip(ops, results):
        first = None
        for i, (out, err) in enumerate(runs):
            issues = [err] if err else op.check(out)
            if not err:
                verdicts.append(op.verdict(out))
                fp = op.fingerprint(out)
                if first is None:
                    first = fp
                    prints.append(fp)
                elif fp != first:
                    issues.append(f"pass {i + 1} differs from pass 1: {fp} != {first}")
            if issues:
                failed += 1
                problems.append(f"{op.label.splitlines()[0][:100]}: {'; '.join(issues)}")
    fingerprint = hashlib.sha256("\n".join(prints).encode()).hexdigest()
    return failed, problems, verdicts, fingerprint


def traced_pass(ops, baseline_pass_s: float):
    """One pass under span tracing, one under Ring counting; per-layer metrics.

    ``baseline_pass_s`` is the untraced pass time in reference seconds.  The
    traced pass runs without the host-speed sampler, so that no burst lands
    in a span; its wall time is converted with bursts taken around it.
    """
    import spans

    tracer = spans.Tracer()
    before = speed.factor()
    tracer.install()
    began = time.perf_counter()
    try:
        traced = [tracer.operation(k, op.run) for k, op in enumerate(ops)]
    finally:
        wall = time.perf_counter() - began
        tracer.uninstall()
    ref_wall = wall / ((before + speed.factor()) / 2)
    traced = [op.collect(out) for op, out in zip(ops, traced)]
    rings = importlib.import_module("canonalg.rings")
    ring_counts = spans.count_ring_ops(rings.Ring, lambda: [op.run() for op in ops])

    table = tracer.layer_table()
    metrics = {"rings.ops.fp": ring_counts["Fp"], "rings.ops.q": ring_counts["Q"]}
    for layer, fields in _LAYERS:
        row = table.get(layer, {})
        for field in fields:
            metrics[f"{layer}.{field}"] = row.get(field, 0)
    metrics["conjectures.search.caps_per_search"] = tracer.caps_per_search()
    metrics["trace.overhead_ratio"] = ref_wall / baseline_pass_s
    return tracer, table, metrics, traced, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "canonalg" / "__init__.py").is_file():
        print(f"error: no canonalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    meta["machine"] = machine()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        built, setup_s = set_up(args.workload, args.seed, workdir)
        import canonalg

        if not Path(canonalg.__file__).resolve().is_relative_to(SRC):
            print(f"error: canonalg imported from {canonalg.__file__}, not {SRC}", file=sys.stderr)
            return 2
        ops = built.ops
        meta["inputs_digest"] = built.inputs_digest
        meta["operations_per_pass"] = len(ops)

        gc.collect()
        passes, latencies, walls, results = run_passes(ops, args.seconds)
        failed, problems, verdicts, fingerprint = check_results(ops, results)
        attempted = len(latencies)
        meta["passes"] = passes
        meta["verdict_fingerprint"] = fingerprint
        timed_s = sum(latencies)
        wall_s = sum(walls)
        decided = [v for v in verdicts if v is not None]

        shown = {
            "ops_per_s": attempted / timed_s,
            "op_s.p50": statistics.median(latencies),
            "decided_ratio": sum(v in ("yes", "no") for v in decided) / len(decided) if decided else 1.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = {
            "failed_ratio": (failed / attempted, "ratio"),
            "operations": (attempted, "count"),
            "wall_ops_per_s": (attempted / wall_s, "op/s"),
            "wall_op_s.p50": (statistics.median(walls), "s"),
            "host_factor": (wall_s / timed_s, "ratio"),
        }
        if attempted >= 100:  # at least ten samples beyond the 90th percentile
            extra["op_s.p90"] = (statistics.quantiles(latencies, n=10)[8], "s")

        if args.trace:
            tracer, table, metrics, traced, wall = traced_pass(ops, timed_s / passes)
            for op, out, runs in zip(ops, traced, results):
                first, err = runs[0]
                if err is None and op.fingerprint(out) != op.fingerprint(first):
                    problems.append(f"{op.label.splitlines()[0][:100]}: traced result differs")
            self_sum = sum(row["self_s"] for row in table.values())
            if self_sum > wall:
                problems.append(f"sum of self times {self_sum:.6f} s exceeds traced wall {wall:.6f} s")
            meta["tracing"] = {"spans": len(tracer), "wall_s": wall, "self_sum_s": self_sum}
            tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
            print(f"per-layer, one traced pass of {len(ops)} operations ({len(tracer)} spans, {wall:.3f} s):")
            for name, unit in PER_LAYER.items():
                print(f"  {name:48s} {metrics[name]:.6g} {unit}")
            print("self time by span name:")
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
                work = " ".join(f"{k}={v}" for k, v in row.items() if k not in ("calls", "self_s"))
                print(f"  {name:42s} calls={row['calls']:<9d} self_s={row['self_s']:.6f} {work}")
            result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            import reach

            try:
                shown["reach_cap"], cap_times = reach.sweep(SRC, workloads.REACH_GENERATOR_SEED)
                meta["reach_cap_seconds"] = cap_times
            except reach.ReachError as exc:
                problems.append(f"reach sweep failed: {exc}")
                shown["reach_cap"] = 0
            result_metrics = {name: {"value": shown[name], "unit": END_TO_END[name][0]} for name in END_TO_END}

        print(
            f"{args.workload} seed={args.seed}: {attempted} operations in {passes} passes, "
            f"{wall_s:.3f} s timed, {timed_s:.3f} reference s"
        )
        for name, (unit, better) in END_TO_END.items():
            if name in shown:
                print(f"  {name:14s} {shown[name]:.6g} {unit} ({better} is better)")
        for name, (value, unit) in extra.items():
            print(f"  {name:14s} {value:.6g} {unit}")
        for line in problems[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        correct = not problems
        meta["unbounded"] = {name: value for name, (value, _) in extra.items()}
        meta["problems"] = problems
        record = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"meta": meta, **record}, indent=1) + "\n", encoding="utf-8"
        )
        print("meta " + json.dumps(meta, sort_keys=True))
        print(json.dumps(record))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
