#!/usr/bin/env python3
"""Run one workload of the voidnet benchmark and print its metrics.

    python3 bench/run.py --workload nearest-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the program is imported from
``src/``.  The run measures set-up in fresh interpreters, then repeats
whole passes over the workload's operations until the next pass would end
after ``--seconds``.  Every pass is checked.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates passes with tracing
off and on: per-layer figures come from the traced passes, and the
tracing overhead from comparing the two kinds.
"""

from __future__ import annotations

import os

# One thread: nothing in the workloads runs in parallel, and thread pools
# in the numeric libraries would blur CPU time.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_RUNS = 5

# A fresh interpreter importing voidnet (numpy and scipy with it), then
# building and validating the workload's configs: what a CLI user pays on
# every run.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import voidnet.cli; "
    "from workloads import build_configs; "
    "build_configs(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


def measure_setup(workload: str, seed: int, out_dir: Path) -> float:
    times = []
    for _ in range(SETUP_RUNS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload, str(seed), str(out_dir)],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(ops, configs, out_dir: Path):
    """Run every operation once; return (wall, cpu, results, failures).

    Only the experiment calls are timed; reading and checking the result
    files comes after.
    """
    from voidnet import harness
    from workloads import Result

    wall = cpu = 0.0
    raised = {}
    for op, config in zip(ops, configs):
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                harness.run(config)
        except Exception:  # an operation that raises counts as failed
            raised[op.name] = traceback.format_exc(limit=3)
        wall += time.perf_counter() - w0
        cpu += cpu_seconds() - c0

    results, failures = {}, {}
    for op in ops:
        if op.name in raised:
            failures[op.name] = [raised[op.name]]
            continue
        try:
            result = Result.load(out_dir / f"{op.name}.json")
            problems = op.check(result, results)
        except Exception:  # a result the checks cannot read is a failed check
            failures[op.name] = [traceback.format_exc(limit=3)]
            continue
        results[op.name] = result
        if problems:
            failures[op.name] = problems
    return wall, cpu, results, failures


def pass_reps(ops, results) -> int:
    return sum(op.reps(results[op.name], op.config) for op in ops if op.name in results)


def overshoot(ops, configs, results) -> float:
    """Share of replications beyond what each half-width target needed.

    A run with n replications and realized half-width h needed about
    n (h / target)^2 of them.  Zero when no estimate had a target.
    """
    realized = needed = 0.0
    for op, config in zip(ops, configs):
        if op.name not in results or config.experiment != "void-prob" or config.reps:
            continue
        for row in results[op.name].rows:
            h = (row["ci_high"] - row["ci_low"]) / 2.0
            realized += row["reps"]
            needed += row["reps"] * (h / config.half_width) ** 2
    return 1.0 - needed / realized if realized else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=RESULTS_DIR / "latest",
                        help="directory that collects this run's result record")
    args = parser.parse_args(argv)

    if not (SRC / "voidnet" / "__init__.py").is_file():
        print(f"no voidnet source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import voidnet.cli  # noqa: F401  (load the modules a CLI run loads)
    from spans import Tracer, pass_metrics
    from workloads import WORKLOADS, build_configs, operations

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = RESULTS_DIR / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, out_dir)

    ops = operations(args.workload, args.seed)
    configs = build_configs(args.workload, args.seed, out_dir)
    tracer = Tracer() if args.trace else None

    walls, cpus, traced_walls = [], [], []
    attempted = failed = 0
    first_results = None
    reproducible = True
    started = time.perf_counter()
    while True:
        # A traced run alternates passes with tracing off and on.
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.pass_id = len(traced_walls)
            tracer.install()
        try:
            wall, cpu, results, failures = run_pass(ops, configs, out_dir)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(ops)
        failed += len(failures)
        for name, problems in failures.items():
            print(f"FAILED {args.workload}/{name}: " + " | ".join(problems), file=sys.stderr)
        if first_results is None:
            first_results = results
        elif results != first_results:
            reproducible = False
            print(f"{args.workload}: a pass did not reproduce the first pass's results", file=sys.stderr)
        if traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        tracing_owed = tracer is not None and not traced_walls
        if not tracing_owed and time.perf_counter() - started + wall > args.seconds:
            break

    reps = pass_reps(ops, first_results)
    if args.trace:
        per_pass = [pass_metrics(tracer.spans, i, w) for i, w in enumerate(traced_walls)]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["harness.reps"] = reps
        metrics["harness.overshoot"] = overshoot(ops, configs, first_results)
        metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        tracer.write(RESULTS_DIR / "traces" / f"{args.workload}.seed{args.seed}.jsonl")
        section = "per_layer"
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "reps_per_s": statistics.median(reps / w for w in walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        section = "end_to_end"

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "correct": failed == 0 and reproducible,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in spec[section]},
    }
    args.results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}.{os.getpid()}.json"
    (args.results / tag).write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                                "trace": args.trace, "pass_walls": walls,
                                                "traced_pass_walls": traced_walls, **record}) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
