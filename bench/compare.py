#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result records that ``bench/run.py --results DIR``
writes, one per run.  For every workload and end-to-end metric in
``BENCHMARK.json`` this prints each side's median and quartiles over its
untraced runs, and a verdict against the metric's bound:

- ``worse``: the change's median is worse than the base's by more than the bound;
- ``better``: every change run beats every base run, or the change's median
  is better by more than the bound while both sides' quartile spreads stay
  within it;
- ``unresolved``: either side's quartile spread (as a share of its median)
  is wider than the bound, so the bound cannot be told from noise;
- ``same``: otherwise.

It also prints operations attempted and failed on each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    worsening = sign * (c2 - b2) / b2
    spread = max((b3 - b1) / b2, (c3 - c1) / c2)
    if worsening > bound:
        return "worse"
    if all(sign * (c - b) < 0 for c in change for b in base):
        return "better"
    if spread > bound:
        return "unresolved"
    return "better" if -worsening > bound else "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, c_runs = base.get(workload, []), change.get(workload, [])
        if not b_runs or not c_runs:
            print(f"{workload}: no runs on {'base' if not b_runs else 'change'} side")
            continue
        print(f"{workload}  (runs: base {len(b_runs)}, change {len(c_runs)})")
        for side, runs in (("base", b_runs), ("change", c_runs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"  {side:<6} attempted {attempted}, failed {failed}, "
                  f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<14}{'base q1 / median / q3':>36}{'change q1 / median / q3':>36}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in b_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            fmt = lambda qs: " / ".join(f"{q:.4g}" for q in qs)
            print(f"  {name:<14}{fmt(quartiles(b)):>36}{fmt(quartiles(c)):>36}  "
                  f"{verdict(b, c, metric['better'], metric['bound'])} (bound {metric['bound']:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
