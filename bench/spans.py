"""Outside-in span tracer for voidnet's public functions.

The tracer wraps each traced function with a span timer and puts the
wrapper into every ``voidnet`` module namespace that holds the original,
since the modules import each other's functions by name.  A span records
its name, start, end, parent span and pass.  Spans stay in memory until
the run ends.  A few spans also record a work count, taken from the
call's arguments and result.

Self time of a span is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, PASS, WORK = range(6)


def _size(size) -> int:
    if size is None:
        return 1
    return int(np.prod(size))


def _pooled_inputs(args, kwargs, result):
    # The estimator's lists keep growing after the call; keep a copy.
    return (np.array(args[0], dtype=float), np.array(args[1], dtype=float))


# Traced functions: (module, attribute, work count or None).  The work
# count is computed after the call returns, from (args, kwargs, result).
TARGETS = (
    ("pointprocess", "rep_rng", None),
    ("pointprocess", "sample_ppp", lambda a, k, r: len(r)),
    ("geometry", "pairwise_distances", lambda a, k, r: r.size),
    ("geometry", "distances_to_point", None),
    ("channel", "sample_gain", lambda a, k, r: _size(k.get("size", a[2] if len(a) > 2 else None))),
    ("channel", "WeightLaw.sample_weights",
     lambda a, k, r: _size(a[1]) if a[0].kind == "lognormal" else 0),
    ("channel", "zeta_dagger", None),
    ("association", "associate",
     lambda a, k, r: (len(a[0]) * len(a[1]), len(a[1]), r.near_tie_fraction)),
    ("association", "associated_pattern", None),
    ("association", "void_probability_mc", None),
    ("analytics", "pooled_fraction", _pooled_inputs),
    ("analytics", "wilson_interval", None),
    ("analytics", "void_prob_nearest", None),
    ("analytics", "void_prob_rca", None),
    ("analytics", "void_prob_bounds", None),
    ("coverage", "coverage_sweep", None),
    ("coverage", "sir_samples", None),
    ("coverage", "sample_realization", None),
    ("coverage", "sir_at_typical_user", None),
    ("spatialstats", "ripley_k", lambda a, k, r: len(a[0]) * (len(a[0]) - 1) // 2),
    ("spatialstats", "ppp_envelope", None),
    ("spatialstats", "remark2_test", None),
    ("harness", "run", None),
    ("harness", "validate", None),
    ("harness", "write_rows", None),
)

LAYERS = ("geometry", "pointprocess", "channel", "association", "analytics", "coverage",
          "spatialstats", "harness")

TOP_LEVEL = "harness.run"


class Tracer:
    """Installs span wrappers on ``TARGETS`` and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if work is not None:
                record[WORK] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "voidnet" or n.startswith("voidnet.")]
        for module_name, attr, work in TARGETS:
            name = f"{module_name}.{attr.split('.')[-1]}"
            owner = sys.modules[f"voidnet.{module_name}"]
            if "." in attr:  # a method: patch the class only
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, work))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "pass", "work"]}) + "\n")
            for record in self.spans:
                work = record[WORK]
                if isinstance(work, tuple) and isinstance(work[0], np.ndarray):
                    work = None  # estimator inputs: not worth writing out
                fh.write(json.dumps(record[:WORK] + [work]) + "\n")


def _design_effect(voids: np.ndarray, cells: np.ndarray) -> float:
    """Cluster variance of a pooled fraction over its binomial variance."""
    reps, total = len(voids), cells.sum()
    p = voids.sum() / total
    if reps < 2 or not 0.0 < p < 1.0:
        return math.nan
    cluster = reps / (reps - 1) * float(np.sum((voids - p * cells) ** 2)) / total**2
    return cluster / (p * (1.0 - p) / total)


def pass_metrics(spans: list[list], pass_id: int, wall: float) -> dict[str, float]:
    """Self times, call counts and work counts of one traced pass.

    ``wall`` is the pass's wall time; span coverage is the share of it
    spent inside the traced functions called from the top-level calls.
    """
    indices = [i for i, s in enumerate(spans) if s[PASS] == pass_id]
    child_time: dict[int, float] = defaultdict(float)
    for i in indices:
        s = spans[i]
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, float] = defaultdict(float)
    covered = 0.0
    gain_in_associate = 0
    tie_weighted = users = 0.0
    last_deff: dict[int, float] = {}
    for i in indices:
        s = spans[i]
        name, duration = s[NAME], s[END] - s[START]
        self_s[name] += duration - child_time[i]
        calls[name] += 1
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if parent is not None and parent[NAME] == TOP_LEVEL:
            covered += duration
        if s[WORK] is None:
            continue
        if name == "association.associate":
            links, n_u, tie = s[WORK]
            work[name] += links
            tie_weighted += tie * n_u
            users += n_u
        elif name == "analytics.pooled_fraction":
            last_deff[s[PARENT]] = _design_effect(*s[WORK])
        else:
            work[name] += s[WORK]
            if name == "channel.sample_gain" and parent is not None and parent[NAME] == "association.associate":
                gain_in_associate += s[WORK]

    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layer_s[name.split(".")[0]] += seconds
    deffs = [d for d in last_deff.values() if not math.isnan(d)]
    links = work["association.associate"]
    cells = work["geometry.pairwise_distances"]
    return {
        **{f"layer.{layer}.s": seconds for layer, seconds in layer_s.items()},
        "pointprocess.sample_ppp.s": self_s["pointprocess.sample_ppp"],
        "pointprocess.sample_ppp.calls": calls["pointprocess.sample_ppp"],
        "pointprocess.points": work["pointprocess.sample_ppp"],
        "pointprocess.rep_rng.s": self_s["pointprocess.rep_rng"],
        "geometry.pairwise_distances.s": self_s["geometry.pairwise_distances"],
        "geometry.pairwise_distances.cells": cells,
        # Computed from shapes: the (n, m, 2) float64 displacement array
        # plus the (n, m) float64 result.  Not an observed byte count.
        "geometry.pairwise_distances.bytes": 24.0 * cells,
        "geometry.distances_to_point.s": self_s["geometry.distances_to_point"],
        "channel.sample_gain.s": self_s["channel.sample_gain"],
        "channel.gain_draws": work["channel.sample_gain"],
        "channel.sample_weights.s": self_s["channel.sample_weights"],
        "channel.weight_draws": work["channel.sample_weights"],
        "association.associate.s": self_s["association.associate"],
        "association.associate.calls": calls["association.associate"],
        "association.links": links,
        "association.gain_draws_per_link": gain_in_associate / links if links else 0.0,
        "association.near_tie_fraction": tie_weighted / users if users else 0.0,
        "association.void_probability_mc.s": self_s["association.void_probability_mc"],
        "analytics.pooled_fraction.s": self_s["analytics.pooled_fraction"],
        "coverage.sir_samples.s": self_s["coverage.sir_samples"],
        "coverage.sample_realization.s": self_s["coverage.sample_realization"],
        "coverage.sir_at_typical_user.s": self_s["coverage.sir_at_typical_user"],
        "spatialstats.ripley_k.s": self_s["spatialstats.ripley_k"],
        "spatialstats.ripley_k.pairs": work["spatialstats.ripley_k"],
        "spatialstats.ppp_envelope.s": self_s["spatialstats.ppp_envelope"],
        "spatialstats.remark2_test.s": self_s["spatialstats.remark2_test"],
        "harness.run.s": self_s[TOP_LEVEL],
        "harness.design_effect": statistics.fmean(deffs) if deffs else 0.0,
        "trace.span_coverage": covered / wall,
    }
