"""Workloads of the voidnet benchmark and the checks on their outputs.

A workload is a fixed list of operations.  An operation is one
experiment call made the way the ``voidnet`` CLI makes it,
``harness.run(ExperimentConfig)``: validate the config, run the
experiment, write its result file.  The benchmark seed is the only input
that varies; the program sees only the configs built from it.

The checks read each result file back.  Closed forms are re-derived here
from ``scipy.special.gammaln`` (nothing is taken from
``voidnet.analytics``); every other check is a property the method must
have.  Statistical checks use a 5-standard-error tolerance: each check
runs on every seed of every benchmark run, and at 3 se (a 0.27% false
alarm per check) a correct program would fail some seed's run now and
then, which would make the failed count depend on the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from scipy.special import gammaln
from scipy.stats import norm

Z95 = float(norm.ppf(0.975))
CHECK_Z = 5.0

LAMBDA_U = 370.0
ALPHA = 4.0
RATIO_GRID = [0.5, 1.0, 2.0, 4.0, 8.0]
SHADOW_DB = 8.0  # shadowing standard deviation in dB
VORONOI_SHAPE = 3.5
MIN_EXPECTED_POINTS = 500.0  # the harness sizes auto windows for this many points

NEAREST_HALF_WIDTH = 0.003
DENSE_REPS = 4
# Twice the auto window side at ratio 2 (sqrt(500 / 185) km, rounded up
# to the metre): 2,000 stations x 4,000 users per replication.
LARGE_SIDE = 2.0 * math.ceil(math.sqrt(MIN_EXPECTED_POINTS / (LAMBDA_U / 2.0)) * 1000.0) / 1000.0
LARGE_REPS = 2


@dataclass(frozen=True)
class Result:
    """A result file read back: metadata block and rows, numbers as floats."""

    meta: dict
    rows: list[dict]

    @classmethod
    def load(cls, path: Path) -> "Result":
        payload = json.loads(Path(path).read_text())
        return cls(meta=_numbers(payload["metadata"]), rows=[_numbers(r) for r in payload["rows"]])


def _numbers(record: dict) -> dict:
    # The harness writes floats as repr strings; read them back as floats.
    out = {}
    for key, value in record.items():
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                pass
        out[key] = value
    return out


Check = Callable[[Result, dict], list[str]]


@dataclass(frozen=True)
class Operation:
    """One experiment call: its config mapping and the checks on its result.

    ``check(result, earlier)`` returns failure messages; ``earlier`` maps
    the names of the operations already run in this pass to their results.
    """

    name: str
    config: dict
    check: Check
    reps: Callable[[Result, dict], int]


# ---------------------------------------------------------------------------
# closed forms and statistics, re-derived
# ---------------------------------------------------------------------------


def void_rca(ratio: float, rho: float) -> float:
    """(1 + ratio / rho)^(-rho), the gamma-area void probability."""
    return math.exp(-rho * math.log1p(ratio / rho))


def zeta_dagger(m: float, sigma2_ln: float, sigma2_w: float = 0.0, alpha: float = ALPHA) -> float:
    """E[(WH)^p] E[(WH)^-p] at p = 2/alpha for Nakagami-m / log-normal H.

    Gamma(m+p) Gamma(m-p) / Gamma(m)^2 * exp(p^2 (sigma2_ln + sigma2_w)):
    the m^p and exp(p mu) factors cancel between the two moments.
    """
    p = 2.0 / alpha
    return math.exp(
        gammaln(m + p) + gammaln(m - p) - 2.0 * gammaln(m) + p * p * (sigma2_ln + sigma2_w)
    )


def sigma2_from_db(sigma_db: float) -> float:
    return (sigma_db * math.log(10.0) / 10.0) ** 2


def standard_error(row: dict) -> float:
    """Standard error of a pooled void fraction, floored at the binomial one.

    The harness's interval comes from the cluster variance over
    replications; with a handful of replications that estimate can land
    far below the truth.  Floor it at the binomial standard error over
    the expected cell count (no correlation at all).
    """
    cluster = (row["ci_high"] - row["ci_low"]) / 2.0 / Z95
    p = row["p_void_sim"]
    cells = row["reps"] * row["lambda_b"] * row["side"] ** 2
    return max(cluster, math.sqrt(max(p * (1.0 - p), 1e-12) / cells))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_nearest_void(result: Result, earlier: dict) -> list[str]:
    failures = []
    if [r["ratio"] for r in result.rows] != RATIO_GRID:
        return [f"ratios {[r['ratio'] for r in result.rows]} != {RATIO_GRID}"]
    for row in result.rows:
        ratio = row["ratio"]
        expected = void_rca(ratio, VORONOI_SHAPE)
        se = standard_error(row)
        if abs(row["p_void_sim"] - expected) > CHECK_Z * se:
            failures.append(
                f"ratio {ratio}: {row['p_void_sim']:.5f} vs closed form {expected:.5f} "
                f"beyond {CHECK_Z:g} se ({se:.5f})"
            )
        half_width = (row["ci_high"] - row["ci_low"]) / 2.0
        if half_width > NEAREST_HALF_WIDTH + 1e-12:
            failures.append(f"ratio {ratio}: half-width {half_width:.5f} > {NEAREST_HALF_WIDTH}")
        if ratio == 2.0 and abs(row["p_void_sim"] - expected) > 0.01:
            failures.append(f"ratio 2: {row['p_void_sim']:.5f} not within 0.01 of {expected:.5f}")
    return failures


def _check_coverage(result: Result, earlier: dict) -> list[str]:
    by_key = {(r["ratio"], r["model"]): r["coverage"] for r in result.rows}
    failures = []
    for ratio in RATIO_GRID:
        missing = [m for m in ("all-bs", "void-aware", "thinned-ppp") if (ratio, m) not in by_key]
        if missing:
            failures.append(f"ratio {ratio}: no rows for {missing}")
            continue
        # Void-aware interferers are a subset of all-bs ones on the same
        # draws, so its SIR and coverage can never be lower.
        if by_key[(ratio, "void-aware")] < by_key[(ratio, "all-bs")]:
            failures.append(
                f"ratio {ratio}: void-aware coverage {by_key[(ratio, 'void-aware')]} "
                f"below all-bs {by_key[(ratio, 'all-bs')]}"
            )
    return failures


def _sandwich(sigma2_w: float) -> Check:
    zd = zeta_dagger(1.0, sigma2_from_db(SHADOW_DB), sigma2_w)

    def check(result: Result, earlier: dict) -> list[str]:
        failures = []
        for row in result.rows:
            ratio = row["ratio"]
            se = standard_error(row)
            lower, upper = math.exp(-ratio), void_rca(ratio, zd)
            if not lower - CHECK_Z * se <= row["p_void_sim"] <= upper + CHECK_Z * se:
                failures.append(
                    f"ratio {ratio}: {row['p_void_sim']:.5f} outside "
                    f"[{lower:.5f}, {upper:.5f}] +- {CHECK_Z:g} se ({se:.5f})"
                )
        return failures

    return check


def _check_large_window(result: Result, earlier: dict) -> list[str]:
    (large,) = result.rows
    auto = next(r for r in earlier["unit"].rows if r["ratio"] == large["ratio"])
    combined = math.hypot(standard_error(large), standard_error(auto))
    diff = large["p_void_sim"] - auto["p_void_sim"]
    if abs(diff) > CHECK_Z * combined:
        return [
            f"side {large['side']}: {large['p_void_sim']:.5f} vs auto side {auto['side']}: "
            f"{auto['p_void_sim']:.5f}, difference beyond {CHECK_Z:g} combined se ({combined:.5f})"
        ]
    return []


def nominal_exit_rate(n_envelope: int) -> float:
    """Chance a CSR pattern leaves a 2.5/97.5% percentile envelope of n sims.

    ``numpy.percentile`` interpolates the 2.5% point at order position
    0.025 (n - 1), so a fresh exchangeable draw falls below it with
    probability about (0.025 (n - 1) + 1) / (n + 1); the same above.
    """
    return 2.0 * (0.025 * (n_envelope - 1) + 1.0) / (n_envelope + 1.0)


def _check_envelope(result: Result) -> list[str]:
    return [
        f"r={row['r']:.4f}: pi r^2 = {row['pi_r_sq']:.5f} outside [{row['lo']:.5f}, {row['hi']:.5f}]"
        for row in result.rows
        if not row["lo"] <= math.pi * row["r"] ** 2 <= row["hi"]
    ]


def _check_thinned(result: Result, earlier: dict) -> list[str]:
    failures = _check_envelope(result)
    exit_fraction = result.meta["result.exit_fraction"]
    if not exit_fraction > 0.15:
        failures.append(f"ratio 0.5: exit fraction {exit_fraction:.4f} not above 0.15")
    if result.meta["result.uninformative"]:
        failures.append("ratio 0.5: flagged uninformative despite strong thinning")
    return failures


def _check_unthinned(result: Result, earlier: dict) -> list[str]:
    failures = _check_envelope(result)
    exit_fraction = result.meta["result.exit_fraction"]
    reps = int(result.meta["result.reps"])
    nominal = nominal_exit_rate(int(result.meta["config.n_envelope"]))
    # Radii of one pattern exit together, so the replications are the
    # independent units: bound the spread by the fully correlated case.
    allowance = CHECK_Z * math.sqrt(nominal * (1.0 - nominal) / reps)
    if abs(exit_fraction - nominal) > allowance:
        failures.append(
            f"ratio 20: exit fraction {exit_fraction:.4f} not within {nominal:.4f} +- {allowance:.4f}"
        )
    if not result.meta["result.uninformative"]:
        failures.append("ratio 20: void fraction not flagged negligible")
    return failures


# ---------------------------------------------------------------------------
# replication counts: network draws, plus CSR patterns for envelopes
# ---------------------------------------------------------------------------


def _void_reps(result: Result, config: dict) -> int:
    return sum(int(r["reps"]) for r in result.rows)


def _coverage_reps(result: Result, config: dict) -> int:
    # All models share each replication of a ratio.
    return len({r["ratio"] for r in result.rows}) * int(config["reps"])


def _remark2_reps(result: Result, config: dict) -> int:
    return int(result.meta["result.reps"]) + int(config["n_envelope"])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _nearest_sweep(seed: int) -> list[Operation]:
    base = {"law": "nearest", "m": 1.0, "alpha": ALPHA, "lambda_u": LAMBDA_U,
            "ratio_grid": RATIO_GRID, "seed": seed}
    return [
        Operation("void", {**base, "experiment": "void-prob", "half_width": NEAREST_HALF_WIDTH},
                  _check_nearest_void, _void_reps),
        Operation("coverage", {**base, "experiment": "coverage", "beta": 0.8, "reps": 200},
                  _check_coverage, _coverage_reps),
    ]


def _dense_shadowed(seed: int) -> list[Operation]:
    base = {"experiment": "void-prob", "m": 1.0, "alpha": ALPHA, "lambda_u": LAMBDA_U,
            "sigma_db": SHADOW_DB, "seed": seed}
    return [
        Operation("unit", {**base, "law": "unit", "ratio_grid": RATIO_GRID, "reps": DENSE_REPS},
                  _sandwich(0.0), _void_reps),
        Operation("lognormal", {**base, "law": "lognormal:0,4", "ratio_grid": RATIO_GRID,
                                "reps": DENSE_REPS},
                  _sandwich(4.0), _void_reps),
        Operation("large-window", {**base, "law": "unit", "ratio_grid": [2.0], "side": LARGE_SIDE,
                                   "reps": LARGE_REPS},
                  _check_large_window, _void_reps),
    ]


def _associated_k(seed: int) -> list[Operation]:
    base = {"experiment": "remark2", "law": "nearest", "m": 1.0, "alpha": ALPHA,
            "lambda_u": LAMBDA_U, "seed": seed}
    return [
        Operation("ratio-0.5", {**base, "ratio_grid": [0.5], "reps": 40, "n_envelope": 99},
                  _check_thinned, _remark2_reps),
        Operation("ratio-20", {**base, "ratio_grid": [20.0], "reps": 60, "n_envelope": 149},
                  _check_unthinned, _remark2_reps),
    ]


WORKLOADS = {
    "nearest-sweep": _nearest_sweep,
    "dense-shadowed": _dense_shadowed,
    "associated-k": _associated_k,
}


def operations(workload: str, seed: int) -> list[Operation]:
    return WORKLOADS[workload](seed)


def build_configs(workload: str, seed: int, out_dir: Path) -> list:
    """Validated ``ExperimentConfig`` objects for one pass, in order.

    Raises ``ConfigError`` if the harness rejects any of them.
    """
    from voidnet.harness import ConfigError, ExperimentConfig, validate

    configs = []
    for op in operations(workload, seed):
        config = ExperimentConfig.from_mapping(
            {**op.config, "fmt": "json", "out": str(Path(out_dir) / f"{op.name}.json")}
        )
        fatal = [d for d in validate(config) if not d.startswith("warning:")]
        if fatal:
            raise ConfigError(fatal)
        configs.append(config)
    return configs
