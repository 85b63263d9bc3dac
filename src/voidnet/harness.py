"""Experiment orchestration: configs, validation, dispatch, output files.

Each experiment produces a tidy row set plus a metadata block echoing the
complete configuration, so any result file can be re-run exactly.  Output
is deterministic for a fixed (config, seed): wall time is printed to the
console, never written into result files.
"""

from __future__ import annotations

import csv
import json
import math
import time
import types
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analytics import (
    VORONOI_SHAPE,
    Z_95,
    mapped_intensity,
    user_count_pmf,
    void_prob_bounds,
    void_prob_nearest,
    void_prob_rca,
)
from .association import (
    cell_count_pmf_mc,
    grid_ratios,
    void_probability_mc,
    void_probability_sweep,
)
from .channel import (
    SIGMA2_IN_DB,
    SIGMA_IN_DB,
    ChannelParams,
    WeightLaw,
    fractional_moment,
    sample_gain,
    shadowing_sigma2_from_db,
    zeta_dagger,
)
from .coverage import MODELS, coverage_sweep
from .geometry import SimulationWindow
from .pointprocess import (
    csr_test,
    map_pattern,
    mark_expansion_factor,
    rep_rng,
    run_reps,
    sample_ppp,
)
from .spatialstats import remark2_test

MIN_EXPECTED_POINTS = 500.0

# Most stations, and most users, one replication's window may expect.  At
# 10^6 users the thinned kernel holds about 54 near links per user, about
# 0.9 GB per drawing thread.
MAX_WINDOW_POINTS = 1_000_000

# Fewest stations (remark2: non-void ones) a replication's window may
# expect.  A draw then holds none with probability e^-40 ~ 4e-18.
MIN_WINDOW_STATIONS = 40.0

# Experiments that draw every replication on the window of _grid_window.
_GRID_EXPERIMENTS = ("void-prob", "cell-pmf", "coverage", "remark2")

# Replications of each experiment that runs a fixed count (no half-width target).
_FIXED_REPS = {"coverage": 400, "remark2": 40, "bounds-check": 24, "conservation-check": 200}

# bounds-check draws each set's user/station ratio uniformly from this range.
BOUNDS_CHECK_RATIOS = (0.3, 6.0)

# Assumed variance inflation of a pooled void fraction over the binomial
# one, from the correlation of cells within a replication.
DESIGN_EFFECT = 2.0

DEFAULT_RATIO_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
COVERAGE_RATIO_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)


class ConfigError(ValueError):
    """Configuration failed validation; carries all diagnostics."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def auto_side(lambda_b: float, lambda_u: float, min_expected: float = MIN_EXPECTED_POINTS) -> float:
    """Window side giving at least ``min_expected`` stations and users.

    Sized on the sparser of the two processes and rounded up a hair so
    the expectation never dips below the floor.
    """
    side = math.sqrt(min_expected / min(lambda_b, lambda_u))
    return math.ceil(side * 1000.0) / 1000.0


def auto_window(lambda_b: float, lambda_u: float) -> SimulationWindow:
    return SimulationWindow(side=auto_side(lambda_b, lambda_u))


def suggested_reps(p_guess: float, expected_stations: float, half_width: float) -> int:
    """Replications for a target 95% half-width on a pooled void fraction.

    Inverts the Wilson/normal half-width z * sqrt(var); the
    per-replication variance is the binomial one over the expected
    station count, inflated by ``DESIGN_EFFECT`` for within-replication
    correlation.  This is an a-priori guess, so it cannot promise the
    half-width a run reaches; ``void-prob`` and ``cell-pmf`` use it as the
    first batch of a sequential run that stops once the target is met.
    """
    p = min(max(p_guess, 0.02), 0.98)
    var_rep = DESIGN_EFFECT * p * (1.0 - p) / max(expected_stations, 1.0)
    return max(8, math.ceil(var_rep * (Z_95 / half_width) ** 2))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; every field is echoed into outputs.

    Shadowing may be specified exactly one way: in natural-log variance
    (``sigma2_ln``), as a standard deviation in dB (``sigma_db``) or as a
    variance in dB^2 (``sigma2_db``); the resolved convention is tagged
    in the output metadata.
    """

    experiment: str
    lambda_u: float = 370.0
    lambda_b: float | None = None
    ratio_grid: tuple[float, ...] | None = None
    alpha: float = 4.0
    m: float = 1.0
    mu: float = 0.0
    sigma2_ln: float | None = None
    sigma_db: float | None = None
    sigma2_db: float | None = None
    law: str = "nearest"
    beta: float = 0.8
    model: str | None = None
    reps: int | None = None
    sets: int = 50
    side: float | str = "auto"
    seed: int = 1
    out: str | None = None
    fmt: str = "csv"
    half_width: float = 0.005
    mark_law: str = "lognormal:0.0,0.25"
    grid: int = 5
    n_envelope: int = 99

    def shadowing(self) -> tuple[float, str]:
        """(sigma2 in natural-log units, convention tag)."""
        specified = [
            ("sigma2-ln", self.sigma2_ln),
            (SIGMA_IN_DB, self.sigma_db),
            (SIGMA2_IN_DB, self.sigma2_db),
        ]
        given = [(tag, v) for tag, v in specified if v is not None]
        if len(given) > 1:
            raise ConfigError(["specify shadowing exactly one way (sigma2-ln, sigma-db or sigma2-db)"])
        if not given:
            return 0.0, "sigma2-ln"
        tag, value = given[0]
        if tag == "sigma2-ln":
            return float(value), tag
        return shadowing_sigma2_from_db(float(value), tag), tag

    def channel_params(self) -> ChannelParams:
        sigma2, _ = self.shadowing()
        return ChannelParams(m=self.m, mu=self.mu, sigma2=sigma2, alpha=self.alpha)

    def weight_law(self) -> WeightLaw:
        return parse_weight_law(self.law)

    def ratios(self) -> tuple[float, ...]:
        if self.ratio_grid is not None:
            return tuple(float(r) for r in self.ratio_grid)
        if self.lambda_b is not None:
            return (self.lambda_u / self.lambda_b,)
        return COVERAGE_RATIO_GRID if self.experiment == "coverage" else DEFAULT_RATIO_GRID

    def window_for(self, lambda_b: float, lambda_u: float) -> SimulationWindow:
        if self.side == "auto":
            return auto_window(lambda_b, lambda_u)
        return SimulationWindow(side=float(self.side))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Config from a flat mapping, each value read as its field's declared type.

        Raises :class:`ConfigError` with one diagnostic per unknown key or
        mistyped value: ints are accepted for floats, nothing else is
        converted, so ``"0.01"`` is not a half-width.
        """
        hints = typing.get_type_hints(cls)
        diags = [f"unknown config key {k!r}" for k in sorted(set(mapping) - set(hints))]
        values = {}
        for key, value in mapping.items():
            if key not in hints:
                continue
            hint = hints[key]
            try:
                values[key] = _coerce(value, hint)
            except TypeError:
                declared = hint.__name__ if isinstance(hint, type) else str(hint)
                declared = declared.replace("NoneType", "None")
                diags.append(f"config field {key!r} must be {declared}, got {value!r}")
        if diags:
            raise ConfigError(diags)
        return cls(**values)


def _coerce(value, hint):
    """``value`` as type ``hint``; raises TypeError when it is not one.

    Handles the hints :class:`ExperimentConfig` uses: ``float`` (ints
    widen), ``int``, ``str``, ``tuple[float, ...]`` and unions of these
    with ``None``.
    """
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(hint):
            return None
        for option in typing.get_args(hint):
            try:
                return _coerce(value, option)
            except TypeError:
                pass
        raise TypeError(value)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (str, bytes)):
            raise TypeError(value)
        return tuple(_coerce(v, typing.get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        raise TypeError(value)
    if hint is float and isinstance(value, (int, float)):
        return float(value)
    if hint in (int, str) and isinstance(value, hint):
        return value
    raise TypeError(value)


def parse_weight_law(spec: str) -> WeightLaw:
    """Parse ``nearest``, ``unit`` or ``lognormal:MU,SIGMA2``."""
    if spec == "nearest":
        return WeightLaw.nearest()
    if spec == "unit":
        return WeightLaw.unit()
    if spec.startswith("lognormal:"):
        try:
            mu_s, s2_s = spec.split(":", 1)[1].split(",")
            return WeightLaw.lognormal(float(mu_s), float(s2_s))
        except (ValueError, IndexError):
            raise ConfigError([f"bad lognormal weight spec {spec!r}; expected lognormal:MU,SIGMA2"])
    raise ConfigError([f"unknown weight law {spec!r}"])


def parse_mark_law(spec: str, cp: ChannelParams, law: WeightLaw):
    """(sampler(rng, n), analytic E[1/T^2]) for a mark-law spec.

    ``deterministic:T`` scales every point by T; ``lognormal:MU,SIGMA2``
    draws ln T ~ Normal(MU, SIGMA2); ``channel`` uses T = (W H)^(-1/alpha)
    so the mapped intensity matches the transformed association process.
    """
    if spec.startswith("deterministic:"):
        try:
            t = float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError([f"bad deterministic mark spec {spec!r}; expected deterministic:T"])
        if not (math.isfinite(t) and t > 0):
            raise ConfigError([f"deterministic mark must be finite and > 0, got {t}"])
        return (lambda rng, n: np.full(n, t)), 1.0 / (t * t)
    if spec.startswith("lognormal:"):
        try:
            mu_s, s2_s = spec.split(":", 1)[1].split(",")
            mu_t, s2_t = float(mu_s), float(s2_s)
            moment = math.exp(-2.0 * mu_t + 2.0 * s2_t)
        except ValueError:
            raise ConfigError([f"bad lognormal mark spec {spec!r}; expected lognormal:MU,SIGMA2"])
        except OverflowError:
            moment = math.inf
        if not (math.isfinite(mu_t) and s2_t >= 0 and math.isfinite(moment)):
            raise ConfigError(["lognormal mark needs a finite mean, a variance >= 0 and a finite "
                               "E[1/T^2] = exp(-2 MU + 2 SIGMA2)"])
        sampler = lambda rng, n: np.exp(rng.normal(mu_t, math.sqrt(s2_t), size=n))
        return sampler, moment
    if spec == "channel":
        moment = fractional_moment(cp, law, 2.0 / cp.alpha)
        if law.kind == "nearest":
            return (lambda rng, n: np.ones(n)), moment

        def sampler(rng, n, cp=cp, law=law):
            return (law.sample_weights(n, rng) * sample_gain(cp, rng, size=n)) ** (-1.0 / cp.alpha)

        return sampler, moment
    raise ConfigError([f"unknown mark law {spec!r}"])


# Fields that no object the run builds owns, with the name a diagnostic gives them.
_POSITIVE_FIELDS = {
    "lambda_u": "lambda_u",
    "lambda_b": "no base stations: lambda_b",
    "beta": "SIR threshold beta",
    "half_width": "half-width",
    "side": "window side",
}


def _built(build, diags: list[str]):
    """``build()``, or None with its ValueError (ConfigError included) in ``diags``."""
    try:
        return build()
    except ValueError as exc:
        diags.append(str(exc))
        return None


def validate(config: ExperimentConfig) -> list[str]:
    """Collect configuration diagnostics without running anything.

    Builds what the run builds (channel, weight law, mark law, ratio grid)
    and reports each constructor's error, so no check a constructor makes
    is restated here.  Fields no object owns must be finite and > 0.
    Every window a run draws, and no other, is judged on its expected
    counts (:func:`_window_counts`): too few to draw from or more than
    ``MAX_WINDOW_POINTS`` is fatal, below the advisory floor a warning.
    Diagnostics prefixed ``warning:`` are advisory cross-field checks, made
    only for a config with no other diagnostic; anything else blocks
    :func:`run` with a nonzero exit.
    """
    diags: list[str] = []
    if config.experiment not in EXPERIMENTS:
        diags.append(f"unknown experiment {config.experiment!r}")
    bad = set()
    for name, label in _POSITIVE_FIELDS.items():
        value = getattr(config, name)
        if value is None or value == "auto":
            continue
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            bad.add(name)
            diags.append(f"{label} must be finite and > 0, got {value!r}")
    if config.model is not None and config.model not in MODELS:
        diags.append(f"unknown interference model {config.model!r}")
    if config.fmt not in ("csv", "json"):
        diags.append(f"unknown output format {config.fmt!r}")
    if config.reps is not None and config.reps < 1:
        diags.append("reps must be >= 1")
    if config.sets < 1:
        diags.append("sets must be >= 1")
    if config.seed < 0:
        diags.append("seed must be >= 0")
    if config.grid < 2:
        diags.append("quadrat grid must be >= 2")
    if config.n_envelope < 39:
        diags.append("n_envelope must be >= 39 for a 95% envelope")
    cp = _built(config.channel_params, diags)
    law = _built(config.weight_law, diags)
    marks = None
    if cp is not None and law is not None:
        marks = _built(lambda: parse_mark_law(config.mark_law, cp, law), diags)
    # Without a grid the ratio is lambda_u / lambda_b, so it waits for both.
    ratios = None
    if config.ratio_grid is not None or not bad & {"lambda_u", "lambda_b"}:
        ratios = _built(lambda: grid_ratios(config.ratios()), diags)
    if config.experiment in ("cell-pmf", "remark2") and len(ratios or ()) > 1:
        diags.append(f"{config.experiment} runs one ratio (a one-entry ratio grid, or lambda_b), "
                     f"got the grid {ratios}")
    if diags:
        return diags
    zd = zeta_dagger(cp, law)
    counts = _built(lambda: _window_counts(config, ratios, zd, marks), diags) or ()
    for what, expected, least, _, most in counts:
        if expected > most:
            diags.append(f"{what}: {expected:.3g} expected; at most {most:,} can be drawn")
        elif expected < least:
            diags.append(f"{what}: {expected:.3g} expected; at least {least:g} are needed")
    if diags:
        return diags

    if math.isinf(zd):
        diags.append(
            f"warning: zeta-dagger divergent (m <= 2/alpha, or moments past the float range): "
            f"m = {config.m}, 2/alpha = {2.0 / config.alpha:.4f}; "
            "closed-form overlays reduce to the lower bound"
        )
    diags += [f"warning: {what}: expected counts below {advised:g} ({expected:.3g})"
              for what, expected, _, advised, _ in counts if expected < advised]
    if config.experiment in ("void-prob", "cell-pmf") and config.reps is not None:
        needed = _first_batch(config, zd, *_grid_window(config, ratios))
        if config.reps < needed:
            diags.append(
                f"warning: reps={config.reps} too small for half-width {config.half_width}; "
                f"suggest reps >= {needed}"
            )
    if config.experiment in _FIXED_REPS and config.half_width != ExperimentConfig.half_width:
        diags.append(f"warning: {config.experiment} ignores half-width {config.half_width}: "
                     "it runs a fixed replication count, set by --reps")
    return diags


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------


def _grid_window(config: ExperimentConfig, ratios) -> tuple[float, SimulationWindow]:
    """(r_top, window) of a ratio grid's one draw per replication.

    Stations are drawn at lambda_u / r_top, with r_top the largest grid
    ratio, in the window the auto rule (or ``side``) gives there.  A
    one-ratio experiment gets its ratio and window this way.
    """
    r_top = max(ratios)
    return r_top, config.window_for(config.lambda_u / r_top, config.lambda_u)


def _void_guess(config: ExperimentConfig, zd: float, ratio: float) -> float:
    """Gamma-area void probability at ``ratio``, with shape rho = 3.5 *
    zeta-dagger (3.5 where that is not finite)."""
    rho = VORONOI_SHAPE * zd
    return void_prob_rca(config.lambda_u, config.lambda_u / ratio,
                         rho if math.isfinite(rho) else VORONOI_SHAPE)


def _first_batch(config: ExperimentConfig, zd: float, r_top: float, window: SimulationWindow) -> int:
    """Replications in the first batch of an auto-rep void-prob or cell-pmf run.

    :func:`suggested_reps` on the :func:`_void_guess` at r_top.
    """
    stations = config.lambda_u / r_top * window.sampling_area()
    return suggested_reps(_void_guess(config, zd, r_top), stations, config.half_width)


def _window_counts(config: ExperimentConfig, ratios, zd: float, marks) -> list[tuple]:
    """(what, expected count, least, advised, most) for every window a run draws.

    Outside [least, most] is fatal; below ``advised`` (``MIN_EXPECTED_POINTS``
    for a grid or bounds-check window's stations and users) is a warning.
    bounds-check's windows are bounded by those at the ends of
    ``BOUNDS_CHECK_RATIOS``.  conservation-check needs ten mapped points
    per quadrat, twice what :func:`voidnet.pointprocess.csr_test` asks.
    """
    if config.experiment == "conservation-check":
        lambda_b, mapped, target, source, _ = _conservation_windows(config, *marks)
        return [
            (f"source points in the source window (side {source.side:.4g} km)",
             lambda_b * source.sampling_area(), 0.0, 0.0, MAX_WINDOW_POINTS),
            (f"mapped points in the target window (side {target.side:.4g} km)",
             mapped * target.sampling_area(), 10.0 * config.grid**2, 0.0, math.inf),
        ]
    if config.experiment == "bounds-check":
        drawn = BOUNDS_CHECK_RATIOS
    elif config.experiment in _GRID_EXPERIMENTS:
        drawn = (max(ratios),)
    else:
        return []
    counts = []
    for ratio in drawn:
        window = config.window_for(config.lambda_u / ratio, config.lambda_u)
        where = f"a replication's window (side {window.side} km at ratio {ratio})"
        stations = config.lambda_u / ratio * window.sampling_area()
        label, needed = "stations", stations
        if config.experiment == "remark2":
            label, needed = "non-void stations", stations * (1.0 - _void_guess(config, zd, ratio))
        counts += [
            (f"stations in {where}", stations, 0.0, MIN_EXPECTED_POINTS, MAX_WINDOW_POINTS),
            (f"users in {where}", config.lambda_u * window.sampling_area(), 0.0,
             MIN_EXPECTED_POINTS, MAX_WINDOW_POINTS),
            (f"{label} in {where}", needed, MIN_WINDOW_STATIONS, 0.0, math.inf),
        ]
    return counts


def _void_prob_rows(config: ExperimentConfig) -> tuple[list[dict], dict]:
    cp = config.channel_params()
    law = config.weight_law()
    zd = zeta_dagger(cp, law)
    rho = VORONOI_SHAPE * zd
    ratios = config.ratios()
    r_top, window = _grid_window(config, ratios)
    if config.reps:
        reps, target = config.reps, None
    else:
        reps, target = _first_batch(config, zd, r_top, window), config.half_width
    estimates = void_probability_sweep(
        ratios, config.lambda_u, cp, law, reps, window, config.seed, half_width=target
    )
    rows = []
    for ratio, est in zip(ratios, estimates):
        lambda_b = config.lambda_u / ratio
        lower, upper = void_prob_bounds(config.lambda_u, lambda_b, zd)
        rows.append(
            {
                "ratio": ratio,
                "lambda_b": lambda_b,
                "lambda_u": config.lambda_u,
                # The window at lambda_b that holds the draw's expected
                # station count, so reps * lambda_b * side^2 is the number
                # of cells the estimate pools.
                "side": window.side * math.sqrt(ratio / r_top),
                "reps": est.reps,
                "p_void_sim": est.value,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "p_void_nearest_formula": void_prob_nearest(config.lambda_u, lambda_b),
                "p_void_rca_formula": void_prob_rca(config.lambda_u, lambda_b, rho),
                "bound_low": lower,
                "bound_high": upper,
            }
        )
    realized = estimates[0].reps
    meta = {"zeta_dagger": zd, "rho": rho, "r_top": r_top, "side_top": window.side,
            "reps": realized, "batches": realized // reps}
    return rows, meta


def _cell_pmf_rows(config: ExperimentConfig) -> tuple[list[dict], dict]:
    cp = config.channel_params()
    law = config.weight_law()
    ratio, window = _grid_window(config, config.ratios())
    lambda_b = config.lambda_u / ratio
    # Sized like void-prob's first batch, so the n = 0 bin is its estimate.
    reps = config.reps or _first_batch(config, zeta_dagger(cp, law), ratio, window)
    bins, mean = cell_count_pmf_mc(
        lambda_b, config.lambda_u, cp, law, reps, window, config.seed,
        half_width=None if config.reps else config.half_width,
    )
    rows = [
        {
            "n_users": n,
            "p_sim": est.value,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
            "p_formula": user_count_pmf(n, config.lambda_u, lambda_b),
        }
        for n, est in enumerate(bins)
    ]
    meta = {"ratio": ratio, "lambda_b": lambda_b, "mean_users_per_cell": mean,
            "reps": bins[0].reps, "side": window.side}
    return rows, meta


def _bounds_check_rows(config: ExperimentConfig) -> tuple[list[dict], dict]:
    rng = rep_rng(config.seed, 2**32)
    inner_reps = config.reps or _FIXED_REPS["bounds-check"]
    rows = []
    violations = 0
    for s in range(config.sets):
        law_kind = rng.choice(["nearest", "unit", "lognormal"])
        alpha = float(rng.uniform(3.0, 5.0))
        m = float(rng.uniform(2.0 / alpha + 0.2, 4.0))
        sigma2 = float(rng.uniform(0.0, 1.5))
        mu = float(rng.uniform(-0.5, 0.5))
        ratio = float(rng.uniform(*BOUNDS_CHECK_RATIOS))
        if law_kind == "nearest":
            law = WeightLaw.nearest()
        elif law_kind == "unit":
            law = WeightLaw.unit()
        else:
            law = WeightLaw.lognormal(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.0, 1.0)))
        cp = ChannelParams(m=m, mu=mu, sigma2=sigma2, alpha=alpha)
        lambda_b = config.lambda_u / ratio
        window = config.window_for(lambda_b, config.lambda_u)
        est = void_probability_mc(
            lambda_b, config.lambda_u, cp, law, inner_reps, window, config.seed + s
        )
        zd = zeta_dagger(cp, law)
        lower, upper = void_prob_bounds(config.lambda_u, lambda_b, zd)
        p_rca = void_prob_rca(config.lambda_u, lambda_b, VORONOI_SHAPE * zd)
        within = lower - 3.0 * est.se <= est.value <= upper + 3.0 * est.se
        violations += not within
        rows.append(
            {
                "set": s,
                "law": law_kind,
                "m": m,
                "alpha": alpha,
                "sigma2_ln": sigma2,
                "mu": mu,
                "ratio": ratio,
                "reps": inner_reps,
                "p_void_sim": est.value,
                "se": est.se,
                "bound_low": lower,
                "bound_high": upper,
                "p_void_rca_formula": p_rca,
                "within_bounds": int(within),
            }
        )
    return rows, {"sets": config.sets, "violations": violations}


def _conservation_windows(config: ExperimentConfig, sampler, mean_inv_sq: float):
    """(lambda_b, mapped intensity, target, source, expansion) of conservation-check.

    The source window is the target widened by :func:`mark_expansion_factor`
    on the marks of ``rep_rng(seed, 2**33)``.
    """
    lambda_b = config.lambda_b if config.lambda_b else 100.0
    # About 40 mapped points per quadrat keeps the chi-square quadrat test
    # well calibrated in both tails.
    mapped = mapped_intensity(lambda_b, mean_inv_sq)
    target_side = (
        float(config.side)
        if config.side != "auto"
        else auto_side(mapped, mapped, min_expected=40.0 * config.grid**2)
    )
    target = SimulationWindow(side=target_side)
    expansion = mark_expansion_factor(sampler, rep_rng(config.seed, 2**33))
    return lambda_b, mapped, target, SimulationWindow(side=target.side * expansion), expansion


def _conservation_rows(config: ExperimentConfig) -> tuple[list[dict], dict]:
    cp = config.channel_params()
    law = config.weight_law()
    sampler, mean_inv_sq = parse_mark_law(config.mark_law, cp, law)
    suites = config.reps or _FIXED_REPS["conservation-check"]
    lambda_b, mapped_intensity_value, target, source, expansion = _conservation_windows(
        config, sampler, mean_inv_sq)

    def suite(rng: np.random.Generator) -> dict:
        src = sample_ppp(lambda_b, source, rng)
        marks = sampler(rng, len(src))
        mapped = map_pattern(src, marks, target=target)
        report = csr_test(mapped, config.grid)
        return {
            "n_mapped": len(mapped),
            "chi2": report.statistic,
            "dof": report.dof,
            "p_value": report.p_value,
        }

    rows = [{"suite": s, **row} for s, row in enumerate(run_reps(suite, config.seed, suites))]
    counts = np.array([row["n_mapped"] for row in rows], dtype=float)
    rejected = sum(row["p_value"] < 0.05 for row in rows)
    expected_count = mapped_intensity_value * target.sampling_area()
    meta = {
        "mark_law": config.mark_law,
        "lambda_b": lambda_b,
        "mean_inverse_square": mean_inv_sq,
        "mapped_intensity": mapped_intensity_value,
        "target_side": target.side,
        "source_side": source.side,
        "expansion": expansion,
        "suites": suites,
        "reject_rate_5pct": rejected / suites,
        "mean_count": float(counts.mean()),
        "expected_count": expected_count,
        "count_se": float(counts.std(ddof=1) / math.sqrt(suites)) if suites > 1 else 0.0,
    }
    return rows, meta


def _remark2_rows(config: ExperimentConfig) -> tuple[list[dict], dict]:
    cp = config.channel_params()
    law = config.weight_law()
    ratio, window = _grid_window(config, config.ratios())
    lambda_b = config.lambda_u / ratio
    reps = config.reps or _FIXED_REPS["remark2"]
    report = remark2_test(
        lambda_b, config.lambda_u, cp, law, reps, window, config.seed,
        n_envelope=config.n_envelope,
    )
    rows = []
    for i, r in enumerate(report.radii):
        rows.append(
            {
                "r": float(r),
                "k_hat": report.k_hat_mean[i],
                "lo": report.envelope_low[i],
                "hi": report.envelope_high[i],
                "pi_r_sq": math.pi * float(r) ** 2,
                "exit_rate": report.per_radius_exit_rate[i],
            }
        )
    meta = {
        "ratio": ratio,
        "lambda_b": lambda_b,
        "side": window.side,
        "reps": reps,
        "exit_fraction": report.exit_fraction,
        "void_fraction": report.void_fraction,
        "matched_intensity": report.matched_intensity,
        "uninformative": report.uninformative,
        "note": "pointwise envelopes; exit rates are correlated across radii",
    }
    return rows, meta


def _coverage_rows(config: ExperimentConfig) -> tuple[list[dict], dict]:
    cp = config.channel_params()
    law = config.weight_law()
    models = MODELS if config.model is None else (config.model,)
    reps = config.reps or _FIXED_REPS["coverage"]
    ratios = config.ratios()
    r_top, window = _grid_window(config, ratios)
    rows = coverage_sweep(ratios, config.lambda_u, cp, law, config.beta, reps, window,
                          config.seed, models)
    meta = {"models": ",".join(models), "r_top": r_top, "side_top": window.side,
            "reps": reps, "batches": 1}
    return rows, meta


def _formulas_rows(config: ExperimentConfig) -> tuple[list[dict], dict]:
    cp = config.channel_params()
    law = config.weight_law()
    zd = zeta_dagger(cp, law)
    rho = VORONOI_SHAPE * zd
    rows = []
    for ratio in config.ratios():
        lambda_b = config.lambda_u / ratio
        lower, upper = void_prob_bounds(config.lambda_u, lambda_b, zd)
        rows.append(
            {
                "ratio": ratio,
                "lambda_b": lambda_b,
                "lambda_u": config.lambda_u,
                "zeta_dagger": zd,
                "rho": rho,
                "p_void_nearest": void_prob_nearest(config.lambda_u, lambda_b),
                "p_void_rca": void_prob_rca(config.lambda_u, lambda_b, rho),
                "bound_low": lower,
                "bound_high": upper,
            }
        )
    return rows, {"zeta_dagger": zd, "rho": rho}


_BODIES = {
    "void-prob": _void_prob_rows,
    "cell-pmf": _cell_pmf_rows,
    "bounds-check": _bounds_check_rows,
    "conservation-check": _conservation_rows,
    "remark2": _remark2_rows,
    "coverage": _coverage_rows,
    "formulas": _formulas_rows,
}

EXPERIMENTS = tuple(_BODIES)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _format_value(v):
    """CSV text of a value: floats as their exact ``repr``."""
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def _metadata(config: ExperimentConfig, extra: dict) -> dict:
    meta = {f"config.{k}": v for k, v in asdict(config).items()}
    sigma2, tag = config.shadowing()
    meta["resolved.sigma2_ln"] = sigma2
    meta["resolved.db_convention"] = tag
    meta["tool.version"] = __version__
    meta["tool.numpy"] = np.__version__
    meta["tool.scipy"] = scipy.__version__
    for k, v in extra.items():
        meta[f"result.{k}"] = v
    return meta


def _json_number(v):
    """Python number for a numpy scalar, which ``json`` cannot encode."""
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _json_value(v):
    """``v``, or its CSV text (``inf``, ``nan``) for a non-finite float, which strict JSON lacks."""
    if isinstance(v, float) and not math.isfinite(v):
        return _format_value(v)
    return v


def write_rows(path: Path, fmt: str, rows: list[dict], metadata: dict) -> None:
    if fmt == "json":
        payload = {"metadata": {k: _json_value(v) for k, v in metadata.items()},
                   "rows": [{k: _json_value(v) for k, v in row.items()} for row in rows]}
        path.write_text(json.dumps(payload, indent=2, default=_json_number, allow_nan=False) + "\n")
        return
    with open(path, "w", newline="") as fh:
        for k, v in metadata.items():
            fh.write(f"# {k}={_format_value(v)}\n")
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _format_value(v) for k, v in row.items()})


def run(config: ExperimentConfig) -> Path:
    """Validate, dispatch and write the experiment's result file."""
    diagnostics = validate(config)
    fatal = [d for d in diagnostics if not d.startswith("warning:")]
    if fatal:
        raise ConfigError(fatal)
    for d in diagnostics:
        print(d)

    started = time.perf_counter()
    rows, extra = _BODIES[config.experiment](config)
    elapsed = time.perf_counter() - started

    out = Path(config.out) if config.out else Path(f"{config.experiment}.{config.fmt}")
    write_rows(out, config.fmt, rows, _metadata(config, extra))
    print(f"{config.experiment}: {len(rows)} rows -> {out} ({elapsed:.1f}s)")
    return out
