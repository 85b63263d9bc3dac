"""SIR coverage of the typical user under three interference models.

A typical user is added at the window centre (Slivnyak), takes part in
association like everyone else, and its downlink SIR is evaluated with
the interfering set chosen per model: every other station ("all-bs", the
void-blind baseline), only stations that actually serve someone
("void-aware"), or an independent thinning at the analytic non-void
probability ("thinned-ppp").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import VORONOI_SHAPE, void_prob_rca, wilson_interval
from .association import associate
from .channel import ChannelParams, WeightLaw, sample_gain, zeta_dagger
from .geometry import SimulationWindow, distances_to_point
from .pointprocess import PointPattern, run_reps, sample_ppp

ALL_BS = "all-bs"
VOID_AWARE = "void-aware"
THINNED_PPP = "thinned-ppp"
MODELS = (ALL_BS, VOID_AWARE, THINNED_PPP)


@dataclass(frozen=True)
class CoverageConfig:
    """One coverage experiment: threshold, intensities, channel, model."""

    beta: float
    lambda_b: float
    lambda_u: float
    channel: ChannelParams
    law: WeightLaw
    model: str
    reps: int

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("SIR threshold must be > 0")
        if self.model not in MODELS:
            raise ValueError(f"unknown interference model {self.model!r}")
        if self.reps < 1:
            raise ValueError("need at least one replication")
        if self.lambda_b <= 0 or self.lambda_u < 0:
            raise ValueError("need lambda_b > 0 and lambda_u >= 0")


@dataclass(frozen=True)
class SirRealization:
    """Everything needed to evaluate the typical user's SIR.

    The serving gain is the one realized at association time; interferer
    gains are fresh i.i.d. draws.  The two boolean masks select the
    transmitting subset per model, so the void-aware interferer set is
    always a subset of the all-bs one.
    """

    alpha: float
    serving_distance: float
    serving_gain: float
    interferer_distances: np.ndarray
    interferer_gains: np.ndarray
    interferer_nonvoid: np.ndarray
    interferer_kept: np.ndarray


def sir_at_typical_user(realization: SirRealization, model: str) -> float:
    """Signal-to-interference ratio for one realization and model.

    With no transmitting interferer the SIR is +inf (always covered).
    """
    if model == ALL_BS:
        mask = np.ones(len(realization.interferer_distances), dtype=bool)
    elif model == VOID_AWARE:
        mask = realization.interferer_nonvoid
    elif model == THINNED_PPP:
        mask = realization.interferer_kept
    else:
        raise ValueError(f"unknown interference model {model!r}")

    signal = realization.serving_gain * realization.serving_distance ** (-realization.alpha)
    interference = float(
        np.sum(
            realization.interferer_gains[mask]
            * realization.interferer_distances[mask] ** (-realization.alpha)
        )
    )
    if interference == 0.0:
        return math.inf
    return signal / interference


def thinning_keep_probability(lambda_b: float, lambda_u: float, cp: ChannelParams, law: WeightLaw) -> float:
    """Analytic non-void probability used by the thinned-ppp model."""
    rho = VORONOI_SHAPE * zeta_dagger(cp, law)
    return 1.0 - void_prob_rca(lambda_u, lambda_b, rho)


def sample_realization(
    lambda_b: float,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    window: SimulationWindow,
    rng: np.random.Generator,
    keep_prob: float,
) -> tuple[SirRealization, float]:
    """One network draw seen from the typical user at the window centre.

    Returns the realization and the association near-tie fraction
    (window-adequacy diagnostic).  Draw order is fixed: stations, users,
    association, fresh interferer gains, then thinning retentions.
    """
    center = np.array([window.side / 2.0, window.side / 2.0])
    bs = sample_ppp(lambda_b, window, rng)
    attempts = 0
    while len(bs) == 0:
        attempts += 1
        if attempts > 100:
            raise RuntimeError("cannot draw a non-empty base-station pattern")
        bs = sample_ppp(lambda_b, window, rng)

    users = sample_ppp(lambda_u, window, rng)
    with_typical = PointPattern(
        points=np.vstack([center[None, :], users.points]),
        window=window,
        intensity_declared=lambda_u,
    )
    outcome = associate(bs, with_typical, cp, law, rng)

    serving = int(outcome.assignments[0])
    others = np.flatnonzero(np.arange(len(bs)) != serving)
    other_dist = distances_to_point(bs.points[others], center, window)
    other_gains = np.asarray(sample_gain(cp, rng, size=len(others)), dtype=float).reshape(len(others))
    kept = rng.random(len(others)) < keep_prob

    realization = SirRealization(
        alpha=cp.alpha,
        serving_distance=float(outcome.serving_distance[0]),
        serving_gain=float(outcome.serving_gain[0]),
        interferer_distances=other_dist,
        interferer_gains=other_gains,
        interferer_nonvoid=outcome.cell_counts[others] > 0,
        interferer_kept=kept,
    )
    return realization, outcome.near_tie_fraction


def sir_samples(
    cfg: CoverageConfig,
    window: SimulationWindow,
    seed: int,
    models: tuple[str, ...] = MODELS,
) -> tuple[dict[str, np.ndarray], float]:
    """SIR draws for several models on shared random realizations.

    Because the models only differ in which interferers transmit, running
    them on identical realizations makes dominance comparisons exact:
    the void-aware SIR is never below the all-bs SIR.
    """
    keep_prob = thinning_keep_probability(cfg.lambda_b, cfg.lambda_u, cfg.channel, cfg.law)

    def draw(rng: np.random.Generator) -> tuple[list[float], float]:
        realization, tie = sample_realization(
            cfg.lambda_b, cfg.lambda_u, cfg.channel, cfg.law, window, rng, keep_prob
        )
        return [sir_at_typical_user(realization, m) for m in models], tie

    results = run_reps(draw, seed, cfg.reps)
    sirs = np.array([s for s, _ in results])
    return dict(zip(models, sirs.T)), float(np.mean([tie for _, tie in results]))


@dataclass(frozen=True)
class CoverageRow:
    """One sweep entry: a (user/station ratio, model) coverage estimate."""

    ratio: float
    lambda_b: float
    lambda_u: float
    model: str
    beta: float
    estimate: float
    ci_low: float
    ci_high: float
    reps: int
    near_tie_fraction: float


def coverage_sweep(
    ratio_grid,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    beta: float,
    reps: int,
    seed: int,
    window_fn,
    models: tuple[str, ...] = MODELS,
) -> list[CoverageRow]:
    """Coverage across a ratio grid, all models coupled per replication.

    ``window_fn(lambda_b, lambda_u)`` supplies the simulation window for
    each grid point (the CLI passes its auto-sizing rule).
    """
    rows = []
    for ratio in ratio_grid:
        if ratio <= 0:
            raise ValueError("ratio grid entries must be > 0")
        lambda_b = lambda_u / ratio
        window = window_fn(lambda_b, lambda_u)
        cfg = CoverageConfig(
            beta=beta,
            lambda_b=lambda_b,
            lambda_u=lambda_u,
            channel=cp,
            law=law,
            model=models[0],
            reps=reps,
        )
        sirs, tie = sir_samples(cfg, window, seed, models=models)
        for m in models:
            covered = float(np.mean(sirs[m] >= beta))
            lo, hi = wilson_interval(covered, reps)
            rows.append(
                CoverageRow(
                    ratio=float(ratio),
                    lambda_b=lambda_b,
                    lambda_u=lambda_u,
                    model=m,
                    beta=beta,
                    estimate=covered,
                    ci_low=lo,
                    ci_high=hi,
                    reps=reps,
                    near_tie_fraction=tie,
                )
            )
    return rows
