"""SIR coverage of the typical user under three interference models.

A typical user is added at the window centre (Slivnyak), takes part in
association like everyone else, and its downlink SIR is evaluated with
the interfering set chosen per model: every other station ("all-bs", the
void-blind baseline), only stations that actually serve someone
("void-aware"), or an independent thinning at the analytic non-void
probability ("thinned-ppp").

:func:`sir_samples` is the one sampler: a replication draws and
associates one network at the largest ratio of a grid, and
:func:`sample_realization` reads every ratio and model off that draw as
one (ratio, model) SIR array, from interferer powers computed once.
:func:`coverage_sweep` thresholds the SIRs at beta and adds Wilson
intervals.
"""

from __future__ import annotations

import math

import numpy as np

from .analytics import VORONOI_SHAPE, void_prob_rca, wilson_interval
from .association import associate, grid_ratios
from .channel import ChannelParams, WeightLaw, sample_gain, zeta_dagger
from .geometry import SimulationWindow, distances_to_point
from .pointprocess import PointPattern, run_reps, sample_ppp

ALL_BS = "all-bs"
VOID_AWARE = "void-aware"
THINNED_PPP = "thinned-ppp"
MODELS = (ALL_BS, VOID_AWARE, THINNED_PPP)


def sir_at_typical_user(signal: float, powers: np.ndarray, transmitting: np.ndarray) -> np.ndarray:
    """Signal-to-interference ratio for each row of a transmitting mask.

    ``transmitting`` is a boolean (rows, interferers) mask over
    ``powers``; a row that selects no interferer gives +inf (always
    covered).
    """
    interference = np.array([np.sum(powers[row]) for row in transmitting])
    with np.errstate(divide="ignore"):
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
    keep_probs,
    retain=(1.0,),
    models: tuple[str, ...] = MODELS,
) -> tuple[np.ndarray, np.ndarray]:
    """One network draw seen from the typical user at the window centre.

    Returns ``(sir, tie)``: ``sir[j, k]`` is the typical user's SIR under
    ``models[k]`` at user retention ``retain[j]``, and ``tie[j]`` the
    association near-tie fraction over the users kept there.  Other user
    u is kept at retention p iff U_u < p, with one uniform U_u per user,
    which is an independent p-thinning of the users; the typical user is
    always kept, and at p = 1 every user is.  Every row shares the
    stations, the association, the serving signal and the interferer
    powers, computed once; only the transmitting masks differ: all-bs
    takes every other station, void-aware those serving a kept user, and
    thinned-ppp those whose one shared uniform is below ``keep_probs[j]``.
    Draw order is fixed: stations (never redrawn; none raises ValueError),
    users, association, fresh interferer gains, thinning uniforms, then
    the user retention uniforms.
    """
    center = np.array([window.side / 2.0, window.side / 2.0])
    bs = sample_ppp(lambda_b, window, rng)
    users = sample_ppp(lambda_u, window, rng)
    with_typical = PointPattern(points=np.vstack([center[None, :], users.points]), window=window)
    outcome = associate(bs, with_typical, cp, law, rng)

    serving = int(outcome.assignments[0])
    others = np.flatnonzero(np.arange(len(bs)) != serving)
    other_dist = distances_to_point(bs.points[others], center, window)
    other_gains = sample_gain(cp, rng, size=len(others))
    thinning = rng.random(len(others))
    retention = np.concatenate(([0.0], rng.random(len(users))))

    signal = float(outcome.serving_gain[0]) * float(outcome.serving_distance[0]) ** (-cp.alpha)
    powers = other_gains * other_dist ** (-cp.alpha)
    kept = retention < np.asarray(retain)[:, None]
    transmitting = {
        ALL_BS: np.ones((len(kept), len(others)), dtype=bool),
        VOID_AWARE: np.array([np.bincount(outcome.assignments[k], minlength=len(bs))[others] > 0
                              for k in kept]),
        THINNED_PPP: thinning < np.asarray(keep_probs)[:, None],
    }
    sir = np.column_stack([sir_at_typical_user(signal, powers, transmitting[m]) for m in models])
    return sir, (kept & outcome.near_tie).sum(axis=1) / kept.sum(axis=1)


def sir_samples(
    ratio_grid,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    reps: int,
    window: SimulationWindow,
    seed: int,
    models: tuple[str, ...] = MODELS,
) -> list[tuple[dict[str, np.ndarray], float]]:
    """Per grid ratio: SIR draws by model and the mean near-tie fraction.

    Each replication draws one network at r_top = max(ratio_grid),
    stations at lambda_u / r_top and users at lambda_u on ``window``, and
    associates it once; ratio r keeps each user with probability r / r_top.
    :func:`sample_realization` returns the replication's SIRs as one
    (ratio, model) array.  The SIR depends on the intensities only
    through their ratio, so that is the network at lambda_b = lambda_u / r.
    The models differ only in which interferers transmit, so on shared
    draws dominance comparisons are exact: the void-aware SIR is never
    below the all-bs SIR, which is the same at every ratio of a draw.
    An unknown model raises ``ValueError`` before any draw.
    """
    unknown = [m for m in models if m not in MODELS]
    if unknown:
        raise ValueError(f"unknown interference model {unknown[0]!r}")
    ratios = grid_ratios(ratio_grid)
    r_top = max(ratios)
    keep_probs = [thinning_keep_probability(lambda_u / r, lambda_u, cp, law) for r in ratios]
    retain = [r / r_top for r in ratios]

    def draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        return sample_realization(lambda_u / r_top, lambda_u, cp, law, window, rng, keep_probs,
                                  retain, models)

    results = run_reps(draw, seed, reps)
    sirs = np.stack([sir for sir, _ in results], axis=1)
    ties = np.stack([tie for _, tie in results], axis=1)
    return [(dict(zip(models, sir.T)), float(np.mean(tie))) for sir, tie in zip(sirs, ties)]


def coverage_sweep(
    ratio_grid,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    beta: float,
    reps: int,
    window: SimulationWindow,
    seed: int,
    models: tuple[str, ...] = MODELS,
) -> list[dict]:
    """P(SIR >= beta) with a Wilson interval, per grid ratio and model.

    The SIRs come from :func:`sir_samples`, so all models and ratios share
    each replication; ``window`` should be sized for the largest ratio.
    Returns one row per (ratio, model), a dict whose keys are the coverage
    result file's CSV columns: ratio, lambda_b (lambda_u / ratio), model,
    beta, coverage, ci_low, ci_high, reps and near_tie_fraction.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"SIR threshold beta must be finite and > 0, got {beta}")
    ratios = grid_ratios(ratio_grid)
    rows = []
    for ratio, (sirs, tie) in zip(ratios, sir_samples(ratios, lambda_u, cp, law, reps, window,
                                                      seed, models)):
        for m in models:
            covered = float(np.mean(sirs[m] >= beta))
            lo, hi = wilson_interval(covered, reps)
            rows.append({"ratio": ratio, "lambda_b": lambda_u / ratio, "model": m, "beta": beta,
                         "coverage": covered, "ci_low": lo, "ci_high": hi, "reps": reps,
                         "near_tie_fraction": tie})
    return rows
