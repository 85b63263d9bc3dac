"""SIR coverage of the typical user under three interference models.

A typical user is added at the window centre (Slivnyak), takes part in
association like everyone else, and its downlink SIR is evaluated with
the interfering set chosen per model: every other station ("all-bs", the
void-blind baseline), only stations that actually serve someone
("void-aware"), or an independent thinning at the analytic non-void
probability ("thinned-ppp").

:func:`sir_samples` is the one sampler: a replication draws and
associates one network at the largest ratio of a grid, and every ratio
and model is read off that draw.  :func:`coverage_sweep` thresholds its
SIRs at beta and adds Wilson intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    keep_probs,
    retain=(1.0,),
) -> list[tuple[SirRealization, float]]:
    """One network draw seen from the typical user at the window centre.

    Returns one (realization, association near-tie fraction) pair per
    user retention probability in ``retain``: other user u is kept at
    retention p iff U_u < p, with one uniform U_u per user, which is an
    independent p-thinning of the users; the typical user is always kept.
    Every pair shares the stations, the association and the interferer
    gains; only the non-void mask (stations serving a kept user), the
    thinned-ppp mask (one shared uniform per interferer against
    ``keep_probs[j]``) and the near-tie fraction (over kept users) differ.
    At p = 1 every user is kept.  Draw order is fixed: stations, users,
    association, fresh interferer gains, thinning uniforms, then the user
    retention uniforms.
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
    with_typical = PointPattern(points=np.vstack([center[None, :], users.points]), window=window)
    outcome = associate(bs, with_typical, cp, law, rng)

    serving = int(outcome.assignments[0])
    others = np.flatnonzero(np.arange(len(bs)) != serving)
    other_dist = distances_to_point(bs.points[others], center, window)
    other_gains = sample_gain(cp, rng, size=len(others))
    thinning = rng.random(len(others))
    retention = np.concatenate(([0.0], rng.random(len(users))))

    pairs = []
    for keep_prob, p in zip(keep_probs, retain, strict=True):
        kept_users = retention < p
        cell_counts = np.bincount(outcome.assignments[kept_users], minlength=len(bs))
        realization = SirRealization(
            alpha=cp.alpha,
            serving_distance=float(outcome.serving_distance[0]),
            serving_gain=float(outcome.serving_gain[0]),
            interferer_distances=other_dist,
            interferer_gains=other_gains,
            interferer_nonvoid=cell_counts[others] > 0,
            interferer_kept=thinning < keep_prob,
        )
        pairs.append((realization, float(np.mean(outcome.near_tie[kept_users]))))
    return pairs


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
    associates it once; ratio r keeps each user with probability r / r_top
    (:func:`sample_realization`).  The SIR depends on the intensities only
    through their ratio, so that is the network at lambda_b = lambda_u / r.
    The models differ only in which interferers transmit, so on shared
    draws dominance comparisons are exact: the void-aware SIR is never
    below the all-bs SIR, which is the same at every ratio of a draw.
    """
    ratios = grid_ratios(ratio_grid)
    r_top = max(ratios)
    keep_probs = [thinning_keep_probability(lambda_u / r, lambda_u, cp, law) for r in ratios]
    retain = [r / r_top for r in ratios]

    def draw(rng: np.random.Generator) -> list[tuple[list[float], float]]:
        pairs = sample_realization(lambda_u / r_top, lambda_u, cp, law, window, rng, keep_probs, retain)
        return [([sir_at_typical_user(real, m) for m in models], tie) for real, tie in pairs]

    results = run_reps(draw, seed, reps)
    out = []
    for j in range(len(ratios)):
        sirs = np.array([rep[j][0] for rep in results])
        out.append((dict(zip(models, sirs.T)), float(np.mean([rep[j][1] for rep in results]))))
    return out


@dataclass(frozen=True)
class CoverageRow:
    """One sweep entry: a (user/station ratio, model) coverage estimate."""

    ratio: float
    lambda_b: float
    model: str
    beta: float
    coverage: float
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
    window: SimulationWindow,
    seed: int,
    models: tuple[str, ...] = MODELS,
) -> list[CoverageRow]:
    """P(SIR >= beta) with a Wilson interval, per grid ratio and model.

    The SIRs come from :func:`sir_samples`, so all models and ratios share
    each replication; ``window`` should be sized for the largest ratio.
    Row ``lambda_b`` is lambda_u / ratio.
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
            rows.append(CoverageRow(ratio, lambda_u / ratio, m, beta, covered, lo, hi, reps, tie))
    return rows
