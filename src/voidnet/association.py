"""Random cell association and void-cell Monte Carlo.

Every user is assigned to the base station maximizing
W_iu * H_iu * d(u, B_i)^(-alpha), where the weight W_iu and the gain
H_iu are both i.i.d. per user-station link.  The nearest law sets
W = 1/H link-wise, collapsing the criterion to pure path loss.  Per-link
weighting is the model the closed forms describe (they depend on the law
of W * H only), and the one under which large weighting drives the void
probability down to its floor exp(-lambda_u / lambda_b).  Base stations
whose resulting cell is empty are "void"; their statistics are pooled
across stations and replications.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .analytics import EstimateWithCI, pooled_fraction
from .channel import NEAREST, ChannelParams, WeightLaw, sample_gain, zeta_dagger
from .geometry import SimulationWindow, pairwise_distances
from .pointprocess import PointPattern, run_reps, sample_ppp

# Best-to-second-best criterion gap below which a user's association is
# considered ambiguous; a high fraction flags an undersized window.
NEAR_TIE_RTOL = 0.01

# User rows per block of the dense criterion in `associate`; bounds its
# working set to a few (rows x stations) float64 arrays.
ASSOCIATE_BLOCK_ROWS = 256


@dataclass(frozen=True)
class AssociationOutcome:
    """Result of one association round.

    ``assignments[u]`` is the serving base-station index of user u, and
    ``serving_weight[u]`` / ``serving_gain[u]`` are the W and H of that
    serving link; ``cell_counts`` partitions the users over stations, so
    its sum equals the user count and ``void_count`` is the number of
    zero entries.  ``near_tie[u]`` flags a runner-up criterion within
    ``NEAR_TIE_RTOL`` of user u's best.
    """

    assignments: np.ndarray
    serving_distance: np.ndarray
    serving_weight: np.ndarray
    serving_gain: np.ndarray
    cell_counts: np.ndarray
    void_count: int
    near_tie: np.ndarray

    def __post_init__(self) -> None:
        if int(self.cell_counts.sum()) != len(self.assignments):
            raise ValueError("cell counts do not partition the user set")
        if int(np.sum(self.cell_counts == 0)) != self.void_count:
            raise ValueError("void count inconsistent with cell counts")

    @property
    def near_tie_fraction(self) -> float:
        """Share of users whose association is ambiguous (window-adequacy diagnostic)."""
        return float(np.mean(self.near_tie)) if len(self.near_tie) else 0.0


def associate(
    bs: PointPattern,
    users: PointPattern,
    cp: ChannelParams,
    law: WeightLaw,
    rng: np.random.Generator,
) -> AssociationOutcome:
    """Assign every user to its criterion-maximizing base station.

    Draw order is fixed for reproducibility: the user-by-station weight
    matrix first (log-normal law only), then the full user-by-station
    gain matrix (nearest law: serving-link gains only, since gains cancel
    out of its criterion, and the serving weight is W = 1/H).  Ties break
    toward the lowest station index.  The distances, the criterion
    (W * H) * d^(-alpha), its argmax and the runner-up are computed in
    blocks of ``ASSOCIATE_BLOCK_ROWS`` users after both draws, which keeps
    the working set in cache.
    """
    n_b = len(bs)
    n_u = len(users)
    if n_b == 0:
        raise ValueError("association requires at least one base station")

    if law.kind == NEAREST:
        # Gains cancel out of the nearest criterion, so assignment is a
        # plain (periodic) nearest-neighbour query.
        if n_u:
            tree = cKDTree(bs.points, boxsize=bs.window.side)
            k = min(2, n_b)
            dd, ii = tree.query(users.points, k=k)
            dd = dd.reshape(n_u, k)
            ii = ii.reshape(n_u, k)
            assignments = ii[:, 0]
            serving_distance = dd[:, 0]
        else:
            assignments = np.zeros(0, dtype=int)
            serving_distance = np.zeros(0)
        serving_gain = np.asarray(sample_gain(cp, rng, size=n_u), dtype=float).reshape(n_u)
        with np.errstate(divide="ignore"):
            serving_weight = 1.0 / serving_gain
        if n_u and n_b >= 2:
            near_tie = (serving_distance / dd[:, 1]) ** cp.alpha > 1.0 - NEAR_TIE_RTOL
        else:
            near_tie = np.zeros(n_u, dtype=bool)
    else:
        weights = law.sample_weights((n_u, n_b), rng)
        gains = sample_gain(cp, rng, size=(n_u, n_b))
        assignments = np.zeros(n_u, dtype=np.intp)
        serving_distance = np.empty(n_u)
        best = np.empty(n_u)
        second = np.empty(n_u)
        for start in range(0, n_u, ASSOCIATE_BLOCK_ROWS):
            block = slice(start, start + ASSOCIATE_BLOCK_ROWS)
            dist = pairwise_distances(users.points[block], bs.points, bs.window)
            with np.errstate(divide="ignore"):
                criterion = weights[block] * gains[block]
                criterion *= dist ** (-cp.alpha)
            rows = np.arange(len(criterion))
            top = np.argmax(criterion, axis=1)
            assignments[block] = top
            serving_distance[block] = dist[rows, top]
            best[block] = criterion[rows, top]
            criterion[rows, top] = -np.inf  # the row max is now the runner-up
            second[block] = criterion.max(axis=1)
        rows = np.arange(n_u)
        serving_weight = weights[rows, assignments]
        serving_gain = gains[rows, assignments]
        if n_b >= 2:
            with np.errstate(invalid="ignore"):
                near_tie = second / best > 1.0 - NEAR_TIE_RTOL
        else:
            near_tie = np.zeros(n_u, dtype=bool)

    cell_counts = np.bincount(assignments, minlength=n_b)
    return AssociationOutcome(
        assignments=assignments,
        serving_distance=serving_distance,
        serving_weight=serving_weight,
        serving_gain=serving_gain,
        cell_counts=cell_counts,
        void_count=int(np.sum(cell_counts == 0)),
        near_tie=near_tie,
    )


def associated_pattern(outcome: AssociationOutcome, bs: PointPattern) -> PointPattern:
    """Sub-pattern of base stations that serve at least one user.

    Declared intensity is the original intensity thinned by the realized
    non-void fraction.
    """
    keep = outcome.cell_counts > 0
    retained = float(np.mean(keep)) if len(bs) else 0.0
    return PointPattern(
        points=bs.points[keep],
        window=bs.window,
        intensity_declared=bs.intensity_declared * retained,
    )


def _replication_cells(
    lambda_b: float,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    window: SimulationWindow,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-station user counts for one fresh replication.

    An empty base-station draw (vanishingly unlikely at sane window
    sizes) contributes no cells.
    """
    bs = sample_ppp(lambda_b, window, rng)
    if len(bs) == 0:
        return np.zeros(0, dtype=int)
    users = sample_ppp(lambda_u, window, rng)
    outcome = associate(bs, users, cp, law, rng)
    return outcome.cell_counts


def _void_estimates(hists: list[np.ndarray], retain, seed: int) -> list[EstimateWithCI]:
    """Pooled void fraction at each user retention probability ``p`` in ``retain``.

    Thinning the users of a cell that holds K of them independently with
    keep probability p leaves it void with probability exactly (1 - p)^K,
    so a replication's expected void count at p is sum_k h[k] (1 - p)^k
    (conditional Monte Carlo).  At p = 1 that is h[0], the plain count.
    Below p = 1 the per-replication sums of squares sum_k h[k] (1 - p)^2k
    go with it, so the interval's per-cell variance floor is that of the
    weights pooled, not of 0/1 indicators (see
    :func:`voidnet.analytics.pooled_fraction`).
    """
    width = max(len(h) for h in hists)
    counts = np.array([np.pad(h, (0, width - len(h))) for h in hists])
    void_weights = (1.0 - np.asarray(retain, dtype=float)) ** np.arange(width)[:, None]
    voids = counts @ void_weights
    squares = counts @ void_weights**2
    cells = counts.sum(axis=1)
    estimates = []
    for p, column, column_squares in zip(retain, voids.T, squares.T):
        p_hat, lo, hi = pooled_fraction(column, cells, column_squares if p < 1.0 else None)
        estimates.append(
            EstimateWithCI(value=p_hat, ci_low=lo, ci_high=hi, reps=len(hists), seed=seed)
        )
    return estimates


def _cell_histograms(
    lambda_b: float,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    reps: int,
    window: SimulationWindow,
    seed: int,
    half_width: float | None,
    retain=(1.0,),
) -> list[np.ndarray]:
    """Per-replication histograms ``h``, ``h[n]`` = stations serving n users.

    The one draw and stopping path of :func:`void_probability_sweep`,
    :func:`void_probability_mc` and :func:`cell_count_pmf_mc`; a
    ``half_width`` target applies to the pooled void fraction at every
    retention probability in ``retain`` (bin 0 over the sum at p = 1).
    """
    if lambda_b <= 0:
        raise ValueError("lambda_b must be > 0")
    if half_width is not None and not half_width > 0:
        raise ValueError(f"half_width must be > 0, got {half_width}")
    if np.isinf(zeta_dagger(cp, law)):
        warnings.warn(
            "moment product E[(WH)^(2/a)]E[(WH)^(-2/a)] diverges (m <= 2/alpha, or moments "
            "past the float range); "
            "closed-form void expressions are inapplicable, only the "
            "exp(-lambda_u/lambda_b) lower bound remains",
            stacklevel=3,
        )

    def draw(rng: np.random.Generator) -> np.ndarray:
        counts = _replication_cells(lambda_b, lambda_u, cp, law, window, rng)
        return np.bincount(counts, minlength=1)

    def done(hists: list[np.ndarray]) -> bool:
        return all(e.half_width <= half_width for e in _void_estimates(hists, retain, seed))

    return run_reps(draw, seed, reps, None if half_width is None else done)


def grid_ratios(ratio_grid) -> list[float]:
    """A user/station ratio grid as floats; ValueError unless non-empty, finite and > 0."""
    ratios = [float(r) for r in ratio_grid]
    if not ratios or not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ValueError(f"ratio grid entries must be finite and > 0, got {ratios}")
    return ratios


def void_probability_sweep(
    ratio_grid,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    reps: int,
    window: SimulationWindow,
    seed: int,
    half_width: float | None = None,
) -> list[EstimateWithCI]:
    """Void probability at every user/station ratio of a grid, from one draw per replication.

    Each replication draws stations at lambda_u / r_top and users at
    lambda_u on ``window``, with r_top = max(ratio_grid).  Users at ratio
    r are an independent r / r_top thinning of those, and the void
    probability depends on the intensities only through their ratio
    (scaling every distance leaves the association argmax unchanged), so
    every ratio is estimated on the same draw by the exact conditional
    void probability (1 - r/r_top)^K of a cell holding K users.  The
    estimate at ratio r is that of a window of side
    ``window.side * sqrt(r / r_top)`` at lambda_b = lambda_u / r, which
    holds the same expected station count.  The interval at r < r_top
    takes its per-cell variance floor from those weights and their
    squares, which spread less than 0/1 void indicators, so it may be
    narrower than a binomial one over the cells.

    With ``half_width`` set, batches of ``reps`` are added until every
    ratio's 95% half-width is at most ``half_width``; each estimate's
    ``reps`` is the realized, shared count.  A one-ratio grid is exactly
    :func:`void_probability_mc` at lambda_b = lambda_u / ratio.
    """
    ratios = grid_ratios(ratio_grid)
    r_top = max(ratios)
    retain = [r / r_top for r in ratios]
    hists = _cell_histograms(lambda_u / r_top, lambda_u, cp, law, reps, window, seed, half_width,
                             retain)
    return _void_estimates(hists, retain, seed)


def void_probability_mc(
    lambda_b: float,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    reps: int,
    window: SimulationWindow,
    seed: int,
    half_width: float | None = None,
) -> EstimateWithCI:
    """Monte-Carlo void probability, pooled over stations and replications.

    All cells are exchangeable on the torus, so pooling is unbiased; the
    interval accounts for within-replication correlation by treating each
    replication as a cluster (see :func:`voidnet.analytics.pooled_fraction`).

    With ``half_width`` set, batches of ``reps`` replications are added
    until the 95% half-width is at most ``half_width`` (the sequential
    rule of :func:`voidnet.pointprocess.run_reps`); the result's ``reps``
    is the realized count.  This is the one-ratio case of
    :func:`void_probability_sweep` (retention probability 1), which also
    allows ``lambda_u = 0``.
    """
    hists = _cell_histograms(lambda_b, lambda_u, cp, law, reps, window, seed, half_width)
    return _void_estimates(hists, (1.0,), seed)[0]


@dataclass(frozen=True)
class CellCountPmf:
    """Empirical per-cell user-count distribution with per-bin intervals."""

    n_values: np.ndarray
    pmf: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    mean: float
    reps: int
    seed: int


def cell_count_pmf_mc(
    lambda_b: float,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    reps: int,
    window: SimulationWindow,
    seed: int,
    half_width: float | None = None,
) -> CellCountPmf:
    """Empirical pmf of the number of users in a cell.

    Shares the replication streams and the sequential ``half_width`` rule
    of :func:`void_probability_mc` (the target applies to the n = 0 bin),
    so that bin reproduces its estimate exactly for the same arguments.
    """
    hists = _cell_histograms(lambda_b, lambda_u, cp, law, reps, window, seed, half_width)
    width = max(len(h) for h in hists)
    hist = np.array([np.pad(h, (0, width - len(h))) for h in hists], dtype=float)
    cells = hist.sum(axis=1)
    total_cells = cells.sum()
    if total_cells == 0:
        raise RuntimeError("no cells simulated; window too small for lambda_b")
    n_values = np.arange(hist.shape[1])
    pmf, lo, hi = np.array([pooled_fraction(hist[:, n], cells) for n in n_values]).T
    return CellCountPmf(
        n_values=n_values,
        pmf=pmf,
        ci_low=lo,
        ci_high=hi,
        mean=float((hist @ n_values).sum() / total_cells),
        reps=len(hists),
        seed=seed,
    )
