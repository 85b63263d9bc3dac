"""Second-order spatial statistics on the torus.

Ripley's K with wrap-around edge correction, counted exactly from the
list of point pairs within the largest radius; Monte-Carlo envelopes
under complete spatial randomness; and a test of whether the pattern of
non-void (associated) base stations still looks like a homogeneous PPP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .association import _station_counts, _void_estimates, associated_pattern
from .channel import ChannelParams, WeightLaw
from .geometry import SimulationWindow
from .pointprocess import PointPattern, run_reps, sample_ppp

# Beyond side/4 the wrap-around starts to distort K; envelope-based
# comparisons stay below it.
MAX_RADIUS_FRACTION = 0.25

MIN_POINTS = 10


def default_radii(window: SimulationWindow) -> np.ndarray:
    """Twenty evenly spaced radii from side/50 up to the side/4 cap."""
    return np.linspace(window.side / 50.0, window.side * MAX_RADIUS_FRACTION, 20)


def ripley_k(pattern: PointPattern, radii) -> np.ndarray:
    """Ripley's K estimate at each of ``radii``, with toroidal edge correction.

    K_hat(r) = area / (N (N - 1)) * #{ordered pairs with d(i, j) <= r}.
    For a homogeneous PPP, E[K_hat(r)] = pi r^2.  Wrap bias grows for
    radii above side/4; at the maximum toroidal distance K_hat saturates
    at exactly the window area.  The radii must be positive and strictly
    increasing; the estimates then never decrease.

    The count is exact.  A periodic k-d tree lists the unordered pairs
    within the largest radius, queried a few ulps wide so that rounding
    inside the tree cannot drop a pair at exactly that radius.  Each
    pair's squared torus distance is then recomputed from the
    coordinates (per axis min(|d|, side - |d|), squared and summed, the
    tree's own metric), and d^2 <= r^2 decides every count, twice over
    for the two orders of a pair.  The pair list takes about 24-40 bytes
    per pair within the largest radius, and a PPP has about
    (pi/32) N^2 ~ 0.1 N^2 of them at side/4: about 1 MB at 500 points.
    """
    n = len(pattern)
    if n < MIN_POINTS:
        raise ValueError(f"pattern has {n} points; need at least {MIN_POINTS}")
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(r <= 0) or np.any(np.diff(r) <= 0):
        raise ValueError("radii must be positive and strictly increasing")

    side = pattern.window.side
    r_max = r.max(initial=0.0)  # an empty radius list counts no pairs
    tree = cKDTree(pattern.points, boxsize=side)
    pairs = tree.query_pairs(r_max + 4 * np.spacing(r_max), output_type="ndarray")
    i, j = pairs.T
    gap = pattern.points.take(i, axis=0)  # take, not fancy indexing: several times faster
    gap -= pattern.points.take(j, axis=0)
    np.abs(gap, out=gap)
    np.minimum(gap, side - gap, out=gap)
    gap *= gap
    counts = 2 * np.searchsorted(np.sort(gap[:, 0] + gap[:, 1]), r * r, side="right")
    area = pattern.window.sampling_area()
    return area * counts / (n * (n - 1.0))


def ppp_envelope(
    intensity: float,
    window: SimulationWindow,
    radii,
    n_envelope: int = 99,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise CSR envelope of K_hat at matched intensity.

    Takes the 2.5/97.5 percentiles over ``n_envelope`` fresh PPP
    realizations (about a 5% pointwise exit rate for a true PPP).  At
    least 39 realizations are required for a 95% envelope to make sense.
    Each is a plain PPP, so one below ``MIN_POINTS`` raises ValueError.
    """
    if n_envelope < 39:
        raise ValueError("need at least 39 envelope simulations for a 95% envelope")
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    if r.max() > window.side * MAX_RADIUS_FRACTION + 1e-12:
        raise ValueError("envelope radii must stay at or below side/4")

    def draw(rng: np.random.Generator) -> np.ndarray:
        return ripley_k(sample_ppp(intensity, window, rng), r)

    k_sims = np.array(run_reps(draw, seed, n_envelope))
    return np.percentile(k_sims, 2.5, axis=0), np.percentile(k_sims, 97.5, axis=0)


@dataclass(frozen=True)
class Remark2Report:
    """Does the associated-station pattern still pass for a PPP?

    ``exit_fraction`` is the share of (replication, radius) pairs whose
    K_hat falls outside the matched-intensity CSR envelope; about 0.05
    for a true PPP.  Envelopes are pointwise, so the per-radius exit
    rates are correlated across radii and the fraction is descriptive
    rather than a single calibrated p-value.
    """

    radii: np.ndarray
    exit_fraction: float
    per_radius_exit_rate: np.ndarray
    k_hat_mean: np.ndarray
    envelope_low: np.ndarray
    envelope_high: np.ndarray
    matched_intensity: float
    void_fraction: float
    uninformative: bool


def remark2_test(
    lambda_b: float,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    reps: int,
    window: SimulationWindow,
    seed: int,
    n_envelope: int = 99,
) -> Remark2Report:
    """Compare associated-station K functions against a CSR envelope.

    Runs ``reps`` rounds that count each station's users (under the
    nearest law, with no gain draw), thins each round to its non-void
    stations, and checks their K_hat at the window's :func:`default_radii`
    against an envelope of PPPs at the matched intensity (1 - void
    fraction) * lambda_b.  The void fraction is pooled from each round's
    cell-size histogram on void-prob's path, so it equals
    :func:`voidnet.association.void_probability_mc` on the same arguments.
    When the realized void fraction is negligible the report is flagged
    uninformative: the pattern is then nearly the full PPP and only the
    false-positive floor remains.
    """
    r = default_radii(window)

    def draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        bs = sample_ppp(lambda_b, window, rng)
        users = sample_ppp(lambda_u, window, rng)
        counts = _station_counts(bs, users, cp, law, rng)
        kept = associated_pattern(counts, bs)
        if len(kept) < MIN_POINTS:
            raise ValueError(
                f"associated pattern has {len(kept)} stations (< {MIN_POINTS}); "
                "no K statistic is possible at these intensities"
            )
        return ripley_k(kept, r), np.bincount(counts, minlength=1)

    results = run_reps(draw, seed, reps)
    void_fraction = _void_estimates([h for _, h in results], (1.0,))[0].value
    matched = (1.0 - void_fraction) * lambda_b
    lo, hi = ppp_envelope(matched, window, r, n_envelope=n_envelope, seed=seed + 1)

    k_all = np.array([k for k, _ in results])
    exits = (k_all < lo) | (k_all > hi)
    return Remark2Report(
        radii=r,
        exit_fraction=float(exits.mean()),
        per_radius_exit_rate=exits.mean(axis=0),
        k_hat_mean=k_all.mean(axis=0),
        envelope_low=lo,
        envelope_high=hi,
        matched_intensity=matched,
        void_fraction=float(void_fraction),
        uninformative=bool(void_fraction < 0.01),
    )
