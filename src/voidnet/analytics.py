"""Closed-form cell statistics for Poisson cellular networks.

Covers the negative-binomial law of the per-cell user count (Poisson
users over the gamma approximation, shape 7/2, of the cell-area law), the
void probability of a cell under nearest-base-station association and
under generalized random cell association, the Jensen lower bound
exp(-lambda_u/lambda_b) and its matching upper bound, and the intensity
of a randomly mapped PPP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .channel import ChannelParams, WeightLaw, zeta_dagger

VORONOI_SHAPE = 3.5  # gamma shape that fits the Poisson-Voronoi cell-area law

Z_95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class EstimateWithCI:
    """A Monte-Carlo estimate with its 95% confidence interval."""

    value: float
    ci_low: float
    ci_high: float
    reps: int

    def __post_init__(self) -> None:
        if not (self.ci_low <= self.value + 1e-12 and self.value <= self.ci_high + 1e-12):
            raise ValueError(
                f"estimate {self.value} outside its interval [{self.ci_low}, {self.ci_high}]"
            )

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def se(self) -> float:
        """Normal-approximation standard error implied by the interval."""
        return self.half_width / Z_95


def wilson_interval(p_hat: float, n: float) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    ``n`` may be a non-integer effective sample size.  The interval always
    contains ``p_hat``.
    """
    if n <= 0:
        return 0.0, 1.0
    denom = 1.0 + Z_95 * Z_95 / n
    center = (p_hat + Z_95 * Z_95 / (2.0 * n)) / denom
    half = Z_95 * math.sqrt(p_hat * (1.0 - p_hat) / n + Z_95 * Z_95 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def pooled_fraction(numerators, denominators, squares=None) -> tuple[float, float, float]:
    """Pooled proportion across replications with an honest interval.

    The estimate is sum(v_r) / sum(n_r), where v_r sums the per-cell
    weights w in [0, 1] of replication r over its n_r cells.  Replications
    are treated as clusters: the ratio-estimator variance computed from
    per-replication residuals absorbs any within-replication correlation,
    and the Wilson interval is then evaluated at the implied effective
    sample size.

    That size is capped by a per-cell variance floor: the pooled cells
    can do no better than independent ones, so
    n_eff <= total * p_hat (1 - p_hat) / s^2 with s^2 = sum(w^2) / total
    - p_hat^2.  ``squares`` holds the per-replication sums of w^2.  Left
    out, the cells are taken as 0/1 indicators, each its own square, for
    which s^2 = p_hat (1 - p_hat) and the cap is the cell count.  Weights
    strictly inside (0, 1), such as the thinned void weights (1 - p)^K,
    spread less than that, so their cap rises above the cell count.

    Returns ``(p_hat, ci_low, ci_high)``.
    """
    v = np.asarray(numerators, dtype=float)
    n = np.asarray(denominators, dtype=float)
    if v.shape != n.shape or v.ndim != 1 or len(v) == 0:
        raise ValueError("need matching 1-D numerator/denominator arrays")
    total = n.sum()
    if total <= 0:
        raise ValueError("no observations pooled")
    p_hat = float(v.sum() / total)
    reps = len(v)
    if reps > 1 and 0.0 < p_hat < 1.0:
        residuals = v - p_hat * n
        var = reps / (reps - 1) * float(np.sum(residuals**2)) / total**2
    else:
        var = 0.0
    if var > 0.0:
        binomial = p_hat * (1.0 - p_hat)
        # p_hat (1 - p_hat) - s^2 = sum(w - w^2) / total: exactly 0 for
        # 0/1 cells, each its own square, so they keep the cell-count cap
        # bit for bit.
        squares = v if squares is None else squares
        cell_var = binomial - (v.sum() - float(np.sum(squares))) / total
        cap = total
        if cell_var < binomial:
            cap = total * binomial / cell_var if cell_var > 0.0 else math.inf
        n_eff = min(binomial / var, cap)
        n_eff = max(n_eff, 1.0)
    else:
        n_eff = total
    lo, hi = wilson_interval(p_hat, n_eff)
    return p_hat, lo, hi


def user_count_pmf(n, lambda_u: float, lambda_b: float):
    """Probability that a cell contains exactly n users.

    Mixing a Poisson(lambda_u * area) count over the gamma cell-area law
    of shape ``VORONOI_SHAPE`` gives a negative-binomial pmf:

        p_n = Gamma(n + shape) / (n! Gamma(shape))
              * lambda_u^n (shape*lambda_b)^shape
              / (shape*lambda_b + lambda_u)^(n + shape).
    """
    if lambda_b <= 0 or lambda_u < 0:
        raise ValueError("need lambda_b > 0 and lambda_u >= 0")
    n_arr = np.atleast_1d(np.asarray(n))
    if np.any(n_arr < 0) or not np.issubdtype(n_arr.dtype, np.number):
        raise ValueError("user count must be a non-negative integer")
    if lambda_u == 0.0:
        out = np.where(n_arr == 0, 1.0, 0.0).astype(float)
        return float(out[0]) if np.isscalar(n) else out
    rate = VORONOI_SHAPE * lambda_b
    log_pmf = (
        gammaln(n_arr + VORONOI_SHAPE)
        - gammaln(VORONOI_SHAPE)
        - gammaln(n_arr + 1.0)
        + n_arr * math.log(lambda_u)
        + VORONOI_SHAPE * math.log(rate)
        - (n_arr + VORONOI_SHAPE) * math.log(rate + lambda_u)
    )
    out = np.exp(log_pmf)
    return float(out[0]) if np.isscalar(n) else out


def void_prob_nearest(lambda_u: float, lambda_b: float) -> float:
    """Void probability of a cell under nearest-base-station association."""
    return void_prob_rca(lambda_u, lambda_b, VORONOI_SHAPE)


def void_prob_rca(lambda_u: float, lambda_b: float, rho: float) -> float:
    """Void probability (1 + lambda_u / (rho * lambda_b))^(-rho).

    ``rho = 3.5 * zeta_dagger`` under random cell association; infinite
    rho collapses to the Jensen floor exp(-lambda_u / lambda_b).  The
    expression depends on the weighting only through the law of W * H,
    so it describes W * H drawn i.i.d. per user-station link (the model
    :func:`voidnet.association.associate` simulates), not a weight shared
    by all links of a station.
    """
    if lambda_b <= 0:
        raise ValueError("lambda_b must be > 0")
    if lambda_u < 0:
        raise ValueError("lambda_u must be >= 0")
    ratio = lambda_u / lambda_b
    if math.isinf(rho):
        return math.exp(-ratio)
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return math.exp(-rho * math.log1p(ratio / rho))


def void_prob_bounds(lambda_u: float, lambda_b: float, zeta_dag: float) -> tuple[float, float]:
    """(lower, upper) bounds on the void probability.

    lower = exp(-lambda_u / lambda_b) holds for any association scheme;
    upper = (1 + lambda_u / (zeta_dag * lambda_b))^(-zeta_dag).  A
    divergent moment product collapses the sandwich onto the lower bound.
    Like :func:`void_prob_rca`, the upper bound assumes W * H i.i.d. per
    user-station link.
    """
    if lambda_b <= 0:
        raise ValueError("lambda_b must be > 0")
    if lambda_u < 0:
        raise ValueError("lambda_u must be >= 0")
    lower = math.exp(-lambda_u / lambda_b)
    if math.isinf(zeta_dag):
        return lower, lower
    if zeta_dag < 1.0:
        raise ValueError(f"zeta_dagger must be >= 1, got {zeta_dag}")
    upper = void_prob_rca(lambda_u, lambda_b, zeta_dag)
    return lower, upper


def rho_strongest_power(m: float, sigma2: float, alpha: float) -> float:
    """Void-probability shape for strongest-received-power association.

    rho = 3.5 * Gamma(m + 2/alpha) * Gamma(m - 2/alpha) / Gamma(m)^2
             * exp(4 * sigma2 / alpha^2),

    which equals 3.5 * zeta_dagger for unit weights.  Diverges (+inf)
    when m <= 2/alpha.
    """
    cp = ChannelParams(m=m, mu=0.0, sigma2=sigma2, alpha=alpha)
    return VORONOI_SHAPE * zeta_dagger(cp, WeightLaw.unit())


def mapped_intensity(intensity: float, mean_inverse_scale: float) -> float:
    """Intensity of a PPP after i.i.d. random mapping of its points.

    ``mean_inverse_scale`` is E[1 / sqrt(det(T' T))]; for isotropic 2-D
    scaling by T this is E[1 / T^2].
    """
    if intensity < 0 or mean_inverse_scale <= 0:
        raise ValueError("intensity must be >= 0 and the moment > 0")
    return intensity * mean_inverse_scale

