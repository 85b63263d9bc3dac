"""Composite Nakagami-m / log-normal channel gains and association weights.

A link gain H is gamma-distributed with shape m around a log-normally
distributed local mean, i.e. H | X ~ Gamma(m, X/m) with
ln X ~ Normal(mu, sigma2).  Its fractional moments drive every closed-form
void-probability expression, via the moment product
E[(WH)^(2/alpha)] * E[(WH)^(-2/alpha)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

LN10_OVER_10 = math.log(10.0) / 10.0

SIGMA_IN_DB = "sigma-in-db"
SIGMA2_IN_DB = "sigma2-in-db"


def shadowing_sigma2_from_db(value_db: float, convention: str) -> float:
    """Natural-log shadowing variance from a quoted dB figure.

    ``"sigma-in-db"`` reads the figure as the standard deviation in dB;
    ``"sigma2-in-db"`` reads it as the variance in dB^2.  Both reduce to
    sigma_ln = sigma_dB * ln(10) / 10.
    """
    if value_db < 0:
        raise ValueError("dB shadowing figure must be >= 0")
    if convention == SIGMA_IN_DB:
        sigma_db = value_db
    elif convention == SIGMA2_IN_DB:
        sigma_db = math.sqrt(value_db)
    else:
        raise ValueError(f"unknown dB convention {convention!r}")
    return (sigma_db * LN10_OVER_10) ** 2


@dataclass(frozen=True)
class ChannelParams:
    """Nakagami shape m, log-normal (mu, sigma2) and path-loss exponent."""

    m: float
    mu: float
    sigma2: float
    alpha: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.m) and self.m > 0):
            raise ValueError(f"Nakagami shape m must be > 0, got {self.m}")
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        if not (np.isfinite(self.alpha) and self.alpha > 2):
            raise ValueError(f"path-loss exponent must be > 2, got {self.alpha}")


NEAREST = "nearest"
UNIT = "unit"
LOGNORMAL = "lognormal"


@dataclass(frozen=True)
class WeightLaw:
    """Per-link association weighting.

    A user associates with the station maximizing W * H * d^(-alpha),
    where W and H belong to the user-station link.  ``nearest`` sets
    W = 1/H on each link so the criterion collapses to pure path loss
    (nearest-base-station association); ``unit`` sets W = 1 (strongest
    received power); ``lognormal`` draws an independent log-normal W per
    link, just as H is.  W * H is therefore i.i.d. across links under
    every law, which is the model the closed forms in
    :mod:`voidnet.analytics` describe: they depend on the law of W * H
    only, through :func:`zeta_dagger`.
    """

    kind: str
    mu_w: float = 0.0
    sigma2_w: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (NEAREST, UNIT, LOGNORMAL):
            raise ValueError(f"unknown weight law {self.kind!r}")
        if self.kind == LOGNORMAL:
            if not np.isfinite(self.mu_w):
                raise ValueError("mu_w must be finite")
            if not (np.isfinite(self.sigma2_w) and self.sigma2_w >= 0):
                raise ValueError(f"sigma2_w must be >= 0, got {self.sigma2_w}")

    @classmethod
    def nearest(cls) -> "WeightLaw":
        return cls(kind=NEAREST)

    @classmethod
    def unit(cls) -> "WeightLaw":
        return cls(kind=UNIT)

    @classmethod
    def lognormal(cls, mu_w: float, sigma2_w: float) -> "WeightLaw":
        return cls(kind=LOGNORMAL, mu_w=mu_w, sigma2_w=sigma2_w)

    def sample_weights(self, size, rng: np.random.Generator) -> np.ndarray:
        """Weights for ``size`` links, one i.i.d. draw per link.

        Only the log-normal law consumes randomness; the unit law returns
        ones, and the nearest law (W = 1/H, which depends on the gain)
        is resolved by the caller and also returns ones here.  The ones
        are a read-only broadcast view, not an allocated array.
        """
        if self.kind == LOGNORMAL:
            w = np.asarray(rng.normal(self.mu_w, math.sqrt(self.sigma2_w), size=size))
            return np.exp(w, out=w)
        return np.broadcast_to(1.0, size)


# Standard-gamma draws that sample_gain holds at once beside its gains.
_GAMMA_CHUNK = 65_536


def sample_gain(cp: ChannelParams, rng: np.random.Generator, size) -> np.ndarray:
    """Draw an array of ``size`` composite gains H = Gamma(m, X/m) with log-normal X.

    Exact two-stage composition; no quadrature in the sampling path.
    Gamma(m, X/m) is drawn as (X/m) * StandardGamma(m), which is how
    NumPy draws ``gamma(m, scale)``, so the stream and the values are
    those of ``rng.gamma(shape=m, scale=X/m)``, with no scale array.
    The standard-gamma factors are drawn and multiplied in
    ``_GAMMA_CHUNK`` at a time; NumPy fills them one draw after another,
    so the chunks leave the values and the stream unchanged.
    """
    h = rng.normal(cp.mu, math.sqrt(cp.sigma2), size=size)
    np.exp(h, out=h)
    h /= cp.m
    flat = h.reshape(-1)
    for lo in range(0, flat.size, _GAMMA_CHUNK):
        part = flat[lo:lo + _GAMMA_CHUNK]
        part *= rng.standard_gamma(cp.m, size=part.size)
    return h


def _unit_law_log_moment(cp: ChannelParams, p: float) -> float:
    """ln E[H^p] for the composite gain; requires m + p > 0."""
    return (
        gammaln(cp.m + p)
        - gammaln(cp.m)
        - p * math.log(cp.m)
        + p * cp.mu
        + p * p * cp.sigma2 / 2.0
    )


def fractional_moment(cp: ChannelParams, law: WeightLaw, p: float) -> float:
    """E[(W H)^p] for the weighted composite gain.

    Under the nearest law W*H is identically 1.  Under the unit law the
    moment is Gamma(m+p) / (Gamma(m) m^p) * exp(p*mu + p^2*sigma2/2),
    finite only for m + p > 0; divergence, and a moment past the float
    range, is reported as +inf.  A custom log-normal weight contributes an
    independent factor exp(p*mu_w + p^2*sigma2_w/2).
    """
    if not np.isfinite(p):
        raise ValueError("moment order must be finite")
    if law.kind == NEAREST:
        return 1.0
    if cp.m + p <= 0:
        return math.inf
    log_moment = _unit_law_log_moment(cp, p)
    if law.kind == LOGNORMAL:
        log_moment += p * law.mu_w + p * p * law.sigma2_w / 2.0
    try:
        return math.exp(log_moment)
    except OverflowError:
        return math.inf


def zeta_dagger(cp: ChannelParams, law: WeightLaw) -> float:
    """Moment product E[(WH)^(2/alpha)] * E[(WH)^(-2/alpha)].

    At least 1 by Cauchy-Schwarz, with equality when W*H is constant
    (the nearest law).  Diverges, reported as +inf, when m <= 2/alpha
    under gain-dependent weighting.
    """
    p = 2.0 / cp.alpha
    plus = fractional_moment(cp, law, p)
    minus = fractional_moment(cp, law, -p)
    if math.isinf(plus) or math.isinf(minus):
        return math.inf
    return plus * minus
