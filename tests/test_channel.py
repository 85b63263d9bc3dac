import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln

from voidnet.channel import (
    SIGMA2_IN_DB,
    SIGMA_IN_DB,
    _GAMMA_CHUNK,
    ChannelParams,
    WeightLaw,
    fractional_moment,
    sample_gain,
    shadowing_sigma2_from_db,
    zeta_dagger,
)

RAYLEIGH = ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0)


def _gain_pdf(cp: ChannelParams, h: float) -> float:
    """Composite-gain density at ``h`` > 0, an oracle for the sampler and moments.

    The mixture integral over the shadowing level x runs on the log axis
    y = ln x, where exp(-m*y - m*h*exp(-y) - (y - mu)^2 / (2*sigma2)) is
    smooth and unimodal.  Needs sigma2 > 0.
    """
    m, mu, s2 = cp.m, cp.mu, cp.sigma2
    sigma = math.sqrt(s2)
    # The exponent peaks near the larger of mu and ln(h); cover both generously.
    lo = min(mu, math.log(h)) - 12.0 * sigma - 5.0
    hi = max(mu, math.log(h)) + 12.0 * sigma + 5.0
    value, _ = integrate.quad(
        lambda y: math.exp(-m * y - m * h * math.exp(-y) - (y - mu) ** 2 / (2.0 * s2)),
        lo, hi, limit=200)
    log_prefactor = m * math.log(m) - gammaln(m) - 0.5 * math.log(2.0 * math.pi * s2)
    return math.exp(log_prefactor + (m - 1.0) * math.log(h)) * value


class TestChannelParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0.0, mu=0.0, sigma2=0.0, alpha=4.0),
            dict(m=1.0, mu=0.0, sigma2=-0.1, alpha=4.0),
            dict(m=1.0, mu=0.0, sigma2=0.0, alpha=2.0),
            dict(m=1.0, mu=np.nan, sigma2=0.0, alpha=4.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)

    def test_mean_gain_matches_samples(self):
        # E[H] = exp(mu + sigma2 / 2); the gamma stage has unit mean
        cp = ChannelParams(m=2.0, mu=0.2, sigma2=0.5, alpha=4.0)
        h = sample_gain(cp, np.random.default_rng(1), size=200_000)
        se = h.std(ddof=1) / np.sqrt(len(h))
        assert abs(h.mean() - math.exp(0.2 + 0.25)) < 3.0 * se


class TestSampleGain:
    def test_degenerate_limit_concentrates_at_one(self):
        cp = ChannelParams(m=1e6, mu=0.0, sigma2=0.0, alpha=4.0)
        h = sample_gain(cp, np.random.default_rng(2), size=10_000)
        assert h.std(ddof=1) < 1e-2
        assert abs(h.mean() - 1.0) < 1e-2

    def test_rayleigh_power_is_exponential(self):
        h = sample_gain(RAYLEIGH, np.random.default_rng(3), size=100_000)
        se = h.std(ddof=1) / np.sqrt(len(h))
        assert abs(h.mean() - 1.0) < 3.0 * se
        # exponential(1): P[H > 1] = 1/e
        assert abs(np.mean(h > 1.0) - np.exp(-1.0)) < 0.005

    def test_shadowed_mean(self):
        cp = ChannelParams(m=1.0, mu=0.0, sigma2=1.0, alpha=4.0)
        h = sample_gain(cp, np.random.default_rng(4), size=200_000)
        se = h.std(ddof=1) / np.sqrt(len(h))
        assert abs(h.mean() - math.exp(0.5)) < 3.0 * se


class TestGainPdf:
    def test_normalization(self):
        cp = ChannelParams(m=2.0, mu=0.3, sigma2=0.8, alpha=4.0)
        total, _ = integrate.quad(lambda h: _gain_pdf(cp, h), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_histogram_cross_oracle(self):
        # binned sample counts vs pdf-integrated bin masses
        cp = ChannelParams(m=1.5, mu=0.1, sigma2=0.5, alpha=4.0)
        h = sample_gain(cp, np.random.default_rng(6), size=200_000)
        edges = np.quantile(h, np.linspace(0.0, 1.0, 26))
        edges[0], edges[-1] = 0.0, np.inf
        counts, _ = np.histogram(h, bins=edges)
        probs = np.empty(len(counts))
        for i in range(len(counts)):
            hi = edges[i + 1] if np.isfinite(edges[i + 1]) else np.inf
            probs[i], _ = integrate.quad(lambda x: _gain_pdf(cp, x), max(edges[i], 1e-12), hi, limit=200)
        probs /= probs.sum()
        res = stats.chisquare(counts, probs * len(h))
        assert res.pvalue > 0.01


class TestFractionalMoment:
    def test_zeroth_moment_is_one(self):
        cp = ChannelParams(m=2.3, mu=0.4, sigma2=0.7, alpha=3.0)
        for law in (WeightLaw.nearest(), WeightLaw.unit(), WeightLaw.lognormal(0.2, 0.3)):
            assert fractional_moment(cp, law, 0.0) == pytest.approx(1.0)

    def test_nearest_always_one(self):
        cp = ChannelParams(m=0.7, mu=1.0, sigma2=2.0, alpha=4.0)
        assert fractional_moment(cp, WeightLaw.nearest(), 1.7) == 1.0
        assert fractional_moment(cp, WeightLaw.nearest(), -1.7) == 1.0

    def test_half_moment_gamma_value(self):
        # E[H^0.5] for exponential H: Gamma(1.5)
        value = fractional_moment(RAYLEIGH, WeightLaw.unit(), 0.5)
        assert value == pytest.approx(math.gamma(1.5), rel=1e-12)

    def test_half_moment_quadrature_oracle(self):
        # independent check: integrate h^p against the mixture density
        cp = ChannelParams(m=1.0, mu=0.2, sigma2=0.4, alpha=4.0)
        oracle, _ = integrate.quad(lambda h: h**0.5 * _gain_pdf(cp, h), 0.0, np.inf, limit=200)
        assert fractional_moment(cp, WeightLaw.unit(), 0.5) == pytest.approx(oracle, abs=1e-6)

    def test_divergence_flagged(self):
        cp = ChannelParams(m=0.4, mu=0.0, sigma2=0.0, alpha=4.0)
        assert math.isinf(fractional_moment(cp, WeightLaw.unit(), -0.5))

    def test_past_float_range_is_inf(self):
        cp = ChannelParams(m=1.0, mu=0.0, sigma2=1e4, alpha=4.0)
        assert math.isinf(fractional_moment(cp, WeightLaw.unit(), 0.5))

    def test_lognormal_weight_factor(self):
        cp = ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0)
        p = 0.5
        base = fractional_moment(cp, WeightLaw.unit(), p)
        value = fractional_moment(cp, WeightLaw.lognormal(0.3, 0.8), p)
        assert value == pytest.approx(base * math.exp(p * 0.3 + p * p * 0.4), rel=1e-12)

    @pytest.mark.parametrize("m", [0.8, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_sample_moments_match(self, m, alpha):
        cp = ChannelParams(m=m, mu=0.1, sigma2=0.3, alpha=alpha)
        h = sample_gain(cp, np.random.default_rng(int(m * 10 + alpha)), size=400_000)
        for p in (2.0 / alpha, -2.0 / alpha):
            analytic = fractional_moment(cp, WeightLaw.unit(), p)
            vals = h**p
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            assert abs(vals.mean() - analytic) < 3.0 * se


class TestZetaDagger:
    def test_nearest_is_one(self):
        cp = ChannelParams(m=0.9, mu=0.5, sigma2=1.5, alpha=3.5)
        assert zeta_dagger(cp, WeightLaw.nearest()) == 1.0

    def test_rayleigh_alpha4_is_half_pi(self):
        assert zeta_dagger(RAYLEIGH, WeightLaw.unit()) == pytest.approx(math.pi / 2.0, rel=1e-12)

    @pytest.mark.parametrize("s2", [0.25, 1.0, 3.3932151100739185])
    def test_shadowing_factor(self, s2):
        cp = ChannelParams(m=1.0, mu=0.0, sigma2=s2, alpha=4.0)
        expected = (math.pi / 2.0) * math.exp(4.0 * s2 / 16.0)
        assert zeta_dagger(cp, WeightLaw.unit()) == pytest.approx(expected, rel=1e-12)

    def test_mu_invariance(self):
        values = [
            zeta_dagger(ChannelParams(m=1.3, mu=mu, sigma2=0.6, alpha=3.7), WeightLaw.unit())
            for mu in (-2.0, -0.5, 0.0, 1.0, 3.0)
        ]
        assert np.allclose(values, values[0], rtol=1e-12)

    def test_at_least_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = rng.uniform(2.5, 6.0)
            cp = ChannelParams(
                m=rng.uniform(2.0 / alpha + 0.05, 5.0),
                mu=rng.uniform(-1, 1),
                sigma2=rng.uniform(0, 2),
                alpha=alpha,
            )
            law = WeightLaw.unit() if rng.random() < 0.5 else WeightLaw.lognormal(
                rng.uniform(-1, 1), rng.uniform(0, 1)
            )
            assert zeta_dagger(cp, law) >= 1.0

    def test_divergent(self):
        cp = ChannelParams(m=0.4, mu=0.0, sigma2=0.0, alpha=4.0)
        assert math.isinf(zeta_dagger(cp, WeightLaw.unit()))


def reference_gain(cp, rng, size):
    """Two-stage draw with the scale passed to ``rng.gamma`` as an array."""
    x = np.exp(rng.normal(cp.mu, math.sqrt(cp.sigma2), size=size))
    return rng.gamma(shape=cp.m, scale=x / cp.m, size=size)


class TestSampleGainReference:
    # () is one draw with no axis; the last two sizes span several chunks of
    # standard-gamma factors.
    @pytest.mark.parametrize("size", [(), 1, 257, (3, 5), (0, 4),
                                      2 * _GAMMA_CHUNK + 3, (3, _GAMMA_CHUNK + 1)])
    @pytest.mark.parametrize("sigma2", [0.0, 3.39])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.7])
    def test_same_values_and_stream(self, m, sigma2, size):
        cp = ChannelParams(m=m, mu=0.2, sigma2=sigma2, alpha=4.0)
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(3):
            h = sample_gain(cp, rng, size=size)
            expected = reference_gain(cp, ref_rng, size=size)
            assert np.array_equal(h, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestWeightLaw:
    def test_lognormal_weights_positive(self):
        law = WeightLaw.lognormal(-0.3, 1.2)
        w = law.sample_weights(10_000, np.random.default_rng(8))
        assert np.all(w > 0)

    @pytest.mark.parametrize("law", [WeightLaw.unit(), WeightLaw.nearest()])
    def test_ones_draw_nothing(self, law):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        w = law.sample_weights((4, 3), rng)
        assert w.shape == (4, 3) and np.all(w == 1.0)
        assert rng.bit_generator.state == state

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WeightLaw(kind="strongest")


class TestDbConventions:
    def test_sigma_in_db(self):
        s2 = shadowing_sigma2_from_db(8.0, SIGMA_IN_DB)
        assert s2 == pytest.approx((8.0 * math.log(10) / 10.0) ** 2, rel=1e-12)

    def test_sigma2_in_db(self):
        s2 = shadowing_sigma2_from_db(8.0, SIGMA2_IN_DB)
        assert s2 == pytest.approx(8.0 * (math.log(10) / 10.0) ** 2, rel=1e-12)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            shadowing_sigma2_from_db(8.0, "sigma-in-nepers")
