import math

import numpy as np
import pytest
from scipy import stats
from scipy.spatial import cKDTree

from voidnet.analytics import (
    EstimateWithCI,
    VORONOI_SHAPE,
    mapped_intensity,
    pooled_fraction,
    rho_strongest_power,
    user_count_pmf,
    void_prob_bounds,
    void_prob_nearest,
    void_prob_rca,
    wilson_interval,
)
from voidnet.channel import ChannelParams, WeightLaw, zeta_dagger
from voidnet.geometry import SimulationWindow
from voidnet.pointprocess import rep_rng, sample_ppp


def test_voronoi_area_oracle_ks():
    # empirical cell areas measured by fine-grid integration of
    # nearest-station membership on the torus
    lam = 100.0
    side = math.sqrt(8.0 / lam)
    window = SimulationWindow(side=side)
    ngrid = 96
    g = (np.arange(ngrid) + 0.5) * side / ngrid
    gx, gy = np.meshgrid(g, g)
    grid_pts = np.column_stack([gx.ravel(), gy.ravel()])
    pixel = (side / ngrid) ** 2
    areas = []
    for r in range(1000):
        bs = sample_ppp(lam, window, rep_rng(31, r))
        if len(bs) == 0:
            continue
        _, idx = cKDTree(bs.points, boxsize=side).query(grid_pts)
        areas.extend(np.bincount(idx, minlength=len(bs)) * pixel)
    areas = np.asarray(areas)
    res = stats.kstest(areas, stats.gamma(a=VORONOI_SHAPE, scale=1.0 / (VORONOI_SHAPE * lam)).cdf)
    assert res.statistic < 1.628 / math.sqrt(len(areas))  # 1% critical value


class TestUserCountPmf:
    def test_zero_bin_closed_form(self):
        lu, lb = 370.0, 185.0
        expected = (1.0 + lu / (VORONOI_SHAPE * lb)) ** (-VORONOI_SHAPE)
        assert user_count_pmf(0, lu, lb) == pytest.approx(expected, rel=1e-12)

    def test_normalization(self):
        n = np.arange(201)
        total = user_count_pmf(n, 370.0, 185.0).sum()
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mean_is_intensity_ratio(self):
        n = np.arange(400)
        mean = (n * user_count_pmf(n, 370.0, 185.0)).sum()
        assert mean == pytest.approx(2.0, abs=1e-6)

    def test_negative_binomial_reduction(self):
        # the mixed-Poisson closed form is a negative binomial with
        # r = shape and success probability shape*lb / (shape*lb + lu)
        lu, lb = 200.0, 130.0
        n = np.arange(60)
        p_succ = VORONOI_SHAPE * lb / (VORONOI_SHAPE * lb + lu)
        assert np.allclose(
            user_count_pmf(n, lu, lb), stats.nbinom(VORONOI_SHAPE, p_succ).pmf(n), rtol=1e-10
        )

    def test_values_in_unit_interval(self):
        vals = user_count_pmf(np.arange(50), 500.0, 100.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_no_users_point_mass(self):
        assert user_count_pmf(0, 0.0, 100.0) == 1.0
        assert user_count_pmf(3, 0.0, 100.0) == 0.0


class TestVoidProbNearest:
    def test_no_users(self):
        assert void_prob_nearest(0.0, 100.0) == 1.0

    def test_ratio_two(self):
        assert void_prob_nearest(370.0, 185.0) == pytest.approx(0.2055742630, abs=1e-9)

    def test_monotone_to_zero(self):
        values = [void_prob_nearest(r * 100.0, 100.0) for r in (1, 2, 5, 20, 100, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4

    def test_matches_pmf_zero_bin(self):
        assert void_prob_nearest(370.0, 185.0) == pytest.approx(user_count_pmf(0, 370.0, 185.0))


class TestVoidProbBounds:
    def test_ratio_two_unit_zeta(self):
        lower, upper = void_prob_bounds(200.0, 100.0, 1.0)
        assert lower == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert upper == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_huge_zeta_collapses(self):
        lower, upper = void_prob_bounds(200.0, 100.0, 1e6)
        assert upper - lower < 1e-4

    def test_no_users(self):
        assert void_prob_bounds(0.0, 100.0, 2.0) == (1.0, 1.0)

    def test_divergent_zeta_flag(self):
        lower, upper = void_prob_bounds(200.0, 100.0, math.inf)
        assert lower == upper == pytest.approx(math.exp(-2.0))

    def test_order(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            lu, lb = rng.uniform(10, 500), rng.uniform(10, 500)
            zd = rng.uniform(1.0, 50.0)
            lower, upper = void_prob_bounds(lu, lb, zd)
            assert lower <= upper


class TestVoidProbRca:
    def test_reduces_to_nearest(self):
        assert void_prob_rca(370.0, 185.0, VORONOI_SHAPE) == void_prob_nearest(370.0, 185.0)

    def test_rayleigh_strongest_power_value(self):
        # m=1, alpha=4, no shadowing: rho = 3.5 * pi/2
        rho = 3.5 * math.pi / 2.0
        assert void_prob_rca(370.0, 185.0, rho) == pytest.approx(0.1816350471, abs=1e-9)

    def test_limit_is_jensen_floor(self):
        assert void_prob_rca(200.0, 100.0, math.inf) == pytest.approx(math.exp(-2.0))
        assert void_prob_rca(200.0, 100.0, 1e9) == pytest.approx(math.exp(-2.0), abs=1e-8)

    def test_strictly_inside_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            lu, lb = rng.uniform(10, 500), rng.uniform(10, 500)
            zd = rng.uniform(1.0 + 1e-9, 40.0)
            rho = VORONOI_SHAPE * zd
            lower, upper = void_prob_bounds(lu, lb, zd)
            p = void_prob_rca(lu, lb, rho)
            assert lower < p < upper

    def test_monotone_in_rho_and_ratio(self):
        rhos = np.linspace(3.5, 60.0, 30)
        vals = [void_prob_rca(200.0, 100.0, r) for r in rhos]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        ratios = np.linspace(0.2, 10.0, 30)
        vals = [void_prob_rca(r * 100.0, 100.0, 7.0) for r in ratios]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestRhoStrongestPower:
    def test_degenerate_channel(self):
        assert rho_strongest_power(1e6, 0.0, 4.0) == pytest.approx(3.5, abs=1e-4)

    def test_rayleigh_alpha4(self):
        assert rho_strongest_power(1.0, 0.0, 4.0) == pytest.approx(3.5 * math.pi / 2.0, rel=1e-12)

    def test_matches_moment_product_on_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            alpha = rng.uniform(2.5, 6.0)
            m = rng.uniform(2.0 / alpha + 0.05, 5.0)
            s2 = rng.uniform(0.0, 2.0)
            cp = ChannelParams(m=m, mu=0.0, sigma2=s2, alpha=alpha)
            expected = 3.5 * zeta_dagger(cp, WeightLaw.unit())
            assert rho_strongest_power(m, s2, alpha) == pytest.approx(expected, abs=1e-10)

    def test_divergence(self):
        assert math.isinf(rho_strongest_power(0.5, 0.0, 4.0))

    def test_shadowing_mean_never_enters(self):
        # the defining moment product cancels mu, so rho needs no mu at all
        values = [
            3.5 * zeta_dagger(ChannelParams(m=1.0, mu=mu, sigma2=0.7, alpha=4.0), WeightLaw.unit())
            for mu in (-3.0, 0.0, 2.0)
        ]
        assert np.allclose(values, rho_strongest_power(1.0, 0.7, 4.0), rtol=1e-12)


class TestMappedIntensity:
    def test_identity(self):
        assert mapped_intensity(1.0, 1.0) == 1.0

    def test_deterministic_two(self):
        assert mapped_intensity(50.0, 0.25) == pytest.approx(12.5)

    def test_association_transform(self):
        cp = ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0)
        from voidnet.channel import fractional_moment

        moment = fractional_moment(cp, WeightLaw.unit(), 0.5)
        assert mapped_intensity(185.0, moment) == pytest.approx(185.0 * math.gamma(1.5))

    def test_invalid(self):
        with pytest.raises(ValueError):
            mapped_intensity(-1.0, 1.0)


class TestEstimateMachinery:
    def test_interval_contains_value(self):
        with pytest.raises(ValueError):
            EstimateWithCI(value=0.5, ci_low=0.6, ci_high=0.7, reps=10)

    def test_wilson_contains_p_hat(self):
        for p in (0.0, 0.02, 0.5, 0.97, 1.0):
            lo, hi = wilson_interval(p, 40)
            assert lo - 1e-12 <= p <= hi + 1e-12

    def test_pooled_fraction_simple(self):
        p, lo, hi = pooled_fraction([2, 3, 1, 2], [10, 10, 10, 10])
        assert p == pytest.approx(0.2)
        assert lo < 0.2 < hi

    def test_pooled_fraction_degenerate(self):
        p, lo, hi = pooled_fraction([10, 10], [10, 10])
        assert p == 1.0 and hi == 1.0

    @pytest.mark.parametrize("v,n,expected", [
        # the cell-count cap binds (under-dispersed replications)
        ([2, 3, 1, 2], [10, 10, 10, 10], (0.2, 0.10499989725437704, 0.347573063463995)),
        # the cluster variance sets the width
        ([0, 7, 1, 5, 2], [40, 41, 38, 45, 39],
         (0.07389162561576355, 0.03276169523447543, 0.15821115688112541)),
    ], ids=["capped", "cluster"])
    def test_pooled_fraction_indicator_squares_change_nothing(self, v, n, expected):
        # 0/1 cells have sum(w^2) = sum(w), so their per-cell variance floor
        # is the cell count and passing the squares gives the same bits.
        assert pooled_fraction(v, n) == expected
        assert pooled_fraction(v, n, squares=v) == expected

    def test_pooled_fraction_thinned_weights_cover_at_nominal_rate(self):
        # Void weights (1 - p)^K of gamma(3.5)-area cells holding
        # K ~ Poisson(r_top * area) users, 40 replications of 200 cells:
        # their mean is (1 + p r_top / 3.5)^-3.5.  The floor from their
        # squares gives a 95% interval; the cell-count cap of 0/1 cells
        # over-covers, since these weights spread less than indicators.
        rng = np.random.default_rng(2024)
        p, r_top = 1.0 / 8.0, 8.0
        truth = (1.0 + p * r_top / VORONOI_SHAPE) ** -VORONOI_SHAPE
        sets, reps, cells = 2000, 40, 200
        covered = capped_covered = 0
        for _ in range(sets):
            area = rng.gamma(VORONOI_SHAPE, 1.0 / VORONOI_SHAPE, size=(reps, cells))
            w = (1.0 - p) ** rng.poisson(r_top * area)
            v, n = w.sum(axis=1), np.full(reps, cells)
            _, lo, hi = pooled_fraction(v, n, squares=(w * w).sum(axis=1))
            covered += lo <= truth <= hi
            _, lo, hi = pooled_fraction(v, n)
            capped_covered += lo <= truth <= hi
        assert 0.93 <= covered / sets <= 0.97
        assert capped_covered / sets > 0.985

    def test_pooled_fraction_widens_under_correlation(self):
        # strongly correlated replications must produce wider intervals
        rng = np.random.default_rng(12)
        iid_v = rng.binomial(100, 0.3, size=50)
        _, lo1, hi1 = pooled_fraction(iid_v, np.full(50, 100))
        clustered_v = np.where(rng.random(50) < 0.3, 100, 0)
        _, lo2, hi2 = pooled_fraction(clustered_v, np.full(50, 100))
        assert (hi2 - lo2) > (hi1 - lo1)
