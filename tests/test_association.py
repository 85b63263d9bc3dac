import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from voidnet.analytics import pooled_fraction, user_count_pmf, void_prob_nearest, wilson_interval
from voidnet.association import (
    ASSOCIATE_BLOCK_ROWS,
    NEAR_TIE_RTOL,
    _cell_histograms,
    _void_estimates,
    associate,
    associated_pattern,
    cell_count_pmf_mc,
    void_probability_mc,
    void_probability_sweep,
)
from voidnet.channel import ChannelParams, WeightLaw, sample_gain
from voidnet.geometry import SimulationWindow, pairwise_distances
from voidnet.pointprocess import PointPattern, rep_rng, sample_ppp

RAYLEIGH = ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0)
WINDOW = SimulationWindow(side=10.0)


def pattern(points, intensity=1.0, window=WINDOW):
    return PointPattern(points=np.asarray(points, dtype=float), window=window,
                        intensity_declared=intensity)


class TestAssociate:
    def test_single_station_takes_everyone(self):
        bs = pattern([[5.0, 5.0]])
        users = sample_ppp(1.0, WINDOW, np.random.default_rng(0))
        out = associate(bs, users, RAYLEIGH, WeightLaw.unit(), np.random.default_rng(1))
        assert np.all(out.assignments == 0)
        assert out.void_count == 0

    def test_nearest_picks_closer_station(self):
        bs = pattern([[2.5, 5.0], [7.5, 5.0]])
        users = pattern([[4.0, 5.0]])
        out = associate(bs, users, RAYLEIGH, WeightLaw.nearest(), np.random.default_rng(2))
        assert out.assignments[0] == 0
        assert out.serving_distance[0] == pytest.approx(1.5)

    def test_empty_station_pattern_rejected(self):
        bs = pattern(np.zeros((0, 2)), intensity=0.0)
        users = pattern([[1.0, 1.0]])
        with pytest.raises(ValueError):
            associate(bs, users, RAYLEIGH, WeightLaw.nearest(), np.random.default_rng(3))

    def test_every_user_served_once(self):
        rng = rep_rng(4, 0)
        bs = sample_ppp(3.0, WINDOW, rng)
        users = sample_ppp(5.0, WINDOW, rng)
        out = associate(bs, users, RAYLEIGH, WeightLaw.unit(), rng)
        assert out.cell_counts.sum() == len(users)
        assert len(out.assignments) == len(users)
        assert out.void_count == int(np.sum(out.cell_counts == 0))

    def test_nearest_ignores_gain_stream(self):
        rng = rep_rng(5, 0)
        bs = sample_ppp(3.0, WINDOW, rng)
        users = sample_ppp(5.0, WINDOW, rng)
        out1 = associate(bs, users, RAYLEIGH, WeightLaw.nearest(), np.random.default_rng(100))
        out2 = associate(bs, users, RAYLEIGH, WeightLaw.nearest(), np.random.default_rng(999))
        assert np.array_equal(out1.assignments, out2.assignments)

    def test_weight_scaling_invariance(self):
        # shifting the log-weight mean scales every weight by a constant;
        # with identical streams the assignments cannot move
        rng1 = rep_rng(6, 0)
        bs = sample_ppp(3.0, WINDOW, rng1)
        users = sample_ppp(5.0, WINDOW, rng1)
        out_a = associate(bs, users, RAYLEIGH, WeightLaw.lognormal(0.0, 0.5), rep_rng(7, 0))
        out_b = associate(bs, users, RAYLEIGH, WeightLaw.lognormal(2.0, 0.5), rep_rng(7, 0))
        assert not np.allclose(out_a.serving_weight, out_b.serving_weight)
        assert np.allclose(out_b.serving_weight, math.exp(2.0) * out_a.serving_weight)
        assert np.array_equal(out_a.assignments, out_b.assignments)

    def test_lognormal_weights_drawn_per_link(self):
        # users of one station must not share a single station weight
        rng = rep_rng(14, 0)
        bs = sample_ppp(1.0, WINDOW, rng)
        users = sample_ppp(8.0, WINDOW, rng)
        out = associate(bs, users, RAYLEIGH, WeightLaw.lognormal(0.0, 1.0), rng)
        busiest = int(np.argmax(out.cell_counts))
        weights = out.serving_weight[out.assignments == busiest]
        assert len(weights) >= 2
        assert len(np.unique(weights)) == len(weights)

    def test_nearest_serving_weight_cancels_gain(self):
        rng = rep_rng(15, 0)
        bs = sample_ppp(2.0, WINDOW, rng)
        users = sample_ppp(4.0, WINDOW, rng)
        out = associate(bs, users, RAYLEIGH, WeightLaw.nearest(), rng)
        assert np.allclose(out.serving_weight * out.serving_gain, 1.0)

    def test_coincident_user_and_station(self):
        bs = pattern([[5.0, 5.0], [1.0, 1.0]])
        users = pattern([[5.0, 5.0]])
        out = associate(bs, users, RAYLEIGH, WeightLaw.unit(), np.random.default_rng(8))
        assert out.assignments[0] == 0
        assert out.serving_distance[0] == 0.0


def reference_associate(bs, users, cp, law, rng):
    """Unblocked criterion over full matrices, runner-up by ``np.partition``."""
    n_u, n_b = len(users), len(bs)
    dist = pairwise_distances(users.points, bs.points, bs.window)
    weights = law.sample_weights((n_u, n_b), rng)
    gains = sample_gain(cp, rng, size=(n_u, n_b))
    with np.errstate(divide="ignore"):
        criterion = weights * gains * dist ** (-cp.alpha)
    rows = np.arange(n_u)
    assignments = np.argmax(criterion, axis=1)
    near_tie_fraction = 0.0
    if n_u and n_b >= 2:
        second = np.partition(criterion, n_b - 2, axis=1)[:, n_b - 2]
        near_tie = second / criterion[rows, assignments] > 1.0 - NEAR_TIE_RTOL
        near_tie_fraction = float(np.mean(near_tie))
    return (assignments, dist[rows, assignments], weights[rows, assignments],
            gains[rows, assignments], near_tie_fraction)


class TestAssociateReference:
    """The blocked dense kernel against the unblocked one it replaced."""

    SHADOWED = ChannelParams(m=1.0, mu=0.0, sigma2=3.39, alpha=4.0)

    @pytest.mark.parametrize("law", [WeightLaw.unit(), WeightLaw.lognormal(0.0, 4.0)],
                             ids=["unit", "lognormal"])
    @pytest.mark.parametrize("n_u,n_b", [(2 * ASSOCIATE_BLOCK_ROWS + 37, 60),
                                         (ASSOCIATE_BLOCK_ROWS, 9), (300, 1), (0, 5)])
    def test_bit_identical(self, law, n_u, n_b):
        rng = np.random.default_rng(n_u + n_b)
        users = pattern(rng.uniform(0.0, 10.0, (n_u, 2)))
        bs = pattern(rng.uniform(0.0, 10.0, (n_b, 2)))
        got_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        out = associate(bs, users, self.SHADOWED, law, got_rng)
        ref = reference_associate(bs, users, self.SHADOWED, law, ref_rng)
        got = (out.assignments, out.serving_distance, out.serving_weight,
               out.serving_gain, out.near_tie_fraction)
        for field, value, expected in zip(("assignments", "distance", "weight", "gain", "tie"),
                                          got, ref):
            assert np.array_equal(value, expected), field
        assert out.assignments.dtype == ref[0].dtype
        assert out.serving_weight.flags.writeable  # a fresh array, not the ones view
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        if n_u > ASSOCIATE_BLOCK_ROWS and n_b > 1:
            assert 0.0 < out.near_tie_fraction < 1.0


class TestVoidProbabilityMc:
    def test_no_users_gives_one(self):
        est = void_probability_mc(50.0, 0.0, RAYLEIGH, WeightLaw.nearest(), 5,
                                  SimulationWindow(side=4.0), seed=1)
        assert est.value == 1.0

    def test_nearest_matches_closed_form(self):
        window = SimulationWindow(side=1.645)
        est = void_probability_mc(185.0, 370.0, RAYLEIGH, WeightLaw.nearest(), 60, window, seed=2)
        expected = void_prob_nearest(370.0, 185.0)  # 0.205574
        assert abs(est.value - expected) < 3.0 * est.se

    def test_heavy_shadowing_approaches_floor_from_above(self):
        cp = ChannelParams(m=1.0, mu=0.0, sigma2=9.0, alpha=4.0)
        window = SimulationWindow(side=1.645)
        est = void_probability_mc(185.0, 370.0, cp, WeightLaw.unit(), 40, window, seed=44)
        floor = math.exp(-2.0)
        assert est.value > floor - 3.0 * est.se
        assert est.value < 0.1816  # below the no-shadowing level

    def test_divergent_moment_warns(self):
        cp = ChannelParams(m=0.4, mu=0.0, sigma2=0.0, alpha=4.0)
        with pytest.warns(UserWarning, match="diverges"):
            void_probability_mc(50.0, 100.0, cp, WeightLaw.unit(), 2,
                                SimulationWindow(side=2.0), seed=3)
        # m > 2/alpha, but the moments overflow the float range
        overflow = ChannelParams(m=1.0, mu=0.0, sigma2=1e4, alpha=4.0)
        with pytest.warns(UserWarning, match="diverges .*float range"):
            void_probability_mc(50.0, 100.0, overflow, WeightLaw.unit(), 2,
                                SimulationWindow(side=2.0), seed=3)

    def test_reps_validated(self):
        with pytest.raises(ValueError):
            void_probability_mc(50.0, 100.0, RAYLEIGH, WeightLaw.nearest(), 0,
                                SimulationWindow(side=2.0), seed=4)

    def test_large_weighting_reaches_floor(self):
        # the floor exp(-lambda_u/lambda_b) is attained by large per-link
        # weighting (rho = 3.5 zeta_dagger ~ 300 here, 0.1362 vs 0.1353)
        window = SimulationWindow(side=1.645)
        law = WeightLaw.lognormal(0.0, 16.0)
        est = void_probability_mc(185.0, 370.0, RAYLEIGH, law, 20, window, seed=45)
        assert abs(est.value - math.exp(-2.0)) < 3.0 * est.se

    def test_lognormal_weight_folds_into_shadowing(self):
        # W H with ln W ~ N(mu_w, s2_w) has the law of a unit-weight gain
        # whose shadowing is N(mu + mu_w, s2 + s2_w)
        window = SimulationWindow(side=1.645)
        cp = ChannelParams(m=1.49, mu=0.0, sigma2=1.49, alpha=3.52)
        folded = ChannelParams(m=1.49, mu=0.21, sigma2=1.49 + 0.99, alpha=3.52)
        weighted = void_probability_mc(185.0, 370.0, cp, WeightLaw.lognormal(0.21, 0.99), 24,
                                       window, seed=46)
        unit = void_probability_mc(185.0, 370.0, folded, WeightLaw.unit(), 24, window, seed=47)
        assert abs(weighted.value - unit.value) < 3.0 * math.hypot(weighted.se, unit.se)

    def test_half_width_target_met_sequentially(self):
        window = SimulationWindow(side=1.645)
        args = (185.0, 370.0, RAYLEIGH, WeightLaw.nearest())
        first = void_probability_mc(*args, 4, window, seed=48)
        assert first.half_width > 0.01  # the first batch alone misses the target
        est = void_probability_mc(*args, 4, window, seed=48, half_width=0.01)
        assert est.half_width <= 0.01
        assert est.reps > 4 and est.reps % 4 == 0
        # later batches continue the rep_rng(seed, r) streams
        fixed = void_probability_mc(*args, est.reps, window, seed=48)
        assert (est.value, est.ci_low, est.ci_high) == (fixed.value, fixed.ci_low, fixed.ci_high)

    def test_half_width_met_by_first_batch_is_identical(self):
        window = SimulationWindow(side=1.645)
        args = (185.0, 370.0, RAYLEIGH, WeightLaw.unit(), 10, window)
        fixed = void_probability_mc(*args, seed=49)
        targeted = void_probability_mc(*args, seed=49, half_width=0.05)
        assert targeted == fixed

    def test_unreachable_half_width_raises(self):
        window = SimulationWindow(side=1.0)
        with pytest.raises(RuntimeError, match="half-width"):
            void_probability_mc(50.0, 100.0, RAYLEIGH, WeightLaw.nearest(), 1, window,
                                seed=50, half_width=1e-6)
        with pytest.raises(ValueError):
            void_probability_mc(50.0, 100.0, RAYLEIGH, WeightLaw.nearest(), 1, window,
                                seed=50, half_width=0.0)


class TestVoidProbabilitySweep:
    """One draw at the top ratio, thinned to every grid ratio."""

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=4),
           st.floats(0.01, 1.0))
    def test_thinned_void_weight_is_exact(self, cell_users, p):
        # Enumerate every retained subset of the users: the expected void
        # count after independent p-thinning is sum_i (1 - p)^K_i.
        owner = [cell for cell, k in enumerate(cell_users) for _ in range(k)]
        expected = 0.0
        for kept in itertools.product((False, True), repeat=len(owner)):
            prob = math.prod(p if keep else 1.0 - p for keep in kept)
            served = {cell for cell, keep in zip(owner, kept) if keep}
            expected += prob * (len(cell_users) - len(served))
        hist = np.bincount(cell_users, minlength=1)
        [est] = _void_estimates([hist], [p], seed=0)
        assert est.value * len(cell_users) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @given(st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=8), min_size=1, max_size=6),
           st.floats(0.0, 1.0, exclude_min=True))
    def test_thinned_interval_within_cell_count_capped_one(self, rows, p):
        # Weights (1 - p)^K in [0, 1] have per-cell variance s^2 <= p(1 - p),
        # so their floor never caps n_eff below the cell count: the interval
        # nests inside the one capped there.  The p = 1 column is the 0/1
        # void count and keeps the cell-count cap bit for bit.
        hists = [np.array(h) for h in rows]
        assume(sum(h.sum() for h in hists) > 0)
        thinned, indicator = _void_estimates(hists, [p, 1.0], seed=0)
        width = max(len(h) for h in hists)
        counts = np.array([np.pad(h, (0, width - len(h))) for h in hists])
        cells = counts.sum(axis=1)
        voids = counts @ (1.0 - np.array([p, 1.0])) ** np.arange(width)[:, None]
        value, lo, hi = pooled_fraction(voids[:, 0], cells)
        assert thinned.value == value
        assert lo - 1e-12 <= thinned.ci_low and thinned.ci_high <= hi + 1e-12
        assert (indicator.value, indicator.ci_low, indicator.ci_high) == pooled_fraction(
            counts[:, 0], cells)

    def test_thinned_row_beats_binomial_over_cells(self):
        # Capped at the cell count, no row's half-width could fall below the
        # binomial one over its cells; the (1 - p)^K floor lets ratio 0.5 do so.
        grid, window, reps, seed = (0.5, 8.0), SimulationWindow(side=2.0), 12, 54
        low, _ = void_probability_sweep(grid, 370.0, RAYLEIGH, WeightLaw.nearest(), reps,
                                        window, seed)
        hists = _cell_histograms(370.0 / 8.0, 370.0, RAYLEIGH, WeightLaw.nearest(), reps,
                                 window, seed, None)
        lo, hi = wilson_interval(low.value, sum(h.sum() for h in hists))
        assert low.half_width < 0.8 * (hi - lo) / 2.0

    @given(st.integers(0, 10_000))
    def test_one_draw_non_increasing_in_ratio(self, seed):
        grid = (0.5, 1.0, 2.0, 4.0)
        ests = void_probability_sweep(grid, 370.0, RAYLEIGH, WeightLaw.nearest(), 1,
                                      SimulationWindow(side=1.2), seed)
        values = [e.value for e in ests]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("half_width", [None, 0.02])
    def test_single_ratio_is_void_probability_mc(self, half_width):
        window = SimulationWindow(side=1.645)
        [est] = void_probability_sweep((2.0,), 370.0, RAYLEIGH, WeightLaw.unit(), 4, window,
                                       seed=51, half_width=half_width)
        assert est == void_probability_mc(185.0, 370.0, RAYLEIGH, WeightLaw.unit(), 4, window,
                                          seed=51, half_width=half_width)

    def test_half_width_met_at_every_ratio(self):
        window = SimulationWindow(side=2.4)
        args = ((0.5, 1.0, 4.0), 370.0, RAYLEIGH, WeightLaw.nearest())
        ests = void_probability_sweep(*args, 4, window, seed=52, half_width=0.01)
        assert all(e.half_width <= 0.01 for e in ests)
        reps = {e.reps for e in ests}
        assert len(reps) == 1 and reps.pop() % 4 == 0
        fixed = void_probability_sweep(*args, ests[0].reps, window, seed=52)
        assert fixed == ests

    @pytest.mark.parametrize("grid", [(), (0.0, 1.0), (-1.0,), (math.inf,)])
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="ratio grid"):
            void_probability_sweep(grid, 370.0, RAYLEIGH, WeightLaw.nearest(), 1,
                                   SimulationWindow(side=1.0), seed=53)


class TestCellCountPmf:
    def test_no_users_point_mass(self):
        pmf = cell_count_pmf_mc(50.0, 0.0, RAYLEIGH, WeightLaw.nearest(), 5,
                                SimulationWindow(side=4.0), seed=5)
        assert pmf.pmf[0] == 1.0
        assert len(pmf.n_values) == 1

    def test_matches_closed_form_bins(self):
        window = SimulationWindow(side=1.2)
        lu = lb = 370.0
        pmf = cell_count_pmf_mc(lb, lu, RAYLEIGH, WeightLaw.nearest(), 80, window, seed=6)
        for n in range(9):
            se = (pmf.ci_high[n] - pmf.ci_low[n]) / 2.0 / 1.959963984540054
            expected = user_count_pmf(n, lu, lb)
            assert abs(pmf.pmf[n] - expected) < 3.0 * max(se, 1e-4)

    def test_mean_mass_conservation(self):
        window = SimulationWindow(side=1.645)
        pmf = cell_count_pmf_mc(185.0, 370.0, RAYLEIGH, WeightLaw.nearest(), 40, window, seed=7)
        # ratio estimator of total users / total cells; both totals Poisson
        reps, area = 40, window.sampling_area()
        se = 2.0 * math.sqrt(1.0 / (370.0 * area * reps) + 1.0 / (185.0 * area * reps))
        assert abs(pmf.mean - 2.0) < 3.0 * se

    def test_zero_bin_equals_void_estimate_on_same_stream(self):
        window = SimulationWindow(side=1.645)
        args = (185.0, 370.0, RAYLEIGH, WeightLaw.nearest(), 12, window)
        pmf = cell_count_pmf_mc(*args, seed=8)
        est = void_probability_mc(*args, seed=8)
        assert pmf.pmf[0] == pytest.approx(est.value, rel=1e-12)

    def test_half_width_target_on_zero_bin(self):
        window = SimulationWindow(side=1.645)
        args = (185.0, 370.0, RAYLEIGH, WeightLaw.nearest(), 4, window)
        pmf = cell_count_pmf_mc(*args, seed=48, half_width=0.01)
        assert (pmf.ci_high[0] - pmf.ci_low[0]) / 2.0 <= 0.01
        assert pmf.reps > 4 and pmf.reps % 4 == 0
        fixed = cell_count_pmf_mc(*args[:4], pmf.reps, window, seed=48)
        for name in ("n_values", "pmf", "ci_low", "ci_high"):
            assert np.array_equal(getattr(pmf, name), getattr(fixed, name))
        assert (pmf.mean, pmf.reps) == (fixed.mean, fixed.reps)
        est = void_probability_mc(*args, seed=48, half_width=0.01)
        assert (pmf.pmf[0], pmf.ci_low[0], pmf.ci_high[0], pmf.reps) == (
            est.value, est.ci_low, est.ci_high, est.reps)


class TestAssociatedPattern:
    def test_no_voids_keeps_everything(self):
        bs = pattern([[2.0, 2.0], [8.0, 8.0]], intensity=0.02)
        users = sample_ppp(2.0, WINDOW, np.random.default_rng(11))
        out = associate(bs, users, RAYLEIGH, WeightLaw.nearest(), np.random.default_rng(12))
        kept = associated_pattern(out, bs)
        assert len(kept) == 2
        assert kept.intensity_declared == pytest.approx(0.02)

    def test_retained_fraction_matches_formula(self):
        window = SimulationWindow(side=1.645)
        retained = []
        for r in range(30):
            rng = rep_rng(13, r)
            bs = sample_ppp(185.0, window, rng)
            users = sample_ppp(370.0, window, rng)
            out = associate(bs, users, RAYLEIGH, WeightLaw.nearest(), rng)
            retained.append(len(associated_pattern(out, bs)) / len(bs))
        retained = np.asarray(retained)
        expected = 1.0 - void_prob_nearest(370.0, 185.0)
        se = retained.std(ddof=1) / math.sqrt(len(retained))
        assert abs(retained.mean() - expected) < 3.0 * se
