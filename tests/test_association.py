import dataclasses
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammaincc

from voidnet import association
from voidnet.analytics import pooled_fraction, user_count_pmf, void_prob_nearest, wilson_interval
from voidnet.association import (
    NEAR_BLOCK_RADIUS,
    NEAR_TIE_RTOL,
    THRESHOLD_TABLE_SIZE,
    AssociationOutcome,
    _CellGrid,
    _dominating_probabilities,
    _draw_dominating,
    _threshold_table,
    _cell_histograms,
    _station_counts,
    _void_estimates,
    associate,
    associated_pattern,
    cell_count_pmf_mc,
    void_probability_mc,
    void_probability_sweep,
)
from voidnet.channel import (
    SIGMA_IN_DB,
    ChannelParams,
    WeightLaw,
    sample_gain,
    shadowing_sigma2_from_db,
)
from voidnet.geometry import SimulationWindow, distances_to_point, pairwise_distances
from voidnet.pointprocess import PointPattern, rep_rng, sample_ppp

RAYLEIGH = ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0)
WINDOW = SimulationWindow(side=10.0)


def pattern(points, window=WINDOW):
    return PointPattern(points=np.asarray(points, dtype=float), window=window)


class TestAssociate:
    def test_single_station_takes_everyone(self):
        bs = pattern([[5.0, 5.0]])
        users = sample_ppp(1.0, WINDOW, np.random.default_rng(0))
        out = associate(bs, users, RAYLEIGH, WeightLaw.unit(), np.random.default_rng(1))
        assert np.all(out.assignments == 0)
        assert np.all(out.cell_counts == [len(users)])

    def test_nearest_picks_closer_station(self):
        bs = pattern([[2.5, 5.0], [7.5, 5.0]])
        users = pattern([[4.0, 5.0]])
        out = associate(bs, users, RAYLEIGH, WeightLaw.nearest(), np.random.default_rng(2))
        assert out.assignments[0] == 0
        assert out.serving_distance[0] == pytest.approx(1.5)

    def test_empty_station_pattern_rejected(self):
        bs = pattern(np.zeros((0, 2)))
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
        assert np.array_equal(out_a.assignments, out_b.assignments)

    def test_coincident_user_and_station(self):
        bs = pattern([[5.0, 5.0], [1.0, 1.0]])
        users = pattern([[5.0, 5.0]])
        out = associate(bs, users, RAYLEIGH, WeightLaw.unit(), np.random.default_rng(8))
        assert out.assignments[0] == 0
        assert out.serving_distance[0] == 0.0


def dense_criterion(bs, users, cp, weights, gains):
    """The criterion over full user-by-station matrices of drawn weights
    and gains, runner-up by ``np.partition``: (assignments, serving
    distance, serving gain, near tie), one entry per user."""
    n_u, n_b = len(users), len(bs)
    dist = pairwise_distances(users.points, bs.points, bs.window)
    with np.errstate(divide="ignore"):
        criterion = weights * gains * dist ** (-cp.alpha)
    rows = np.arange(n_u)
    assignments = np.argmax(criterion, axis=1)
    near_tie = np.zeros(n_u, dtype=bool)
    if n_u and n_b >= 2:
        second = np.partition(criterion, n_b - 2, axis=1)[:, n_b - 2]
        near_tie = second / criterion[rows, assignments] > 1.0 - NEAR_TIE_RTOL
    return assignments, dist[rows, assignments], gains[rows, assignments], near_tie


def reference_associate(bs, users, cp, law, rng):
    """The dense kernel: every link drawn, row by row.  The law the thinned
    kernel must keep."""
    n_u, n_b = len(users), len(bs)
    weights = law.sample_weights((n_u, n_b), rng)
    gains = sample_gain(cp, rng, size=(n_u, n_b))
    *picked, near_tie = dense_criterion(bs, users, cp, weights, gains)
    return (*picked, float(np.mean(near_tie)) if n_u else 0.0)


SHADOWED = ChannelParams(m=1.0, mu=0.0, sigma2=shadowing_sigma2_from_db(8.0, SIGMA_IN_DB),
                         alpha=4.0)


class TestAssociateReference:
    """A grid of at most 2s + 1 cells per side has no far rings, so the
    thinned kernel draws every link; it must then pick what the dense
    kernel picks from the same draws, bit for bit."""

    @pytest.mark.parametrize("law", [WeightLaw.unit(), WeightLaw.lognormal(0.0, 4.0)],
                             ids=["unit", "lognormal"])
    @pytest.mark.parametrize("n_u,n_b", [(549, 60), (256, 9), (300, 1), (0, 5)])
    def test_bit_identical(self, law, n_u, n_b):
        rng = np.random.default_rng(n_u + n_b)
        bs = pattern(rng.uniform(0.0, 10.0, (n_b, 2)))
        users = pattern(rng.uniform(0.0, 10.0, (n_u, 2)))
        grid = _CellGrid(bs)
        assert grid.g <= 2 * NEAR_BLOCK_RADIUS + 1
        out = associate(bs, users, SHADOWED, law, np.random.default_rng(5))

        # The kernel's draws, laid out user by user, each user's stations
        # in the order its near block lists them.
        blocks, block_len = grid.near_blocks()
        assert np.all(block_len == n_b)
        xy = grid.xy_of(users.points)
        order = blocks.reshape(grid.g * grid.g, n_b)[xy[:, 0] * grid.g + xy[:, 1]]
        rows = np.arange(n_u)[:, None]
        draws = np.random.default_rng(5)
        weights, gains = np.empty((n_u, n_b)), np.empty((n_u, n_b))
        weights[rows, order] = law.sample_weights((n_u, n_b), draws)
        gains[rows, order] = sample_gain(SHADOWED, draws, size=(n_u, n_b))
        assignments, distance, gain, near_tie = dense_criterion(bs, users, SHADOWED, weights, gains)

        assert np.array_equal(out.assignments, assignments)
        assert np.array_equal(out.serving_gain, gain)
        assert np.array_equal(out.near_tie, near_tie)
        # hypot against the square root of the summed squares: one ulp apart.
        np.testing.assert_array_max_ulp(out.serving_distance, distance, maxulp=1)


def far_share(bs, users, assignments):
    """Share of users served from beyond their near block."""
    grid = _CellGrid(bs)
    apart = np.abs(grid.xy_of(users.points) - grid.xy_of(bs.points[assignments]))
    return float(np.mean(np.minimum(apart, grid.g - apart).max(axis=1) > NEAR_BLOCK_RADIUS))


class TestAssociateLaw:
    """The thinned kernel against the dense oracle, in law, on fixed networks."""

    SEEDS = 500

    @staticmethod
    def runs(kernel, bs, users, cp, law, seeds):
        winners, distance, gain, ties = [], [], [], 0.0
        for seed in seeds:
            out = kernel(bs, users, cp, law, np.random.default_rng(seed))
            if isinstance(out, AssociationOutcome):
                out = (out.assignments, out.serving_distance, out.serving_gain,
                       out.near_tie_fraction)
            winners.append(out[0])
            distance.append(out[1])
            gain.append(out[2])
            ties += out[3] * len(users)
        return np.array(winners), np.concatenate(distance), np.concatenate(gain), ties

    @pytest.mark.parametrize("cp,law", [
        (SHADOWED, WeightLaw.unit()),
        (SHADOWED, WeightLaw.lognormal(0.0, 4.0)),
        (ChannelParams(m=1.7, mu=0.3, sigma2=1.2, alpha=3.5), WeightLaw.lognormal(-0.4, 0.8)),
    ], ids=["unit-8dB", "lognormal-0,4-8dB", "m1.7-mu0.3-lognormal"])
    def test_matches_dense_reference(self, cp, law):
        rng = np.random.default_rng(7)
        bs = pattern(rng.uniform(0.0, 10.0, (400, 2)))
        users = pattern(rng.uniform(0.0, 10.0, (25, 2)))
        sparse = self.runs(associate, bs, users, cp, law, range(self.SEEDS))
        dense = self.runs(reference_associate, bs, users, cp, law,
                          range(10**6, 10**6 + self.SEEDS))
        # Some winners come from the thinned rings.
        assert sum(far_share(bs, users, w) for w in sparse[0]) * len(users) >= 5

        # Per-user winner frequencies: one 2 x k contingency table per user,
        # stations won fewer than 10 times in both runs pooled into one column.
        chi2, dof = 0.0, 0
        for u in range(len(users)):
            stations, index = np.unique(np.concatenate((sparse[0][:, u], dense[0][:, u])),
                                        return_inverse=True)
            table = np.array([np.bincount(index[:self.SEEDS], minlength=len(stations)),
                              np.bincount(index[self.SEEDS:], minlength=len(stations))])
            common = table.sum(axis=0) >= 10
            table = np.column_stack((table[:, common], table[:, ~common].sum(axis=1)))
            table = table[:, table.sum(axis=0) > 0]
            if table.shape[1] > 1:
                result = stats.chi2_contingency(table, correction=False)
                chi2 += result.statistic
                dof += result.dof
        assert dof > 0
        assert stats.chi2.sf(chi2, dof) > 1e-3, (chi2, dof)
        # Serving distance and gain.  The two kernels round a distance
        # differently in the last bit, so distances compare at 1e-9.
        for name, a, b in (("distance", np.round(sparse[1], 9), np.round(dense[1], 9)),
                           ("gain", sparse[2], dense[2])):
            assert stats.ks_2samp(a, b).pvalue > 1e-3, name
        # Near-tie rate: two binomial proportions over the same user count.
        n = self.SEEDS * len(users)
        p = (sparse[3] + dense[3]) / (2 * n)
        assert abs(sparse[3] - dense[3]) / n <= 3.0 * math.sqrt(2.0 * p * (1.0 - p) / n) + 1e-12

    def test_reproducible_fresh_outputs(self):
        rng = np.random.default_rng(8)
        bs = pattern(rng.uniform(0.0, 10.0, (200, 2)))
        users = pattern(rng.uniform(0.0, 10.0, (300, 2)))
        law = WeightLaw.unit()
        first = associate(bs, users, SHADOWED, law, np.random.default_rng(3))
        again = associate(bs, users, SHADOWED, law, np.random.default_rng(3))
        for field in ("assignments", "serving_distance", "serving_gain", "near_tie"):
            assert np.array_equal(getattr(first, field), getattr(again, field)), field
        assert first.assignments.dtype == np.intp
        assert 0.0 < first.near_tie_fraction < 1.0


def exceed_probability(m, mu, sigma, log_c):
    """P(Y * G / m > c) by quadrature over ln Y (exactly when sigma = 0)."""
    if sigma == 0:
        return float(gammaincc(m, m * math.exp(log_c - mu)))
    value, _ = integrate.quad(
        lambda z: stats.norm.pdf(z) * gammaincc(m, m * math.exp(log_c - mu - sigma * z)),
        -12.0, 12.0, epsabs=1e-13, limit=200)
    return value


class TestDominatingEvent:
    """D = {Y > y*} U {G > m c / y*}: its probability, its conditional law, its table."""

    CASES = [(1.0, 0.0, 2.72, 2.0, 4.0), (1.7, 0.3, 1.2, 0.5, 1.5), (4.0, -0.2, 0.0, -0.2, 0.8),
             (0.6, 0.0, 1.0, 3.0, 1.0)]

    @staticmethod
    def unconditional(rng, m, mu, sigma, n):
        return mu + sigma * rng.standard_normal(n), rng.standard_gamma(m, n)

    @pytest.mark.parametrize("m,mu,sigma,log_y,log_c", CASES)
    def test_probability_matches_frequency(self, m, mu, sigma, log_y, log_c):
        ln_y, g = self.unconditional(np.random.default_rng(11), m, mu, sigma, 400_000)
        inside = (ln_y > log_y) | (g > m * math.exp(log_c - log_y))
        p_y, p_g = _dominating_probabilities(log_y, log_c, m, mu, sigma)
        p = p_y + p_g - p_y * p_g
        assert abs(inside.mean() - p) < 4.0 * math.sqrt(p * (1.0 - p) / len(g)) + 1e-12

    @pytest.mark.parametrize("m,mu,sigma,log_y,log_c", CASES)
    def test_conditional_draws_match_rejection(self, m, mu, sigma, log_y, log_c):
        ln_y, g = self.unconditional(np.random.default_rng(12), m, mu, sigma, 400_000)
        inside = (ln_y > log_y) | (g > m * math.exp(log_c - log_y))
        n = min(int(inside.sum()), 40_000)
        p_y, p_g = _dominating_probabilities(log_y, log_c, m, mu, sigma)
        drawn_y, drawn_g = _draw_dominating(np.full(n, log_y), np.full(n, p_y), np.full(n, p_g),
                                            m, mu, sigma, np.random.default_rng(13).random((n, 3)))
        assert stats.ks_2samp(drawn_g, g[inside]).pvalue > 1e-3
        assert np.all((drawn_y > log_y) | (drawn_g > m * math.exp(log_c - log_y)))
        if sigma > 0:
            assert stats.ks_2samp(drawn_y, ln_y[inside]).pvalue > 1e-3
        else:
            assert np.all(drawn_y == mu)

    @given(st.sampled_from([(1.0, 0.0, 2.72), (1.7, 0.3, 1.2), (0.6, -0.5, 0.0), (3.0, 0.4, 0.0)]),
           st.floats(-30.0, 30.0), st.integers(0, THRESHOLD_TABLE_SIZE), st.floats(0.0, 3.0))
    def test_rounded_threshold_dominates(self, law, log_y, entry, above):
        # Any y* with any tabulated c' <= c gives P(D) >= P(Y G / m > c),
        # the tabulated y* too; sigma = 0 is a degenerate Y.
        m, mu, sigma = law
        log_c_table, log_y_table, p_y_table, p_g_table = _threshold_table(m, mu, sigma)
        log_c = max(log_c_table[entry], log_c_table[1] - 1.0) + above
        exceed = exceed_probability(m, mu, sigma, log_c)
        for y in (log_y, log_y_table[entry]):
            p_y, p_g = _dominating_probabilities(y, log_c_table[entry], m, mu, sigma)
            assert p_y + p_g - p_y * p_g >= exceed - 1e-9
        p_table = p_y_table[entry] + p_g_table[entry] - p_y_table[entry] * p_g_table[entry]
        assert p_table >= exceed - 1e-9

    def test_table_optimises_over_fixed_y(self):
        m, mu, sigma = 1.0, 0.0, 2.72
        log_c, log_y, p_y, p_g = _threshold_table(m, mu, sigma)
        p_table = p_y + p_g - p_y * p_g
        for y in np.linspace(-20.0, 40.0, 61):
            fixed_y, fixed_g = _dominating_probabilities(y, log_c, m, mu, sigma)
            assert np.all(p_table <= (fixed_y + fixed_g - fixed_y * fixed_g) * (1 + 1e-9) + 1e-300)
        assert p_table[0] == 1.0 and np.all(np.diff(p_table) <= 1e-12)
        assert p_table[-1] < 1e-14


class TestThinnedGrid:
    """The cell grid of the thinned kernel, at its edge cases."""

    @pytest.mark.parametrize("n_b", [1, 3, 8, 18, 32, 50, 72, 98, 200])
    def test_near_block_and_rings_partition_the_stations(self, n_b):
        # Below 2s + 1 cells per side the near block wraps onto itself; it
        # must still list each station once, and with the rings list every
        # station exactly once around every cell.
        rng = np.random.default_rng(n_b)
        grid = _CellGrid(pattern(rng.uniform(0.0, 10.0, (n_b, 2))))
        g = grid.g
        blocks, block_len = grid.near_blocks()
        rings = np.arange(NEAR_BLOCK_RADIUS + 1, g // 2 + 1)
        centres = np.arange(g * g)
        ring_n = grid.ring_counts(centres, rings)
        assert np.all(block_len + ring_n.sum(axis=1) == n_b)
        pair_cell, pair_ring = np.divmod(np.flatnonzero(ring_n), max(len(rings), 1))
        n = ring_n[pair_cell, pair_ring]
        pair, station = grid.pick(rng, np.stack(np.divmod(pair_cell, g), axis=1),
                                  rings[pair_ring], n, n)
        starts = np.cumsum(block_len) - block_len
        for c in centres:
            listed = np.concatenate((blocks[starts[c]:starts[c] + block_len[c]],
                                     station[np.isin(pair, np.flatnonzero(pair_cell == c))]))
            assert np.array_equal(np.sort(listed), np.arange(n_b))
        if g < 2 * NEAR_BLOCK_RADIUS + 1:
            assert len(rings) == 0 and np.all(block_len == n_b)

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_rings_lie_beyond_their_reach(self, n_b, seed):
        # Every station of ring k around a user's cell is at least
        # ring_reach away, so the thinning threshold bounds its criterion.
        rng = np.random.default_rng(seed)
        window = SimulationWindow(side=float(rng.uniform(0.5, 20.0)))
        stations = rng.uniform(0.0, window.side, (n_b, 2))
        grid = _CellGrid(pattern(stations, window=window))
        users = rng.uniform(0.0, window.side, (20, 2))
        rings = np.arange(NEAR_BLOCK_RADIUS + 1, grid.g // 2 + 1)
        reach = grid.ring_reach(users, rings)
        xy = grid.xy_of(users)
        ring_n = grid.ring_counts(xy[:, 0] * grid.g + xy[:, 1], rings)
        user, ring = np.nonzero(ring_n)
        pair, station = grid.pick(rng, xy[user], rings[ring], ring_n[user, ring],
                                  ring_n[user, ring])
        gap = distances_to_point(users[user[pair]], stations[station], window)
        assert np.all(gap >= reach[user[pair], ring[pair]] * (1.0 - 1e-12))

    def test_picks_are_distinct_and_uniform(self):
        rng = np.random.default_rng(21)
        grid = _CellGrid(pattern(rng.uniform(0.0, 10.0, (300, 2))))
        ring = NEAR_BLOCK_RADIUS + 1
        [n] = grid.ring_counts(np.array([0]), np.array([ring]))[0]
        for drawn in (1, 3, n // 2, n // 2 + 1, n - 1):
            counts = np.zeros(300)
            reps = 400
            pair, station = grid.pick(rng, np.zeros((reps, 2), dtype=np.intp),
                                      np.full(reps, ring), np.full(reps, n), np.full(reps, drawn))
            assert np.array_equal(pair, np.repeat(np.arange(reps), drawn))
            for i in range(reps):
                assert len(np.unique(station[pair == i])) == drawn
            np.add.at(counts, station, 1)
            hit = counts[counts > 0]
            assert len(hit) == n
            assert stats.chisquare(hit).pvalue > 1e-3

    @pytest.mark.parametrize("law", [WeightLaw.nearest(), WeightLaw.unit(),
                                     WeightLaw.lognormal(0.0, 4.0)],
                             ids=["nearest", "unit", "lognormal"])
    def test_one_station_and_no_users(self, law):
        users = pattern(np.random.default_rng(2).uniform(0.0, 10.0, (40, 2)))
        out = associate(pattern([[3.0, 4.0]]), users, SHADOWED, law, np.random.default_rng(1))
        assert np.all(out.assignments == 0) and np.all(out.cell_counts == [40])
        assert not out.near_tie.any()
        bs = pattern(np.random.default_rng(3).uniform(0.0, 10.0, (90, 2)))
        empty = associate(bs, pattern(np.zeros((0, 2))), SHADOWED, law, np.random.default_rng(1))
        assert len(empty.assignments) == 0 and np.all(empty.cell_counts == 0)
        assert len(empty.cell_counts) == 90
        assert empty.near_tie_fraction == 0.0

    @pytest.mark.parametrize("law", [WeightLaw.unit(), WeightLaw.lognormal(0.0, 4.0)],
                             ids=["unit", "lognormal"])
    def test_user_on_station_wins_lowest_index(self, law):
        rng = np.random.default_rng(4)
        points = rng.uniform(0.0, 10.0, (150, 2))
        points[[40, 90]] = points[7]  # stations 7, 40 and 90 coincide
        users = pattern(np.vstack([points[7], points[[12]], rng.uniform(0.0, 10.0, (30, 2))]))
        out = associate(pattern(points), users, SHADOWED, law, np.random.default_rng(5))
        assert out.assignments[0] == 7 and out.serving_distance[0] == 0.0
        assert out.assignments[1] == 12 and out.serving_distance[1] == 0.0

    @given(st.integers(1, 400), st.integers(0, 300), st.integers(0, 2**32 - 1),
           st.sampled_from(["unit", "lognormal"]))
    def test_counts_partition_users_and_distances_are_exact(self, n_b, n_u, seed, kind):
        rng = np.random.default_rng(seed)
        window = SimulationWindow(side=float(rng.uniform(0.5, 20.0)))
        bs = pattern(rng.uniform(0.0, window.side, (n_b, 2)), window=window)
        users = pattern(rng.uniform(0.0, window.side, (n_u, 2)), window=window)
        law = WeightLaw.unit() if kind == "unit" else WeightLaw.lognormal(0.3, 2.0)
        out = associate(bs, users, SHADOWED, law, rng)
        assert np.array_equal(out.cell_counts, np.bincount(out.assignments, minlength=n_b))
        assert out.cell_counts.sum() == n_u
        assert np.array_equal(out.serving_distance,
                              distances_to_point(users.points, bs.points[out.assignments], window)
                              if n_u else np.zeros(0))


    @given(st.integers(1, 400), st.sampled_from([0, 1, 6, 7, 8, 13, 14, 15, 511, 512, 513]),
           st.integers(0, 2**32 - 1), st.sampled_from(["unit", "lognormal"]))
    def test_chunked_near_block_is_exact(self, n_b, n_u, seed, kind):
        # The near block's geometry is formed a chunk of users at a time; the
        # outcome must not depend on the chunk size, on either side of a
        # chunk edge, down to one user per chunk.
        rng = np.random.default_rng(seed)
        window = SimulationWindow(side=float(rng.uniform(0.5, 20.0)))
        bs = pattern(rng.uniform(0.0, window.side, (n_b, 2)), window=window)
        users = pattern(rng.uniform(0.0, window.side, (n_u, 2)), window=window)
        law = WeightLaw.unit() if kind == "unit" else WeightLaw.lognormal(0.0, 4.0)
        outcomes = []
        for chunk in (1, 7, association._NEAR_CHUNK_USERS, n_u + 1):
            with mock.patch.object(association, "_NEAR_CHUNK_USERS", chunk):
                outcomes.append(associate(bs, users, SHADOWED, law, np.random.default_rng(seed)))
        for out in outcomes[1:]:
            for field in dataclasses.fields(AssociationOutcome):
                a, b = getattr(outcomes[0], field.name), getattr(out, field.name)
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name


class TestStationCounts:
    LAWS = {"nearest": WeightLaw.nearest(), "unit": WeightLaw.unit(),
            "lognormal": WeightLaw.lognormal(0.3, 2.0)}

    @given(st.integers(1, 300), st.integers(0, 300), st.integers(0, 2**32 - 1),
           st.sampled_from(sorted(LAWS)))
    @example(1, 40, 3, "nearest")
    @example(1, 40, 3, "unit")
    @example(1, 40, 3, "lognormal")
    @example(60, 0, 3, "nearest")
    @example(60, 0, 3, "unit")
    @example(60, 0, 3, "lognormal")
    def test_counts_are_associates_and_draw_only_what_it_draws(self, n_b, n_u, seed, kind):
        # Under the nearest law the count path draws nothing; under the
        # other laws it leaves the stream where associate leaves it.
        rng = np.random.default_rng(seed)
        window = SimulationWindow(side=float(rng.uniform(0.5, 20.0)))
        bs = pattern(rng.uniform(0.0, window.side, (n_b, 2)), window=window)
        users = pattern(rng.uniform(0.0, window.side, (n_u, 2)), window=window)
        law = self.LAWS[kind]
        full_rng, count_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        before = count_rng.bit_generator.state
        out = associate(bs, users, SHADOWED, law, full_rng)
        counts = _station_counts(bs, users, SHADOWED, law, count_rng)
        assert counts.dtype == out.cell_counts.dtype
        assert np.array_equal(counts, out.cell_counts)
        expected = before if kind == "nearest" else full_rng.bit_generator.state
        assert count_rng.bit_generator.state == expected

    def test_nearest_user_on_coincident_stations_takes_one_of_them(self):
        # The k-d query sends an exact tie to any of the tied stations, not
        # always the lowest index; exact ties have probability zero in PPP
        # draws.  associate and the count path must both land among them.
        rng = np.random.default_rng(4)
        points = rng.uniform(0.0, 10.0, (150, 2))
        tied = [7, 40, 90]
        points[tied] = points[7]
        bs, law = pattern(points), WeightLaw.nearest()
        users = pattern(np.vstack([points[7], points[[12]], rng.uniform(0.0, 10.0, (30, 2))]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # user 0's distance ratio 0/0 must not warn
            out = associate(bs, users, SHADOWED, law, np.random.default_rng(5))
        assert out.assignments[0] in tied and out.serving_distance[0] == 0.0 and out.near_tie[0]
        assert out.assignments[1] == 12 and out.serving_distance[1] == 0.0
        assert not out.near_tie[1]
        on_station = _station_counts(bs, pattern(points[[7]]), SHADOWED, law,
                                     np.random.default_rng(5))
        assert on_station[tied].sum() == 1 and on_station.sum() == 1
        counts = _station_counts(bs, users, SHADOWED, law, np.random.default_rng(5))
        assert counts[tied].sum() == out.cell_counts[tied].sum()
        assert np.array_equal(np.delete(counts, tied), np.delete(out.cell_counts, tied))

    @pytest.mark.parametrize("law", [WeightLaw.unit(), WeightLaw.lognormal(0.0, 4.0)],
                             ids=["unit", "lognormal"])
    def test_user_on_coincident_stations_is_an_exact_tie(self, law):
        # Both criteria read inf: the lowest index serves, and inf / inf
        # counts as the exact tie it is, without a warning.
        rng = np.random.default_rng(4)
        points = rng.uniform(0.0, 10.0, (150, 2))
        tied = [7, 40, 90]
        points[tied] = points[7]
        users = pattern(np.vstack([points[7], points[[12]], rng.uniform(0.0, 10.0, (30, 2))]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = associate(pattern(points), users, SHADOWED, law, np.random.default_rng(5))
        assert out.assignments[0] == 7 and out.serving_distance[0] == 0.0 and out.near_tie[0]
        assert out.assignments[1] == 12 and out.serving_distance[1] == 0.0
        assert not out.near_tie[1]


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

    @pytest.mark.parametrize("cp", [
        ChannelParams(m=0.4, mu=0.0, sigma2=0.0, alpha=4.0),  # m <= 2/alpha
        ChannelParams(m=1.0, mu=0.0, sigma2=1e4, alpha=4.0),  # moments past the float range
    ])
    def test_divergent_moment_estimates_silently_above_floor(self, cp):
        # The estimate holds for any zeta-dagger; only harness.validate warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = void_probability_mc(50.0, 100.0, cp, WeightLaw.unit(), 2,
                                      SimulationWindow(side=2.0), seed=3)
        assert est.value > math.exp(-2.0) - 3.0 * est.se

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
        [est] = _void_estimates([hist], [p])
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
        thinned, indicator = _void_estimates(hists, [p, 1.0])
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
        bins, _ = cell_count_pmf_mc(50.0, 0.0, RAYLEIGH, WeightLaw.nearest(), 5,
                                    SimulationWindow(side=4.0), seed=5)
        assert bins[0].value == 1.0
        assert len(bins) == 1

    def test_matches_closed_form_bins(self):
        window = SimulationWindow(side=1.2)
        lu = lb = 370.0
        bins, _ = cell_count_pmf_mc(lb, lu, RAYLEIGH, WeightLaw.nearest(), 80, window, seed=6)
        for n in range(9):
            expected = user_count_pmf(n, lu, lb)
            assert abs(bins[n].value - expected) < 3.0 * max(bins[n].se, 1e-4)

    def test_mean_mass_conservation(self):
        window = SimulationWindow(side=1.645)
        _, mean = cell_count_pmf_mc(185.0, 370.0, RAYLEIGH, WeightLaw.nearest(), 40, window,
                                    seed=7)
        # ratio estimator of total users / total cells; both totals Poisson
        reps, area = 40, window.sampling_area()
        se = 2.0 * math.sqrt(1.0 / (370.0 * area * reps) + 1.0 / (185.0 * area * reps))
        assert abs(mean - 2.0) < 3.0 * se

    def test_zero_bin_equals_void_estimate_on_same_stream(self):
        window = SimulationWindow(side=1.645)
        args = (185.0, 370.0, RAYLEIGH, WeightLaw.nearest(), 12, window)
        bins, _ = cell_count_pmf_mc(*args, seed=8)
        assert bins[0] == void_probability_mc(*args, seed=8)

    def test_half_width_target_on_zero_bin(self):
        window = SimulationWindow(side=1.645)
        args = (185.0, 370.0, RAYLEIGH, WeightLaw.nearest(), 4, window)
        bins, mean = cell_count_pmf_mc(*args, seed=48, half_width=0.01)
        assert bins[0].half_width <= 0.01
        assert bins[0].reps > 4 and bins[0].reps % 4 == 0
        assert cell_count_pmf_mc(*args[:4], bins[0].reps, window, seed=48) == (bins, mean)
        assert bins[0] == void_probability_mc(*args, seed=48, half_width=0.01)


class TestAssociatedPattern:
    def test_no_voids_keeps_everything(self):
        bs = pattern([[2.0, 2.0], [8.0, 8.0]])
        users = sample_ppp(2.0, WINDOW, np.random.default_rng(11))
        out = associate(bs, users, RAYLEIGH, WeightLaw.nearest(), np.random.default_rng(12))
        kept = associated_pattern(out.cell_counts, bs)
        assert len(kept) == 2

    def test_retained_fraction_matches_formula(self):
        window = SimulationWindow(side=1.645)
        retained = []
        for r in range(30):
            rng = rep_rng(13, r)
            bs = sample_ppp(185.0, window, rng)
            users = sample_ppp(370.0, window, rng)
            out = associate(bs, users, RAYLEIGH, WeightLaw.nearest(), rng)
            retained.append(len(associated_pattern(out.cell_counts, bs)) / len(bs))
        retained = np.asarray(retained)
        expected = 1.0 - void_prob_nearest(370.0, 185.0)
        se = retained.std(ddof=1) / math.sqrt(len(retained))
        assert abs(retained.mean() - expected) < 3.0 * se
