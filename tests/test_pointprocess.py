import pickle

import numpy as np
import pytest
from scipy import stats

from voidnet.geometry import SimulationWindow, distances_to_point
from voidnet.pointprocess import (
    PointPattern,
    csr_test,
    map_pattern,
    mark_expansion_factor,
    MAX_SEQUENTIAL_BATCHES,
    rep_rng,
    run_reps,
    sample_ppp,
)

UNIT_WINDOW = SimulationWindow(side=1.0)


def nearest_distance(origin, pattern: PointPattern) -> float:
    """Distance from ``origin`` to the pattern's closest point; ValueError if it is empty."""
    return float(distances_to_point(pattern.points, origin, pattern.window).min())


class TestSamplePpp:
    def test_zero_intensity_empty(self):
        p = sample_ppp(0.0, UNIT_WINDOW, np.random.default_rng(0))
        assert len(p) == 0

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            sample_ppp(-1.0, UNIT_WINDOW, np.random.default_rng(0))

    def test_poisson_moments(self):
        reps = 10_000
        counts = np.array([len(sample_ppp(100.0, UNIT_WINDOW, rep_rng(11, r))) for r in range(reps)])
        mean_se = np.sqrt(100.0 / reps)
        assert abs(counts.mean() - 100.0) < 3.0 * mean_se
        # Var(s^2) for Poisson(lam) is about (lam + 2 lam^2) / n
        var_se = np.sqrt((100.0 + 2.0 * 100.0**2) / reps)
        assert abs(counts.var(ddof=1) - 100.0) < 3.0 * var_se

    def test_disjoint_counts_uncorrelated(self):
        reps = 10_000
        left = np.empty(reps)
        right = np.empty(reps)
        for r in range(reps):
            pts = sample_ppp(60.0, UNIT_WINDOW, rep_rng(12, r)).points
            left[r] = np.sum(pts[:, 0] < 0.5)
            right[r] = np.sum(pts[:, 0] >= 0.5)
        corr = np.corrcoef(left, right)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(reps)

    def test_points_outside_window_rejected(self):
        with pytest.raises(ValueError):
            PointPattern(points=np.array([[1.5, 0.5]]), window=UNIT_WINDOW)

    def test_unpickled_pattern_stays_read_only(self):
        p = sample_ppp(50.0, UNIT_WINDOW, np.random.default_rng(1))
        q = pickle.loads(pickle.dumps(p))
        assert not q.points.flags.writeable
        assert np.array_equal(q.points, p.points)
        assert q.window == p.window


class TestMapPattern:
    def test_unit_marks_identity(self):
        p = sample_ppp(200.0, UNIT_WINDOW, np.random.default_rng(2))
        mapped = map_pattern(p, np.ones(len(p)), UNIT_WINDOW)
        assert np.array_equal(mapped.points, p.points)

    def test_scaling_mark_objects_accepted(self):
        p = PointPattern(points=np.array([[0.25, 0.25], [0.75, 0.75]]), window=UNIT_WINDOW)
        mapped = map_pattern(p, np.array([1.0, 1.0]), UNIT_WINDOW)
        assert np.array_equal(mapped.points, p.points)

    def test_deterministic_two_declares_quarter_intensity(self):
        p = sample_ppp(1.0, SimulationWindow(side=20.0), np.random.default_rng(3))
        mapped = map_pattern(p, np.full(len(p), 2.0), p.window)
        # only the central 10 x 10 square stays inside once doubled about the centre
        central = p.points[np.all((p.points >= 5.0) & (p.points < 15.0), axis=1)]
        assert np.allclose(mapped.points, 10.0 + 2.0 * (central - 10.0))

    def test_lognormal_marks_mapped_count(self):
        # E[T^-2] = exp(-2 mu + 2 sigma^2) = e^0.5 for lognormal(0, 0.5^2)
        lam = 50.0
        mean_inv_sq = np.exp(0.5)
        target = SimulationWindow(side=0.5)
        sampler = lambda rng, n: np.exp(rng.normal(0.0, 0.5, size=n))
        expansion = mark_expansion_factor(sampler, rep_rng(77, 0))
        source = SimulationWindow(side=target.side * expansion)
        reps = 10_000
        counts = np.empty(reps)
        for r in range(reps):
            rng = rep_rng(13, r)
            src = sample_ppp(lam, source, rng)
            mapped = map_pattern(src, sampler(rng, len(src)), target=target)
            counts[r] = len(mapped)
        expected = lam * mean_inv_sq * target.sampling_area()
        se = counts.std(ddof=1) / np.sqrt(reps)
        assert abs(counts.mean() - expected) < 3.0 * se

    def test_mark_count_mismatch_rejected(self):
        p = sample_ppp(100.0, UNIT_WINDOW, np.random.default_rng(4))
        with pytest.raises(ValueError):
            map_pattern(p, np.ones(len(p) + 1), UNIT_WINDOW)

    def test_non_positive_marks_rejected(self):
        p = sample_ppp(100.0, UNIT_WINDOW, np.random.default_rng(5))
        marks = np.ones(len(p))
        marks[0] = 0.0
        with pytest.raises(ValueError):
            map_pattern(p, marks, UNIT_WINDOW)


class TestNearestDistance:
    def test_point_at_origin(self):
        p = PointPattern(points=np.array([[0.0, 0.0]]), window=UNIT_WINDOW)
        assert nearest_distance((0.0, 0.0), p) == 0.0

    def test_empty_pattern_rejected(self):
        p = PointPattern(points=np.zeros((0, 2)), window=UNIT_WINDOW)
        with pytest.raises(ValueError):
            nearest_distance((0.5, 0.5), p)

    def test_rayleigh_law_ks(self):
        lam, reps = 100.0, 10_000
        center = (0.5, 0.5)
        vals = np.empty(reps)
        for r in range(reps):
            pattern = sample_ppp(lam, UNIT_WINDOW, rep_rng(14, r))
            while len(pattern) == 0:
                pattern = sample_ppp(lam, UNIT_WINDOW, rep_rng(14, reps + r))
            vals[r] = nearest_distance(center, pattern)
        res = stats.kstest(vals, lambda x: 1.0 - np.exp(-np.pi * lam * x**2))
        assert res.statistic < 1.628 / np.sqrt(reps)  # 1% critical value

    def test_mapped_rayleigh_law_ks(self):
        # after scaling by i.i.d. T the nearest law keeps its Rayleigh form
        # with intensity lam * E[T^-2]
        lam, reps = 100.0, 4000
        sampler = lambda rng, n: np.exp(rng.normal(0.0, 0.5, size=n))
        mean_inv_sq = np.exp(0.5)
        target = SimulationWindow(side=0.6)
        expansion = mark_expansion_factor(sampler, rep_rng(78, 0))
        source = SimulationWindow(side=target.side * expansion)
        center = (target.side / 2.0, target.side / 2.0)
        vals = np.empty(reps)
        for r in range(reps):
            rng = rep_rng(15, r)
            src = sample_ppp(lam, source, rng)
            mapped = map_pattern(src, sampler(rng, len(src)), target=target)
            vals[r] = nearest_distance(center, mapped)
        lam_out = lam * mean_inv_sq
        res = stats.kstest(vals, lambda x: 1.0 - np.exp(-np.pi * lam_out * x**2))
        assert res.statistic < 1.628 / np.sqrt(reps)

    def test_disk_void_probability(self):
        # P[no point within radius r] = exp(-lam pi r^2)
        lam, r0, reps = 100.0, 0.05, 4000
        center = (0.5, 0.5)
        empty = 0
        for r in range(reps):
            pattern = sample_ppp(lam, UNIT_WINDOW, rep_rng(16, r))
            d = distances_to_point(pattern.points, center, UNIT_WINDOW) if len(pattern) else np.array([np.inf])
            empty += d.min() > r0
        p_true = np.exp(-lam * np.pi * r0**2)
        se = np.sqrt(p_true * (1.0 - p_true) / reps)
        assert abs(empty / reps - p_true) < 3.0 * se


class TestCsrTest:
    def test_calibration(self):
        # p-values uniform: rejection rate at 5% is 0.05 +/- 0.02 over 2000 suites
        suites = 2000
        rejected = 0
        for s in range(suites):
            pattern = sample_ppp(200.0, UNIT_WINDOW, rep_rng(17, s))
            rejected += csr_test(pattern, 5).p_value < 0.05
        assert abs(rejected / suites - 0.05) < 0.02

    def test_lattice_rejected(self):
        # a perfect lattice is maximally underdispersed
        grid = np.linspace(0.025, 0.975, 20)
        xx, yy = np.meshgrid(grid, grid)
        pattern = PointPattern(points=np.column_stack([xx.ravel(), yy.ravel()]), window=UNIT_WINDOW)
        assert csr_test(pattern, 5).p_value < 1e-6

    def test_clustered_rejected(self):
        # Poisson parents with tight offspring: reject in at least 95% of suites
        suites, rejections = 40, 0
        for s in range(suites):
            rng = rep_rng(18, s)
            parents = sample_ppp(20.0, UNIT_WINDOW, rng).points
            if len(parents) == 0:
                continue
            idx = rng.integers(0, len(parents), size=200)
            pts = UNIT_WINDOW.wrap(parents[idx] + rng.normal(0.0, 0.01, size=(200, 2)))
            pattern = PointPattern(points=pts, window=UNIT_WINDOW)
            rejections += csr_test(pattern, 5).p_value < 0.01
        assert rejections >= int(0.95 * suites)

    def test_sparse_pattern_rejected(self):
        pattern = sample_ppp(20.0, UNIT_WINDOW, np.random.default_rng(19))
        with pytest.raises(ValueError):
            csr_test(pattern, 5)

    def test_report_fields(self):
        pattern = sample_ppp(300.0, UNIT_WINDOW, np.random.default_rng(20))
        report = csr_test(pattern, 3)
        assert report.dof == 8
        assert 0.0 <= report.p_value <= 1.0
        # six points in every quadrat, one on its lower-left corner, which lies
        # on an interior quadrat edge in all quadrats but the one at the origin
        edges = np.linspace(0.0, 1.0, 4)
        corners = np.array(np.meshgrid(edges[:3], edges[:3])).reshape(2, -1).T
        offsets = np.array([[0.0, 0.0], [0.1, 0.1], [0.2, 0.1], [0.1, 0.2], [0.2, 0.2], [0.3, 0.05]])
        even = PointPattern(points=(corners[:, None, :] + offsets).reshape(-1, 2), window=UNIT_WINDOW)
        assert csr_test(even, 3).statistic == 0.0


class TestRepRng:
    def test_streams_reproducible_and_distinct(self):
        a1 = rep_rng(123, 0).random(4)
        a2 = rep_rng(123, 0).random(4)
        b = rep_rng(123, 1).random(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestRunReps:
    def test_fixed_run_uses_rep_rng_streams(self):
        draw = lambda rng: rng.random()
        assert run_reps(draw, 7, 3) == [rep_rng(7, r).random() for r in range(3)]

    def test_sequential_batches_continue_the_streams(self):
        draw = lambda rng: rng.random()
        seen = []

        def done(results):
            seen.append(len(results))
            return len(results) >= 5

        results = run_reps(draw, 8, 2, done=done)
        assert seen == [2, 4, 6]  # checked after every batch of 2
        assert results == run_reps(draw, 8, 6)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_no_replications_rejected(self, reps):
        calls = []
        with pytest.raises(ValueError, match="at least one replication"):
            run_reps(calls.append, 9, reps)
        assert calls == []

    def test_cap_raises(self):
        with pytest.raises(RuntimeError, match="half-width"):
            run_reps(lambda rng: 0, 9, 1, done=lambda results: False)
        calls = []
        with pytest.raises(RuntimeError):
            run_reps(calls.append, 9, 2, done=lambda results: False)
        assert len(calls) == 2 * MAX_SEQUENTIAL_BATCHES
