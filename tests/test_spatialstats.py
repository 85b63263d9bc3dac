import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from voidnet.association import void_probability_mc
from voidnet.channel import ChannelParams, WeightLaw
from voidnet.geometry import SimulationWindow, pairwise_distances
from voidnet.pointprocess import PointPattern, rep_rng, sample_ppp
from voidnet.spatialstats import (
    MIN_POINTS,
    default_radii,
    ppp_envelope,
    remark2_test,
    ripley_k,
)

UNIT = SimulationWindow(side=1.0)
RAYLEIGH = ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0)


def pattern(points, window=UNIT):
    return PointPattern(points=np.asarray(points, dtype=float), window=window)


def reference_k(p: PointPattern, radii) -> np.ndarray:
    """K_hat from the periodic tree's self-join count, the kernel ripley_k replaced.

    ``count_neighbors`` counts ordered pairs, each point with itself included.
    """
    n, r = len(p), np.asarray(radii, dtype=float)
    tree = cKDTree(p.points, boxsize=p.window.side)
    return p.window.sampling_area() * (tree.count_neighbors(tree, r) - n) / (n * (n - 1.0))


def pair_d2(p: PointPattern) -> np.ndarray:
    """Squared torus distance of every unordered pair."""
    i, j = np.triu_indices(len(p), k=1)
    gap = np.abs(p.points[i] - p.points[j])
    gap = np.minimum(gap, p.window.side - gap)
    return (gap * gap).sum(axis=1)


def all_pairs_k(p: PointPattern, radii) -> np.ndarray:
    """K_hat by definition: every pair's squared torus distance against r^2."""
    n, r = len(p), np.asarray(radii, dtype=float)
    counts = 2 * (pair_d2(p)[None, :] <= (r * r)[:, None]).sum(axis=1)
    return p.window.sampling_area() * counts / (n * (n - 1.0))


@st.composite
def tied_patterns(draw):
    """A pattern with points on coordinate 0.0 and coincident points, and radii
    from tiny up to the largest torus distance, side * sqrt(2) / 2.

    Half the patterns snap to a lattice of spacing side/m, with the radii
    k * side/m added, so that many pair distances equal a radius.
    """
    side = draw(st.floats(0.05, 20.0))
    n = draw(st.integers(MIN_POINTS, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(0.0, side, (n, 2)) % side
    points[:draw(st.integers(0, n // 4)), draw(st.integers(0, 1))] = 0.0
    copies = draw(st.integers(0, n // 4))
    points[n - copies:] = points[:copies]
    fractions = draw(st.lists(st.floats(1e-9, math.sqrt(2.0) / 2.0), min_size=1, max_size=8))
    radii = side * np.array(fractions + [math.sqrt(2.0) / 2.0])
    m = draw(st.sampled_from([0, 4, 8, 10, 16]))
    if m:
        points = np.round(points * m / side) * side / m % side
        radii = np.concatenate([radii, side * np.arange(1, m) / m])
    return pattern(points, window=SimulationWindow(side=side)), np.unique(radii)


class TestRipleyK:
    def test_ppp_calibration(self):
        radii = np.array([0.02, 0.05, 0.1])
        k_sum = np.zeros(3)
        reps = 500
        for r in range(reps):
            k_sum += ripley_k(sample_ppp(200.0, UNIT, rep_rng(21, r)), radii)
        k_mean = k_sum / reps
        assert np.all(np.abs(k_mean - np.pi * radii**2) < 0.02 * np.pi * radii**2)

    def test_coincident_pair_jump_at_zero(self):
        # one coincident pair among isolated points: at tiny r only that
        # ordered pair is counted
        pts = [[0.05 + 0.1 * i, 0.05 + 0.1 * i] for i in range(10)] + [[0.95, 0.05]]
        pts.append([0.95, 0.05])
        p = pattern(pts)
        n = len(pts)
        k = ripley_k(p, [1e-9])[0]
        assert k == pytest.approx(UNIT.sampling_area() * 2.0 / (n * (n - 1)))

    def test_hard_core_zero_below_separation(self):
        g = np.linspace(0.125, 0.875, 4)
        xx, yy = np.meshgrid(g, g)
        p = pattern(np.column_stack([xx.ravel(), yy.ravel()]))
        k = ripley_k(p, [0.2, 0.24])
        assert np.all(k == 0.0)  # minimum toroidal spacing is 0.25

    def test_saturation_at_max_distance(self):
        p = sample_ppp(100.0, UNIT, np.random.default_rng(22))
        k = ripley_k(p, [UNIT.side * math.sqrt(2.0) / 2.0])[0]
        assert k == pytest.approx(UNIT.sampling_area())

    def test_translation_invariance(self):
        p = sample_ppp(150.0, UNIT, np.random.default_rng(23))
        radii = np.array([0.05, 0.1, 0.2])
        shifted = pattern(UNIT.wrap(p.points + np.array([0.37, 0.81])))
        assert np.allclose(ripley_k(p, radii), ripley_k(shifted, radii))

    def test_too_few_points_rejected(self):
        p = pattern([[0.1, 0.1], [0.2, 0.2]])
        with pytest.raises(ValueError):
            ripley_k(p, [0.1])

    def test_estimate_validation(self):
        p = sample_ppp(100.0, UNIT, np.random.default_rng(24))
        with pytest.raises(ValueError, match="strictly increasing"):
            ripley_k(p, np.array([0.2, 0.1]))

    def test_matches_pairwise_reference(self):
        # the dense all-pairs count the tree replaced, kept as the reference
        radii = np.array([1e-9, 0.01, 0.05, 0.1, 0.25, 0.5, UNIT.side * math.sqrt(2.0) / 2.0])
        for r in range(20):
            p = sample_ppp(300.0, UNIT, rep_rng(24, r))
            n = len(p)
            dist = pairwise_distances(p.points, p.points, UNIT)
            pairs = np.sort(dist[np.triu_indices(n, k=1)])
            counts = 2.0 * np.searchsorted(pairs, radii, side="right")
            expected = UNIT.sampling_area() * counts / (n * (n - 1.0))
            assert np.array_equal(ripley_k(p, radii), expected)

    @given(tied_patterns())
    def test_pair_list_is_exact(self, case):
        # The count is exact at every radius, ties included.  The tree's
        # count_neighbors rounds its node-to-node distance bounds and can
        # miscount a pair lying exactly at r on a lattice, so it is held to
        # equality only where no squared pair distance is within 1e-9 of r^2.
        p, radii = case
        k = ripley_k(p, radii)
        assert np.array_equal(k, all_pairs_k(p, radii))
        d2 = pair_d2(p)
        clear = np.array([not np.any(np.isclose(d2, rr * rr, rtol=1e-9, atol=0.0)) for rr in radii])
        assert np.array_equal(k[clear], reference_k(p, radii)[clear])

    def test_dyadic_lattice_ties_are_counted(self):
        # Side 1 with spacing 1/8: every coordinate difference, its square
        # and the radii are exact binary fractions.  A point has 4 neighbours
        # at 1/8 (one step along an axis), 4 at sqrt(2)/8 and 4 at 1/4 (two
        # steps along an axis); points on the edges reach some of them only
        # across the wrap.  Just below a radius the pairs at it drop out.
        g = np.arange(8) / 8.0
        xx, yy = np.meshgrid(g, g)
        p = pattern(np.column_stack([xx.ravel(), yy.ravel()]))
        radii = [np.nextafter(0.125, 0.0), 0.125, np.nextafter(0.25, 0.0), 0.25]
        per_point = np.array([0, 4, 8, 12])
        k = ripley_k(p, radii)
        assert np.array_equal(k, 64 * per_point / (64 * 63.0))
        assert np.array_equal(k, reference_k(p, radii))

    def test_guard_cross_check(self):
        # naive euclidean estimator on guard-interior points agrees with
        # the toroidal estimator for a PPP, away from the edges
        radii = np.array([0.05, 0.08])
        reps, k_tor, k_guard = 200, np.zeros(2), np.zeros(2)
        for r in range(reps):
            p = sample_ppp(300.0, UNIT, rep_rng(25, r))
            k_tor += ripley_k(p, radii)
            pts = p.points
            interior = np.all((pts >= 0.1) & (pts <= 0.9), axis=1)
            lam_hat = len(pts) / UNIT.sampling_area()
            diffs = pts[interior, None, :] - pts[None, :, :]
            d = np.sqrt((diffs**2).sum(-1))
            # each interior point contributes its self-distance 0 once
            counts = np.array([(d <= rr).sum() - interior.sum() for rr in radii])
            k_guard += counts / (interior.sum() * lam_hat)
        k_tor /= reps
        k_guard /= reps
        assert np.allclose(k_guard, k_tor, rtol=0.05)


class TestPppEnvelope:
    def test_brackets_csr_reference(self):
        radii = default_radii(UNIT)
        lo, hi = ppp_envelope(200.0, UNIT, radii, n_envelope=99, seed=26)
        ref = np.pi * radii**2
        assert np.all(lo <= ref) and np.all(ref <= hi)

    def test_false_positive_rate(self):
        radii = np.linspace(0.02, 0.25, 20)
        lo, hi = ppp_envelope(200.0, UNIT, radii, n_envelope=999, seed=27)
        exits = []
        for s in range(500):
            k = ripley_k(sample_ppp(200.0, UNIT, rep_rng(28, s)), radii)
            exits.append(np.mean((k < lo) | (k > hi)))
        assert abs(np.mean(exits) - 0.05) < 0.02

    def test_width_shrinks_with_intensity(self):
        # on the torus the disk area never meets an edge, so pair
        # indicators are uncorrelated and the width scales like 1/lambda
        radii = np.array([0.15, 0.2, 0.25])
        lo1, hi1 = ppp_envelope(200.0, UNIT, radii, n_envelope=199, seed=29)
        lo4, hi4 = ppp_envelope(800.0, UNIT, radii, n_envelope=199, seed=30)
        ratio = (hi1 - lo1) / (hi4 - lo4)
        assert np.all(ratio > 2.0)

    def test_percentiles_of_rep_rng_patterns(self):
        radii = np.array([0.05, 0.1, 0.2])
        lo, hi = ppp_envelope(200.0, UNIT, radii, n_envelope=39, seed=33)
        k = [ripley_k(sample_ppp(200.0, UNIT, rep_rng(33, i)), radii) for i in range(39)]
        assert np.array_equal(lo, np.percentile(k, 2.5, axis=0))
        assert np.array_equal(hi, np.percentile(k, 97.5, axis=0))

    def test_minimum_simulations(self):
        with pytest.raises(ValueError):
            ppp_envelope(200.0, UNIT, [0.1], n_envelope=20, seed=31)

    def test_radius_cap(self):
        with pytest.raises(ValueError):
            ppp_envelope(200.0, UNIT, [0.3], n_envelope=99, seed=32)

    def test_patterns_below_min_points_raise(self):
        # Two expected points: an envelope pattern is a plain PPP, never redrawn up to ten.
        with pytest.raises(ValueError, match="need at least 10"):
            ppp_envelope(2.0, UNIT, [0.1], n_envelope=39, seed=37)


class TestRemark2:
    def test_no_users_raises(self):
        window = SimulationWindow(side=2.5)
        with pytest.raises(ValueError):
            remark2_test(100.0, 0.0, RAYLEIGH, WeightLaw.nearest(), 2, window, seed=34,
                         n_envelope=39)

    def test_empty_station_draw_raises(self):
        with pytest.raises(ValueError, match="at least one base station"):
            remark2_test(1e-9, 100.0, RAYLEIGH, WeightLaw.nearest(), 2, UNIT, seed=38,
                         n_envelope=39)

    def test_negligible_thinning_flagged_uninformative(self):
        window = SimulationWindow(side=3.2)
        report = remark2_test(50.0, 1000.0, RAYLEIGH, WeightLaw.nearest(), 3, window, seed=35,
                              n_envelope=39)
        assert report.uninformative
        assert report.void_fraction < 0.01

    @pytest.mark.parametrize("cp, law", [
        (RAYLEIGH, WeightLaw.nearest()),
        (ChannelParams(m=1.0, mu=0.0, sigma2=0.7, alpha=4.0), WeightLaw.unit()),
    ])
    def test_void_fraction_is_void_prob_estimate(self, cp, law):
        window = SimulationWindow(side=1.2)
        report = remark2_test(370.0, 185.0, cp, law, 4, window, seed=39, n_envelope=39)
        est = void_probability_mc(370.0, 185.0, cp, law, 4, window, seed=39)
        assert report.void_fraction == est.value

    def test_strong_thinning_exits_envelope(self):
        window = SimulationWindow(side=1.2)
        report = remark2_test(370.0, 185.0, RAYLEIGH, WeightLaw.nearest(), 10, window, seed=36)
        assert not report.uninformative
        assert report.exit_fraction > 0.15
        assert report.matched_intensity == pytest.approx(
            (1.0 - report.void_fraction) * 370.0
        )
        assert report.per_radius_exit_rate.shape == report.radii.shape
