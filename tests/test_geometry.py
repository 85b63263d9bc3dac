import numpy as np
import pytest
from scipy import stats

from voidnet.geometry import (
    SimulationWindow,
    distances_to_point,
    pairwise_distances,
    uniform_points,
    wrapped_deltas,
)


@pytest.fixture
def torus10():
    return SimulationWindow(side=10.0)


def reference_deltas(a, b, side):
    """Torus displacements by a float ``np.mod`` on the full (n, m, 2) array."""
    return np.mod(a[:, None, :] - b[None, :, :] + side / 2.0, side) - side / 2.0


def edge_points(side, rng, n):
    """Uniform points plus coordinates at 0, side/2 and just below side."""
    edges = np.array([0.0, side / 2.0, np.nextafter(side, 0.0)])
    corners = np.array(np.meshgrid(edges, edges)).reshape(2, -1).T
    return np.vstack([corners, rng.uniform(0.0, side, (n, 2))])


class TestDistance:
    """Metric properties of ``distances_to_point`` on one-row inputs."""

    def test_identity(self, torus10):
        assert distances_to_point([(0.0, 0.0)], (0.0, 0.0), torus10)[0] == 0.0

    def test_wrap(self, torus10):
        # 9 apart the direct way, 1 the short way around
        assert distances_to_point([(0.0, 0.0)], (9.0, 0.0), torus10)[0] == pytest.approx(1.0)

    def test_three_four_five(self, torus10):
        # no wrap active: classic 3-4-5 triangle
        assert distances_to_point([(1.0, 1.0)], (4.0, 5.0), torus10)[0] == pytest.approx(5.0)

    def test_symmetry(self, torus10):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.uniform(0, 10, 2)
            b = rng.uniform(0, 10, 2)
            assert distances_to_point([a], b, torus10)[0] == pytest.approx(
                distances_to_point([b], a, torus10)[0])

    def test_triangle_inequality(self, torus10):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a, b, c = rng.uniform(0, 10, (3, 2))
            ab = distances_to_point([a], b, torus10)[0]
            bc = distances_to_point([b], c, torus10)[0]
            ac = distances_to_point([a], c, torus10)[0]
            assert ac <= ab + bc + 1e-12

    def test_max_distance_bound(self, torus10):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 10, (300, 2))
        d = pairwise_distances(pts, pts, torus10)
        assert d.max() <= 10.0 * np.sqrt(2.0) / 2.0 + 1e-12

    def test_distances_to_point_matches_scalar(self, torus10):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 10, (50, 2))
        origin = (9.5, 0.2)
        vec = distances_to_point(pts, origin, torus10)
        for p, d in zip(pts, vec):
            assert d == distances_to_point([p], origin, torus10)[0]


class TestReferenceFormula:
    """The per-axis one-period wrap against the np.mod formula it replaced."""

    @pytest.mark.parametrize("side", [10.0, 1.163, 3.288])
    def test_pairwise_matches_mod_reference(self, side):
        rng = np.random.default_rng(11)
        window = SimulationWindow(side=side)
        a = edge_points(side, rng, 300)
        b = edge_points(side, rng, 170)
        delta = reference_deltas(a, b, side)
        expected = np.sqrt(np.sum(delta * delta, axis=-1))
        assert np.array_equal(pairwise_distances(a, b, window), expected)

    def test_deltas_and_distances_to_point_match_mod_reference(self, torus10):
        rng = np.random.default_rng(12)
        pts = edge_points(10.0, rng, 200)
        for origin in pts[:12]:
            delta = reference_deltas(pts, origin[None, :], 10.0)[:, 0, :]
            assert np.array_equal(wrapped_deltas(pts, origin, torus10), delta)
            expected = np.hypot(delta[:, 0], delta[:, 1])
            assert np.array_equal(distances_to_point(pts, origin, torus10), expected)


class TestOutOfWindow:
    """Shifted copies of in-window points measure like their images."""

    @pytest.mark.parametrize("k", [-3, -1, 1, 3])
    def test_shifted_points(self, torus10, k):
        rng = np.random.default_rng(13)
        a = edge_points(10.0, rng, 60)
        b = rng.uniform(0.0, 10.0, (40, 2))
        shift = k * 10.0
        expected = pairwise_distances(a, b, torus10)
        assert np.allclose(pairwise_distances(a + shift, b, torus10), expected, rtol=0, atol=1e-12)
        assert np.allclose(pairwise_distances(a, b - shift, torus10), expected, rtol=0, atol=1e-12)
        shifted_x = a + np.array([shift, 0.0])
        assert np.allclose(pairwise_distances(shifted_x, b, torus10), expected, rtol=0, atol=1e-12)
        origin = b[0]
        assert np.allclose(distances_to_point(a + shift, origin - shift, torus10),
                           expected[:, 0], rtol=0, atol=1e-12)
        for p, d in zip(a[:10], expected[:10, 0]):
            assert abs(distances_to_point([p + shift], origin, torus10)[0] - d) <= 1e-12


class TestWindow:
    def test_toroidal_area(self, torus10):
        assert torus10.sampling_area() == 100.0

    @pytest.mark.parametrize("side", [0.0, -1.0, np.inf, np.nan])
    def test_bad_side_rejected(self, side):
        with pytest.raises(ValueError):
            SimulationWindow(side=side)

    def test_wrap_into_window(self, torus10):
        wrapped = torus10.wrap(np.array([[10.5, -0.5]]))
        assert np.allclose(wrapped, [[0.5, 9.5]])


class TestUniformSampling:
    def test_support(self, torus10):
        rng = np.random.default_rng(6)
        pts = uniform_points(torus10, 1000, rng)
        assert pts.shape == (1000, 2)
        assert np.all(pts >= 0.0) and np.all(pts < 10.0)

    def test_mean_clt(self, torus10):
        rng = np.random.default_rng(7)
        n = 100_000
        pts = uniform_points(torus10, n, rng)
        se = (10.0 / np.sqrt(12.0)) / np.sqrt(n)
        assert abs(pts[:, 0].mean() - 5.0) < 3.0 * se
        assert abs(pts[:, 1].mean() - 5.0) < 3.0 * se

    def test_uniformity_chi_square_suites(self, torus10):
        # 10x10 grid on 1e5 draws: p > 0.01 in at least 95% of suites
        suites, n = 40, 100_000
        passes = 0
        for s in range(suites):
            rng = np.random.default_rng(1000 + s)
            pts = uniform_points(torus10, n, rng)
            counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=10, range=[[0, 10], [0, 10]])
            expected = n / 100.0
            chi2 = np.sum((counts - expected) ** 2) / expected
            p = stats.chi2.sf(chi2, 99)
            passes += p > 0.01
        assert passes >= int(0.95 * suites)

    def test_negative_count_rejected(self, torus10):
        with pytest.raises(ValueError):
            uniform_points(torus10, -1, np.random.default_rng(0))
