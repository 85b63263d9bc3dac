"""Finite square simulation windows and toroidal geometry.

The infinite plane is modelled by a square window with a wrap-around
(toroidal) metric, which keeps every point statistically equivalent and
removes boundary bias from association and spatial statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SimulationWindow:
    """Square torus [0, side) x [0, side) standing in for the plane.

    Parameters
    ----------
    side : float
        Window side length in km, > 0.  Distances wrap at the edges.
    """

    side: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.side) or self.side <= 0:
            raise ValueError(f"window side must be positive and finite, got {self.side}")

    def sampling_area(self) -> float:
        """Area of the full square over which points are generated."""
        return self.side * self.side

    def contains(self, points) -> bool:
        """True if every coordinate lies in [0, side)."""
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            return True
        return bool(np.all(pts >= 0.0) and np.all(pts < self.side))

    def wrap(self, points) -> np.ndarray:
        """Map arbitrary coordinates into [0, side) by wrapping."""
        return np.mod(np.asarray(points, dtype=float), self.side)


def _as_xy(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError(f"expected 2-D coordinates, got shape {arr.shape}")
    return arr


def _shortest_way(d: np.ndarray, side: float) -> np.ndarray:
    """Reduce coordinate differences of in-window points, in place, to
    the shorter way around the torus, so |d| becomes min(|d|, side - |d|).

    ``d + side/2`` lies in (-side, 2*side), where one masked period shift
    equals ``np.mod(d + side/2, side)`` bit for bit.
    """
    half = side / 2.0
    d += half
    np.subtract(d, side, out=d, where=d >= side)
    np.add(d, side, out=d, where=d < 0.0)
    d -= half
    return d


def wrapped_deltas(points, origin, window: SimulationWindow) -> np.ndarray:
    """Per-axis displacements from ``origin`` to ``points`` on the torus.

    Each axis difference d is reduced to the shorter way around, i.e.
    |d| becomes min(|d|, side - |d|).
    """
    d = window.wrap(_as_xy(points)) - window.wrap(_as_xy(origin))
    return _shortest_way(d, window.side)


def distances_to_point(points, origin, window: SimulationWindow) -> np.ndarray:
    """Distances from every row of ``points`` to ``origin``."""
    delta = wrapped_deltas(points, origin, window)
    return np.hypot(delta[:, 0], delta[:, 1])


def pairwise_distances(points_a, points_b, window: SimulationWindow) -> np.ndarray:
    """(n, m) matrix of distances between two coordinate arrays.

    Works one axis at a time on (n, m) arrays, in place.
    """
    a = window.wrap(_as_xy(points_a)).reshape(-1, 2)
    b = window.wrap(_as_xy(points_b)).reshape(-1, 2)
    dx = _shortest_way(np.subtract.outer(a[:, 0], b[:, 0]), window.side)
    dy = _shortest_way(np.subtract.outer(a[:, 1], b[:, 1]), window.side)
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def uniform_points(window: SimulationWindow, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points drawn uniformly over the full square, as an (n, 2) array."""
    if n < 0:
        raise ValueError("point count must be non-negative")
    return rng.uniform(0.0, window.side, size=(n, 2))
