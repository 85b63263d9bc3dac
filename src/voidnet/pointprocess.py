"""Homogeneous Poisson point patterns, random scaling maps and CSR tests.

Implements sampling of homogeneous PPPs on a window, the per-point random
scaling map (each point is scaled about the window centre by its own
i.i.d. positive scale factor, which turns an intensity-lambda PPP into one
of intensity lambda * E[1/T^2]), a quadrat-count chi-square test of
complete spatial randomness, and the replication engine every
Monte-Carlo estimate runs on (:func:`run_reps`), which runs the
replications of a batch on one thread per usable CPU.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr, chdtrc

from .geometry import SimulationWindow, uniform_points


def rep_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for replication ``index``.

    A stream depends only on ``(seed, index)``, not on which thread draws
    it or in what order, so :func:`run_reps` can hand replications to
    other threads and still return bit-identical results.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# Sequential stopping gives up after this many batches of replications.
MAX_SEQUENTIAL_BATCHES = 16

# ``drawing`` is true on a thread while it draws for a run_reps call, so
# a draw's own run_reps call stays serial.
_this_thread = threading.local()


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 (serial) where the OS cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


class _Claims:
    """The indices of one batch, claimed one at a time by the threads that draw them.

    A thread that other load slows claims fewer.  Claims end at ``stop``:
    the end of the batch, lowered to the lowest index whose draw raised.
    Every index below the lowest failing one is claimed before it, so all
    of those are drawn however the threads interleave.  :meth:`run` marks
    its thread as drawing, then puts back the mark that it found.
    """

    def __init__(self, lo: int, hi: int):
        self.indices, self.stop = itertools.count(lo), hi
        self.results, self.errors = {}, {}
        self.lock = threading.Lock()

    def run(self, draw, seed: int) -> None:
        outer, _this_thread.drawing = getattr(_this_thread, "drawing", False), True
        try:
            for r in self.indices:
                if r >= self.stop:
                    return
                try:
                    self.results[r] = draw(rep_rng(seed, r))
                except BaseException as error:  # run_reps raises it in the calling thread
                    with self.lock:
                        self.errors[r] = error
                        self.stop = min(self.stop, r)
        finally:
            _this_thread.drawing = outer


def run_reps(draw, seed: int, reps: int, done=None) -> list:
    """``[draw(rep_rng(seed, r)) for r in range(reps)]``, optionally sequential.

    ``draw`` returns a compact per-replication summary, never a raw
    realization, since all results are kept.  With ``done`` given, the
    run is a fixed-width sequential procedure (Chow & Robbins 1965):
    while ``done(results)`` is false, another batch of ``reps`` continues
    the streams, so stopping after k batches equals the fixed run of
    k * reps.  Raises :class:`RuntimeError` after ``MAX_SEQUENTIAL_BATCHES``.

    Every batch is one :class:`_Claims` run: this thread and one pool
    thread per further usable CPU (one pool serves all batches of the call)
    claim replications one index at a time.  numpy's large array loops and
    scipy's k-d-tree queries release the GIL, so the draws overlap.
    ``done`` sees the results in index order, so the result and the
    stopping point do not depend on who drew what, and the exception of the
    lowest failing index reaches the caller as raised, after which no
    further index is claimed.  ``draw`` must be safe to call from several
    threads at once.  No pool opens on one CPU, for ``reps == 1`` or within
    a draw of any run_reps call (so a nested call stays serial).
    Raises :class:`ValueError` for ``reps < 1`` before any draw.
    """
    if reps < 1:
        raise ValueError(f"need at least one replication, got reps={reps}")
    cpus = _usable_cpus()
    n_helpers = 0 if reps < 2 or getattr(_this_thread, "drawing", False) else cpus - 1
    pool = ThreadPoolExecutor(n_helpers, thread_name_prefix="run_reps") if n_helpers else None

    def batch(lo: int, hi: int) -> list:
        claims = _Claims(lo, hi)
        helpers = [pool.submit(claims.run, draw, seed) for _ in range(n_helpers)]
        claims.run(draw, seed)
        for helper in helpers:
            helper.result()
        if claims.errors:
            raise claims.errors[min(claims.errors)]
        return [claims.results[r] for r in range(lo, hi)]

    try:
        results = batch(0, reps)
        while done is not None and not done(results):
            if len(results) >= MAX_SEQUENTIAL_BATCHES * reps:
                raise RuntimeError(f"half-width target still missed after {len(results)} replications")
            results.extend(batch(len(results), len(results) + reps))
    finally:
        if pool is not None:
            pool.shutdown()
    return results


@dataclass(frozen=True)
class PointPattern:
    """An immutable realization of a planar point process: read-only
    (n, 2) points inside a window."""

    points: np.ndarray
    window: SimulationWindow

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must be an (n, 2) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        if not self.window.contains(pts):
            raise ValueError("points must lie inside the window")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __reduce__(self):
        # Rebuild through __post_init__ so an unpickled pattern keeps its
        # read-only points.
        return type(self), (self.points, self.window)

    def __len__(self) -> int:
        return self.points.shape[0]


def sample_ppp(intensity: float, window: SimulationWindow, rng: np.random.Generator) -> PointPattern:
    """Draw a homogeneous PPP on the window.

    The point count is Poisson(intensity * side^2) and point locations are
    i.i.d. uniform, so counts in disjoint regions come out independent.
    """
    if not np.isfinite(intensity) or intensity < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity}")
    n = int(rng.poisson(intensity * window.sampling_area()))
    pts = uniform_points(window, n, rng)
    return PointPattern(points=pts, window=window)


def map_pattern(pattern: PointPattern, marks: np.ndarray, target: SimulationWindow) -> PointPattern:
    """Scale every point about the window centre by its own mark.

    Point i at displacement u from the source-window centre moves to
    t_i * u from the target-window centre; points landing outside the
    target window are dropped.  For i.i.d. marks the surviving points on
    the target window form another homogeneous PPP whose intensity is the
    source intensity times E[1/T^2].

    The source window must be large enough that points which would map
    into the target from outside it are negligible; marks below
    target_side / source_side lose coverage (see
    :func:`mark_expansion_factor`).
    """
    t = np.atleast_1d(np.asarray(marks, dtype=float))
    if len(t) != len(pattern):
        raise ValueError(f"need one mark per point: {len(t)} marks for {len(pattern)} points")
    if not np.all(np.isfinite(t)) or np.any(t <= 0):
        raise ValueError("marks must be positive and finite")

    mapped = target.side / 2.0 + t[:, None] * (pattern.points - pattern.window.side / 2.0)
    kept = mapped[np.all((mapped >= 0.0) & (mapped < target.side), axis=1)]
    return PointPattern(points=kept, window=target)


def mark_expansion_factor(mark_sampler, rng: np.random.Generator) -> float:
    """Source/target side ratio adequate for :func:`map_pattern`.

    Estimates, from 200,000 draws of the mark law, the smallest quantile t*
    such that marks below t* contribute at most 1e-4 of E[1/T^2];
    source points further than (target half-width) / t* from the centre
    then have a negligible chance of mapping into the target.  Returns
    max(1, 1/t*).
    """
    t = np.sort(np.asarray(mark_sampler(rng, 200_000), dtype=float))
    if t[0] <= 0:
        raise ValueError("mark sampler produced non-positive values")
    contribution = np.cumsum(1.0 / t**2)  # running E[1/T^2] share of the smallest marks
    droppable = int(np.searchsorted(contribution, 1e-4 * contribution[-1]))
    t_star = float(t[min(droppable, len(t) - 1)])
    return max(1.0, 1.0 / t_star)


MIN_QUADRAT_GRID = 2  # the fewest quadrats per axis of csr_test


@dataclass(frozen=True)
class CsrReport:
    """Quadrat-count chi-square test report."""

    statistic: float
    dof: int
    p_value: float


def csr_test(pattern: PointPattern, grid: int) -> CsrReport:
    """Chi-square quadrat test of complete spatial randomness.

    The window is cut into grid x grid equal quadrats; under CSR the
    counts, conditioned on the total, are exchangeable with common mean,
    and the index-of-dispersion statistic sum (n_i - nbar)^2 / nbar is
    asymptotically chi-square with grid^2 - 1 degrees of freedom.  The
    p-value is two-sided, so both clustering (overdispersion) and
    regularity (underdispersion) are detected.

    Requires at least 5 expected points per quadrat for the chi-square
    approximation to hold.
    """
    if grid < MIN_QUADRAT_GRID:
        raise ValueError(f"grid must be at least {MIN_QUADRAT_GRID}")
    n = len(pattern)
    cells = grid * grid
    expected = n / cells
    if expected < 5.0:
        raise ValueError(
            f"only {expected:.2f} expected points per quadrat; "
            "need at least 5 for a valid chi-square test"
        )
    side = pattern.window.side
    edges = np.linspace(0.0, side, grid + 1)
    counts, _, _ = np.histogram2d(pattern.points[:, 0], pattern.points[:, 1], bins=[edges, edges])
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    dof = cells - 1
    p_value = float(min(1.0, 2.0 * min(chdtr(dof, statistic), chdtrc(dof, statistic))))
    return CsrReport(statistic=statistic, dof=dof, p_value=p_value)
