"""Homogeneous Poisson point patterns, random scaling maps and CSR tests.

Implements sampling of homogeneous PPPs on a window, the per-point random
scaling map (each point is scaled about the window centre by its own
i.i.d. positive scale factor, which turns an intensity-lambda PPP into one
of intensity lambda * E[1/T^2]), a quadrat-count chi-square test of
complete spatial randomness, and the replication engine every
Monte-Carlo estimate runs on (:func:`run_reps`), which splits the
replications of a batch across the usable CPUs.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .geometry import SimulationWindow, uniform_points


def rep_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for replication ``index``.

    A stream depends only on ``(seed, index)``, not on which process draws
    it or in what order, so :func:`run_reps` can hand replications to
    worker processes and still return bit-identical results.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# Sequential stopping gives up after this many batches of replications.
MAX_SEQUENTIAL_BATCHES = 16

# Wall time to fork a worker pool, run one task on it and tear it down
# (about 12 ms on a 2-core Xeon VM, Python 3.11).  A batch goes to workers
# only when sharing the rest of it saves more wall time than this.
_POOL_START_S = 0.012

# The (draw, seed, next_rep) of the run_reps call that forked this pool
# worker; set only inside workers, which inherit them instead of unpickling.
_worker_job = None


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 (serial) where the OS cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def _start_worker(draw, seed: int, next_rep) -> None:
    global _worker_job
    _worker_job = (draw, seed, next_rep)


def _draws(draw, seed: int, lo: int, hi: int) -> list:
    return [draw(rep_rng(seed, r)) for r in range(lo, hi)]


def _claim_draws(draw, seed: int, next_rep, hi: int) -> list:
    """``(index, error, result)`` of each index below ``hi`` this process claims.

    Processes claim indices one at a time from the shared ``next_rep``, so
    one that other load slows takes fewer; a draw that raises ends all claims.
    """
    claimed = []
    while not claimed or claimed[-1][1] is None:
        with next_rep.get_lock():
            r = next_rep.value
            next_rep.value = r + 1
        if r >= hi:
            break
        try:
            claimed.append((r, None, draw(rep_rng(seed, r))))
        except Exception as error:
            claimed.append((r, error, None))
            next_rep.value = hi
    return claimed


def _worker_draws(hi: int) -> bytes:
    """This worker's claims, pickled here so the caller unpickles them itself."""
    return pickle.dumps([(r, None if e is None else _portable(e), result)
                         for r, e, result in _claim_draws(*_worker_job, hi)])


def _unpickled_share(share: bytes) -> list:
    """A worker's claims, unpickled in the caller's thread.

    Left to the pool, a result that fails to unpickle would kill its
    result handler and leave the caller waiting forever.
    """
    try:
        return pickle.loads(share)
    except Exception as error:
        raise RuntimeError("a worker's draw results do not survive pickling") from error


def _portable(error: Exception):
    """``error`` with the worker's traceback, fit to be unpickled by the parent.

    An error that does not survive a pickle round trip (say, one whose
    constructor takes two arguments and that has no ``__reduce__``) would
    keep the parent from unpickling the worker's whole share, so a
    :class:`RuntimeError` naming it travels in its place.
    """
    from multiprocessing.pool import ExceptionWithTraceback  # keeps the worker's traceback

    sent = error
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        sent = RuntimeError(f"{type(error).__qualname__}: {error} "
                            "(raised in a worker; it does not survive pickling)")
    return ExceptionWithTraceback(sent, error.__traceback__)


class _Batches:
    """Runs index ranges of one ``run_reps`` call, forking workers once it pays.

    A range's results are always in index order.  The pool, once started,
    serves every later batch of the call; :meth:`close` reaps its workers.
    """

    def __init__(self, draw, seed: int):
        self.draw, self.seed = draw, seed
        self.pool, self.next_rep, self.workers = None, None, 0

    def run(self, lo: int, hi: int) -> list:
        results = []
        if self.pool is None:
            started = time.perf_counter()
            results.append(self.draw(rep_rng(self.seed, lo)))
            lo += 1
            if not self._fork_pool(hi - lo, time.perf_counter() - started):
                return results + _draws(self.draw, self.seed, lo, hi)
        self.next_rep.value = lo  # this process and the workers claim the rest
        pending = [self.pool.apply_async(_worker_draws, (hi,)) for _ in range(self.workers)]
        claimed = _claim_draws(self.draw, self.seed, self.next_rep, hi)
        claimed += [c for share in pending for c in _unpickled_share(share.get())]
        for _, error, result in sorted(claimed, key=lambda c: c[0]):
            if error is not None:
                raise error
            results.append(result)
        return results

    def _fork_pool(self, rest: int, draw_s: float) -> bool:
        """Fork a pool if sharing ``rest`` draws of ``draw_s`` s each saves more than it costs.

        Workers must inherit the draw, a closure that cannot be pickled, so
        only ``fork`` will do.  Forking is unsafe while other threads run,
        such as those of a pool still open around a nested call, and a
        daemonic pool worker may not fork at all.
        """
        cpus = _usable_cpus()
        saved_s = (rest - -(-rest // cpus)) * draw_s  # serial time minus the largest share's
        if saved_s <= _POOL_START_S or threading.active_count() > 1:
            return False
        import multiprocessing  # only a run that can use a pool pays for the import

        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):
            return False
        context = multiprocessing.get_context("fork")
        self.next_rep = context.Value("q", 0)
        self.workers = cpus - 1
        self.pool = context.Pool(self.workers, initializer=_start_worker,
                                 initargs=(self.draw, self.seed, self.next_rep))
        return True

    def close(self) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()


def run_reps(draw, seed: int, reps: int, done=None) -> list:
    """``[draw(rep_rng(seed, r)) for r in range(reps)]``, optionally sequential.

    ``draw`` returns a compact per-replication summary, never a raw
    realization, since all results are kept.  With ``done`` given, the
    run is a fixed-width sequential procedure (Chow & Robbins 1965):
    while ``done(results)`` is false, another batch of ``reps`` continues
    the streams, so stopping after k batches equals the fixed run of
    k * reps.  Raises :class:`RuntimeError` after ``MAX_SEQUENTIAL_BATCHES``.

    Replications may run in parallel.  The first of a batch is timed here;
    when splitting the rest across the usable CPUs would save more wall
    time than starting a pool costs, this process and one worker forked
    per further CPU (one pool serves all batches of the call) claim them
    one index at a time.  Workers return their summaries, which must
    survive pickling (else :class:`RuntimeError`), and ``done`` sees them
    in index order, so the result and the stopping point do not depend on
    who drew what.  A draw's exception reaches the caller as the serial
    run would raise it, except that one raised in a worker that does not
    survive pickling arrives as a :class:`RuntimeError` naming it; side
    effects of a draw inside a worker are lost.  Runs stay serial on one
    CPU, without ``fork``, inside a worker and while other threads run (so
    a nested call never forks).
    Raises :class:`ValueError` for ``reps < 1`` before any draw.
    """
    if reps < 1:
        raise ValueError(f"need at least one replication, got reps={reps}")
    batches = _Batches(draw, seed)
    try:
        results = batches.run(0, reps)
        while done is not None and not done(results):
            if len(results) >= MAX_SEQUENTIAL_BATCHES * reps:
                raise RuntimeError(f"half-width target still missed after {len(results)} replications")
            results.extend(batches.run(len(results), len(results) + reps))
    finally:
        batches.close()
    return results


@dataclass(frozen=True)
class PointPattern:
    """An immutable realization of a planar point process.

    ``intensity_declared`` is the intensity the pattern is supposed to
    have (points per km^2); the realized count fluctuates around
    intensity * area.
    """

    points: np.ndarray
    window: SimulationWindow
    intensity_declared: float

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
        if not (np.isfinite(self.intensity_declared) and self.intensity_declared >= 0):
            raise ValueError(f"declared intensity must be >= 0, got {self.intensity_declared}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __reduce__(self):
        # Rebuild through __post_init__ so an unpickled pattern (say, one a
        # run_reps worker returned) keeps its read-only points.
        return type(self), (self.points, self.window, self.intensity_declared)

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
    return PointPattern(points=pts, window=window, intensity_declared=float(intensity))


def map_pattern(
    pattern: PointPattern,
    marks: np.ndarray,
    target: SimulationWindow,
    mean_inverse_square: float,
) -> PointPattern:
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

    ``mean_inverse_square`` is E[1/T^2] of the mark law; the declared
    output intensity is the source's times it.
    """
    t = np.atleast_1d(np.asarray(marks, dtype=float))
    if len(t) != len(pattern):
        raise ValueError(f"need one mark per point: {len(t)} marks for {len(pattern)} points")
    if not np.all(np.isfinite(t)) or np.any(t <= 0):
        raise ValueError("marks must be positive and finite")

    mapped = target.side / 2.0 + t[:, None] * (pattern.points - pattern.window.side / 2.0)
    kept = mapped[np.all((mapped >= 0.0) & (mapped < target.side), axis=1)]
    out_intensity = pattern.intensity_declared * mean_inverse_square
    return PointPattern(points=kept, window=target, intensity_declared=out_intensity)


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
    if grid < 2:
        raise ValueError("grid must be at least 2")
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
    p_value = float(min(1.0, 2.0 * min(stats.chi2.cdf(statistic, dof), stats.chi2.sf(statistic, dof))))
    return CsrReport(statistic=statistic, dof=dof, p_value=p_value)
