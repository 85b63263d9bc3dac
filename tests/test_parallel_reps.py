"""``run_reps`` on worker processes returns the serial results bit for bit.

Each test runs the same call with one usable CPU (serial) and with two or
three, and requires ``==`` results.  The ``cpus`` fixture also sets the
pool start-up cost to zero, so on two CPUs every batch of three or more
replications forks, however cheap its draws are.
"""

import contextlib
import dataclasses
import multiprocessing
import os
import signal

import numpy as np
import pytest

from voidnet import harness, pointprocess
from voidnet.association import void_probability_sweep
from voidnet.channel import ChannelParams, WeightLaw
from voidnet.coverage import coverage_sweep
from voidnet.geometry import SimulationWindow
from voidnet.pointprocess import rep_rng, run_reps
from voidnet.spatialstats import ppp_envelope, remark2_test

RAYLEIGH = ChannelParams(m=1.0, mu=0.0, sigma2=0.0, alpha=4.0)


class QuadratureError(RuntimeError):
    """A numerical failure whose constructor takes two arguments.

    The default pickling rebuilds an exception from ``args``, here the
    formatted message alone, so ``__reduce__`` must pass both back.
    """

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")
        self.message = message
        self.achieved_tol = achieved_tol

    def __reduce__(self):
        return type(self), (self.message, self.achieved_tol)


class CodedError(Exception):
    """An error whose constructor takes two arguments and that has no ``__reduce__``.

    Pickling keeps only ``args``, the formatted message, so unpickling
    calls the constructor with one argument and fails.
    """

    def __init__(self, message: str, code: int):
        super().__init__(f"{message} (code {code})")


class Reading:
    """A draw result whose ``__reduce__`` rebuilds it with one of its two arguments.

    It pickles, but unpickling calls the constructor with too few arguments.
    """

    def __init__(self, value: float, unit: str):
        self.value, self.unit = value, unit

    def __reduce__(self):
        return type(self), (self.value,)


@contextlib.contextmanager
def watchdog(seconds: int):
    """Raise :class:`TimeoutError` in the block if it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes ``run_reps`` see n CPUs; ``cpus.forked`` logs pool starts."""
    fork_pool = pointprocess._Batches._fork_pool

    def spy(self, *args):
        use.forked.append(fork_pool(self, *args))
        return use.forked[-1]

    def use(n):
        monkeypatch.setattr(pointprocess, "_usable_cpus", lambda: n)
        monkeypatch.setattr(pointprocess, "_POOL_START_S", 0.0)

    use.forked = []
    monkeypatch.setattr(pointprocess._Batches, "_fork_pool", spy)
    return use


def serial_and_parallel(cpus, call, workers=2):
    cpus(1)
    serial = call()
    assert not any(cpus.forked)
    cpus(workers)
    parallel = call()
    assert any(cpus.forked)
    return serial, parallel


def same(a, b) -> bool:
    """Field-by-field equality that also compares array fields exactly."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def pid_draw(rng):
    return os.getpid(), rng.random()


def with_workers(draw):
    """``draw``, but this process waits beside an open pool until a worker has drawn.

    Replication 0 is timed here before any pool exists.  With a pool,
    this process claims replication 1 and holds it until a worker has
    claimed replication 2, so workers take part however cheap the draws
    are.
    """
    parent = os.getpid()
    worker_drew = multiprocessing.get_context("fork").Event()

    def wrapped(rng):
        if os.getpid() != parent:
            worker_drew.set()
        elif multiprocessing.active_children():
            assert worker_drew.wait(timeout=60)
        return draw(rng)

    return wrapped


class TestRunReps:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_ranges_split_across_processes(self, cpus, workers):
        draw = with_workers(pid_draw)
        serial, parallel = serial_and_parallel(cpus, lambda: run_reps(draw, 61, 9), workers)
        assert [x for _, x in parallel] == [x for _, x in serial]
        pids = [pid for pid, _ in parallel]
        assert pids[:2] == [os.getpid()] * 2  # timed here, then claimed beside the workers
        assert 2 <= len(set(pids)) <= workers  # any idle worker may claim the rest

    def test_sequential_stopping_sees_the_serial_lists(self, cpus):
        def run():
            seen = []

            def done(results):
                seen.append([x for _, x in results])
                return len(results) >= 7

            return [x for _, x in run_reps(pid_draw, 62, 3, done=done)], seen

        serial, parallel = serial_and_parallel(cpus, run)
        assert parallel == serial
        assert [len(s) for s in parallel[1]] == [3, 6, 9]

    @pytest.mark.parametrize(
        "error, bad",
        [(ValueError, (0,)), (ValueError, (1,)), (ValueError, (2,)), (QuadratureError, (2,)),
         (ValueError, (1, 2))],
        ids=["first", "parent-share", "worker-share", "quadrature-in-worker", "lowest-of-two"],
    )
    def test_draw_exception_reaches_the_caller(self, cpus, error, bad):
        # 8 reps on 2 CPUs: 0 is timed here, 1 is claimed here and 2 on the
        # worker.  With both 1 and 2 bad, the parallel run must raise at 1
        # as the serial one does, whichever process fails first.
        rejected = {rep_rng(63, r).random() for r in bad}

        @with_workers
        def draw(rng):
            x = rng.random()
            if x in rejected:
                raise (ValueError(f"draw {x!r} rejected") if error is ValueError
                       else QuadratureError(f"draw {x!r} rejected", achieved_tol=1e-3))
            return x

        raised = []
        for n in (1, 2):
            cpus(n)
            with pytest.raises(error) as info:
                run_reps(draw, 63, 8)
            raised.append((type(info.value), str(info.value), getattr(info.value, "achieved_tol", None)))
        assert raised[0] == raised[1]
        if bad == (2,):  # raised on the worker, whose traceback comes along
            assert "Traceback" in str(info.value.__cause__)

    def test_unpicklable_worker_error_is_raised(self, cpus):
        # The worker's error cannot be rebuilt in this process, so it comes
        # back as a RuntimeError that names it; the serial run raises it as is.
        rejected = rep_rng(63, 2).random()

        @with_workers
        def draw(rng):
            x = rng.random()
            if x == rejected:
                raise CodedError(f"draw {x!r} rejected", 7)
            return x

        cpus(1)
        with pytest.raises(CodedError) as serial:
            run_reps(draw, 63, 8)
        cpus(2)
        with watchdog(30), pytest.raises(RuntimeError) as parallel:
            run_reps(draw, 63, 8)
        assert cpus.forked[-1] and type(parallel.value) is RuntimeError
        assert f"CodedError: {serial.value}" in str(parallel.value)
        assert "Traceback" in str(parallel.value.__cause__)

    def test_unpicklable_worker_result_is_raised(self, cpus):
        # A worker's result pickles there but cannot be rebuilt here; the
        # caller raises instead of waiting for it forever.
        @with_workers
        def draw(rng):
            return Reading(rng.random(), "km")

        cpus(2)
        with watchdog(30), pytest.raises(RuntimeError, match="do not survive pickling") as info:
            run_reps(draw, 63, 8)
        assert cpus.forked[-1] and isinstance(info.value.__cause__, TypeError)

    def test_nested_call_stays_serial(self, cpus):
        cpus(2)

        def outer(rng):
            inner = run_reps(lambda inner_rng: (os.getpid(), inner_rng.random()), 64, 3)
            return os.getpid(), inner

        results = run_reps(with_workers(outer), 65, 6)
        assert {pid for pid, _ in results} != {os.getpid()}  # some ran on a worker
        for pid, inner in results:
            assert [x for _, x in inner] == [rep_rng(64, r).random() for r in range(3)]
        # Replication 0 is timed before the pool exists, so its inner call
        # may fork; every later one runs beside the open pool or in a worker.
        for pid, inner in results[1:]:
            assert [p for p, _ in inner] == [pid] * 3

    def test_one_draw_left_stays_in_process(self, cpus):
        # Sharing a single remaining draw saves nothing, whatever a pool costs.
        cpus(2)
        assert {pid for pid, _ in run_reps(pid_draw, 67, 2)} == {os.getpid()}
        assert cpus.forked == [False]

    def test_cheap_draws_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(pointprocess, "_usable_cpus", lambda: 2)
        calls = []
        run_reps(calls.append, 66, 50)
        assert len(calls) == 50


class TestExperiments:
    def test_void_probability_sweep_with_half_width(self, cpus):
        args = ((0.5, 1.0, 4.0), 370.0, RAYLEIGH, WeightLaw.nearest(), 4, SimulationWindow(side=2.4))
        serial, parallel = serial_and_parallel(
            cpus, lambda: void_probability_sweep(*args, seed=52, half_width=0.01)
        )
        assert parallel == serial
        assert serial[0].reps > 4  # the half-width rule added batches

    def test_coverage_sweep(self, cpus):
        serial, parallel = serial_and_parallel(cpus, lambda: coverage_sweep(
            (0.5, 2.0), 370.0, RAYLEIGH, WeightLaw.unit(), beta=0.8, reps=12, seed=67,
            window=SimulationWindow(side=1.2),
        ))
        assert parallel == serial

    def test_void_probability_sweep_shadowed_lognormal(self, cpus):
        # the thinned association kernel draws a varying number of candidates
        cp = ChannelParams(m=1.0, mu=0.0, sigma2=3.39, alpha=4.0)
        serial, parallel = serial_and_parallel(cpus, lambda: void_probability_sweep(
            (0.5, 2.0), 370.0, cp, WeightLaw.lognormal(0.0, 4.0), 6, SimulationWindow(side=1.2),
            seed=69,
        ))
        assert parallel == serial

    def test_remark2_test(self, cpus):
        serial, parallel = serial_and_parallel(cpus, lambda: remark2_test(
            370.0, 185.0, RAYLEIGH, WeightLaw.nearest(), 6, SimulationWindow(side=1.2), seed=68,
            n_envelope=39,
        ))
        assert same(parallel, serial)

    def test_ppp_envelope(self, cpus):
        serial, parallel = serial_and_parallel(
            cpus, lambda: ppp_envelope(200.0, SimulationWindow(side=1.0), [0.05, 0.1, 0.2],
                                       n_envelope=39, seed=69)
        )
        assert same(parallel, serial)

    def test_conservation_check(self, cpus):
        config = harness.ExperimentConfig(experiment="conservation-check", lambda_b=100.0, reps=20,
                                          mark_law="deterministic:2", seed=70)
        serial, parallel = serial_and_parallel(cpus, lambda: harness._conservation_rows(config))
        assert parallel == serial
