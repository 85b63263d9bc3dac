"""``run_reps`` on threads returns the serial results bit for bit.

Each test runs the same call with one usable CPU (serial) and with two or
three, and requires ``==`` results.  On two or more CPUs every call of two
or more replications opens a thread pool, however cheap its draws are;
the ``cpus`` fixture logs each pool started.
"""

import contextlib
import dataclasses
import multiprocessing
import os
import signal
import sys
import threading
import time

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
    """A numerical failure whose constructor takes two arguments."""

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")
        self.message = message
        self.achieved_tol = achieved_tol


class CodedError(Exception):
    """An error whose constructor takes two arguments and that has no ``__reduce__``.

    Pickling keeps only ``args``, the formatted message, so it cannot be
    rebuilt from a pickle; a run on threads never needs to.
    """

    def __init__(self, message: str, code: int):
        super().__init__(f"{message} (code {code})")
        self.code = code


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
    """``cpus(n)`` makes ``run_reps`` see n CPUs; ``cpus.pools`` logs the pools started."""
    class SpiedPool(pointprocess.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            use.pools.append(self)

    def use(n):
        monkeypatch.setattr(pointprocess, "_usable_cpus", lambda: n)

    use.pools = []
    monkeypatch.setattr(pointprocess, "ThreadPoolExecutor", SpiedPool)
    return use


def serial_and_parallel(cpus, call, workers=2):
    cpus(1)
    serial = call()
    assert not cpus.pools
    cpus(workers)
    parallel = call()
    assert cpus.pools
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


def thread_draw(rng):
    return threading.get_ident(), rng.random()


def pool_open() -> bool:
    return any(t.name.startswith("run_reps") for t in threading.enumerate())


def shared(draw):
    """``draw``, but while a pool is open the first thread to draw waits for a second.

    So at least two threads take part however cheap the draws are.  Wrap
    the draw afresh for each call.
    """
    drew, both = set(), threading.Event()

    def wrapped(rng):
        drew.add(threading.get_ident())
        if len(drew) > 1:
            both.set()
        elif pool_open():
            assert both.wait(timeout=60)
        return draw(rng)

    return wrapped


class TestRunReps:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_ranges_split_across_threads(self, cpus, workers):
        before = threading.active_count()
        serial, parallel = serial_and_parallel(cpus, lambda: run_reps(shared(thread_draw), 61, 9),
                                               workers)
        assert [x for _, x in parallel] == [x for _, x in serial]
        assert {t for t, _ in serial} == {threading.get_ident()}
        assert 2 <= len({t for t, _ in parallel}) <= workers  # any idle thread may claim the rest
        assert threading.active_count() == before  # the pool's threads are joined

    def test_sequential_stopping_sees_the_serial_lists(self, cpus):
        def run():
            seen = []

            def done(results):
                seen.append([x for _, x in results])
                return len(results) >= 7

            return [x for _, x in run_reps(shared(thread_draw), 62, 3, done=done)], seen

        serial, parallel = serial_and_parallel(cpus, run)
        assert parallel == serial
        assert [len(s) for s in parallel[1]] == [3, 6, 9]
        assert len(cpus.pools) == 1  # one pool serves every batch of the call

    @pytest.mark.parametrize(
        "error, bad",
        [(ValueError, (0,)), (ValueError, (1,)), (ValueError, (2,)), (QuadratureError, (2,)),
         (ValueError, (1, 2))],
        ids=["first", "second", "third", "two-argument-error", "lowest-of-two"],
    )
    def test_draw_exception_reaches_the_caller(self, cpus, error, bad):
        # With both 1 and 2 bad, both fail in the parallel run (each waits
        # for the other), which must raise at 1 as the serial one does; the
        # object raised is the one the draw raised, with its own traceback.
        rejected = {rep_rng(63, r).random(): r for r in bad}
        raised, all_bad_drawn = {}, threading.Barrier(len(bad))

        def draw(rng):
            x = rng.random()
            if x in rejected:
                if pool_open():
                    all_bad_drawn.wait(timeout=60)
                raised[rejected[x]] = (
                    ValueError(f"draw {x!r} rejected") if error is ValueError
                    else QuadratureError(f"draw {x!r} rejected", achieved_tol=1e-3))
                raise raised[rejected[x]]
            return x

        seen = []
        for n in (1, 2):
            cpus(n)
            with pytest.raises(error) as info:
                run_reps(shared(draw), 63, 8)
            assert info.value is raised[min(bad)]
            assert info.traceback[-1].name == "draw"
            seen.append((type(info.value), str(info.value), getattr(info.value, "achieved_tol", None)))
        assert seen[0] == seen[1]
        assert len(cpus.pools) == 1

    def test_unpicklable_worker_error_is_raised(self, cpus):
        # An error that cannot be rebuilt from a pickle reaches the caller
        # as itself, whichever thread raised it: same type, message and
        # attributes as the serial run's.
        rejected = rep_rng(63, 2).random()

        def draw(rng):
            x = rng.random()
            if x == rejected:
                raise CodedError(f"draw {x!r} rejected", 7)
            return x

        cpus(1)
        with pytest.raises(CodedError) as serial:
            run_reps(draw, 63, 8)
        cpus(2)
        with watchdog(30), pytest.raises(CodedError) as parallel:
            run_reps(shared(draw), 63, 8)
        assert cpus.pools and type(parallel.value) is CodedError
        assert str(parallel.value) == str(serial.value) and parallel.value.code == 7

    def test_unpicklable_worker_result_comes_back_intact(self, cpus):
        # A result that cannot be rebuilt from a pickle is returned as drawn.
        @shared
        def draw(rng):
            return Reading(rng.random(), "km")

        cpus(2)
        with watchdog(30):
            results = run_reps(draw, 63, 8)
        assert cpus.pools
        assert [(r.value, r.unit) for r in results] == [(rep_rng(63, i).random(), "km")
                                                        for i in range(8)]

    def test_nested_call_stays_serial(self, cpus):
        cpus(2)

        def outer(rng):
            inner = run_reps(thread_draw, 64, 3)
            return threading.get_ident(), inner

        results = run_reps(shared(outer), 65, 6)
        assert len({t for t, _ in results}) == 2  # both threads drew
        for thread, inner in results:
            assert [x for _, x in inner] == [rep_rng(64, r).random() for r in range(3)]
            assert [t for t, _ in inner] == [thread] * 3  # in the outer draw's own thread
        assert len(cpus.pools) == 1  # no inner call opened a pool

    def test_nested_call_of_a_one_rep_run_stays_serial(self, cpus):
        # The one replication is drawn like any batch, so the draw is marked
        # as drawing and its own run_reps call opens no pool either.
        cpus(2)
        before = getattr(pointprocess._this_thread, "drawing", False)
        [inner] = run_reps(lambda rng: run_reps(thread_draw, 64, 3), 68, 1)
        assert inner == [(threading.get_ident(), rep_rng(64, r).random()) for r in range(3)]
        assert not cpus.pools
        assert getattr(pointprocess._this_thread, "drawing", False) == before

    def test_one_draw_left_stays_in_process(self, cpus):
        # A single replication per batch runs on the calling thread.
        cpus(2)
        results = run_reps(thread_draw, 67, 1)
        assert [t for t, _ in results] == [threading.get_ident()]
        seen = []
        results = run_reps(thread_draw, 67, 1, done=lambda rs: seen.append(len(rs)) or len(rs) >= 3)
        assert seen == [1, 2, 3] and {t for t, _ in results} == {threading.get_ident()}
        assert not cpus.pools

    def test_cheap_draws_stay_in_process(self, cpus):
        # However cheap, draws run on threads of this process, so what they
        # record stays recorded.
        cpus(2)
        calls = []
        run_reps(lambda rng: calls.append(rng.random()), 66, 50)
        assert sorted(calls) == sorted(rep_rng(66, r).random() for r in range(50))
        assert cpus.pools

    def test_a_failing_draw_cancels_the_pending_ones(self, cpus):
        # Index 1 of 200 raises; no thread claims an index after that.
        cpus(2)
        rejected = rep_rng(68, 1).random()
        drawn = []

        def draw(rng):
            x = rng.random()
            drawn.append(x)
            if x == rejected:
                raise ValueError("rejected")
            time.sleep(0.001)  # lets the failing thread run while the other draws
            return x

        with watchdog(30), pytest.raises(ValueError, match="rejected"):
            run_reps(draw, 68, 200)
        assert cpus.pools
        assert rejected in drawn and len(drawn) < 50

    def test_each_index_drawn_once_under_contention(self, cpus):
        # Eight threads on fewer cores, switching every microsecond: a lost
        # or repeated claim would skip or redraw an index, and every index
        # below a failing one must still be drawn.
        expected = [rep_rng(70, r).random() for r in range(2000)]
        drawn = [[], []]

        def draw(rng, run, fail):
            x = rng.random()
            drawn[run].append(x)
            if fail and x == expected[1234]:
                raise ValueError("rejected")
            return x

        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with watchdog(60):
                assert run_reps(lambda rng: draw(rng, 0, False), 70, 2000) == expected
                with pytest.raises(ValueError):
                    run_reps(lambda rng: draw(rng, 1, True), 70, 2000)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(drawn[0]) == sorted(expected)
        assert len(drawn[1]) == len(set(drawn[1])) and set(expected[:1235]) <= set(drawn[1])

    def test_parallel_run_starts_no_process(self, cpus):
        cpus(2)
        results = run_reps(shared(lambda rng: os.getpid()), 69, 8)
        assert cpus.pools
        assert results == [os.getpid()] * 8
        assert multiprocessing.active_children() == []


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
