"""The package surface that outside callers rely on.

``bench/spans.py`` names the functions its tracer wraps; deleting or
renaming one of them must fail here rather than in a traced benchmark
run.  Every name in ``voidnet.__all__`` must also resolve, the Monte-Carlo
estimators must take ``(reps, window, seed)`` in that order, and importing
the CLI must stay free of the process-pool machinery.
"""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import voidnet
import voidnet.cli  # noqa: F401  (the tracer patches every loaded voidnet module)
from voidnet.association import cell_count_pmf_mc, void_probability_mc, void_probability_sweep
from voidnet.coverage import coverage_sweep, sir_samples
from voidnet.spatialstats import remark2_test

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("voidnet_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module_name, attr):
    owner = sys.modules[f"voidnet.{module_name}"]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_and_uninstalls():
    spans = _load_spans()
    originals = {(m, a): _target(m, a) for m, a, _ in spans.TARGETS}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (m, a), original in originals.items():
            assert _target(m, a) is not original, f"{m}.{a} was not wrapped"
    finally:
        tracer.uninstall()
    for (m, a), original in originals.items():
        assert _target(m, a) is original, f"{m}.{a} was not restored"


def test_all_names_resolve():
    missing = [name for name in voidnet.__all__ if not hasattr(voidnet, name)]
    assert missing == []


@pytest.mark.parametrize("estimator", [void_probability_mc, void_probability_sweep,
                                       cell_count_pmf_mc, remark2_test, sir_samples, coverage_sweep],
                         ids=lambda f: f.__name__)
def test_estimators_take_reps_window_seed(estimator):
    names = list(inspect.signature(estimator).parameters)
    start = names.index("reps")
    assert names[start:start + 3] == ["reps", "window", "seed"]


def test_cli_import_loads_no_pool():
    # run_reps imports multiprocessing only when it forks, so CLI start-up
    # does not pay for it.  A fresh interpreter: this one may have forked.
    src = Path(voidnet.__file__).resolve().parents[1]
    code = ("import sys, voidnet.cli; "
            "print(sorted(m for m in ('multiprocessing', 'multiprocessing.pool') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=src, timeout=120)
    assert out.stdout.strip() == "[]"
