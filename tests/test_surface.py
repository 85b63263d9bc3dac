"""The package surface that outside callers rely on.

``bench/spans.py`` names the functions its tracer wraps; deleting or
renaming one of them must fail here rather than in a traced benchmark
run.  Every name in ``voidnet.__all__`` must also resolve.
"""

import importlib.util
import sys
from pathlib import Path

import voidnet
import voidnet.cli  # noqa: F401  (the tracer patches every loaded voidnet module)

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
