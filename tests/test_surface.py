"""The package surface that outside callers rely on.

``bench/spans.py`` names the functions its tracer wraps; deleting or
renaming one of them must fail here rather than in a traced benchmark
run.  Every name in ``voidnet.__all__`` must also resolve and have a
caller in the package or the benchmark, every field of an exported
dataclass must be read there outside its own class, the Monte-Carlo
estimators must take ``(reps, window, seed)`` in that order, and
importing the CLI must stay free of the process-pool machinery and of
``scipy.stats``, and every config field must have exactly one CLI flag.
"""

import argparse
import ast
import dataclasses
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import voidnet
import voidnet.cli  # noqa: F401  (the tracer patches every loaded voidnet module)
from voidnet.association import cell_count_pmf_mc, void_probability_mc, void_probability_sweep
from voidnet.coverage import coverage_sweep, sir_samples
from voidnet.harness import ExperimentConfig
from voidnet.spatialstats import remark2_test

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"

# Public names whose only callers are tests, each with the reason it stays.
TEST_ONLY_NAMES = {
    "rho_strongest_power": "acceptance criterion 9 checks the paper's strongest-power shape with it",
}


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


def _reader_sources() -> list[Path]:
    """The package's modules and the benchmark's.  The package's own
    re-exports in __init__ are not callers or readers."""
    package = Path(voidnet.__file__).parent
    return [p for p in package.glob("*.py") if p.name != "__init__.py"] + sorted(BENCH.glob("*.py"))


def _referenced_names(path: Path) -> set[str]:
    """Names a module uses: loaded names, attributes, and dotted strings
    such as the ``"WeightLaw.sample_weights"`` targets of the bench tracer.
    A definition's own name is not a use of it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                names.update(node.value.split("."))
    return names


def test_every_public_name_has_a_caller():
    used = set().union(*map(_referenced_names, _reader_sources()))
    uncalled = [name for name in voidnet.__all__ if name not in used]
    assert sorted(uncalled) == sorted(TEST_ONLY_NAMES)


def _attributes_read(path: Path) -> list[tuple[str, frozenset[str]]]:
    """Every attribute a module reads (``x.name``), with the names of the
    classes whose bodies enclose the read."""
    reads = []

    def visit(node, classes):
        if isinstance(node, ast.ClassDef):
            classes = classes | {node.name}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, classes))
        for child in ast.iter_child_nodes(node):
            visit(child, classes)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return reads


def test_every_exported_dataclass_field_is_read():
    # A field that only its own methods and the tests read is a value no
    # run uses.
    reads = [read for path in _reader_sources() for read in _attributes_read(path)]
    unread = []
    for name in voidnet.__all__:
        cls = getattr(voidnet, name)
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            continue
        for field in dataclasses.fields(cls):
            if not any(attr == field.name and cls.__name__ not in classes
                       for attr, classes in reads):
                unread.append(f"{cls.__name__}.{field.name}")
    assert unread == []


@pytest.mark.parametrize("estimator", [void_probability_mc, void_probability_sweep,
                                       cell_count_pmf_mc, remark2_test, sir_samples, coverage_sweep],
                         ids=lambda f: f.__name__)
def test_estimators_take_reps_window_seed(estimator):
    names = list(inspect.signature(estimator).parameters)
    start = names.index("reps")
    assert names[start:start + 3] == ["reps", "window", "seed"]


def test_cli_import_loads_no_pool():
    # run_reps runs replications on threads, so neither CLI start-up nor
    # any run loads the process-pool machinery.  Nor does CLI start-up pay
    # for scipy.stats: csr_test takes its chi-square tails from
    # scipy.special.  A fresh interpreter: other tests in this one may have
    # loaded them.
    src = Path(voidnet.__file__).resolve().parents[1]
    code = ("import sys, voidnet.cli; print(sorted(m for m in "
            "('multiprocessing', 'multiprocessing.pool', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=src, timeout=120)
    assert out.stdout.strip() == "[]"


def test_every_config_field_has_one_flag():
    # The CLI reads each field as getattr(args, name, None), so a field
    # without a flag could not be set from the command line and nothing
    # would say so; two flags on one field would silently overwrite each other.
    parser = argparse.ArgumentParser()
    voidnet.cli._add_common(parser)
    dests = [action.dest for action in parser._actions]
    wanted = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"]
    assert {name: dests.count(name) for name in wanted} == dict.fromkeys(wanted, 1)
