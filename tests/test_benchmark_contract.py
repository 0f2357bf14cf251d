"""The names the benchmark reads from the package: every workload, built
tiny, runs each of its methods once, and the benchmark's own output check
and trace figures accept the result.

``perfbench/workloads.py`` and ``perfbench/tracer.py`` are imported from
their files as they are; a renamed result field, config field or trace
column, or a renamed entry point that the tracer patches, fails here rather
than only in the benchmark's slower smoke test.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]



def _load(name):
    """perfbench/<name>.py, imported from its file."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("name", NAMES)
def test_workload_methods_pass_the_benchmark_check(workloads, name):
    for item in workloads.WORKLOADS[name](0, tiny=True):
        for label, solve in item.methods:
            out = solve(item.problem)
            assert workloads.check(item.problem, out) == [], (item.pid, label)
            if out.method == "ntm":
                full, steps = workloads.full_steps(out)
                assert 0 <= full <= steps == out.iters
            elif out.method == "pntm":
                reached, outer = workloads.inner_converged(out)
                assert 0 <= reached <= outer == out.krylov_iters


def test_tracer_misses_only_the_known_entry_points():
    # the entry points the tracer patches that src/ no longer has; a rename
    # that drops another traced layer adds to this list (ROADMAP item 4
    # replaces the patching and empties it)
    assert _load("tracer").Tracer().missing == [
        "tikmor.ntm.normal_equation_solve",
        "tikmor.linop.normal_equation_solve",
        "tikmor.pntm._projected_dinv",
        "tikmor.pntm.solve_rescaled_system",
        "tikmor.pntm.init_bidiag",
        "tikmor.reference.init_bidiag",
        "tikmor.linop.LinearOperator|DenseOperator|SparseOperator"
        "|PriorconditionedOperator.gram",
        "tikmor.linop.LinearOperator|DenseOperator|SparseOperator"
        "|PriorconditionedOperator.frobenius_norm",
    ]
