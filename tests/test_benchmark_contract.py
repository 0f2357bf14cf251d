"""The names the benchmark reads from the package: every workload, built
tiny, runs each of its methods once, and the benchmark's own output check
and trace figures accept the result.

``perfbench/workloads.py`` is imported from its file as it is; a renamed
result field, config field or trace column fails here rather than only in
the benchmark's slower smoke test.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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
