"""The package's public names: everything exported resolves, the
Newton-kernel wrappers that only tests used are not exported, and every
library entry point rejects a size, budget or discrepancy level outside
its domain with a typed error before any work."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tikmor
from tikmor import (
    BidiagFactorization,
    DimensionError,
    InfeasibleDiscrepancyError,
    RegularizationMatrix,
    cgls,
    random_uniform_problem,
    sirt_solve,
)

REMOVED = (
    "eval_F",
    "solve_newton_system",
    "projected_newton_system",
    "PntmResult",
    "GbitResult",
    "normal_equation_solve",
    "cgls_priorconditioned",
    "NtmResult",
    "SirtResult",
    "CglsResult",
    "init_bidiag",
    "step_interval",
    "BidiagBreakdown",
)


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from tikmor import *", namespace)
    for name in tikmor.__all__:
        assert name in namespace
        assert getattr(tikmor, name) is namespace[name]
    assert len(set(tikmor.__all__)) == len(tikmor.__all__)


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in tikmor.__all__
        assert not hasattr(tikmor, name)


def test_import_does_not_load_scipy_linalg():
    # every Tikhonov solve runs in an eigenbasis from numpy's eigh; scipy.linalg
    # would add its import time and resident memory to every run
    code = "import sys, tikmor, tikmor.cli; print('scipy.linalg' in sys.modules)"
    src = str(Path(tikmor.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


DENSE_RUN = """
import sys, tempfile
import tikmor, tikmor.cli
from tikmor import (
    DenseOperator, RegularizationMatrix, SparseOperator, as_operator, cgls,
    gbit_solve, load_matrix_market, load_problem, ntm_solve, pntm_solve,
    priorconditioned_problem, random_uniform_problem, save_problem, sirt_solve,
)

p = random_uniform_problem(40, 30, 0.1, 3)
ntm_solve(p), pntm_solve(p), gbit_solve(p), sirt_solve(p)
t, recover = priorconditioned_problem(p, RegularizationMatrix(30))
recover(cgls(t.operator, t.b, t.discrepancy_target).x)
with tempfile.TemporaryDirectory() as d:
    save_problem(p, d)
    assert isinstance(load_problem(d).operator, DenseOperator)
print('scipy.sparse' in sys.modules)

# sparse inputs still load it and give sparse operators
assert isinstance(load_matrix_market(sys.argv[1]), SparseOperator)
import scipy.sparse
assert isinstance(as_operator(scipy.sparse.eye(3, format="csr")), SparseOperator)
"""


def test_dense_path_does_not_load_scipy_sparse():
    # scipy.sparse costs every process its import time and resident memory;
    # only a sparse input (csr matrix, coordinate .mtx) may bring it in
    fixture = Path(__file__).parent / "fixtures" / "survey219.mtx"
    src = str(Path(tikmor.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", DENSE_RUN, str(fixture)], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_readme_library_sketch_runs(capsys):
    # README's "Library sketch" block as written: a public name or result
    # field it uses that is renamed or removed fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library sketch\n", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [len(line.split()) for line in lines] == [3, 3]


SMALL = random_uniform_problem(8, 5, 0.1, 0)
A, B = SMALL.operator, SMALL.b

BAD_INPUTS = {
    "cgls-eps-nan": (lambda: cgls(A, B, float("nan")), InfeasibleDiscrepancyError,
                     "positive and finite, got nan"),
    "cgls-eps-inf": (lambda: cgls(A, B, float("inf")), InfeasibleDiscrepancyError,
                     "positive and finite, got inf"),
    "cgls-max_iter-2.5": (lambda: cgls(A, B, 0.1, max_iter=2.5), ValueError,
                          "max_iter must be an integer, got 2.5"),
    "cgls-max_iter-0": (lambda: cgls(A, B, 0.1, max_iter=0), ValueError,
                        "max_iter must be >= 1, got 0"),
    "cgls-max_iter--3": (lambda: cgls(A, B, 0.1, max_iter=-3), ValueError,
                         "max_iter must be >= 1, got -3"),
    "sirt-max_iter-2.5": (lambda: sirt_solve(SMALL, max_iter=2.5), ValueError,
                          "max_iter must be an integer, got 2.5"),
    "sirt-max_iter-0": (lambda: sirt_solve(SMALL, max_iter=0), ValueError,
                        "max_iter must be >= 1, got 0"),
    "sirt-max_iter--3": (lambda: sirt_solve(SMALL, max_iter=-3), ValueError,
                         "max_iter must be >= 1, got -3"),
    "bidiag-k_max-2.5": (lambda: BidiagFactorization(A, B, 2.5), ValueError,
                         "k_max must be an integer, got 2.5"),
    "bidiag-k_max-0": (lambda: BidiagFactorization(A, B, 0), ValueError,
                       "k_max must be >= 1, got 0"),
    "regularization-dim-2.5": (lambda: RegularizationMatrix(2.5), DimensionError,
                               "dim must be an integer, got 2.5"),
    "random-n-30.5": (lambda: random_uniform_problem(40, 30.5, 0.1, 1), DimensionError,
                      "n must be an integer, got 30.5"),
    "random-m-0": (lambda: random_uniform_problem(0, 0, 0.1, 1), DimensionError,
                   "m must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_entry_points_reject_inputs_outside_their_domain(case):
    call, error, match = BAD_INPUTS[case]
    with pytest.raises(error, match=match):
        call()


def test_numpy_integers_are_sizes_and_budgets():
    p = random_uniform_problem(np.int64(8), np.int32(5), 0.1, 0)
    assert np.array_equal(p.operator.to_dense(), A.to_dense())
    assert RegularizationMatrix(np.int64(3)).dim == 3
    assert cgls(A, B, 0.1, max_iter=np.int64(2)).n_iter <= 2
    assert sirt_solve(SMALL, max_iter=np.int64(2)).n_iter <= 2
    assert BidiagFactorization(A, B, np.int64(2)).expand()
