"""The package's public names: everything exported resolves, and the
Newton-kernel wrappers that only tests used are not exported."""

import os
import subprocess
import sys
from pathlib import Path

import tikmor

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
