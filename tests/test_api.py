"""The package's public names: everything exported resolves, the
Newton-kernel wrappers that only tests used are not exported, and every
library entry point rejects a size, budget, seed, discrepancy level or
file outside its domain with a typed error before any work."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import tikmor
from tikmor import (
    BidiagFactorization,
    ConvergenceFailure,
    DenseOperator,
    DimensionError,
    GbitConfig,
    InfeasibleDiscrepancyError,
    InverseProblem,
    MatrixMarketError,
    NtmConfig,
    PntmConfig,
    PriorconditionedOperator,
    RegularizationMatrix,
    SparseOperator,
    StepRule,
    TikmorError,
    UnsupportedFormatError,
    as_operator,
    cgls,
    gbit_solve,
    load_matrix_market,
    load_problem,
    ntm_solve,
    pntm_solve,
    random_uniform_problem,
    relative_error,
    save_problem,
    sine_wave_problem,
    sirt_solve,
    ssim,
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
    "RelativeStats",
    "relative_stats",
    "ImageView",
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
    # ntm's Tikhonov solves run in an eigenbasis from numpy's eigh, and pntm and
    # gbit take their projected spectra from numpy's SVD; importing scipy.linalg
    # on top of tikmor measured +26-27 MB peak RSS and 0.25-0.33 s (2 vCPU),
    # which every run would pay
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
EYE2 = as_operator(np.eye(2))


def _expanded():
    """SMALL's factorization after one expansion: V has one column."""
    f = BidiagFactorization(A, B, 3)
    f.expand()
    return f


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
    # a bool is not a size or a budget
    "random-m-True": (lambda: random_uniform_problem(True, 4, 0.1, 0), DimensionError,
                      "m must be an integer, got True"),
    "ntm-max_iter-True": (lambda: NtmConfig(max_iter=True), ValueError,
                          "max_iter must be an integer, got True"),
    # arrays from outside: real entries of the operator's length, or a typed error
    "dense-complex": (lambda: as_operator(np.ones((3, 2), dtype=complex)),
                      UnsupportedFormatError, "matrix has complex128 entries"),
    "csr-complex": (lambda: as_operator(sp.csr_matrix(np.ones((3, 2), dtype=complex))),
                    UnsupportedFormatError, "matrix has complex128 entries"),
    "b-complex": (lambda: InverseProblem(A, B + 1j, 0.1), UnsupportedFormatError,
                  "rhs has complex128 entries"),
    "truth-complex": (lambda: InverseProblem(A, B, 0.1, ground_truth=np.ones(5) * 1j),
                      UnsupportedFormatError, "ground truth has complex128 entries"),
    "sparse-from-object": (lambda: SparseOperator(np.array([[1.0, "a"]], dtype=object)),
                           UnsupportedFormatError, "matrix has object entries"),
    # a ragged nested list has no shape
    "dense-ragged": (lambda: as_operator([[1.0, 2.0], [3.0]]), DimensionError,
                     "matrix is not rectangular"),
    "b-ragged": (lambda: InverseProblem(EYE2, [[1.0, 2.0], [3.0]], 0.1), DimensionError,
                 "rhs is not rectangular"),
    "b-string-entry": (lambda: InverseProblem(EYE2, np.array([1.0, "a"], dtype=object), 0.1),
                       UnsupportedFormatError, "rhs has object entries"),
    "matvec-complex": (lambda: A.matvec(np.ones(5, dtype=complex)), UnsupportedFormatError,
                       "matvec input has complex128 entries"),
    "reg-solve-complex": (lambda: RegularizationMatrix(3).solve(np.ones(3, dtype=complex)),
                          UnsupportedFormatError, "solve input has complex128 entries"),
    "bidiag-b-5-entries": (lambda: BidiagFactorization(A, B[:5], 3), DimensionError,
                           r"rhs length \(5,\) does not match operator rows 8"),
    "bidiag-b-2d": (lambda: BidiagFactorization(A, B[:, None], 3), DimensionError,
                    r"rhs length \(8, 1\) does not match operator rows 8"),
    "lift-length": (lambda: _expanded().lift(np.ones(5)), DimensionError,
                    r"y length \(5,\) does not match factorization columns 1"),
    "relative_error-short-x": (lambda: relative_error(SMALL, np.ones(3)), DimensionError,
                               r"x length \(3,\) does not match operator cols 5"),
    "cgls-b-complex": (lambda: cgls(A, B + 1j, 0.1), UnsupportedFormatError,
                       "rhs has complex128 entries"),
    "image-complex": (lambda: ssim(np.ones(4) * 1j, np.ones(4)), UnsupportedFormatError,
                      "image x has complex128 entries"),
    "image-empty": (lambda: ssim(np.zeros(0), np.zeros(0)), DimensionError, "image x is empty"),
    "image-nan": (lambda: ssim(np.ones(4), [1.0, np.nan, 1.0, 1.0]), ValueError,
                  "image y has entries that are not finite"),
    "dense-1d": (lambda: DenseOperator(np.ones(3)), DimensionError,
                 "dense operator needs a 2-d array, got ndim=1"),
    "priorconditioned-reg-size": (lambda: PriorconditionedOperator(A, RegularizationMatrix(4)),
                                  DimensionError,
                                  "regularizer dim 4 does not match operator cols 5"),
    "steprule-omega-0": (lambda: StepRule(omega=0.0), ValueError, r"strictly inside \(0, 1\)"),
    "steprule-omega-1": (lambda: StepRule(omega=1.0), ValueError, r"strictly inside \(0, 1\)"),
    "steprule-omega-nan": (lambda: StepRule(omega=float("nan")), ValueError,
                           r"strictly inside \(0, 1\)"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_entry_points_reject_inputs_outside_their_domain(case):
    call, error, match = BAD_INPUTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way to the error
        with pytest.raises(error, match=match):
            call()


def test_numpy_integers_are_sizes_and_budgets():
    p = random_uniform_problem(np.int64(8), np.int32(5), 0.1, 0)
    assert np.array_equal(p.operator.to_dense(), A.to_dense())
    assert RegularizationMatrix(np.int64(3)).dim == 3
    assert cgls(A, B, 0.1, max_iter=np.int64(2)).n_iter <= 2
    assert sirt_solve(SMALL, max_iter=np.int64(2)).n_iter <= 2
    assert BidiagFactorization(A, B, np.int64(2)).expand()


def _given(call):
    """A case that needs no files."""
    return lambda tmp_path: call


def _mtx(header, size_line):
    """A Matrix Market file of just its banner and size line."""

    def make(tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(f"%%MatrixMarket matrix {header}\n{size_line}\n")
        return lambda: load_matrix_market(path)

    return make


def _saved(name, text):
    """SMALL saved to a directory whose file ``name`` then holds ``text``."""

    def make(tmp_path):
        save_problem(SMALL, tmp_path)
        (tmp_path / name).write_text(text)
        return lambda: load_problem(tmp_path)

    return make


BAD_SEEDS_AND_FILES = {
    "random-seed--1": (_given(lambda: random_uniform_problem(8, 5, 0.1, -1)), ValueError,
                       "seed must be >= 0, got -1"),
    "random-seed-2.5": (_given(lambda: random_uniform_problem(8, 5, 0.1, 2.5)), ValueError,
                        "seed must be an integer, got 2.5"),
    "sine-seed--1": (_given(lambda: sine_wave_problem(np.eye(3), 0.1, -1)), ValueError,
                     "seed must be >= 0, got -1"),
    "sine-seed-2.5": (_given(lambda: sine_wave_problem(np.eye(3), 0.1, 2.5)), ValueError,
                      "seed must be an integer, got 2.5"),
    # declared sizes the file cannot hold: rejected before any allocation
    "mtx-array-general": (_mtx("array real general", "100000000 100000000"),
                          MatrixMarketError, "line 2: size line declares 10000000000000000 values"),
    "mtx-coordinate": (_mtx("coordinate real general", "3 3 10000000000000000"),
                       MatrixMarketError, "line 2: size line declares 10000000000000000 entries"),
    "mtx-array-symmetric": (_mtx("array real symmetric", "300000000 300000000"), MatrixMarketError,
                            "line 2: size line declares 45000000150000000 values"),
    "truth-length": (_given(lambda: InverseProblem(EYE2, [1, 1], 0.1, ground_truth=[1, 1, 1])),
                     DimensionError, r"ground truth length \(3,\) does not match operator cols 2"),
    "b_exact-length": (_given(lambda: InverseProblem(EYE2, np.ones(2), 0.1, b_exact=np.ones(1))),
                       DimensionError, r"exact rhs length \(1,\) does not match operator rows 2"),
    "dir-x_true-one-entry": (_saved("x_true.txt", "0.5\n"), DimensionError,
                             r"ground truth length \(1,\) does not match operator cols 5"),
    "dir-b-abc": (_saved("b.txt", "1.0\nabc\n"), TikmorError, r"b\.txt line 2: cannot parse 'abc'"),
    "dir-eta-abc": (_saved("meta.txt", "epsilon=0.5\neta=abc\n"), TikmorError,
                    r"meta\.txt line 2: cannot parse 'abc'"),
    "dir-seed-1.5": (_saved("meta.txt", "epsilon=0.5\nseed=1.5\n"), TikmorError,
                     r"meta\.txt line 2: cannot parse '1\.5'"),
    "dir-sigma-x": (_saved("meta.txt", "sigma=x\nepsilon=0.5\n"), TikmorError,
                    r"meta\.txt line 1: cannot parse 'x'"),
    # a loaded seed obeys the generators' rule, and each error names its file
    "dir-seed--1": (_saved("meta.txt", "epsilon=0.5\nseed=-1\n"), TikmorError,
                    r"meta\.txt line 2: .*seed must be >= 0, got -1"),
    "dir-b-one-entry": (_saved("b.txt", "0.5\n"), DimensionError,
                        r"b\.txt: rhs length \(1,\) does not match operator rows 8"),
    "dir-b_exact-one-entry": (_saved("b_exact.txt", "0.5\n"), DimensionError,
                              r"b_exact\.txt: exact rhs length \(1,\) does not match operator rows 8"),
    "dir-mtx-size-line": (_saved("matrix.mtx", "%%MatrixMarket matrix array real general\n8 5 x\n"),
                          MatrixMarketError, r"matrix\.mtx line 2: bad size line '8 5 x'"),
    # values that parse but that InverseProblem rejects: its message, led by the file
    "dir-eta-0.5": (_saved("meta.txt", "epsilon=0.5\neta=0.5\n"), TikmorError,
                    r"meta\.txt: eta must be finite and >= 1, got 0\.5"),
    "dir-epsilon--1": (_saved("meta.txt", "epsilon=-1\n"), TikmorError,
                       r"meta\.txt: noise level must be finite and >= 0, got -1\.0"),
    "dir-epsilon-nan": (_saved("meta.txt", "epsilon=nan\n"), TikmorError,
                        r"meta\.txt: noise level must be finite and >= 0, got nan"),
}


@pytest.mark.parametrize("case", BAD_SEEDS_AND_FILES)
def test_bad_seeds_and_problem_files_fail_typed(tmp_path, case):
    make, error, match = BAD_SEEDS_AND_FILES[case]
    call = make(tmp_path)
    with pytest.raises(error, match=match):
        call()


SOLVERS = {
    "ntm": ntm_solve,
    "pntm": pntm_solve,
    "gbit": gbit_solve,
    "sirt": sirt_solve,
    "cgls": lambda p: cgls(p.operator, p.b, p.discrepancy_target),
}
COUNTS = ("n_iter", "n_outer", "n_inner_total")
UNCONVERGED = {  # a run of each solver that its budget stops short
    "ntm": lambda p: ntm_solve(p, NtmConfig(alpha0=200.0, max_iter=2)),
    "pntm": lambda p: pntm_solve(p, PntmConfig(outer_iter_max=1)),
    "gbit": lambda p: gbit_solve(p, GbitConfig(max_iter=1)),
    "sirt": lambda p: sirt_solve(p, max_iter=1),
    "cgls": lambda p: cgls(p.operator, p.b, p.discrepancy_target, max_iter=1),
}


@pytest.mark.parametrize("method", SOLVERS)
def test_solvers_take_a_matrix_as_given(method):
    # InverseProblem wraps an ndarray or a CSR matrix itself, once: each solve
    # is bitwise the solve of the operator the caller would have built
    base = random_uniform_problem(12, 8, 0.1, 4)
    solve = SOLVERS[method]
    results = {}
    for form, matrix in (("ndarray", base.operator.to_dense()),
                         ("csr", sp.csr_matrix(base.operator.to_dense()))):
        given = solve(InverseProblem(matrix, base.b, base.noise_level))
        wrapped = solve(InverseProblem(as_operator(matrix), base.b, base.noise_level))
        assert np.array_equal(given.x, wrapped.x)
        assert given.alpha == wrapped.alpha
        for count in COUNTS:
            assert getattr(given, count, None) == getattr(wrapped, count, None)
        assert given.converged
        results[form] = given
    # dense and sparse products round differently, but solve the same problem
    assert np.allclose(results["ndarray"].x, results["csr"].x, rtol=1e-10, atol=0)
    for count in COUNTS:
        assert getattr(results["ndarray"], count, None) == getattr(results["csr"], count, None)


@pytest.mark.parametrize("method", SOLVERS)
def test_converged_is_a_python_bool(method):
    # a numpy.bool_ flag is neither True nor False under `is`
    p = random_uniform_problem(40, 25, 0.10, seed=2)
    for result, expected in ((SOLVERS[method](p), True), (UNCONVERGED[method](p), False)):
        assert type(result.converged) is bool and result.converged == expected


def test_morozov_level_is_eps_where_the_coupled_system_has_a_root():
    # ||b|| = 5: the discrepancy equation has a positive root for 0 < eps < 5
    assert InverseProblem(np.eye(2), [3.0, 4.0], 2.0, eta=1.5).morozov_level() == 3.0
    for eps, eta, match in ((0.0, 1.0, "must be positive"), (5.0, 1.0, "no positive alpha"),
                            (4.0, 1.25, "no positive alpha")):
        with pytest.raises(InfeasibleDiscrepancyError, match=match):
            InverseProblem(np.eye(2), [3.0, 4.0], eps, eta=eta).morozov_level()
    with pytest.raises(ConvergenceFailure, match="not finite"):
        InverseProblem(np.eye(2), [np.inf, 4.0], 1.0).morozov_level()
