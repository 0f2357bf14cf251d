import logging

import numpy as np
import pytest
import scipy.sparse as sp

from tikmor import (
    BidiagFactorization,
    GbitConfig,
    InverseProblem,
    PriorconditionedOperator,
    RegularizationMatrix,
    ZeroSumError,
    as_operator,
    cgls,
    gbit_solve,
    pntm_solve,
    priorconditioned_problem,
    random_uniform_problem,
    sine_wave_problem,
    sirt_operators,
    sirt_solve,
)

from conftest import counting_operator


# -- GBiT ----------------------------------------------------------------------


def test_gbit_z_is_projected_least_squares(rng):
    # the unregularized iterate minimizes ||B z - c|| in the subspace
    A = rng.standard_normal((20, 12))
    b = rng.standard_normal(20)
    f = BidiagFactorization(A, b, 5)
    for _ in range(5):
        f.expand()
    B, c = f.B, f.c
    z = np.linalg.lstsq(B, c, rcond=None)[0]
    grad = B.T @ (B @ z - c)
    assert np.linalg.norm(grad) <= 1e-10 * np.linalg.norm(B.T @ c)


def test_gbit_alpha_close_to_pntm():
    p = random_uniform_problem(150, 100, 0.10, seed=6)
    g = gbit_solve(p)
    q = pntm_solve(p)
    assert g.converged and q.converged
    assert abs(g.alpha - q.alpha) / q.alpha <= 0.05


def test_gbit_needs_at_least_as_many_krylov_iterations():
    p = random_uniform_problem(150, 100, 0.10, seed=19)
    g = gbit_solve(p)
    q = pntm_solve(p)
    assert g.n_outer >= q.n_outer


def test_gbit_morozov_at_convergence():
    p = random_uniform_problem(120, 70, 0.10, seed=29)
    g = gbit_solve(p)
    assert g.converged
    assert abs(g.residual_norm - p.noise_level) <= 2e-3 * p.noise_level


def test_gbit_nonconvergence_flagged():
    p = random_uniform_problem(60, 40, 0.10, seed=3)
    g = gbit_solve(p, GbitConfig(max_iter=1))
    assert not g.converged
    assert g.n_outer == 1


# -- SIRT ----------------------------------------------------------------------


def test_sirt_identity_converges_in_one_step():
    b = np.array([0.5, 1.5, -0.25])
    from tikmor import InverseProblem

    p = InverseProblem(operator=as_operator(np.eye(3)), b=b, noise_level=1e-12)
    res = sirt_solve(p, max_iter=5, stop_at_discrepancy=True)
    assert res.n_iter == 1
    assert np.allclose(res.x, b)


def test_sirt_scalings_hand_example():
    ops = sirt_operators(np.array([[1.0, 1.0], [1.0, 3.0]]))
    assert np.allclose(ops.row_scale, [0.5, 0.25])
    assert np.allclose(ops.col_scale, [0.5, 0.25])
    assert not ops.used_absolute_sums


def test_sirt_negative_entries_use_absolute_sums(caplog):
    A = np.array([[1.0, -1.0], [2.0, 2.0]])
    with caplog.at_level(logging.WARNING):
        ops = sirt_operators(A)
    assert ops.used_absolute_sums
    assert np.allclose(ops.row_scale, [0.5, 0.25])
    assert any("absolute-value" in r.message for r in caplog.records)


@pytest.mark.parametrize("shift", [0.0, -0.3], ids=["nonnegative", "signed"])
def test_sirt_scalings_sparse_match_dense(rng, shift):
    A = rng.random((12, 7)) + shift
    A[rng.random(A.shape) < 0.3] = 0.0
    A[np.arange(7), np.arange(7)] = 1.0  # no zero row or column sums
    dense, sparse = sirt_operators(A), sirt_operators(sp.csr_matrix(A))
    assert sparse.used_absolute_sums == dense.used_absolute_sums == (shift < 0)
    assert np.allclose(sparse.row_scale, dense.row_scale, rtol=1e-14, atol=0.0)
    assert np.allclose(sparse.col_scale, dense.col_scale, rtol=1e-14, atol=0.0)


def test_sirt_zero_row_rejected():
    A = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ZeroSumError) as err:
        sirt_operators(A)
    assert err.value.kind == "row"
    assert err.value.index == 1


def test_sirt_zero_column_rejected():
    A = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ZeroSumError) as err:
        sirt_operators(A)
    assert err.value.kind == "column"
    assert err.value.index == 1


def test_sirt_consistent_solution_is_fixed_point(rng):
    A = rng.random((10, 6)) + 0.05
    x_star = rng.standard_normal(6)
    b = A @ x_star
    ops = sirt_operators(A)
    step = x_star + ops.col_scale * (A.T @ (ops.row_scale * (b - A @ x_star)))
    assert np.allclose(step, x_star, atol=1e-12)


def test_sirt_weighted_residual_monotone(rng):
    A = rng.random((30, 18)) + 0.02
    p = sine_wave_problem(A, 0.10, seed=14)
    res = sirt_solve(p, max_iter=200, stop_at_discrepancy=False)
    ops = sirt_operators(A)
    # replay the iteration to collect weighted residual norms
    x = np.zeros(18)
    norms = []
    for _ in range(50):
        r = p.b - A @ x
        norms.append(float(np.sqrt(r @ (ops.row_scale * r))))
        x = x + ops.col_scale * (A.T @ (ops.row_scale * r))
    assert (np.diff(norms) <= 1e-12).all()
    assert len(res.trace) == 200


def test_sirt_stops_at_discrepancy(rng):
    A = rng.random((40, 12)) + 0.1
    p = sine_wave_problem(A, 0.20, seed=10)
    res = sirt_solve(p, max_iter=5000, stop_at_discrepancy=True)
    assert res.converged and res.alpha is None
    assert res.residual_norm <= p.noise_level


@pytest.mark.parametrize("stop", [True, False])
def test_sirt_applies_one_matvec_per_iteration(rng, stop):
    # the residual of each update starts the next one
    A, calls = counting_operator(rng.random((40, 12)) + 0.1)
    p = sine_wave_problem(A, 0.20, seed=10)
    calls["matvec"] = 0  # the problem's b took one
    res = sirt_solve(p, max_iter=300, stop_at_discrepancy=stop)
    assert res.converged is stop
    assert 1 < res.n_iter < 300 if stop else res.n_iter == 300
    assert calls["matvec"] <= res.n_iter + 1
    assert calls["rmatvec"] == res.n_iter


# -- CGLS ----------------------------------------------------------------------


class IdentityRegularizer:
    """Stand-in L = I for the reduction check."""

    def __init__(self, dim):
        self.dim = dim

    def solve(self, w):
        return np.asarray(w, dtype=float)

    def solve_transpose(self, w):
        return np.asarray(w, dtype=float)

    def matvec(self, z):
        return np.asarray(z, dtype=float)


def test_cgls_identity_regularizer_reduces_to_plain(rng):
    A = rng.standard_normal((15, 9))
    x_star = rng.standard_normal(9)
    b = A @ x_star + 0.05 * rng.standard_normal(15)
    # just above the least-squares residual: several iterations to get there
    eps = 1.05 * np.linalg.norm(A @ np.linalg.lstsq(A, b, rcond=None)[0] - b)

    p = InverseProblem(operator=as_operator(A), b=b, noise_level=eps)
    transformed, recover = priorconditioned_problem(p, IdentityRegularizer(9))
    pc = cgls(transformed.operator, transformed.b, eps, max_iter=100)
    plain = cgls(A, b, eps, max_iter=100)
    assert np.allclose(recover(pc.x), plain.x, atol=1e-12)
    assert pc.n_iter == plain.n_iter > 1


def test_cgls_reaches_least_squares_on_consistent_system(rng):
    A = rng.standard_normal((12, 7))
    x_star = rng.standard_normal(7)
    b = A @ x_star
    res = cgls(A, b, eps=1e-10 * np.linalg.norm(b), max_iter=100)
    assert res.converged
    assert np.allclose(res.x, x_star, atol=1e-7)


def test_cgls_priorconditioned_beats_plain_on_smooth_truth():
    op = 2.0 * np.random.default_rng(5).random((80, 50)) - 1.0
    p = sine_wave_problem(op, 0.10, seed=5)
    transformed, recover = priorconditioned_problem(p, RegularizationMatrix(50))
    pc = cgls(transformed.operator, transformed.b, transformed.discrepancy_target,
              max_iter=500)
    plain = cgls(p.operator, p.b, p.noise_level, max_iter=500)
    assert pc.converged and plain.converged
    err_pc = np.linalg.norm(recover(pc.x) - p.ground_truth)
    err_plain = np.linalg.norm(plain.x - p.ground_truth)
    assert err_pc < err_plain


def test_cgls_iterates_live_in_krylov_space(rng):
    A = rng.standard_normal((14, 8))
    b = rng.standard_normal(14)
    op = PriorconditionedOperator(as_operator(A), RegularizationMatrix(8))
    k = 4
    res = cgls(op, b, 1e-14, max_iter=k)
    assert res.n_iter == k
    w = op.rmatvec(b)
    basis = []
    for _ in range(k):
        basis.append(w / np.linalg.norm(w))
        w = op.rmatvec(op.matvec(w))
    Q, _ = np.linalg.qr(np.column_stack(basis))
    z = res.x
    defect = np.linalg.norm(z - Q @ (Q.T @ z))
    assert defect <= 1e-8 * max(1.0, np.linalg.norm(z))


def test_cgls_stops_at_zero_when_rhs_orthogonal_to_range():
    # A^T b = 0: the first search direction is zero, so cgls keeps x = 0
    A = as_operator(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    r = cgls(A, np.array([0.0, 0.0, 1.0]), 0.5)
    assert np.array_equal(r.x, np.zeros(2))
    assert (r.n_iter, r.converged, r.residual_norm) == (0, False, 1.0)


def test_cgls_nonconvergence_flagged(rng):
    A = rng.standard_normal((20, 15))
    b = rng.standard_normal(20)
    res = cgls(A, b, eps=1e-14, max_iter=2)
    assert not res.converged
    assert res.n_iter == 2
