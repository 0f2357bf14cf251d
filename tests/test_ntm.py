import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve, svdvals

from tikmor import (
    ConvergenceFailure,
    DegenerateRhsError,
    DenseOperator,
    GbitConfig,
    InfeasibleDiscrepancyError,
    InverseProblem,
    NtmConfig,
    PntmConfig,
    PriorconditionedOperator,
    RegularizationMatrix,
    SingularJacobianError,
    SparseOperator,
    StepRule,
    as_operator,
    cgls,
    dinv_norm,
    gbit_solve,
    ntm_solve,
    pntm_solve,
    random_uniform_problem,
    sirt_solve,
    step_size,
)
from tikmor import ntm
from tikmor.ntm import (
    SOLVE_RTOL,
    eigen_residual_sq,
    gram_spectrum,
    solve_rescaled_system,
    spectral_gram,
)

from conftest import counting_operator
from oracles import (
    bordered_matrix,
    eval_F,
    lemma_bound,
    normal_equation_solve,
    rescaled_jacobian,
    schur_inverse,
    solve_newton_system,
)


# -- F evaluation --------------------------------------------------------------


def test_eval_F_exact_root():
    A = np.eye(1)
    F1, F2 = eval_F(A, np.array([2.0]), eps=1.0, x=np.array([1.0]), alpha=1.0)
    assert np.allclose(F1, [0.0])
    assert F2 == pytest.approx(0.0)


def test_eval_F_at_zero():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    F1, F2 = eval_F(A, b, eps=0.5, x=np.zeros(4), alpha=2.0)
    assert np.allclose(F1, -A.T @ b)
    assert F2 == pytest.approx(0.5 * b @ b - 0.125)


def test_eval_F_matches_direct_formula(rng):
    A = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    x = rng.standard_normal(5)
    alpha, eps = 0.7, 1.3
    F1, F2 = eval_F(A, b, eps, x, alpha)
    assert np.allclose(F1, (A.T @ A + alpha * np.eye(5)) @ x - A.T @ b, atol=1e-12)
    r = A @ x - b
    assert F2 == pytest.approx(0.5 * r @ r - 0.5 * eps**2)


@given(
    st.integers(1, 12),
    st.integers(0, 8),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
@example(5, 0, 0.0, -1.5, 34)
def test_eigen_residual_sq_matches_operator_residual(n, extra, log_scale, log_x, seed):
    # ntm's and the curve's pricing, on gram_spectrum's rr; A and b scaled by
    # c = 10**log_scale. rr carries the roundoff of ||b||^2, so the error is
    # absolute, of order eps_mach times the terms the closed form sums. In
    # the example A is square and rr rounds to -7e-11 ||b||^2: an rr clamped
    # at 0 loses that cancellation and is 3e5 times this bound off
    rng = np.random.default_rng(seed)
    c = 10.0**log_scale
    A = c * rng.standard_normal((n + extra, n))
    b = c * rng.standard_normal(n + extra)
    lam, Q, gh, rr = gram_spectrum(as_operator(A), b)
    xh = 10.0**log_x * rng.standard_normal(n)
    r = A @ (Q @ xh) - b
    got = eigen_residual_sq(lam, gh, rr, xh)
    scale = float(b @ b) + abs(float(xh @ gh)) + float(xh @ (lam * xh))
    assert got >= 0.0
    assert abs(got - float(r @ r)) <= 64 * np.finfo(float).eps * scale


@pytest.mark.xfail(reason="ntm prices from eigh's small eigenvalues (ROADMAP item 1)")
@pytest.mark.parametrize("seed", [9, 27, 32])
def test_eigen_residual_sq_near_least_squares_point(seed):
    # the bound above, at points around the least-squares solution of an
    # ill-conditioned square A (lam_max / lam_min 1e13 to 1e16): the eigh
    # eigenvalues' relative roundoff eps_mach lam_max / lam_i enters
    # gh_i^2 / lam_i, and these seeds miss the bound by 17-26x
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((11, 11)) * np.logspace(0, -5, 11)
    b = rng.standard_normal(11)
    lam, Q, gh, rr = gram_spectrum(as_operator(A), b)
    xh = (np.linalg.lstsq(A, b, rcond=None)[0] @ Q) * (1 + 1e-6 * rng.standard_normal(11))
    r = A @ (Q @ xh) - b
    got = eigen_residual_sq(lam, gh, rr, xh)
    scale = float(b @ b) + abs(float(xh @ gh)) + float(xh @ (lam * xh))
    assert abs(got - float(r @ r)) <= 64 * np.finfo(float).eps * scale


def test_eigen_residual_sq_clamps_at_zero():
    # A = diag(s), x = A^-1 b: the exact residual is 0, and on seed 2
    # gram_spectrum's rr rounds below it by more than the sum adds back
    rng = np.random.default_rng(2)
    s, b = rng.uniform(0.5, 2.0, 9), rng.standard_normal(9)
    lam, _, gh, rr = gram_spectrum(as_operator(np.diag(s)), b)
    xh = gh / lam
    d = lam * xh - gh
    assert rr + float(d @ (d / lam)) < 0.0
    assert eigen_residual_sq(lam, gh, rr, xh) == 0.0


# -- Newton system ---------------------------------------------------------------


def test_newton_system_zero_at_root():
    # A = I, b = 2, eps = 1: x = 1, alpha = 1 zeroes F exactly in floats
    A = np.eye(1)
    dx, dalpha = solve_newton_system(A, np.array([2.0]), 1.0, np.array([1.0]), 1.0)
    assert np.array_equal(dx, np.zeros(1))
    assert dalpha == 0.0


def test_newton_system_matches_cramer_n1():
    a, b, eps, x, alpha = 2.0, np.array([3.0]), 1.0, np.array([0.4]), 0.8
    A = np.array([[a]])
    dx, dalpha = solve_newton_system(A, b, eps, x, alpha)
    # scalar rescaled system solved by Cramer's rule
    r = a * x[0] - b[0]
    F1 = a * r + alpha * x[0]
    F2 = 0.5 * r * r - 0.5 * eps * eps
    J = np.array([[a * a + alpha, x[0]], [(a * r) / alpha, 0.0]])
    rhs = np.array([-F1, -F2 / alpha])
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    dx_expected = (rhs[0] * J[1, 1] - J[0, 1] * rhs[1]) / det
    da_expected = (J[0, 0] * rhs[1] - rhs[0] * J[1, 0]) / det
    assert dx[0] == pytest.approx(dx_expected, rel=1e-12)
    assert dalpha == pytest.approx(da_expected, rel=1e-12)


def test_newton_step_recurrence_identity(rng):
    # after one full step from an F1-consistent start:
    # F(x1, a1) = (dalpha*dx ; 0.5 dx^T A^T A dx)
    A = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    eps = 0.3 * np.linalg.norm(b)
    alpha0 = 0.9
    x0 = normal_equation_solve(A, b, alpha0)
    dx, dalpha = solve_newton_system(A, b, eps, x0, alpha0)
    x1 = x0 + dx
    a1 = alpha0 + dalpha
    F1, F2 = eval_F(A, b, eps, x1, a1)
    F1_0, F2_0 = eval_F(A, b, eps, x0, alpha0)
    scale = 1.0 + np.sqrt(F1_0 @ F1_0 + F2_0 * F2_0)
    defect1 = np.linalg.norm(F1 - dalpha * dx)
    defect2 = abs(F2 - 0.5 * dx @ (A.T @ A @ dx))
    assert np.sqrt(defect1**2 + defect2**2) <= 1e-8 * scale


# -- bordered-matrix norms --------------------------------------------------------


def dinv_of(G, x, alpha):
    """``dinv_norm`` at x, given the eigen-coordinates x @ Q of G's eigenbasis."""
    lam, Q = spectral_gram(G)
    return dinv_norm(lam, x @ Q, alpha)


def test_dinv_hand_value_golden_ratio():
    # A = 0 (1x1), x = 1, alpha = 1: D = [[1, 1], [-1, 0]],
    # sigma_min = sqrt((3 - sqrt(5))/2), norm of inverse = golden ratio
    A = np.zeros((1, 1))
    val = dinv_of(A.T @ A, np.array([1.0]), 1.0)
    assert val == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, rel=1e-12)


def test_dinv_exact_below_lemma_bound(rng):
    for _ in range(25):
        n = int(rng.integers(2, 12))
        m = n + int(rng.integers(0, 6))
        A = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        x *= (1.0 + rng.random() * 4.0) / np.linalg.norm(x)  # bound needs ||x|| >= 1
        alpha = 10.0 ** rng.uniform(-2, 1)
        exact = dinv_of(A.T @ A, x, alpha)
        bound = lemma_bound(A.T @ A, x, alpha)
        assert exact <= bound * (1 + 1e-9)


def test_dinv_exact_matches_dense_inverse(rng):
    A = rng.standard_normal((6, 4))
    x = rng.standard_normal(4)
    alpha = 0.5
    exact = dinv_of(A.T @ A, x, alpha)
    D = bordered_matrix(A.T @ A, x, alpha)
    assert exact == pytest.approx(np.linalg.norm(np.linalg.inv(D), 2), rel=1e-10)


def test_schur_inverse_matches_dense(rng):
    A = rng.standard_normal((9, 6))
    x = rng.standard_normal(6)
    alpha = 0.8
    S = schur_inverse(A, x, alpha)
    D = bordered_matrix(A.T @ A, x, alpha)
    dense = np.linalg.inv(D)
    assert np.linalg.norm(S - dense, "fro") <= 1e-9 * np.linalg.norm(dense, "fro")


# -- spectral kernel against dense oracles -------------------------------------------


def svd_dinv(G, x, alpha):
    """||D^-1|| from svdvals of the dense bordered matrix, and cond(D)."""
    sv = svdvals(bordered_matrix(G, x, alpha))
    return 1.0 / sv[-1], sv[0] / sv[-1]


def test_spectral_direction_matches_dense_lu(rng):
    for n in (1, 2, 7, 30):
        A = rng.standard_normal((n + 5, n))
        b = rng.standard_normal(n + 5)
        x = rng.standard_normal(n)
        alpha, eps = 0.6, 0.5 * np.linalg.norm(b)
        F1, F2 = eval_F(A, b, eps, x, alpha)
        G = A.T @ A
        lam, Q = spectral_gram(G)
        dxh, dalpha = solve_rescaled_system(lam, x @ Q, alpha, F1 @ Q, F2)
        dx = Q @ dxh
        J, rhs = rescaled_jacobian(G, x, alpha, F1, F2)
        d = lu_solve(lu_factor(J), rhs)
        assert np.linalg.norm(np.append(dx, dalpha) - d) <= SOLVE_RTOL * np.linalg.norm(d)
        # Q (lam * dxh) is the G dx that step_size's case1 rule forms
        gdx = Q @ (lam * dxh)
        assert np.linalg.norm(gdx - G @ dx) <= SOLVE_RTOL * np.linalg.norm(G @ dx)


def test_direction_typed_failures(rng, monkeypatch):
    A = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    x = rng.standard_normal(4)
    lam, Q = spectral_gram(A.T @ A)
    # alpha this small makes F2/alpha overflow; the kernel must refuse
    # before computing it, without a RuntimeWarning
    F1, F2 = eval_F(A, b, 0.1, x, 4.0e-309)
    with pytest.raises(SingularJacobianError, match="not finite"):
        solve_rescaled_system(lam, x @ Q, 4.0e-309, F1 @ Q, F2)
    with pytest.raises(SingularJacobianError, match="not finite"):
        solve_rescaled_system(lam, x @ Q, 1.0, F1 @ Q, np.nan)
    # x = 0 leaves the Jacobian's last column zero
    F1, F2 = eval_F(A, b, 0.1, np.zeros(4), 1.0)
    with pytest.raises(SingularJacobianError, match="singular"):
        solve_rescaled_system(lam, np.zeros(4), 1.0, F1 @ Q, F2)
    # no backward error passes SOLVE_RTOL = 0, so the refinement pass runs and then gives up
    monkeypatch.setattr(ntm, "SOLVE_RTOL", 0.0)
    F1, F2 = eval_F(A, b, 0.1, x, 1.0)
    with pytest.raises(SingularJacobianError, match="stalled"):
        solve_rescaled_system(lam, x @ Q, 1.0, F1 @ Q, F2)


@pytest.mark.parametrize(
    "m, n, alpha, x_scale",
    [
        (8, 5, 0.5, 1.0),  # the negative root decides
        (8, 5, 1e-2, 1e3),  # large ||x||/alpha: the first positive root decides
        (4, 9, 0.3, 1.0),  # rank-deficient G, lam_min at roundoff
        (4, 9, 1e-2, 30.0),
        (1, 1, 1.0, 3.0),  # one pole; the bisection runs, t0 still decides
    ],
)
def test_dinv_matches_svdvals(rng, m, n, alpha, x_scale):
    A = rng.standard_normal((m, n))
    x = x_scale * rng.standard_normal(n)
    expected, _ = svd_dinv(A.T @ A, x, alpha)
    assert dinv_of(A.T @ A, x, alpha) == pytest.approx(expected, rel=1e-12)


def test_dinv_positive_root_branch_is_exercised(rng):
    A = rng.standard_normal((8, 5))
    x = 1e3 * rng.standard_normal(5)
    lam, Q = spectral_gram(A.T @ A)
    d, z = lam + 1e-2, x @ Q
    mu = np.linalg.eigvalsh(np.block([[np.diag(d), z[:, None]], [z[None, :], 0.0]]))
    # the negative eigenvalue is further from 0 than d_1, so it does not decide
    assert -mu[0] > d[0]
    assert dinv_norm(lam, z, 1e-2) == pytest.approx(1.0 / mu[mu > 0].min(), rel=1e-12)


def test_dinv_exact_zero_x_is_infinite(rng):
    A = rng.standard_normal((5, 3))
    assert dinv_of(A.T @ A, np.zeros(3), 1.0) == np.inf


@pytest.mark.parametrize(
    "x, expected",
    [
        ([0.0, 0.0, 5.0, 5.0], 1 / 0.5),  # z_1 = 0: d_1 is an eigenvalue
        ([2.0, 0.0, 0.0, 0.0], 1 / 1.5),  # z_2 = 0, first secular root beyond d_2
        ([0.0, 0.3, 0.0, 0.2], None),  # z_1 = 0, but the negative root is nearer 0
    ],
)
def test_dinv_deflation(x, expected):
    lam, alpha = np.array([0.0, 1.0, 4.0, 9.0]), 0.5
    x = np.array(x)
    got = dinv_norm(lam, x, alpha)  # G is diagonal: Q = I and x @ Q = x
    reference, _ = svd_dinv(np.diag(lam), x, alpha)
    assert got == pytest.approx(reference, rel=1e-12)
    if expected is not None:
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mode", ["exact_svd", "lemma_bound"])
def test_dinv_modes_against_dense(rng, mode):
    # exact_svd: dinv_norm against the dense SVD; lemma_bound: the bound's
    # oracle against its closed form, and the exact value lies below it
    A = rng.standard_normal((9, 6))
    x = rng.standard_normal(6)
    alpha = 0.4
    exact, _ = svd_dinv(A.T @ A, x, alpha)
    nx, lam1 = np.linalg.norm(x), np.linalg.eigvalsh(A.T @ A).max()
    bound = (1 + nx / alpha) ** 2 * max(1 / alpha, (alpha + lam1) / nx)
    got = dinv_of(A.T @ A, x, alpha)
    if mode == "exact_svd":
        assert got == pytest.approx(exact, rel=1e-12)
    else:
        assert lemma_bound(A.T @ A, x, alpha) == pytest.approx(bound, rel=1e-12)
        assert got <= bound


@given(
    st.integers(1, 10),
    st.integers(1, 10),
    st.floats(-2.0, 2.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_dinv_property_both_branches(m, n, log_alpha, positive_root, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    alpha = 10.0**log_alpha
    # small x leaves the negative root below d_1; large x pushes it past
    x = rng.standard_normal(n) * alpha * (1e2 if positive_root else 1e-2)
    lam, Q = spectral_gram(A.T @ A)
    d, z = lam + alpha, x @ Q
    assume(((z * z / (d + d[0])).sum() > d[0]) == positive_root)
    expected, cond = svd_dinv(A.T @ A, x, alpha)
    got = dinv_norm(lam, z, alpha)
    # svdvals itself is accurate to a few eps * cond(D) relative
    assert abs(got - expected) <= max(1e-12, 8 * np.finfo(float).eps * cond) * expected


# -- step size ----------------------------------------------------------------------


def interval(alpha, dalpha, omega=0.9):
    """(gamma, theta, case_id) of ``step_size`` along dx = 0 at a ||D^-1|| so
    small that only the interval's end gamma_max bounds gamma."""
    return step_size(StepRule("case2", omega), np.ones(3), np.zeros(3), alpha, dalpha, 1e-300)


def test_interval_positive_dalpha():
    gmax, theta, case = interval(1.0, 2.0)
    assert (gmax, theta, case) == (1.0, pytest.approx(np.sqrt(2.0)), 1)


def test_interval_zero_dalpha_limits_to_case1():
    # a zero direction: the bound has nothing to divide, gamma is gamma_max
    for variant in ("case1", "case2"):
        got = step_size(StepRule(variant), np.ones(3), np.zeros(3), 1.0, 0.0, 2.0)
        assert got == (1.0, pytest.approx(np.sqrt(2.0)), 1)


def test_interval_mild_negative():
    gmax, theta, case = interval(2.0, -1.0)
    assert gmax == 1.0
    assert theta == pytest.approx(np.sqrt(5.0))
    assert case == 2


def test_interval_overshooting_negative():
    gmax, theta, case = interval(1.0, -2.0)
    assert gmax == pytest.approx(0.45)
    assert theta == pytest.approx(np.sqrt(101.0))
    assert case == 3


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
    st.sampled_from(["case1", "case2"]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-300.0, max_value=12.0),
)
@settings(max_examples=200, deadline=None)
# omega one ulp below 1: unclamped, alpha + gamma_max dalpha rounded to 0 here
@example(alpha=189381.38029026575, dalpha=-757307.90234375, omega=0.9999999999999999,
         variant="case2", dx=0.0, log_dinv=-300.0)
# a subnormal dalpha along dx = 0: 1 / (dinv |dalpha|) overflows to inf, with no warning
@example(alpha=1.0, dalpha=2.2250738585e-313, omega=0.5, variant="case1", dx=0.0, log_dinv=0.0)
def test_interval_keeps_alpha_positive(alpha, dalpha, omega, variant, dx, log_dinv):
    lam = np.array([0.0, 0.5, 2.0])
    gamma, theta, _ = step_size(
        StepRule(variant, omega), lam, np.full(3, dx), alpha, dalpha, 10.0**log_dinv
    )
    assert 0.0 < gamma <= 1.0
    assert theta >= np.sqrt(2.0) - 1e-12
    assert alpha + gamma * dalpha > 0.0


def test_step_size_case2_example():
    gamma, _, _ = step_size(StepRule("case2"), np.ones(3), np.zeros(3), 1.0, 1.0, 2.0)
    assert gamma == pytest.approx(0.5)


def test_step_size_case1_example(rng):
    # case1 forms G dx = Q (lam * dxh) itself; checked against A^T A dx
    A = rng.standard_normal((4, 3))
    lam, Q = spectral_gram(A.T @ A)
    rule = StepRule("case1")
    gamma, _, _ = step_size(rule, lam, np.zeros(3), 1.0, 1.0, 2.0)
    assert gamma == pytest.approx(0.25)
    dx = 0.1 * rng.standard_normal(3)
    gdx = A.T @ (A @ dx)
    bound = np.sqrt(1.0 + 0.25 * gdx @ gdx) + 1.0 + np.sqrt(2.0) * np.linalg.norm(dx)
    gamma, _, _ = step_size(rule, lam, dx @ Q, 1.0, 1.0, 2.0)
    assert gamma == pytest.approx(1.0 / (2.0 * bound), rel=1e-12)


def test_step_size_stays_positive():
    gamma, _, _ = step_size(StepRule("case2"), np.ones(2), np.ones(2), 1.0, 1.0, 1e12)
    assert 0.0 < gamma < 1e-10


def test_step_layer_rejects_nonpositive_arguments():
    for alpha, dinv, match in ((0.0, 1.0, "alpha"), (1.0, 0.0, "dinv")):
        with pytest.raises(ValueError, match=match):
            step_size(StepRule(), np.ones(2), np.ones(2), alpha, 1.0, dinv)
    with pytest.raises(ValueError, match="alpha"):
        dinv_norm(np.ones(2), np.ones(2), 0.0)


# -- full solver ----------------------------------------------------------------


def identity_problem(n, b_scale=2.0, eps_frac=0.5):
    b = np.full(n, b_scale)
    eps = eps_frac * np.linalg.norm(b)
    return InverseProblem(operator=as_operator(np.eye(n)), b=b, noise_level=eps)


def test_identity_fixed_point():
    p = identity_problem(5)
    res = ntm_solve(p, NtmConfig(tol=1e-12))
    bnorm = np.linalg.norm(p.b)
    eps = p.noise_level
    assert res.converged
    assert res.alpha == pytest.approx(eps / (bnorm - eps), rel=1e-6)
    assert np.allclose(res.x, p.b * (1 - eps / bnorm), rtol=1e-6)
    assert res.residual_norm == pytest.approx(eps, rel=1e-6)


def test_both_rules_reach_same_solution():
    p = random_uniform_problem(60, 40, 0.10, seed=17)
    r1 = ntm_solve(p, NtmConfig(step_rule=StepRule(variant="case1")))
    r2 = ntm_solve(p, NtmConfig(step_rule=StepRule(variant="case2")))
    assert r1.converged and r2.converged
    assert abs(r1.alpha - r2.alpha) / r2.alpha <= 1e-6
    assert np.linalg.norm(r1.x - r2.x) <= 1e-6 * np.linalg.norm(r2.x)


def test_alpha_positive_throughout():
    p = random_uniform_problem(50, 30, 0.10, seed=23)
    for variant in ("case1", "case2"):
        res = ntm_solve(p, NtmConfig(step_rule=StepRule(variant=variant)))
        assert (res.trace.column("alpha") > 0).all()


def test_case1_direction_norms_strictly_decrease():
    # sized so the run takes a couple dozen steps before converging
    p = random_uniform_problem(300, 200, 0.10, seed=31)
    res = ntm_solve(p, NtmConfig(step_rule=StepRule(variant="case1")))
    assert res.converged
    dir_norms = res.trace.column("dir_norm")
    dir_norms = dir_norms[~np.isnan(dir_norms)]
    assert len(dir_norms) > 5
    assert (np.diff(dir_norms) < 0).all()


def test_step_applies_operator_once():
    # a step takes F1 and the residual from the eigenpairs, Q^T A^T b and
    # ||b||^2, so a solve makes one gram, one rmatvec and one matvec, the
    # last for the residual it reports
    p = random_uniform_problem(60, 40, 0.10, seed=5)
    op, calls = counting_operator(p.operator.to_dense())
    problem = InverseProblem(operator=op, b=p.b, noise_level=p.noise_level)
    for variant in ("case1", "case2"):
        calls.update(gram=0, matvec=0, rmatvec=0)
        res = ntm_solve(problem, NtmConfig(alpha0=0.01, step_rule=StepRule(variant=variant)))
        assert res.converged and res.n_iter >= 4
        assert calls == {"gram": 1, "matvec": 1, "rmatvec": 1}


@pytest.mark.parametrize(
    "seed, case1_iters, case2_iters", [(1000, 101, 19), (1001, 76, 15), (1002, 69, 14)]
)
def test_table1_iteration_counts_pinned(seed, case1_iters, case2_iters):
    # the first problems of configs/table1.cfg; the counts are those of the
    # kernel that rotated every step in and out of the eigenbasis
    p = random_uniform_problem(700, 500, 0.10, seed=seed)
    for variant, expected in (("case1", case1_iters), ("case2", case2_iters)):
        cfg = NtmConfig(alpha0=1.0, tol=1e-3, max_iter=500,
                        step_rule=StepRule(variant=variant, omega=0.9))
        res = ntm_solve(p, cfg)
        assert res.converged
        assert res.n_iter == expected


def test_morozov_consistency_at_convergence():
    p = random_uniform_problem(70, 45, 0.10, seed=5)
    res = ntm_solve(p)
    assert res.converged
    eps = p.noise_level
    assert abs(res.residual_norm - eps) <= 2 * 1e-3 * eps


@pytest.mark.parametrize("noise", [1e-3, 0.1])
def test_reported_residual_is_the_operators(noise):
    # the steps price the residual in closed form; the result recomputes it
    p = random_uniform_problem(120, 80, noise, seed=7)
    res = ntm_solve(p)
    recomputed = float(np.linalg.norm(p.operator.matvec(res.x) - p.b))
    assert res.converged
    assert res.residual_norm == pytest.approx(recomputed, rel=1e-12)
    assert res.trace.column("res_norm")[-1] == pytest.approx(recomputed, rel=1e-8)


def test_infeasible_discrepancy_rejected():
    b = np.array([1.0, 0.0])
    p = InverseProblem(operator=as_operator(np.eye(2)), b=b, noise_level=2.0)
    with pytest.raises(InfeasibleDiscrepancyError):
        ntm_solve(p)


@pytest.mark.parametrize(
    "solve, error, match",
    [
        (pntm_solve, DegenerateRhsError, "no Krylov direction"),
        (gbit_solve, DegenerateRhsError, "no Krylov direction"),
        (ntm_solve, SingularJacobianError, "singular"),
    ],
    ids=["pntm", "gbit", "ntm"],
)
def test_rhs_orthogonal_to_range_fails_typed(solve, error, match):
    # A^T b = 0 while ||b|| = 1 > eps: the Krylov loop has no first direction,
    # and ntm's start x = 0 leaves the Jacobian's last column zero
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    p = InverseProblem(as_operator(A), np.array([0.0, 0.0, 1.0]), noise_level=0.5)
    with pytest.raises(error, match=match):
        solve(p)


# a bad entry of A on a row where b is 0 meets u_1 = b / ||b|| only as 0 * bad
ZERO_ROW_OPERATORS = {
    "A_on_zero_b": DenseOperator,
    "sparse_on_zero_b": SparseOperator,
    "priorconditioned_on_zero_b": lambda A: PriorconditionedOperator(
        DenseOperator(A), RegularizationMatrix(A.shape[1])),
}


def cgls_solve(p):
    return cgls(p.operator, p.b, p.discrepancy_target)


@pytest.mark.parametrize("where", ["A", "b", *ZERO_ROW_OPERATORS])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [ntm_solve, pntm_solve, gbit_solve, sirt_solve, cgls_solve])
def test_nonfinite_input_fails_typed(solve, bad, where):
    # caught on numbers the solvers already form (||b||, the Gram eigenvalues,
    # the Golub-Kahan mu_1, the sirt and cgls residual norms and cgls's
    # gamma = ||A^T r||^2), not numpy's LinAlgError from eigh, a raw
    # RuntimeWarning, a NaN iterate after the whole budget or a later symptom
    p = random_uniform_problem(30, 20, 0.10, seed=5)
    A, b = p.operator.to_dense().copy(), p.b.copy()
    op = as_operator
    if where == "b":
        b[7] = bad
    else:
        A[3, 4] = bad
    if where in ZERO_ROW_OPERATORS:
        b[3] = 0.0
        op = ZERO_ROW_OPERATORS[where]
    with pytest.raises(ConvergenceFailure, match="not finite"):
        solve(InverseProblem(operator=op(A), b=b, noise_level=p.noise_level))


# the keyword values perfbench/workloads.py builds each config with
WORKLOAD_OPTIONS = {
    NtmConfig: dict(alpha0=1.0, tol=1e-3, max_iter=500,
                    step_rule=StepRule(variant="case1", omega=0.9)),
    PntmConfig: dict(alpha0=1.0, tol=1e-3, outer_iter_max=100, inner_cap_large=10000,
                     step_rule=StepRule(variant="case2", omega=0.9)),
    GbitConfig: dict(alpha0=1.0, tol=1e-3, max_iter=100),
}


@pytest.mark.parametrize("config, key, bad", [
    *((config, key, bad) for config in WORKLOAD_OPTIONS for key in ("alpha0", "tol")
      for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0)),
    (NtmConfig, "max_iter", 0), (PntmConfig, "outer_iter_max", 0),
    (PntmConfig, "inner_cap_large", -1), (GbitConfig, "max_iter", 0),
    # a budget that is not an integer would reach range() as a TypeError
    (NtmConfig, "max_iter", 2.5), (PntmConfig, "outer_iter_max", np.inf),
    (PntmConfig, "inner_cap_large", 0.5), (GbitConfig, "max_iter", 3.0),
])
def test_config_rejects_options_outside_their_domain(config, key, bad):
    options = WORKLOAD_OPTIONS[config]
    assert getattr(config(**options), key) == options[key]
    with pytest.raises(ValueError, match=key):
        config(**{**options, key: bad})


@pytest.mark.parametrize("G", [
    [[1.0, np.nan], [np.nan, 2.0]],
    [[np.nan, 0.5], [0.5, 2.0]],  # LAPACK returns finite eigenvalues, NaN vectors
    [[1.0, 0.5], [0.5, np.inf]],
])
def test_spectral_gram_rejects_nonfinite(G):
    with pytest.raises(ConvergenceFailure, match="not finite"):
        spectral_gram(np.array(G))


NTM_RUNS = {
    "identity-converged": (lambda: ntm_solve(identity_problem(3), NtmConfig(alpha0=3.0)),
                           True, None),
    "max_iter-1": (lambda: ntm_solve(random_uniform_problem(40, 25, 0.10, seed=2),
                                     NtmConfig(alpha0=200.0, max_iter=1)), False, 1),
    "budget-exhausted": (lambda: ntm_solve(random_uniform_problem(40, 25, 0.10, seed=2),
                                           NtmConfig(alpha0=200.0, max_iter=2)), False, 2),
}


@pytest.mark.parametrize("case", NTM_RUNS)
def test_nonconvergence_flagged_with_trace(case):
    # newton_steps returns the trace with the last point: the start row, one row
    # per step, and the last row at the returned alpha
    run, converged, n_iter = NTM_RUNS[case]
    res = run()
    assert res.converged == converged
    assert n_iter is None or res.n_iter == n_iter
    assert len(res.trace) == res.n_iter + 1
    assert res.trace.column("alpha")[-1] == res.alpha


def test_trace_csv_schema(tmp_path):
    p = identity_problem(3)
    res = ntm_solve(p)
    out = tmp_path / "trace.csv"
    res.trace.write_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "iter,alpha,gamma,res_norm,F_norm,dinv,theta,case_id,dir_norm"
