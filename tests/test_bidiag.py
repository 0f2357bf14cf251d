import numpy as np
import pytest

from tikmor import (
    BidiagFactorization,
    DegenerateRhsError,
    DenseOperator,
    InverseProblem,
    as_operator,
    gbit_solve,
    pntm_solve,
)
from tikmor.bidiag import _cgs2

from oracles import bases, projected_residual_norm

EPS = np.finfo(float).eps


def expand_fully(f):
    while f.can_expand():
        if not f.expand():
            break
    return f


def factorization_checks(A, f):
    (U, V), B = bases(f), f.B
    assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-10
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-10
    fro = np.linalg.norm(A, "fro")
    assert np.linalg.norm(A @ V - U @ B, "fro") <= 1e-10 * fro


def test_init_normalizes_rhs():
    f = BidiagFactorization(np.eye(2), np.array([3.0, 4.0]), 2)
    assert np.allclose(bases(f)[0][:, 0], [0.6, 0.8])
    assert f.c[0] == pytest.approx(5.0)
    assert f.k == 0


def test_init_rejects_zero_rhs():
    with pytest.raises(DegenerateRhsError):
        BidiagFactorization(np.eye(2), np.zeros(2), 2)


def test_u1_unit_norm(rng):
    b = rng.standard_normal(30)
    f = BidiagFactorization(rng.standard_normal((30, 10)), b, 10)
    assert abs(np.linalg.norm(bases(f)[0][:, 0]) - 1.0) <= 1e-15


def test_first_expansion_diagonal_example():
    A = np.diag([2.0, 1.0])
    f = BidiagFactorization(A, np.array([1.0, 1.0]), 2)
    assert f.expand()
    # r_1 = A^T u_1 = [2, 1]/sqrt(2), mu_1 = sqrt(5/2)
    assert f.B[0, 0] == pytest.approx(np.sqrt(2.5), rel=1e-12)
    assert np.allclose(np.abs(bases(f)[1][:, 0]), np.array([2.0, 1.0]) / np.sqrt(5.0))


def assert_final(f):
    # expand() on a final factorization returns False and changes nothing
    k, B, phi = f.k, f.B, f.lsqr_residual
    assert not f.can_expand()
    assert not f.expand()
    assert f.k == k and np.array_equal(f.B, B) and f.lsqr_residual == phi


def test_identity_breakdown():
    # A v_1 = u_1 exactly, so the nu step collapses
    f = BidiagFactorization(np.eye(3), np.array([1.0, 0.0, 0.0]), 3)
    assert not f.expand()
    assert f.breakdown
    assert f.k == 1
    assert f.B.shape == (1, 1)
    assert f.lsqr_residual == 0.0  # square B: B z = c is solvable
    assert_final(f)


def test_expands_up_to_its_budget(rng):
    # storage holds k_max columns; past them the factorization is final
    f = BidiagFactorization(rng.standard_normal((30, 10)), rng.standard_normal(30), 3)
    for _ in range(3):
        assert f.can_expand()
        assert f.expand()
    assert f.k == 3 and bases(f)[0].shape == (30, 4) and f.B.shape == (4, 3)
    assert_final(f)
    assert not f.breakdown


def test_rhs_orthogonal_to_range_has_no_first_direction():
    # A^T b = 0 with b != 0: the first expansion finds mu_1 = 0
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    f = BidiagFactorization(A, np.array([0.0, 0.0, 1.0]), 2)
    with pytest.raises(DegenerateRhsError, match="A\\^T b is numerically zero"):
        f.expand()
    assert f.k == 0


# sigma = 1e10, 1 and 1e-5, and b has no component along the 1e10 direction:
# ||A||_F counts a singular value the Krylov space never reaches
GRADED_A = np.vstack([np.diag([1e10, 1.0, 1e-5]), np.zeros((1, 3))])
GRADED_B = np.array([0.0, 1.0, 1.0, 1.0])


def test_breakdown_scale_is_the_subspaces_own():
    # the 1e-5 direction is genuine next to mu_1 = 1, though below 1e-14 ||A||_F
    f = BidiagFactorization(GRADED_A, GRADED_B, 3)
    expand_fully(f)
    assert f.k == 2
    lsq = np.linalg.norm(GRADED_A @ np.linalg.lstsq(GRADED_A, GRADED_B, rcond=None)[0]
                         - GRADED_B)
    assert lsq == pytest.approx(1.0, rel=1e-12)
    assert f.lsqr_residual == pytest.approx(lsq, rel=1e-12)


@pytest.mark.parametrize("solve", [pntm_solve, gbit_solve])
def test_krylov_solves_reach_the_graded_discrepancy(solve):
    eps, tol = 1.2, 1e-3
    res = solve(InverseProblem(operator=as_operator(GRADED_A), b=GRADED_B,
                               noise_level=eps))
    assert res.converged
    assert abs(res.residual_norm - eps) <= 2 * tol * eps


def test_full_expansion_factorization(rng):
    A = rng.standard_normal((30, 20))
    f = BidiagFactorization(A, rng.standard_normal(30), 20)
    expand_fully(f)
    assert f.k == 20
    factorization_checks(A, f)
    assert_final(f)


def test_factorization_after_breakdown(rng):
    # rank-deficient operator forces early termination
    left = rng.standard_normal((15, 4))
    right = rng.standard_normal((4, 10))
    A = left @ right
    f = BidiagFactorization(A, rng.standard_normal(15), 10)
    expand_fully(f)
    assert f.breakdown
    assert f.k <= 5
    factorization_checks(A, f)


def test_krylov_span(rng):
    # V_k spans the Krylov space built from A^T b and powers of A^T A
    A = rng.standard_normal((12, 8))
    b = rng.standard_normal(12)
    k = 4
    f = BidiagFactorization(A, b, k)
    for _ in range(k):
        f.expand()
    _, V = bases(f)
    G = A.T @ A
    w = A.T @ b
    for j in range(k):
        proj = V @ (V.T @ w)
        assert np.linalg.norm(w - proj) <= 1e-8 * np.linalg.norm(w)
        w = G @ w


def test_mu_breakdown_keeps_lsqr_residual(rng):
    # rank one: after u_2 no new direction of V exists, so the mu step collapses
    A = np.outer(rng.standard_normal(6), rng.standard_normal(4))
    f = BidiagFactorization(A, rng.standard_normal(6), 4)
    assert f.expand()
    before = f.lsqr_residual
    assert not f.expand()
    assert f.breakdown and f.k == 1 and f.B.shape == (2, 1)
    assert f.lsqr_residual == before


def _normal_residuals(A, b, f, y, alpha):
    """(priced, dense): ||A^T (A V y - b) + alpha V y|| from the projected
    normal residual and ``normal_tail``, and from the operator."""
    B, c = f.B, f.c
    proj = np.linalg.norm(B.T @ (B @ y - c) + alpha * y)
    x = f.lift(y)
    return np.hypot(proj, f.normal_tail(y)), np.linalg.norm(A.T @ (A @ x - b) + alpha * x)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("seed", range(3))
def test_normal_tail_prices_the_full_space_normal_residual(seed, scale):
    # at every k, at a random point and at the projected Tikhonov point,
    # where the projected part vanishes and the tail is all there is; asking
    # for the tail leaves the factorization as it grows without it, bit for bit
    rng = np.random.default_rng(seed)
    A = scale * rng.standard_normal((40, 25))
    b = scale * rng.standard_normal(40)
    f, g = BidiagFactorization(A, b, 12), BidiagFactorization(A, b, 12)
    atb = np.linalg.norm(A.T @ b)
    assert f.expand() and g.expand()
    assert f.atb_norm == pytest.approx(atb, rel=1e-13)
    for k in range(1, 13):
        alpha = scale**2 * rng.uniform(0.1, 10.0)
        B, c = f.B, f.c
        tikhonov = np.linalg.solve(B.T @ B + alpha * np.eye(k), B.T @ c)
        for y in (rng.standard_normal(k), tikhonov):
            priced, dense = _normal_residuals(A, b, f, y, alpha)
            assert abs(priced - dense) <= 1e-12 * (dense + atb)
        if k < 12:
            assert f.expand() and g.expand()
    assert np.array_equal(f.B, g.B) and all(map(np.array_equal, bases(f), bases(g)))


@pytest.mark.parametrize("case", ["nu-breakdown", "mu-breakdown", "full"])
def test_normal_tail_is_zero_once_the_factorization_is_final(case, rng):
    # no direction follows, so the projection sees the whole normal residual
    if case == "nu-breakdown":  # A^T b lies in a 3-dimensional invariant subspace
        A, b = np.diag(np.arange(1.0, 7.0)), np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    elif case == "mu-breakdown":  # rank one
        A, b = np.outer(rng.standard_normal(6), rng.standard_normal(4)), rng.standard_normal(6)
    else:  # V spans the whole domain
        A, b = rng.standard_normal((12, 8)), rng.standard_normal(12)
    f = expand_fully(BidiagFactorization(A, b, 8))
    assert f.breakdown != (case == "full")
    y = rng.standard_normal(f.k)
    assert f.normal_tail(y) == 0.0
    priced, dense = _normal_residuals(A, b, f, y, 0.5)
    assert priced == pytest.approx(dense, rel=1e-12)


def test_projected_residual_zero_coordinates():
    f = BidiagFactorization(np.eye(4), np.array([1.0, 2.0, 2.0, 0.0]), 1)
    f.expand()
    assert projected_residual_norm(f, np.zeros(f.k)) == pytest.approx(3.0)


def test_projected_residual_closed_form_k1(rng):
    A = rng.standard_normal((9, 5))
    b = rng.standard_normal(9)
    f = BidiagFactorization(A, b, 1)
    f.expand()
    mu1, nu2 = f.B[0, 0], f.B[1, 0]
    beta = np.linalg.norm(b)
    t = 0.7
    expected = np.sqrt((mu1 * t - beta) ** 2 + (nu2 * t) ** 2)
    assert projected_residual_norm(f, np.array([t])) == pytest.approx(expected, rel=1e-12)


def test_projected_residual_matches_lifted(rng):
    A = rng.standard_normal((25, 15))
    b = rng.standard_normal(25)
    f = BidiagFactorization(A, b, 6)
    for _ in range(6):
        f.expand()
    for _ in range(5):
        y = rng.standard_normal(f.k)
        lifted = np.linalg.norm(A @ f.lift(y) - b)
        proj = projected_residual_norm(f, y)
        assert abs(lifted - proj) <= 1e-9 * max(1.0, lifted)


def test_invariants_hold_after_every_expansion(rng):
    A = rng.standard_normal((18, 12))
    f = BidiagFactorization(A, rng.standard_normal(18), 12)
    while f.can_expand():
        if not f.expand():
            break
        factorization_checks(A, f)


def mgs_reference(vec, rows):
    # reference: one modified Gram-Schmidt pass, one stored vector at a time
    for q in rows:
        vec = vec - (q @ vec) * q
    return vec


def test_cgs2_matches_mgs_reference(rng):
    rows = np.linalg.qr(rng.standard_normal((50, 20)))[0].T
    vec = rng.standard_normal(50)
    got = _cgs2(vec, rows)
    assert np.linalg.norm(got - mgs_reference(vec, rows)) <= 100 * EPS * np.linalg.norm(vec)
    assert np.abs(rows @ got).max() <= 10 * EPS * np.linalg.norm(vec)
    assert np.array_equal(_cgs2(vec, rows[:0]), vec)  # empty basis: unchanged


def test_graded_operator_stays_orthonormal(rng):
    # singular values 1 ... 1e-14: the Krylov directions lose orthogonality
    # fast, so full reorthogonalization must hold U and V to a few eps
    m, n, k = 400, 300, 150
    left = np.linalg.qr(rng.standard_normal((m, n)))[0]
    right = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = (left * np.logspace(0, -14, n)) @ right.T
    f = BidiagFactorization(A, rng.standard_normal(m), k)
    for _ in range(k):
        assert f.expand()
        B, c = f.B, f.c
        lsq = np.linalg.norm(B @ np.linalg.lstsq(B, c, rcond=None)[0] - c)
        assert abs(f.lsqr_residual - lsq) <= 1e-12 * lsq
    (U, V), B = bases(f), f.B
    assert U.shape == (m, k + 1) and V.shape == (n, k) and B.shape == (k + 1, k)
    assert np.abs(U.T @ U - np.eye(k + 1)).max() <= 1e-13
    assert np.abs(V.T @ V - np.eye(k)).max() <= 1e-13
    assert np.linalg.norm(A @ V - U @ B, "fro") <= 1e-13 * np.linalg.norm(A, "fro")


def test_expand_applies_operator_once_each_way(rng):
    op = DenseOperator(rng.standard_normal((20, 12)))
    calls = {"matvec": 0, "rmatvec": 0}

    def counted(name):
        method = getattr(op, name)

        def spy(v):
            calls[name] += 1
            return method(v)

        return spy

    op.matvec, op.rmatvec = counted("matvec"), counted("rmatvec")
    f = BidiagFactorization(op, rng.standard_normal(20), 12)
    for k in range(1, 13):
        assert f.expand()
        assert calls == {"matvec": k, "rmatvec": k}
