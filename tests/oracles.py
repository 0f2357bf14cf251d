"""Reference forms of the Newton kernel, the Tikhonov solve and the
regularizer, used only as test oracles.

The solvers work in the eigenbasis of A^T A; these build the bordered
matrix and its closed-form inverse explicitly, solve the Tikhonov normal
equations by a dense LU factorization, evaluate the coupled system at a
given point from its definition (one matvec and one rmatvec), and rotate
that point into the eigenbasis and the direction out of it around the
same ``solve_rescaled_system`` the solvers run. They keep their own copy of
the Gram matrix and its eigenpairs, and read a factorization's bases.
"""

import numpy as np

from tikmor import as_operator
from tikmor.ntm import solve_rescaled_system


def gram(A):
    """Dense A^T A of operator (or array) A, the product ``ntm.gram_spectrum`` forms."""
    D = as_operator(A).to_dense()
    return D.T @ D


def spectral_gram(G):
    """(lam, Q) with G = Q diag(lam) Q^T, lam ascending and clamped at 0 as in
    ``ntm.gram_spectrum``, so lam + alpha > 0 for alpha > 0."""
    lam, Q = np.linalg.eigh(G)
    return np.maximum(lam, 0.0), Q


def bases(f):
    """(U, V) of BidiagFactorization f: m x (k+1) (m x k after a nu-breakdown)
    and n x k, with A V = U B."""
    return f._U[: f._nu].T, f._V[: f.k].T


def normal_equation_solve(A, b, alpha):
    """x with (A^T A + alpha I) x = A^T b, by a dense LU solve."""
    A = as_operator(A)
    G = gram(A)
    return np.linalg.solve(G + alpha * np.eye(A.cols), A.rmatvec(np.asarray(b, dtype=float)))


def coupled_residual(matvec, rmatvec, b, eps):
    """F(x, alpha) -> (F1, F2, ||A x - b||) for the operator given by its products."""

    def F(x, alpha):
        r = matvec(x) - b
        F1 = rmatvec(r) + alpha * x
        F2 = 0.5 * float(r @ r) - 0.5 * eps * eps
        return F1, F2, float(np.linalg.norm(r))

    return F


def projected_residual_norm(f, y) -> float:
    """||B y - c|| of factorization f, which equals ||A (V y) - b|| in exact arithmetic."""
    y = np.asarray(y, dtype=float)
    if y.shape != (f.k,):
        raise ValueError(f"expected length {f.k}, got {y.shape}")
    return float(np.linalg.norm(f.B @ y - f.c))


def eval_F(A, b, eps, x, alpha):
    """(F1, F2) of the coupled system at (x, alpha)."""
    A = as_operator(A)
    F = coupled_residual(A.matvec, A.rmatvec, np.asarray(b, dtype=float), eps)
    F1, F2, _ = F(np.asarray(x, dtype=float), alpha)
    return F1, F2


def spectral_direction(G, x, alpha, F1, F2):
    """(dx, dalpha) from ``solve_rescaled_system``, rotated in and out of G's eigenbasis."""
    lam, Q = spectral_gram(G)
    dxh, dalpha = solve_rescaled_system(lam, x @ Q, alpha, F1 @ Q, F2)
    return Q @ dxh, dalpha


def solve_newton_system(A, b, eps, x, alpha):
    """Full-space Newton direction (dx, dalpha) at (x, alpha)."""
    A = as_operator(A)
    x = np.asarray(x, dtype=float)
    F1, F2 = eval_F(A, b, eps, x, alpha)
    return spectral_direction(gram(A), x, alpha, F1, F2)


def projected_eval_F(B, c, eps, y, alpha):
    """(F1, F2) of the projected system with bidiagonal B and rhs c."""
    F1, F2, _ = coupled_residual(B.__matmul__, B.T.__matmul__, c, eps)(y, alpha)
    return F1, F2


def projected_newton_system(f, y, alpha, eps):
    """Newton direction (dy, dalpha) of the projected system of factorization f."""
    B, c = f.B, f.c
    y = np.asarray(y, dtype=float)
    F1, F2 = projected_eval_F(B, c, eps, y, alpha)
    return spectral_direction(B.T @ B, y, alpha, F1, F2)


def regularization_dense(dim):
    """L of the smoothing stencil: -1 on the diagonal, +1 above it."""
    return -np.eye(dim) + np.diag(np.ones(dim - 1), 1)


def inverse_dense(dim):
    """inv(L) of the smoothing stencil: -triu(ones), column j is -1 on rows <= j."""
    return -np.triu(np.ones((dim, dim)))


def lemma_bound(G, x, alpha):
    """The Lemma's bound on ||D(x, alpha)^-1||, x != 0:
    (1 + ||x||/alpha)^2 max(1/alpha, (alpha + lambda_max(G))/||x||)."""
    nx = float(np.linalg.norm(x))
    lam_max = float(np.linalg.eigvalsh(G)[-1])
    return (1.0 + nx / alpha) ** 2 * max(1.0 / alpha, (alpha + lam_max) / nx)


def bordered_matrix(G, x, alpha):
    """D(x, alpha) = [[G + alpha I, x], [-x^T, 0]]."""
    n = x.shape[0]
    D = np.zeros((n + 1, n + 1))
    D[:n, :n] = G
    D[:n, :n][np.diag_indices(n)] += alpha
    D[:n, n] = x
    D[n, :n] = -x
    return D


def schur_inverse(A, x, alpha):
    """Closed-form inverse of D(x, alpha) via its scalar Schur complement.

    With K = A^T A + alpha I, t = K^{-1} x and s = x^T t:

        D^{-1} = [[K^{-1} - t t^T / s, -t / s], [t^T / s, 1 / s]]
    """
    A = as_operator(A)
    x = np.asarray(x, dtype=float)
    G = gram(A)
    n = x.shape[0]
    K = G + alpha * np.eye(n)
    Kinv = np.linalg.inv(K)
    t = Kinv @ x
    s = float(x @ t)
    if s == 0.0:
        raise np.linalg.LinAlgError("Schur complement vanishes for x = 0")
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = Kinv - np.outer(t, t) / s
    out[:n, n] = -t / s
    out[n, :n] = t / s
    out[n, n] = 1.0 / s
    return out


def rescaled_jacobian(G, x, alpha, F1, F2):
    """Dense rescaled Newton system (J, rhs): J = [[G + alpha I, x], [F1/alpha - x, 0]]."""
    n = x.shape[0]
    J = bordered_matrix(G, x, alpha)
    J[n, :n] = F1 / alpha - x
    rhs = np.append(-F1, -F2 / alpha)
    return J, rhs
