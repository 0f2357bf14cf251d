"""Dense reference forms of the Newton kernel, used only as test oracles.

The solvers work in the eigenbasis of A^T A; these build the bordered
matrix and its closed-form inverse explicitly.
"""

import numpy as np

from tikmor import as_operator


def bordered_matrix(G, x, alpha):
    """D(x, alpha) = [[G + alpha I, x], [-x^T, 0]]."""
    n = x.shape[0]
    D = np.zeros((n + 1, n + 1))
    D[:n, :n] = G
    D[:n, :n][np.diag_indices(n)] += alpha
    D[:n, n] = x
    D[n, :n] = -x
    return D


def schur_inverse(A, x, alpha, gram=None):
    """Closed-form inverse of D(x, alpha) via its scalar Schur complement.

    With K = A^T A + alpha I, t = K^{-1} x and s = x^T t:

        D^{-1} = [[K^{-1} - t t^T / s, -t / s], [t^T / s, 1 / s]]
    """
    A = as_operator(A)
    x = np.asarray(x, dtype=float)
    G = A.gram() if gram is None else gram
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
