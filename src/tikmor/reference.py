"""Comparison solvers: secant-updated bidiagonal Tikhonov (GBiT),
simultaneous iterative reconstruction (SIRT), and conjugate-gradient
least squares with discrepancy stopping (CGLS). Priorconditioned CGLS
(CGLS-PC) is ``cgls`` on the standard-form problem that
``problems.priorconditioned_problem`` builds, mapped back by the function
it returns.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceFailure, InfeasibleDiscrepancyError, ZeroSumError, check_count
from .linop import as_operator, real_vector
from .ntm import _EPS, check_options, eigen_residual_sq
from .pntm import KrylovResult, krylov_loop
from .problems import InverseProblem
from .trace import CGLS_COLUMNS, SIRT_COLUMNS, SolveResult, SolveTrace

logger = logging.getLogger(__name__)


# -- GBiT ---------------------------------------------------------------------


@dataclass
class GbitConfig:
    alpha0: float = 1.0
    tol: float = 1e-3
    max_iter: int = 100

    def __post_init__(self):
        check_options(self, max_iter=1)


def gbit_solve(problem: InverseProblem, config: Optional[GbitConfig] = None) -> KrylovResult:
    """Alternate projected Tikhonov solves with secant updates of alpha.

    Per Krylov iteration the subspace grows by one, the regularized
    projected solution is computed in the eigenbasis of B^T B, and alpha
    moves by one secant step toward the discrepancy level between its
    residual and that of the unregularized solution (the LSQR iterate),
    which the factorization's recurrence gives without solving for it;
    ``ntm.eigen_residual_sq`` prices the first on top of the second, in
    range coordinates, so nothing cancels. The step starts from
    max(alpha, 4 eps_mach lam_min), lam_min the smallest positive projected
    eigenvalue, where the gap is positive (B^T B is unreduced tridiagonal:
    no gh_i vanishes); one that underflows anyway raises
    ``ConvergenceFailure``. ``pntm.krylov_loop`` prices (yh, alpha), F1 the
    computed residual of the computed y, and stops on its test, as for pntm.
    """
    if config is None:
        config = GbitConfig()
    eps = problem.discrepancy_target

    def update(k, lam, gh, rr, res_z, alpha_prev):
        alpha_prev = max(alpha_prev, 4.0 * _EPS * np.min(lam, where=lam > 0, initial=np.inf))
        yh = gh / (lam + alpha_prev)  # (B^T B + alpha_prev I) Q yh = B^T c
        gap = eigen_residual_sq(lam, gh, 0.0, yh)  # res_y^2 - res_z^2
        if gap == 0.0:
            raise ConvergenceFailure(
                f"secant update degenerate at iteration {k}: the residual at "
                f"alpha = {alpha_prev:.3g} does not rise above r(z) = {res_z:.6g}"
            )
        res_y = math.sqrt(rr + gap)
        # the secant sees residuals only relative to res_z: res_y - res_z as
        # priced, which a tiny alpha_prev does not round away to 0
        return yh, abs((eps - res_z) / (gap / (res_y + res_z))) * alpha_prev

    return krylov_loop(problem, config.alpha0, config.tol, config.max_iter, update)


# -- SIRT ---------------------------------------------------------------------


@dataclass
class SirtOperators:
    """Cached inverse row/column sum scalings."""

    row_scale: np.ndarray  # diagonal of R
    col_scale: np.ndarray  # diagonal of C


def sirt_operators(A) -> SirtOperators:
    """Inverse row and column sums of A.

    Raw sums are used as written for nonnegative matrices; any negative
    entry switches both sums to absolute values (logged), since raw sums
    can then vanish or change sign.
    """
    A = as_operator(A)
    M = A.sparse if hasattr(A, "sparse") else A.to_dense()
    has_negative = bool(M.min() < 0)
    basis = abs(M) if has_negative else M
    row_sums = np.asarray(basis.sum(axis=1)).ravel()
    col_sums = np.asarray(basis.sum(axis=0)).ravel()
    if has_negative:
        logger.warning(
            "matrix has negative entries; SIRT scalings use absolute-value sums"
        )
    for kind, sums in (("row", row_sums), ("column", col_sums)):
        bad = np.flatnonzero(sums == 0.0)
        if bad.size:
            raise ZeroSumError(kind, int(bad[0]))
    return SirtOperators(row_scale=1.0 / row_sums, col_scale=1.0 / col_sums)


def _finite(name, value):
    """The value; a ConvergenceFailure if it is not finite (A or b is not)."""
    if not math.isfinite(value):
        raise ConvergenceFailure(f"{name} = {value!r} is not finite")
    return value


@np.errstate(invalid="ignore", over="ignore")  # non-finite A or b: the residual says so
def sirt_solve(problem: InverseProblem, max_iter=1000) -> SolveResult:
    """Stationary iteration x <- x + C A^T R (b - A x) from x = 0 until the
    residual reaches the discrepancy level (converged) or ``max_iter`` ends it.
    A residual norm that is not finite raises ``ConvergenceFailure``."""
    check_count("max_iter", max_iter, 1)
    A = problem.operator
    b = problem.b
    eps = problem.discrepancy_target
    ops = sirt_operators(A)

    trace = SolveTrace(columns=SIRT_COLUMNS)
    x = np.zeros(A.cols)
    reached = False
    n_iter = 0
    r = b  # b - A x at x = 0
    res = float(np.linalg.norm(b))
    for k in range(1, max_iter + 1):
        x = x + ops.col_scale * A.rmatvec(ops.row_scale * r)
        r = b - A.matvec(x)
        res = _finite("SIRT residual norm", float(np.linalg.norm(r)))
        n_iter = k
        trace.append(k, None, res)
        if res <= eps:
            reached = True
            break
    return SolveResult(
        x=x, alpha=None, trace=trace, converged=reached, n_iter=n_iter,
        residual_norm=res,
    )


# -- CGLS ---------------------------------------------------------------------


@np.errstate(invalid="ignore", over="ignore")  # non-finite A or b: gamma or the residual says so
def cgls(A, b, eps, max_iter=1000) -> SolveResult:
    """Conjugate-gradient least squares with discrepancy stopping.

    Iterates on min ||A x - b|| from x = 0 and stops at the first iterate
    whose residual norm is at or below eps, which must be positive and
    finite. A gamma = ||A^T r||^2 or residual norm that is not finite raises
    ``ConvergenceFailure``.
    """
    if not (eps > 0 and math.isfinite(eps)):  # NaN fails
        raise InfeasibleDiscrepancyError(f"discrepancy level must be positive and finite, got {eps}")
    check_count("max_iter", max_iter, 1)
    A = as_operator(A)
    x = np.zeros(A.cols)
    r = real_vector(b, A.rows, "rhs", "operator rows")  # b - A x at x = 0; never written into
    s = A.rmatvec(r)
    p = s.copy()
    gamma = _finite("CGLS gamma", float(s @ s))
    trace = SolveTrace(columns=CGLS_COLUMNS)
    res = _finite("CGLS residual norm", float(np.linalg.norm(r)))
    trace.append(0, None, res)
    converged = res <= eps
    n_iter = 0
    for k in range(1, max_iter + 1):
        if converged or gamma == 0.0:
            break
        q = A.matvec(p)
        delta = float(q @ q)
        if delta == 0.0:
            break
        step = gamma / delta
        x = x + step * p
        r = r - step * q
        res = _finite("CGLS residual norm", float(np.linalg.norm(r)))
        n_iter = k
        trace.append(k, None, res)
        if res <= eps:
            converged = True
            break
        s = A.rmatvec(r)
        gamma_new = _finite("CGLS gamma", float(s @ s))
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return SolveResult(
        x=x, alpha=None, trace=trace, converged=converged, n_iter=n_iter,
        residual_norm=res,
    )
