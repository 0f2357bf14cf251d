"""Projected Newton solve: the coupled system restricted to a growing
Golub-Kahan subspace, and the Krylov outer loop it shares with GBiT.

Each outer iteration expands the bidiagonalization by one column,
diagonalizes B^T B = Q diag(lam) Q^T, and warm starts from the projected
Tikhonov solution at the current alpha, in eigen-coordinates
yh = (Q^T B^T c) / (lam + alpha). The projected discrepancy equation has
a root only while the LSQR residual phi_k = min_z ||B z - c|| is below
eps; until then alpha is carried unchanged. Once it is, the safeguarded
Newton steps of ``ntm.newton_steps`` run on the small projected system,
O(k) each: the residual ||B Q yh - c|| comes from the eigenpairs and
||c|| = beta, with no product with Q or B. The outer loop stops only when
the projected system is solved *and* alpha has stagnated, since the
projected system can be solved accurately long before the subspace is
rich enough for the full problem; it stops unconverged once the
factorization is final (a breakdown, or k = min(m, n)) with phi_k still
at or above eps, since no root can appear after that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bidiag import BidiagFactorization, init_bidiag
from .errors import DegenerateRhsError
from .linop import as_operator
from .ntm import (
    StepRule,
    _check_discrepancy_feasible,
    eigen_residual_sq,
    newton_steps,
    spectral_gram,
)
from .problems import InverseProblem
from .trace import PNTM_COLUMNS, SolveTrace

PROJECTED_SOLVE_RTOL = 1e-12


@dataclass
class PntmConfig:
    alpha0: float = 1.0
    tol: float = 1e-3
    outer_iter_max: int = 100
    inner_cap_small: int = 10
    inner_cap_large: int = 10000
    step_rule: StepRule = field(default_factory=StepRule)

    def __post_init__(self):
        if self.alpha0 <= 0 or self.tol <= 0:
            raise ValueError("alpha0 and tol must be positive")
        if self.inner_cap_small > self.inner_cap_large:
            raise ValueError("inner_cap_small must not exceed inner_cap_large")
        if self.outer_iter_max < 1:
            raise ValueError("outer_iter_max must be >= 1")


@dataclass
class KrylovResult:
    """Outcome of a Golub-Kahan solve (pntm or gbit); gbit takes no inner steps."""

    x: np.ndarray
    alpha: float
    trace: SolveTrace
    converged: bool
    n_outer: int
    n_inner_total: int
    residual_norm: float
    F_norm: float
    y: np.ndarray
    factorization: BidiagFactorization


def krylov_loop(problem: InverseProblem, alpha0, tol, max_iter, trace, update):
    """Golub-Kahan outer loop shared by pntm and gbit.

    Each iteration grows the factorization by one column, diagonalizes
    B^T B = Q diag(lam) Q^T and calls
    ``update(k, B, c, lam, Q, gh, phi, alpha_prev) -> (y, alpha, F_norm, inner_steps)``
    with gh = Q^T B^T c and phi the LSQR residual min_z ||B z - c||;
    ``update`` appends its own trace rows. Stops once phi < eps (the
    projected discrepancy equation has a root), F_norm < tol and alpha
    moved by less than tol relative; stops unconverged once the
    factorization is final and phi >= eps, as no root can appear.
    """
    A = as_operator(problem.operator)
    b = problem.b
    eps = problem.discrepancy_target
    _check_discrepancy_feasible(b, eps)

    f = init_bidiag(A, b)
    alpha_prev = alpha = alpha0
    y = np.zeros(0)
    Fnorm = np.inf
    converged = False
    total_inner = 0
    n_outer = 0
    for k in range(1, max_iter + 1):
        n_outer = k
        if f.can_expand():
            f.expand()
        if f.k == 0:
            raise DegenerateRhsError(
                "A^T b is numerically zero: no Krylov direction exists"
            )
        B, c = f.B, f.c
        lam, Q = spectral_gram(B.T @ B)
        phi = f.lsqr_residual
        y, alpha, Fnorm, inner = update(k, B, c, lam, Q, (B.T @ c) @ Q, phi, alpha_prev)
        total_inner += inner
        if (
            phi < eps
            and Fnorm < tol
            and abs(alpha - alpha_prev) / max(alpha_prev, 1e-300) < tol
        ):
            converged = True
            break
        if phi >= eps and not f.can_expand():
            break
        alpha_prev = alpha

    x = f.lift(y)
    return KrylovResult(
        x=x,
        alpha=float(alpha),
        trace=trace,
        converged=converged,
        n_outer=n_outer,
        n_inner_total=total_inner,
        residual_norm=float(np.linalg.norm(A.matvec(x) - b)),
        F_norm=float(Fnorm),
        y=y,
        factorization=f,
    )


def pntm_solve(problem: InverseProblem, config: Optional[PntmConfig] = None) -> KrylovResult:
    """Projected Newton solve of the coupled system.

    Returns the lifted iterate; exhaustion of the outer budget (observed
    on hard ill-conditioned problems) is reported via the flag with the
    trace intact.
    """
    if config is None:
        config = PntmConfig()
    eps = problem.discrepancy_target
    trace = SolveTrace(columns=PNTM_COLUMNS)

    def update(k, B, c, lam, Q, gh, phi, alpha):
        cc = float(c @ c)
        yh = gh / (lam + alpha)  # warm start at the carried alpha
        warm_res = math.sqrt(eigen_residual_sq(lam, gh, cc, yh))
        if phi >= eps:  # no root yet: no Newton step, alpha is kept
            cap = 0
        elif warm_res > eps:
            cap = min(k, config.inner_cap_small)
        else:
            cap = config.inner_cap_large
        steps = newton_steps(
            lam, gh, cc, eps, yh, alpha, config.step_rule, config.tol, cap,
            rtol=PROJECTED_SOLVE_RTOL,
        )
        for l, step in enumerate(steps):
            trace.append(len(trace) + 1, *step.row, k, l, lam.size, warm_res)
        return Q @ step.xh, step.alpha, step.F_norm, l

    return krylov_loop(
        problem, config.alpha0, config.tol, config.outer_iter_max, trace, update
    )
