"""Projected Newton solve: the coupled system restricted to a growing
Golub-Kahan subspace, and the Krylov outer loop it shares with GBiT.

Each outer iteration expands the bidiagonalization by one column, warm
starts from the projected Tikhonov solution at the current alpha, and
runs the safeguarded Newton steps of ``ntm.newton_steps`` on the small
projected system. The outer loop stops only when the projected system is
solved *and* alpha has stagnated, since the projected system can be
solved accurately long before the subspace is rich enough for the full
problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .bidiag import BidiagFactorization, init_bidiag
from .errors import DegenerateRhsError
from .linop import as_operator
from .ntm import (
    StepRule,
    _check_discrepancy_feasible,
    coupled_residual,
    newton_steps,
    solve_rescaled_system,
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
        if self.step_rule.dinv_mode != "exact_svd":
            raise ValueError(
                "pntm prices ||D^-1|| exactly; dinv_mode must be exact_svd"
            )


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


PntmResult = KrylovResult


def projected_eval_F(B, c, eps, y, alpha):
    F1, F2, _ = coupled_residual(B.__matmul__, B.T.__matmul__, c, eps)(y, alpha)
    return F1, F2


def projected_newton_system(f: BidiagFactorization, y, alpha, eps):
    """Newton directions for the projected system, solved densely."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if f.k < 1:
        raise ValueError("factorization holds no columns yet")
    B, c = f.B, f.c
    y = np.asarray(y, dtype=float)
    F1, F2 = projected_eval_F(B, c, eps, y, alpha)
    return solve_rescaled_system(
        *spectral_gram(B.T @ B), y, alpha, F1, F2, rtol=PROJECTED_SOLVE_RTOL
    )[:2]


def krylov_loop(problem: InverseProblem, alpha0, tol, max_iter, trace, update):
    """Golub-Kahan outer loop shared by pntm and gbit.

    Each iteration grows the factorization by one column and calls
    ``update(k, B, c, G, g, alpha_prev) -> (y, alpha, F_norm, inner_steps)``
    with G = B^T B and g = B^T c; ``update`` appends its own trace rows.
    Stops once F_norm < tol and alpha moved by less than tol relative.
    """
    A = as_operator(problem.operator)
    b = problem.b
    _check_discrepancy_feasible(b, problem.discrepancy_target)

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
        y, alpha, Fnorm, inner = update(k, B, c, B.T @ B, B.T @ c, alpha_prev)
        total_inner += inner
        if Fnorm < tol and abs(alpha - alpha_prev) / max(alpha_prev, 1e-300) < tol:
            converged = True
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


def pntm_solve(problem: InverseProblem, config: Optional[PntmConfig] = None) -> PntmResult:
    """Projected Newton solve of the coupled system.

    Returns the lifted iterate; exhaustion of the outer budget (observed
    on hard ill-conditioned problems) is reported via the flag with the
    trace intact.
    """
    if config is None:
        config = PntmConfig()
    eps = problem.discrepancy_target
    trace = SolveTrace(columns=PNTM_COLUMNS)

    def update(k, B, c, G, g, alpha):
        dim = G.shape[0]
        # warm start: projected Tikhonov solution at the carried alpha
        y = cho_solve(cho_factor(G + alpha * np.eye(dim)), g)
        warm_res = float(np.linalg.norm(B @ y - c))
        cap = (
            min(k, config.inner_cap_small)
            if warm_res > eps
            else config.inner_cap_large
        )
        F = coupled_residual(B.__matmul__, B.T.__matmul__, c, eps)
        steps = newton_steps(
            *spectral_gram(G), F, y, alpha, config.step_rule, config.tol, cap,
            rtol=PROJECTED_SOLVE_RTOL,
        )
        for l, step in enumerate(steps):
            trace.append(len(trace) + 1, *step.row, k, l, dim, warm_res)
        return step.x, step.alpha, step.F_norm, l

    return krylov_loop(
        problem, config.alpha0, config.tol, config.outer_iter_max, trace, update
    )
