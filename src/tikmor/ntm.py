"""Safeguarded Newton iterations coupling Tikhonov normal equations with
the discrepancy principle.

The nonlinear system in (x, alpha) is

    F1(x, alpha) = (A^T A + alpha I) x - A^T b
    F2(x, alpha) = 0.5 ||A x - b||^2 - 0.5 eps^2

Newton directions come from the row-rescaled Jacobian (last row divided
by the current alpha), which at F1-consistent points reduces to the
bordered matrix D(x, alpha) whose inverse is provably bounded. The step
size is capped so the Jacobian stays regular along the way; the "case1"
rule additionally forces the search-direction norms to decrease.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve, svdvals

from .errors import InfeasibleDiscrepancyError, SingularJacobianError
from .linop import as_operator, normal_equation_solve
from .problems import InverseProblem
from .trace import NTM_COLUMNS, SolveTrace

SOLVE_RTOL = 1e-10


def coupled_residual(matvec, rmatvec, b, eps):
    """F(x, alpha) -> (F1, F2, ||A x - b||) for the operator given by its products."""

    def F(x, alpha):
        r = matvec(x) - b
        F1 = rmatvec(r) + alpha * x
        F2 = 0.5 * float(r @ r) - 0.5 * eps * eps
        return F1, F2, float(np.linalg.norm(r))

    return F


def eval_F(A, b, eps, x, alpha):
    """Stacked residual of the coupled system at (x, alpha)."""
    A = as_operator(A)
    F = coupled_residual(A.matvec, A.rmatvec, np.asarray(b, dtype=float), eps)
    F1, F2, _ = F(np.asarray(x, dtype=float), alpha)
    return F1, F2


def stacked_norm(F1, F2) -> float:
    return float(np.sqrt(F1 @ F1 + F2 * F2))


def solve_rescaled_system(G, x, alpha, F1, F2, rtol=SOLVE_RTOL):
    """Newton directions from the rescaled Jacobian, solved densely.

    G is the (projected or full) Gram matrix A^T A. The bottom row
    (A^T(Ax-b))/alpha is recovered from F1 without an extra matvec.
    The solve quality is checked through the normwise backward error
    ||J d - rhs|| / (||rhs|| + ||J|| ||d||), the scale-independent form
    of a relative residual; one refinement pass backs it up.
    """
    n = x.shape[0]
    J = np.zeros((n + 1, n + 1))
    J[:n, :n] = G
    J[:n, :n][np.diag_indices(n)] += alpha
    J[:n, n] = x
    J[n, :n] = F1 / alpha - x
    rhs = np.empty(n + 1)
    rhs[:n] = -F1
    rhs[n] = -F2 / alpha
    if not (np.isfinite(J).all() and np.isfinite(rhs).all()):
        # F2 / alpha overflows once alpha underflows under case-3 clipping
        raise SingularJacobianError(
            f"rescaled Newton system is not finite at alpha = {alpha!r}"
        )
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros(n), 0.0
    try:
        lu = lu_factor(J)
        d = lu_solve(lu, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - safeguarded away
        raise SingularJacobianError(str(exc)) from exc

    def backward_error(vec):
        scale = rhs_norm + np.linalg.norm(J, "fro") * np.linalg.norm(vec)
        return np.linalg.norm(J @ vec - rhs) / scale

    if backward_error(d) > rtol:
        d = d - lu_solve(lu, J @ d - rhs)
        err = backward_error(d)
        if err > rtol:
            raise SingularJacobianError(
                f"Newton system solve stalled at backward error {err:.3e}"
            )
    return d[:n], float(d[n])


def solve_newton_system(A, b, eps, x, alpha, gram=None):
    """Full-space convenience wrapper around the dense core."""
    A = as_operator(A)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    G = A.gram() if gram is None else gram
    F1, F2 = eval_F(A, b, eps, x, alpha)
    return solve_rescaled_system(G, np.asarray(x, dtype=float), alpha, F1, F2)


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


def largest_gram_eigenvalue(A, steps=100, gram=None) -> float:
    """Power iteration estimate of lambda_1(A^T A), deterministic start."""
    A = as_operator(A)
    rng = np.random.default_rng(0x1A51)
    v = rng.standard_normal(A.cols)
    v /= np.linalg.norm(v)
    apply_G = (lambda u: gram @ u) if gram is not None else (
        lambda u: A.rmatvec(A.matvec(u))
    )
    lam = 0.0
    for _ in range(steps):
        w = apply_G(v)
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return lam


def dinv_norm(A, x, alpha, mode="exact_svd", gram=None, lam1=None) -> float:
    """Spectral norm of D(x, alpha)^{-1}.

    ``exact_svd`` inverts the smallest singular value of the bordered
    matrix. ``lemma_bound`` evaluates the analytic upper bound
    (1 + ||x||/alpha)^2 * max(1/alpha, (alpha + lambda_1)/||x||), whose
    overestimation only shrinks the safeguarded step. ``A`` is only read
    when ``gram`` (or, for the bound, ``lam1``) is not given.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    if mode == "lemma_bound":
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            mode = "exact_svd"  # bound divides by ||x||
        else:
            if lam1 is None:
                lam1 = largest_gram_eigenvalue(A, gram=gram)
            return (1.0 + nx / alpha) ** 2 * max(1.0 / alpha, (alpha + lam1) / nx)
    if mode != "exact_svd":
        raise ValueError(f"unknown mode {mode!r}")
    G = as_operator(A).gram() if gram is None else gram
    sigma_min = svdvals(bordered_matrix(G, x, alpha))[-1]
    if sigma_min == 0.0:
        return np.inf
    return float(1.0 / sigma_min)


class StepInterval(NamedTuple):
    gamma_max: float
    theta: float
    case_id: int


def step_interval(alpha_prev, dalpha, omega) -> StepInterval:
    """Admissible step range and the zeta bound, by sign of the alpha update.

    The three cases keep alpha positive: an unscaled step that would land
    at negative alpha is clipped to the fraction omega of the distance to
    zero. dalpha = 0 is folded into the first case as its limit.
    """
    if alpha_prev <= 0:
        raise ValueError("alpha must be positive")
    if not (0.0 < omega < 1.0):
        raise ValueError("omega must lie strictly inside (0, 1)")
    if dalpha >= 0:
        return StepInterval(1.0, np.sqrt(2.0), 1)
    if alpha_prev + dalpha > 0:
        ratio = alpha_prev / (alpha_prev + dalpha)
        return StepInterval(1.0, float(np.sqrt(1.0 + ratio * ratio)), 2)
    gamma_max = -omega * alpha_prev / dalpha
    theta = float(np.sqrt(1.0 + 1.0 / (1.0 - omega) ** 2))
    return StepInterval(gamma_max, theta, 3)


def step_size(
    rule_variant,
    dx,
    dalpha,
    gamma_max,
    theta,
    dinv,
    operator=None,
    gram_dx=None,
) -> float:
    """Safeguarded step length for one Newton update.

    case1 caps both the Jacobian perturbation and the direction-norm
    growth; case2 only the former, giving substantially larger steps.
    For case1 the product A^T A dx is taken from ``gram_dx`` when given,
    otherwise computed through the operator.
    """
    if dinv <= 0:
        raise ValueError("dinv must be positive")
    dx = np.asarray(dx, dtype=float)
    ndx = float(np.linalg.norm(dx))
    base = abs(dalpha) + theta * ndx
    if rule_variant == "case1":
        if gram_dx is None:
            if operator is None:
                raise ValueError("case1 needs the operator or a precomputed A^T A dx")
            op = as_operator(operator)
            gram_dx = op.rmatvec(op.matvec(dx))
        m_norm = np.sqrt(dalpha * dalpha + 0.25 * float(gram_dx @ gram_dx))
        denom = (m_norm + base) * dinv
    elif rule_variant == "case2":
        denom = base * dinv
    else:
        raise ValueError(f"unknown step rule {rule_variant!r}")
    if denom == 0.0:
        # zero direction: caller is at the root and should have stopped
        return gamma_max
    return float(min(gamma_max, 1.0 / denom))


@dataclass
class StepRule:
    """Which safeguard to use and how to price ||D^{-1}||."""

    variant: str = "case2"
    omega: float = 0.9
    dinv_mode: str = "exact_svd"

    def __post_init__(self):
        if self.variant not in ("case1", "case2"):
            raise ValueError(f"variant must be case1 or case2, got {self.variant!r}")
        if not (0.0 < self.omega < 1.0):
            raise ValueError("omega must lie strictly inside (0, 1)")
        if self.dinv_mode not in ("exact_svd", "lemma_bound"):
            raise ValueError(f"unknown dinv mode {self.dinv_mode!r}")


@dataclass
class NtmConfig:
    alpha0: float = 1.0
    tol: float = 1e-3
    max_iter: int = 500
    step_rule: StepRule = field(default_factory=StepRule)

    def __post_init__(self):
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter >= 1")


@dataclass
class NtmResult:
    x: np.ndarray
    alpha: float
    trace: SolveTrace
    converged: bool
    n_iter: int
    residual_norm: float
    F_norm: float


def _check_discrepancy_feasible(b, eps):
    bnorm = float(np.linalg.norm(b))
    if eps <= 0:
        raise InfeasibleDiscrepancyError("discrepancy level must be positive")
    if eps >= bnorm:
        raise InfeasibleDiscrepancyError(
            f"eps = {eps:.6g} >= ||b|| = {bnorm:.6g}: no positive alpha can "
            "reach that residual"
        )


class NewtonStep(NamedTuple):
    """One point of a safeguarded Newton run; the step fields are None at the start."""

    x: np.ndarray
    alpha: float
    res_norm: float
    F_norm: float
    gamma: Optional[float] = None
    dinv: Optional[float] = None
    theta: Optional[float] = None
    case_id: Optional[int] = None
    dir_norm: Optional[float] = None

    @property
    def row(self):
        """The trace fields after ``iter``, in NTM_COLUMNS order."""
        return (self.alpha, self.gamma, self.res_norm, self.F_norm,
                self.dinv, self.theta, self.case_id)


def newton_steps(G, F, x, alpha, rule, tol, cap, rtol=SOLVE_RTOL, lam1=None):
    """Safeguarded Newton steps on the coupled system with Gram matrix G.

    ``F(x, alpha)`` returns (F1, F2, ||r||), see ``coupled_residual``.
    Yields the start point, then one record per step, and stops once
    ||F|| < tol or after ``cap`` steps. ``lam1`` is lambda_1(G), needed
    when the rule prices ||D^-1|| by the lemma bound.
    """
    F1, F2, res = F(x, alpha)
    Fnorm = stacked_norm(F1, F2)
    yield NewtonStep(x, alpha, res, Fnorm)
    for _ in range(cap):
        if Fnorm < tol:
            return
        dx, dalpha = solve_rescaled_system(G, x, alpha, F1, F2, rtol=rtol)
        dinv = dinv_norm(None, x, alpha, mode=rule.dinv_mode, gram=G, lam1=lam1)
        gamma_max, theta, case_id = step_interval(alpha, dalpha, rule.omega)
        gamma = step_size(
            rule.variant, dx, dalpha, gamma_max, theta, dinv, gram_dx=G @ dx
        )
        x = x + gamma * dx
        alpha = alpha + gamma * dalpha
        if alpha <= 0:  # only underflow gets past the interval rule
            raise SingularJacobianError("step safeguard failed to keep alpha positive")
        F1, F2, res = F(x, alpha)
        Fnorm = stacked_norm(F1, F2)
        dir_norm = float(np.sqrt(dx @ dx + dalpha * dalpha))
        yield NewtonStep(x, alpha, res, Fnorm, gamma, dinv, theta, case_id, dir_norm)


def ntm_solve(problem: InverseProblem, config: Optional[NtmConfig] = None) -> NtmResult:
    """Full-space Newton solve for (x, alpha).

    Starts on the discrepancy curve (x0 solves the Tikhonov normal
    equations at alpha0) and iterates safeguarded Newton steps until the
    stacked residual norm drops below tol. Non-convergence within the
    iteration budget is reported through the result flag, never raised.
    """
    if config is None:
        config = NtmConfig()
    A = as_operator(problem.operator)
    b = problem.b
    eps = problem.discrepancy_target
    _check_discrepancy_feasible(b, eps)
    rule = config.step_rule

    G = A.gram()
    lam1 = (
        largest_gram_eigenvalue(A, gram=G)
        if rule.dinv_mode == "lemma_bound"
        else None
    )
    x = normal_equation_solve(A, b, config.alpha0, gram=G)

    trace = SolveTrace(columns=NTM_COLUMNS, extra_columns=("dir_norm",))
    F = coupled_residual(A.matvec, A.rmatvec, b, eps)
    steps = newton_steps(
        G, F, x, config.alpha0, rule, config.tol, config.max_iter, lam1=lam1
    )
    for k, step in enumerate(steps):
        trace.append(k, *step.row, extra=(step.dir_norm,))

    return NtmResult(
        x=step.x,
        alpha=float(step.alpha),
        trace=trace,
        converged=step.F_norm < config.tol,
        n_iter=k,
        residual_norm=step.res_norm,
        F_norm=step.F_norm,
    )
