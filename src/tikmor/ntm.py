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

G = A^T A is fixed during a solve and diagonalized once, G = Q diag(lam) Q^T
(one ``eigh``, O(n^3)). In that eigenbasis the direction follows from a
scalar Schur complement and ||D^-1|| from a root of a monotone secular
equation, so a step costs three products with Q (O(n^2)) plus O(n) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import InfeasibleDiscrepancyError, SingularJacobianError
from .linop import as_operator, normal_equation_solve
from .problems import InverseProblem
from .trace import NTM_COLUMNS, SolveTrace

SOLVE_RTOL = 1e-10
# bound on ||(x, F1, F2)|| / alpha: the rescaled system's norms fit in a float
RESCALE_LIMIT = 1e300
_EPS = float(np.finfo(float).eps)


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


def spectral_gram(G):
    """(lam, Q) with G = Q diag(lam) Q^T, lam ascending; G is semidefinite,
    so roundoff-negative lam are set to 0 and lam + alpha > 0 for alpha > 0."""
    lam, Q = np.linalg.eigh(G)
    return np.maximum(lam, 0.0), Q


def solve_rescaled_system(lam, Q, x, alpha, F1, F2, rtol=SOLVE_RTOL):
    """Newton direction (dx, dalpha) and G dx from the rescaled Jacobian.

    J = [[K, x], [w^T, 0]], K = G + alpha I = Q diag(lam + alpha) Q^T and
    w = (F1 - alpha x)/alpha = A^T(Ax-b)/alpha, taken from F1 without a
    matvec. One product rotates [x, F1] into the eigenbasis, where dalpha
    follows from the Schur complement w^T K^-1 x; a second rotates
    [dx, lam dx] back. The normwise backward error ||J d - rhs|| /
    (||rhs|| + ||J||_F ||d||) is checked at O(n); one refinement pass backs it up.
    """
    F1_norm = float(np.linalg.norm(F1))
    if not math.hypot(np.linalg.norm(x), F1_norm, F2) / RESCALE_LIMIT < alpha:
        # alpha underflows under case-3 clipping; stop before F2/alpha overflows
        raise SingularJacobianError(f"rescaled Newton system is not finite at alpha = {alpha!r}")
    rhs_norm = math.hypot(F1_norm, F2 / alpha)
    if rhs_norm == 0.0:
        return np.zeros_like(x), 0.0, np.zeros_like(x)
    kdiag = lam + alpha
    xh, fh = np.stack((x, F1)) @ Q
    vh = fh - alpha * xh  # alpha w in the eigenbasis
    s = float(vh @ (xh / kdiag))
    if s == 0.0:
        raise SingularJacobianError("rescaled Jacobian is singular: w^T K^-1 x = 0")

    def solve(ph, q):
        """(u, c, G u) with K u + c x = Q ph and alpha w^T u = q."""
        c = (float(vh @ (ph / kdiag)) - q) / s
        uh = (ph - c * xh) / kdiag
        u, gu = np.stack((uh, lam * uh)) @ Q.T
        return u, c, gu

    v = F1 - alpha * x
    J_fro = math.hypot(np.linalg.norm(kdiag), np.linalg.norm(x), np.linalg.norm(v) / alpha)

    def residual(dx, dalpha, gdx):
        """J d - rhs with its last entry times alpha, and the backward error."""
        top = gdx + alpha * dx + dalpha * x + F1
        bottom = float(v @ dx) + F2
        scale = rhs_norm + J_fro * math.hypot(np.linalg.norm(dx), dalpha)
        return top, bottom, math.hypot(np.linalg.norm(top), bottom / alpha) / scale

    dx, dalpha, gdx = solve(-fh, -F2)
    top, bottom, err = residual(dx, dalpha, gdx)
    if not err <= rtol:  # NaN fails too
        ex, ealpha, egx = solve(top @ Q, bottom)
        dx, dalpha, gdx = dx - ex, dalpha - ealpha, gdx - egx
        err = residual(dx, dalpha, gdx)[2]
        if not err <= rtol:
            raise SingularJacobianError(
                f"Newton system solve stalled at backward error {err:.3e}"
            )
    return dx, dalpha, gdx


def solve_newton_system(A, b, eps, x, alpha):
    """Full-space convenience wrapper around the spectral kernel: (dx, dalpha)."""
    A = as_operator(A)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    F1, F2 = eval_F(A, b, eps, x, alpha)
    x = np.asarray(x, dtype=float)
    return solve_rescaled_system(*spectral_gram(A.gram()), x, alpha, F1, F2)[:2]


def arrowhead_min_abs_eig(d, z) -> float:
    """Smallest |eigenvalue| of [[diag(d), z], [z^T, 0]], d ascending and positive.

    The eigenvalues are the d_i with z_i = 0 and the roots of
    mu = sum z_i^2 / (mu - d_i): -t0 < 0, and the rest at or above d_1.
    t - sum z_i^2 / (d_i + t) is increasing and concave, so Newton climbs
    to t0 from the one-term bound (sqrt(d_i^2 + 4 z_i^2) - d_i) / 2 <= t0
    (stopped early, it only overestimates ||D^-1||). Unless t0 <= d_1,
    bisection finds the least positive one in [d_1, d_2] (d_1 + |z_1| if n = 1).
    """
    z2 = z * z
    if not z2.any():
        return 0.0  # x = 0: the last row vanishes
    hi = d[1] if d.size > 1 else d[0] + float(np.sqrt(z2[0]))
    t = float((2.0 * z2 / (np.sqrt(d * d + 4.0 * z2) + d)).max())
    for _ in range(50):
        if t >= hi:  # t0 >= hi: the positive eigenvalue decides
            break
        q = z2 / (d + t)
        step = float((q.sum() - t) / (1.0 + (q / (d + t)).sum()))
        t += step
        if step <= _EPS * t:
            break
    if t <= d[0]:
        return t
    lo = d[0]
    while hi - lo > _EPS * hi:  # mu - sum z_i^2 / (mu - d_i) increases here
        mid = 0.5 * (lo + hi)
        if mid < float((z2 / (mid - d)).sum()):
            lo = mid
        else:
            hi = mid
    return min(t, hi)


def dinv_norm(A, x, alpha, mode="exact_svd", eig=None) -> float:
    """Spectral norm of D(x, alpha)^{-1}, D = [[G + alpha I, x], [-x^T, 0]].

    ``exact_svd`` (a historical name: no SVD is taken) is exact: 1 / min|mu|
    over the eigenvalues of the arrowhead [[diag(lam + alpha), Q^T x],
    [x^T Q, 0]], which has D's singular values. ``lemma_bound`` is the bound
    (1 + ||x||/alpha)^2 max(1/alpha, (alpha + lambda_1)/||x||), which only
    shrinks the step. ``A`` is read only when ``eig = spectral_gram(G)`` is not given.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if mode not in ("exact_svd", "lemma_bound"):
        raise ValueError(f"unknown mode {mode!r}")
    lam, Q = spectral_gram(as_operator(A).gram()) if eig is None else eig
    nx = float(np.linalg.norm(x))
    if mode == "lemma_bound" and nx > 0.0:  # the bound divides by ||x||
        return float((1.0 + nx / alpha) ** 2 * max(1.0 / alpha, (alpha + lam[-1]) / nx))
    mu = arrowhead_min_abs_eig(lam + alpha, x @ Q)
    return np.inf if mu == 0.0 else 1.0 / mu


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


def newton_steps(lam, Q, F, x, alpha, rule, tol, cap, rtol=SOLVE_RTOL):
    """Safeguarded Newton steps on the coupled system with Gram matrix
    G = Q diag(lam) Q^T, as returned by ``spectral_gram``.

    ``F(x, alpha)`` returns (F1, F2, ||r||), see ``coupled_residual``.
    Yields the start point, then one record per step, and stops once
    ||F|| < tol or after ``cap`` steps.
    """
    F1, F2, res = F(x, alpha)
    Fnorm = stacked_norm(F1, F2)
    yield NewtonStep(x, alpha, res, Fnorm)
    for _ in range(cap):
        if Fnorm < tol:
            return
        dx, dalpha, gram_dx = solve_rescaled_system(lam, Q, x, alpha, F1, F2, rtol=rtol)
        dinv = dinv_norm(None, x, alpha, mode=rule.dinv_mode, eig=(lam, Q))
        gamma_max, theta, case_id = step_interval(alpha, dalpha, rule.omega)
        gamma = step_size(
            rule.variant, dx, dalpha, gamma_max, theta, dinv, gram_dx=gram_dx
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
    lam, Q = spectral_gram(G)
    x = normal_equation_solve(A, b, config.alpha0, gram=G)

    trace = SolveTrace(columns=NTM_COLUMNS, extra_columns=("dir_norm",))
    F = coupled_residual(A.matvec, A.rmatvec, b, eps)
    steps = newton_steps(lam, Q, F, x, config.alpha0, rule, config.tol, config.max_iter)
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
