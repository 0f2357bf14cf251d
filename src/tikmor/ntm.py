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
(one ``eigh``, O(n^3)). The iterate is kept in eigen-coordinates
xh = Q^T x, where F1 = Q ((lam + alpha) xh - Q^T A^T b), the direction
follows from a scalar Schur complement and ||D^-1|| from a root of a
monotone secular equation. F2 is priced in range coordinates by
``eigen_residual_sq``, so a step is O(n) and touches neither Q nor A;
the solve forms x = Q xh and A x - b once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConvergenceFailure, InfeasibleDiscrepancyError, SingularJacobianError
from .linop import as_operator
from .problems import InverseProblem
from .trace import NTM_COLUMNS, SolveResult, SolveTrace

SOLVE_RTOL = 1e-12  # backward error a Newton direction solve must reach
# bound on ||(x, F1, F2)|| / alpha: the rescaled system's norms fit in a float
RESCALE_LIMIT = 1e300
_EPS = float(np.finfo(float).eps)


def stacked_norm(F1, F2) -> float:
    return float(np.sqrt(F1 @ F1 + F2 * F2))


def spectral_gram(G):
    """(lam, Q) with G = Q diag(lam) Q^T, lam ascending; G is semidefinite,
    so roundoff-negative lam are set to 0 and lam + alpha > 0 for alpha > 0."""
    try:
        lam, Q = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:  # LAPACK gives up on NaN/inf entries
        raise ConvergenceFailure(f"Gram matrix is not finite: {exc}") from exc
    if not (np.isfinite(lam).all() and math.isfinite(Q.sum())):  # |Q_ij| <= 1: no overflow
        raise ConvergenceFailure("Gram matrix is not finite: its eigenpairs are not")
    return np.maximum(lam, 0.0), Q


def eigen_residual_sq(lam, gh, rr, xh) -> float:
    """||A Q xh - b||^2 in O(n) from A^T A = Q diag(lam) Q^T, gh = Q^T A^T b and
    rr = min_z ||A z - b||^2, in range coordinates: rr + sum_{lam_i > 0}
    (lam_i xh_i - gh_i)^2 / lam_i, clamped at 0. Every term of the sum is a
    square, so on an accurate rr (pntm's and gbit's phi_k^2) nothing cancels
    however small the residual is next to ||b||; on ``gram_spectrum``'s rr,
    which carries the roundoff of ||b||^2, its absolute roundoff is of order
    eps_mach ||b||^2, as the closed form ||b||^2 + xh . (lam xh - 2 gh) has."""
    pos = lam > 0
    d = lam[pos] * xh[pos] - gh[pos]
    return max(rr + float(d @ (d / lam[pos])), 0.0)


def gram_spectrum(A, b):
    """(lam, Q, gh, rr) of operator A: A^T A = Q diag(lam) Q^T by ``spectral_gram``,
    gh = Q^T A^T b and rr = ||b||^2 - sum_{lam_i > 0} gh_i^2 / lam_i, which price
    any Tikhonov point in O(n). rr is not clamped: its roundoff, of order
    eps_mach ||b||^2 and below 0 where min_z ||A z - b|| is, cancels against
    the same terms in ``eigen_residual_sq``'s sum."""
    lam, Q = spectral_gram(A.gram())
    gh = A.rmatvec(b) @ Q
    return lam, Q, gh, float(b @ b) - eigen_residual_sq(lam, gh, 0.0, np.zeros_like(gh))


def solve_rescaled_system(lam, xh, alpha, F1h, F2, rtol=SOLVE_RTOL):
    """Newton direction (dxh, dalpha) from the rescaled Jacobian, in the
    eigenbasis of G = Q diag(lam) Q^T: xh = Q^T x, F1h = Q^T F1, dxh = Q^T dx.

    Rotated, J = [[diag(lam + alpha), xh], [wh^T, 0]] with
    wh = (F1h - alpha xh)/alpha = Q^T A^T(Ax-b)/alpha, and dalpha follows
    from the Schur complement wh^T diag(lam + alpha)^-1 xh, all O(n). The
    normwise backward error ||J d - rhs|| / (||rhs|| + ||J||_F ||d||) is
    checked; one refinement pass backs it up.
    """
    F1_norm = float(np.linalg.norm(F1h))
    if not math.hypot(np.linalg.norm(xh), F1_norm, F2) / RESCALE_LIMIT < alpha:
        # alpha underflows under case-3 clipping; stop before F2/alpha overflows
        raise SingularJacobianError(f"rescaled Newton system is not finite at alpha = {alpha!r}")
    rhs_norm = math.hypot(F1_norm, F2 / alpha)
    if rhs_norm == 0.0:
        return np.zeros_like(xh), 0.0
    kdiag = lam + alpha
    vh = F1h - alpha * xh  # alpha wh
    s = float(vh @ (xh / kdiag))
    if s == 0.0:
        raise SingularJacobianError("rescaled Jacobian is singular: w^T K^-1 x = 0")

    def solve(ph, q):
        """(uh, c) with diag(lam + alpha) uh + c xh = ph and vh^T uh = q."""
        c = (float(vh @ (ph / kdiag)) - q) / s
        return (ph - c * xh) / kdiag, c

    J_fro = math.hypot(np.linalg.norm(kdiag), np.linalg.norm(xh), np.linalg.norm(vh) / alpha)

    def residual(dxh, dalpha):
        """J d - rhs with its last entry times alpha, and the backward error."""
        top = kdiag * dxh + dalpha * xh + F1h
        bottom = float(vh @ dxh) + F2
        scale = rhs_norm + J_fro * math.hypot(np.linalg.norm(dxh), dalpha)
        return top, bottom, math.hypot(np.linalg.norm(top), bottom / alpha) / scale

    dxh, dalpha = solve(-F1h, -F2)
    top, bottom, err = residual(dxh, dalpha)
    if not err <= rtol:  # NaN fails too
        exh, ealpha = solve(top, bottom)
        dxh, dalpha = dxh - exh, dalpha - ealpha
        err = residual(dxh, dalpha)[2]
        if not err <= rtol:
            raise SingularJacobianError(
                f"Newton system solve stalled at backward error {err:.3e}"
            )
    return dxh, dalpha


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


def dinv_norm(lam, xh, alpha) -> float:
    """Spectral norm of D(x, alpha)^{-1}, D = [[G + alpha I, x], [-x^T, 0]],
    from G = Q diag(lam) Q^T and xh = Q^T x.

    Exact: 1 / min|mu| over the eigenvalues of the arrowhead
    [[diag(lam + alpha), xh], [xh^T, 0]], which has D's singular values;
    infinite at x = 0, where D is singular.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    mu = arrowhead_min_abs_eig(lam + alpha, xh)
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
    # within 4 ulps of 1, omega would let the roundoff of alpha + gamma dalpha reach 0
    gamma_max = -min(omega, 1.0 - 4.0 * _EPS) * alpha_prev / dalpha
    theta = float(np.sqrt(1.0 + 1.0 / (1.0 - omega) ** 2))
    return StepInterval(gamma_max, theta, 3)


def step_size(
    rule_variant,
    dx,
    dalpha,
    gamma_max,
    theta,
    dinv,
    gram_dx=None,
) -> float:
    """Safeguarded step length for one Newton update.

    case1 caps both the Jacobian perturbation and the direction-norm
    growth; case2 only the former, giving substantially larger steps.
    case1 needs ``gram_dx`` = A^T A dx.
    """
    if dinv <= 0:
        raise ValueError("dinv must be positive")
    dx = np.asarray(dx, dtype=float)
    ndx = float(np.linalg.norm(dx))
    base = abs(dalpha) + theta * ndx
    if rule_variant == "case1":
        if gram_dx is None:
            raise ValueError("case1 needs gram_dx = A^T A dx")
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
    """Which safeguard to use and its case-3 clipping fraction."""

    variant: str = "case2"
    omega: float = 0.9

    def __post_init__(self):
        if self.variant not in ("case1", "case2"):
            raise ValueError(f"variant must be case1 or case2, got {self.variant!r}")
        if not (0.0 < self.omega < 1.0):
            raise ValueError("omega must lie strictly inside (0, 1)")


def check_options(config, **least):
    """A ValueError unless the config's ``alpha0`` and ``tol`` are positive and
    finite and each field named in ``least`` is at least its value; NaN fails."""
    for name in ("alpha0", "tol"):
        value = getattr(config, name)
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    for name, low in least.items():
        if not getattr(config, name) >= low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(config, name)}")


@dataclass
class NtmConfig:
    alpha0: float = 1.0
    tol: float = 1e-3
    max_iter: int = 500
    step_rule: StepRule = field(default_factory=StepRule)

    def __post_init__(self):
        check_options(self, max_iter=1)


def _check_discrepancy_feasible(b, eps):
    bnorm = float(np.linalg.norm(b))
    if not math.isfinite(bnorm + eps):
        raise ConvergenceFailure(f"||b|| = {bnorm:.6g}, eps = {eps:.6g}: not finite")
    if eps <= 0:
        raise InfeasibleDiscrepancyError("discrepancy level must be positive")
    if eps >= bnorm:
        raise InfeasibleDiscrepancyError(
            f"eps = {eps:.6g} >= ||b|| = {bnorm:.6g}: no positive alpha can "
            "reach that residual"
        )


class NewtonStep(NamedTuple):
    """One point of a safeguarded Newton run, the iterate in eigen-coordinates
    xh = Q^T x; the step fields are None at the start."""

    xh: np.ndarray
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
                self.dinv, self.theta, self.case_id, self.dir_norm)


def newton_steps(lam, gh, rr, eps, alpha, rule, tol, cap):
    """Safeguarded Newton steps on the coupled system in the eigenbasis of its
    Gram matrix G = Q diag(lam) Q^T, from the Tikhonov point xh = gh / (lam + alpha).

    ``gh`` = Q^T A^T b and ``rr`` = min_z ||A z - b||^2 (``gram_spectrum``'s for
    ntm, LSQR's phi_k^2 for pntm); F1 = Q ((lam + alpha) xh - gh) and F2 =
    0.5 ||A Q xh - b||^2 - 0.5 eps^2, the residual from ``eigen_residual_sq``,
    so a step is O(n) and touches neither Q nor A. Yields the start point,
    then one record per step, and stops once ||F|| < tol or after ``cap`` steps.
    """

    def F(xh, alpha):
        r2 = eigen_residual_sq(lam, gh, rr, xh)
        return (lam + alpha) * xh - gh, 0.5 * r2 - 0.5 * eps * eps, math.sqrt(r2)

    xh = gh / (lam + alpha)
    F1h, F2, res = F(xh, alpha)
    Fnorm = stacked_norm(F1h, F2)
    yield NewtonStep(xh, alpha, res, Fnorm)
    for _ in range(cap):
        if Fnorm < tol:
            return
        dxh, dalpha = solve_rescaled_system(lam, xh, alpha, F1h, F2)
        dinv = dinv_norm(lam, xh, alpha)
        gamma_max, theta, case_id = step_interval(alpha, dalpha, rule.omega)
        gamma = step_size(
            rule.variant, dxh, dalpha, gamma_max, theta, dinv, gram_dx=lam * dxh
        )
        xh = xh + gamma * dxh
        alpha = alpha + gamma * dalpha
        if alpha <= 0:  # only underflow gets past the interval rule
            raise SingularJacobianError("step safeguard failed to keep alpha positive")
        F1h, F2, res = F(xh, alpha)
        Fnorm = stacked_norm(F1h, F2)
        dir_norm = float(np.sqrt(dxh @ dxh + dalpha * dalpha))
        yield NewtonStep(xh, alpha, res, Fnorm, gamma, dinv, theta, case_id, dir_norm)


def ntm_solve(problem: InverseProblem, config: Optional[NtmConfig] = None) -> SolveResult:
    """Full-space Newton solve for (x, alpha).

    Starts on the discrepancy curve (x0 solves the Tikhonov normal
    equations at alpha0, in the eigenbasis of A^T A) and iterates
    safeguarded Newton steps until the stacked residual norm drops below
    tol. Non-convergence within the iteration budget is reported through
    the result flag, never raised; an A^T A + alpha0 I that is not
    numerically positive definite raises ``ConvergenceFailure``.
    """
    if config is None:
        config = NtmConfig()
    A = as_operator(problem.operator)
    b = problem.b
    eps = problem.discrepancy_target
    _check_discrepancy_feasible(b, eps)

    lam, Q, gh, rr = gram_spectrum(A, b)
    if not lam[0] + config.alpha0 > lam.size * _EPS * lam[-1]:
        raise ConvergenceFailure(
            "A^T A + alpha0 I is not numerically positive definite at "
            f"alpha0 = {config.alpha0!r}"
        )

    trace = SolveTrace(columns=NTM_COLUMNS)
    steps = newton_steps(
        lam, gh, rr, eps, config.alpha0, config.step_rule, config.tol, config.max_iter
    )
    for k, step in enumerate(steps):
        trace.append(k, *step.row)

    x = Q @ step.xh
    return SolveResult(
        x=x,
        alpha=float(step.alpha),
        trace=trace,
        converged=step.F_norm < config.tol,
        n_iter=k,
        residual_norm=float(np.linalg.norm(A.matvec(x) - b)),
    )
