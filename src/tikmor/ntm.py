"""Safeguarded Newton iterations coupling Tikhonov normal equations with
the discrepancy principle.

The nonlinear system in (x, alpha) is

    F1(x, alpha) = (A^T A + alpha I) x - A^T b
    F2(x, alpha) = 0.5 ||A x - b||^2 - 0.5 eps^2

Newton directions come from the row-rescaled Jacobian (last row divided
by the current alpha), which at F1-consistent points reduces to the
bordered matrix D(x, alpha) whose inverse is provably bounded. Two
functions make the step safeguard: ``dinv_norm`` prices ||D^-1|| exactly,
and ``step_size`` takes the interval that keeps alpha positive from the
sign of dalpha and caps gamma at 1 / (||D^-1|| (|dalpha| + theta ||dx||)),
so the Jacobian stays regular along the way; the "case1" rule adds a term
that forces the search-direction norms to decrease.

G = A^T A is fixed during a solve and diagonalized once, G = Q diag(lam) Q^T
(one ``eigh``, O(n^3)). The iterate is kept in eigen-coordinates
xh = Q^T x, where F1 = Q ((lam + alpha) xh - Q^T A^T b), the direction
follows from a scalar Schur complement and ||D^-1|| from a root of a
monotone secular equation. F2 is priced in range coordinates by
``eigen_residual_sq``, so a step is O(n) and touches neither Q nor A;
the solve forms x = Q xh and A x - b once, at the end.

The iteration stops on ``at_root``, r = max(tol^2, 1e-12): |res - eps| <= r eps
and ||F1|| <= r ||A^T b||, the same on (c A, c b, c eps) as on (A, b, eps); the
floor keeps a tiny tol reachable in floating point. The Krylov loop takes r = tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConvergenceFailure, SingularJacobianError, check_count
from .problems import InverseProblem
from .trace import NTM_COLUMNS, SolveResult, SolveTrace

SOLVE_RTOL = 1e-12  # backward error a Newton direction solve must reach
# bound on ||(x, F1, F2)|| / alpha: the rescaled system's norms fit in a float
RESCALE_LIMIT = 1e300
_EPS = float(np.finfo(float).eps)


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


def solve_rescaled_system(lam, xh, alpha, F1h, F2):
    """Newton direction (dxh, dalpha) from the rescaled Jacobian, in the
    eigenbasis of G = Q diag(lam) Q^T: xh = Q^T x, F1h = Q^T F1, dxh = Q^T dx.

    Rotated, J = [[diag(lam + alpha), xh], [wh^T, 0]] with
    wh = (F1h - alpha xh)/alpha = Q^T A^T(Ax-b)/alpha, and dalpha follows
    from the Schur complement wh^T diag(lam + alpha)^-1 xh, all O(n). The
    normwise backward error ||J d - rhs|| / (||rhs|| + ||J||_F ||d||) is
    checked against ``SOLVE_RTOL``; one refinement pass backs it up.
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
    if not err <= SOLVE_RTOL:  # NaN fails too
        exh, ealpha = solve(top, bottom)
        dxh, dalpha = dxh - exh, dalpha - ealpha
        err = residual(dxh, dalpha)[2]
        if not err <= SOLVE_RTOL:
            raise SingularJacobianError(
                f"Newton system solve stalled at backward error {err:.3e}"
            )
    return dxh, dalpha


def dinv_norm(lam, xh, alpha) -> float:
    """Spectral norm of D(x, alpha)^{-1}, D = [[G + alpha I, x], [-x^T, 0]],
    from G = Q diag(lam) Q^T and xh = Q^T x; infinite at x = 0 (D singular).

    D has the singular values of the arrowhead [[diag(d), xh], [xh^T, 0]],
    d = lam + alpha ascending and positive, so the norm is 1 / min|mu| over
    its eigenvalues: the d_i with xh_i = 0 and the roots of
    mu = sum xh_i^2 / (mu - d_i), one -t0 < 0 and the rest at or above d_1.
    t - sum xh_i^2 / (d_i + t) is increasing and concave, so Newton climbs
    to t0 from the one-term bound (sqrt(d_i^2 + 4 xh_i^2) - d_i) / 2 <= t0
    (stopped early, it only overestimates the norm). Unless t0 <= d_1,
    bisection finds the least positive root in [d_1, d_2] (d_1 + |xh_1| if
    n = 1). O(n) per iteration.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    d, z2 = lam + alpha, xh * xh
    hi = d[1] if d.size > 1 else d[0] + float(np.sqrt(z2[0]))
    t = float((2.0 * z2 / (np.sqrt(d * d + 4.0 * z2) + d)).max())  # 0 at x = 0
    for _ in range(50):
        if t >= hi:  # t0 >= hi: the positive root decides
            break
        q = z2 / (d + t)
        step = float((q.sum() - t) / (1.0 + (q / (d + t)).sum()))
        t += step
        if step <= _EPS * t:
            break
    if t > d[0]:
        lo = d[0]
        while hi - lo > _EPS * hi:  # mu - sum xh_i^2 / (mu - d_i) increases here
            mid = 0.5 * (lo + hi)
            if mid < float((z2 / (mid - d)).sum()):
                lo = mid
            else:
                hi = mid
        t = min(t, hi)
    return np.inf if t == 0.0 else 1.0 / t


def step_size(rule, lam, dxh, alpha, dalpha, dinv):
    """(gamma, theta, case_id) of one safeguarded Newton update from alpha
    along (dxh, dalpha), dxh in the eigenbasis of G = Q diag(lam) Q^T.

    The sign of dalpha picks the interval: case 1 (dalpha >= 0) and case 2
    (alpha + dalpha > 0) admit the full step, case 3 clips one that would
    land at negative alpha to ``rule.omega`` of the distance to 0. gamma is
    the least of its end and 1 / (dinv (|dalpha| + theta ||dx||)), with
    ||(dalpha, G dx / 2)|| added to the sum under case1; a zero direction
    gets the end.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if dinv <= 0:
        raise ValueError("dinv must be positive")
    if dalpha >= 0:
        gamma_max, theta, case_id = 1.0, np.sqrt(2.0), 1
    elif alpha + dalpha > 0:
        ratio = alpha / (alpha + dalpha)
        gamma_max, theta, case_id = 1.0, float(np.sqrt(1.0 + ratio * ratio)), 2
    else:
        # within 4 ulps of 1, omega would let the roundoff of alpha + gamma dalpha reach 0
        gamma_max = -min(rule.omega, 1.0 - 4.0 * _EPS) * alpha / dalpha
        theta, case_id = float(np.sqrt(1.0 + 1.0 / (1.0 - rule.omega) ** 2)), 3
    base = abs(dalpha) + theta * float(np.linalg.norm(dxh))
    if rule.variant == "case1":
        gdx = lam * dxh  # Q^T G dx
        base = np.sqrt(dalpha * dalpha + 0.25 * float(gdx @ gdx)) + base
    denom = float(base * dinv)  # a float's 1 / denom overflows to inf without a warning
    gamma = gamma_max if denom == 0.0 else float(min(gamma_max, 1.0 / denom))
    return gamma, theta, case_id


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
    finite and each budget named in ``least`` is an integer of at least its
    value; NaN fails."""
    for name in ("alpha0", "tol"):
        value = getattr(config, name)
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    for name, low in least.items():
        check_count(name, getattr(config, name), low)


@dataclass
class NtmConfig:
    alpha0: float = 1.0
    tol: float = 1e-3
    max_iter: int = 500
    step_rule: StepRule = field(default_factory=StepRule)

    def __post_init__(self):
        check_options(self, max_iter=1)


class NewtonStep(NamedTuple):
    """One point of a safeguarded Newton run, the iterate in eigen-coordinates
    xh = Q^T x."""

    xh: np.ndarray
    alpha: float
    res_norm: float
    F1_norm: float
    F_norm: float


def priced_point(lam, gh, rr, eps, xh, alpha):
    """(NewtonStep(xh, alpha, res, ||F1||, ||F||), F1h, F2) at (Q xh, alpha),
    G = Q diag(lam) Q^T, in O(n): F1h = Q^T F1 = (lam + alpha) xh - gh, F2 =
    0.5 res^2 - 0.5 eps^2 and res = ||A Q xh - b|| by ``eigen_residual_sq``."""
    r2 = eigen_residual_sq(lam, gh, rr, xh)
    F1h, F2 = (lam + alpha) * xh - gh, 0.5 * r2 - 0.5 * eps * eps
    F1_sq = float(F1h @ F1h)
    point = NewtonStep(xh, alpha, math.sqrt(r2), math.sqrt(F1_sq), math.sqrt(F1_sq + F2 * F2))
    return point, F1h, F2


def at_root(res_norm, F1_norm, eps, atb_norm, r) -> bool:
    """|res - eps| <= r eps and ||F1|| <= r ||A^T b||: the coupled system's stop
    test, ntm's and ``pntm.krylov_loop``'s (module docstring)."""
    return bool(abs(res_norm - eps) <= r * eps and F1_norm <= r * atb_norm)


def newton_steps(lam, gh, rr, eps, alpha, rule, tol, cap):
    """Safeguarded Newton steps on the coupled system in the eigenbasis of its Gram
    matrix G = Q diag(lam) Q^T (``gram_spectrum``'s gh = Q^T A^T b and rr), from the
    Tikhonov point xh = gh / (lam + alpha), each point by ``priced_point``, until one
    is ``at_root`` (||A^T b|| = ||gh||) or ``cap`` steps; returns (last point, trace,
    converged): the trace in ``NTM_COLUMNS`` has the start row, its step cells empty,
    and one row per step."""
    atb_norm, r = float(np.linalg.norm(gh)), max(tol * tol, 1e-12)
    trace = SolveTrace(columns=NTM_COLUMNS)
    point, F1h, F2 = priced_point(lam, gh, rr, eps, gh / (lam + alpha), alpha)
    trace.append(0, alpha, None, point.res_norm, point.F_norm, None, None, None, None)
    for k in range(1, cap + 1):
        if at_root(point.res_norm, point.F1_norm, eps, atb_norm, r):
            return point, trace, True
        xh, alpha = point.xh, point.alpha
        dxh, dalpha = solve_rescaled_system(lam, xh, alpha, F1h, F2)
        dinv = dinv_norm(lam, xh, alpha)
        gamma, theta, case_id = step_size(rule, lam, dxh, alpha, dalpha, dinv)
        alpha = alpha + gamma * dalpha
        if alpha <= 0:  # only underflow gets past the interval rule
            raise SingularJacobianError("step safeguard failed to keep alpha positive")
        dir_norm = float(np.sqrt(dxh @ dxh + dalpha * dalpha))
        point, F1h, F2 = priced_point(lam, gh, rr, eps, xh + gamma * dxh, alpha)
        trace.append(k, alpha, gamma, point.res_norm, point.F_norm, dinv, theta, case_id,
                     dir_norm)
    return point, trace, at_root(point.res_norm, point.F1_norm, eps, atb_norm, r)


def ntm_solve(problem: InverseProblem, config: Optional[NtmConfig] = None) -> SolveResult:
    """Full-space Newton solve for (x, alpha).

    Starts on the discrepancy curve (x0 solves the Tikhonov normal
    equations at alpha0, in the eigenbasis of A^T A) and iterates
    safeguarded Newton steps until one is ``at_root``, the test
    ``newton_steps`` stops on. Non-convergence within the iteration budget
    is reported through the result flag, never raised; an A^T A + alpha0 I
    that is not numerically positive definite raises ``ConvergenceFailure``.
    """
    if config is None:
        config = NtmConfig()
    A, b, eps = problem.operator, problem.b, problem.morozov_level()

    lam, Q, gh, rr = gram_spectrum(A, b)
    if not lam[0] + config.alpha0 > lam.size * _EPS * lam[-1]:
        raise ConvergenceFailure(
            "A^T A + alpha0 I is not numerically positive definite at "
            f"alpha0 = {config.alpha0!r}"
        )

    point, trace, converged = newton_steps(lam, gh, rr, eps, config.alpha0, config.step_rule,
                                           config.tol, config.max_iter)
    x = Q @ point.xh
    return SolveResult(
        x=x,
        alpha=float(point.alpha),
        trace=trace,
        converged=converged,
        n_iter=len(trace) - 1,
        residual_norm=float(np.linalg.norm(A.matvec(x) - b)),
    )
