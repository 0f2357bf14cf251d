"""Projected Newton solve: the coupled system restricted to a growing
Golub-Kahan subspace, and the Krylov outer loop it shares with GBiT.

Each outer iteration expands the bidiagonalization by one column and
takes B^T B = Q diag(lam) Q^T from the SVD of B (``projected_spectrum``).
The projected discrepancy equation has a root only while the LSQR
residual phi_k = min_z ||B z - c|| is below eps; until then alpha is
carried unchanged. Once it is, alpha is the root of the projected secular
equation (``secular_root``), Newton in 1/alpha on what is left of the
projected coupled system once y is eliminated, so F vanishes at the
projected Tikhonov solution yh = (Q^T B^T c) / (lam + alpha) there up to
rounding. ``ntm.priced_point`` prices yh in eigen-coordinates, ||B Q yh - c||
in O(k) on top of phi_k^2, with no product with Q or B, as gbit does. The
outer loop stops on one scale-invariant test of the full-space point
x = V y (see ``krylov_loop``): residual within tol eps of eps,
normal-equation residual within tol ||A^T b|| by the Golub-Kahan identity,
and alpha stagnated, since the projected system can be solved accurately
long before the subspace is rich enough for the full problem. It stops
unconverged once the factorization is final (a breakdown, or
k = min(m, n)) with phi_k still at or above eps, since no root can
appear after that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bidiag import BidiagFactorization
from .errors import ConvergenceFailure
from .ntm import _EPS, StepRule, check_options, eigen_residual_sq, priced_point
from .problems import InverseProblem
from .trace import PNTM_COLUMNS, SolveTrace


@dataclass
class PntmConfig:
    alpha0: float = 1.0
    tol: float = 1e-3
    outer_iter_max: int = 100
    # unread: they set the Newton steps pntm no longer takes; kept for callers that pass them
    inner_cap_large: int = 10000
    step_rule: StepRule = field(default_factory=StepRule)

    def __post_init__(self):
        check_options(self, outer_iter_max=1, inner_cap_large=0)


@dataclass
class KrylovResult:
    """Outcome of a Golub-Kahan solve (pntm or gbit)."""

    x: np.ndarray
    alpha: float
    trace: SolveTrace
    converged: bool
    n_outer: int
    residual_norm: float
    n_inner_total: int = 0  # neither takes an inner step; kept for readers of the field


def secular_root(lam, gh, rr, eps, alpha):
    """Root a > 0 of the projected discrepancy equation ||B y_a - c|| = eps,
    y_a = Q (gh / (lam + a)), given rr = phi_k^2 < eps^2 < ||c||^2:

        f(a) = rr - eps^2 + sum_{lam_i > 0} gh_i^2 a^2 / (lam_i (lam_i + a)^2)

    (Golub & von Matt 1991), priced by ``eigen_residual_sq`` as the Newton
    steps price F2, O(k) per evaluation; no term cancels, even at phi_k = 0.
    In t = 1/a, f is convex and decreasing, so Newton in t falls
    monotonically onto the root from any a above it and cannot leave
    (0, inf). The tangent at t = 0 gives such a point, a_up = 2 ||gh||^2 /
    (||c||^2 - eps^2), ||c||^2 priced as the residual at y = 0. The search
    starts at the carried alpha if that is smaller. The previous root lies
    below this one, as the projected residual at fixed alpha does not grow
    with k; from below the root, Newton lands above it, or a_up is taken.
    Stops once f is down to the roundoff of eps^2, or the iterates stop
    decreasing. A root that is not positive (||gh||^2 underflows to 0, so
    a_up does) raises ``ConvergenceFailure``.
    """
    a_up = 2.0 * float(gh @ gh) / (eigen_residual_sq(lam, gh, rr, np.zeros_like(gh)) - eps * eps)
    a = min(alpha, a_up)
    for i in range(100):
        q = gh / (lam + a)
        f = eigen_residual_sq(lam, gh, rr, q) - eps * eps
        slope = 2.0 * a * a * float(q @ (q / (lam + a)))  # -df/dt
        if f <= 0.0 and i == 0:  # the start lies below the root
            a = min(a * slope / (slope + f), a_up) if slope + f > 0.0 else a_up
            continue
        if f <= 4.0 * _EPS * eps * eps:  # at the root up to the residual's roundoff
            break
        nxt = a * slope / (slope + f)
        if not 0.0 < nxt < a:
            break
        a = nxt
    if not a > 0.0:
        raise ConvergenceFailure(
            f"projected secular root underflows to alpha = {float(a)!r}: "
            f"||Q^T B^T c||^2 = {float(gh @ gh):.3g}"
        )
    return a


def projected_spectrum(B, c, phi):
    """(lam, Q, gh, rr) of the projected problem min ||B y - c||, lam ascending
    as ``ntm.spectral_gram`` gives them: B = W diag(s) Q^T, lam = s^2,
    gh = Q^T B^T c = s (W^T c) and rr = phi^2. From the SVD of B, not
    ``eigh(B^T B)``: a small s_i then carries roundoff eps_mach s_max, not
    eps_mach s_max^2 / s_i, and gh_i^2 / lam_i = (W^T c)_i^2 holds to
    roundoff however ill-conditioned B is, so ``ntm.eigen_residual_sq``
    keeps pricing ||B Q yh - c|| to roundoff on top of phi^2."""
    W, s, Qt = np.linalg.svd(B, full_matrices=False)
    s = s[::-1]
    return s * s, Qt[::-1].T, s * (c @ W[:, ::-1]), phi * phi


def krylov_loop(problem: InverseProblem, alpha0, tol, max_iter, trace, update):
    """Golub-Kahan outer loop shared by pntm and gbit.

    Each iteration calls ``BidiagFactorization.expand`` (one more column,
    none once final; ``DegenerateRhsError`` if A^T b = 0), takes the
    spectrum (lam, Q, gh, rr) of B and c from ``projected_spectrum``
    (rr = phi^2, phi the LSQR residual min_z ||B z - c||: what
    ``ntm.eigen_residual_sq`` prices a projected point from) and calls
    ``update(k, spectrum, phi, alpha_prev) -> (y, alpha, F1_norm, res)``,
    with F1_norm = ||B^T (B y - c) + alpha y|| and res =
    ||B y - c||; ``update`` appends its own trace rows. The stop is scale
    invariant and full-space. It needs all of:

    - phi < eps: the projected discrepancy equation has a root;
    - alpha moved by less than tol alpha_prev (an alpha that underflowed
      to 0 never has): the subspace has stopped moving the root, which a
      solved projected system alone does not show;
    - |res - eps| <= tol eps, res = ||A x - b|| for x = V y;
    - ||A^T (A x - b) + alpha x|| <= tol ||A^T b||, priced in O(1) from
      F1_norm and ``BidiagFactorization.normal_tail``.

    The last test costs the rmatvec half of the next expansion, which that
    expansion reuses, so a solve makes at most one product more than its
    2 per iteration. Stops unconverged once the factorization is final and
    phi >= eps, as no root can appear.
    """
    A, b, eps = problem.operator, problem.b, problem.morozov_level()

    f = BidiagFactorization(A, b, max_iter)
    alpha_prev = alpha = alpha0
    converged = False
    for k in range(1, max_iter + 1):  # max_iter >= 1, as the factorization checked
        f.expand()
        phi = f.lsqr_residual
        y, alpha, F1_norm, res = update(k, projected_spectrum(f.B, f.c, phi), phi, alpha_prev)
        if (
            phi < eps
            and abs(alpha - alpha_prev) < tol * alpha_prev
            and abs(res - eps) <= tol * eps
            and math.hypot(F1_norm, f.normal_tail(y)) <= tol * f.atb_norm
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
        n_outer=k,
        residual_norm=float(np.linalg.norm(A.matvec(x) - b)),
    )


def pntm_solve(problem: InverseProblem, config: Optional[PntmConfig] = None) -> KrylovResult:
    """Projected Newton solve of the coupled system.

    Each outer iteration takes alpha from ``secular_root`` once phi_k < eps and
    the projected Tikhonov point there, one trace row. Returns the lifted iterate;
    exhaustion of the outer budget (observed on hard ill-conditioned problems)
    is reported via the flag with the trace intact.
    """
    if config is None:
        config = PntmConfig()
    eps = problem.discrepancy_target
    trace = SolveTrace(columns=PNTM_COLUMNS)

    def update(k, spectrum, phi, alpha):
        lam, Q, gh, rr = spectrum
        if phi < eps:  # else no root yet: alpha is kept
            alpha = secular_root(lam, gh, rr, eps, alpha)
        point, F1h, _ = priced_point(lam, gh, rr, eps, gh / (lam + alpha), alpha)
        trace.append(len(trace) + 1, *point.row, k, 0, lam.size, phi)
        return Q @ point.xh, alpha, float(np.linalg.norm(F1h)), point.res_norm

    return krylov_loop(
        problem, config.alpha0, config.tol, config.outer_iter_max, trace, update
    )
