"""The workloads: generated problems and the solves of one pass.

A pass solves every problem of the workload with every method listed for
it, one solve at a time. Problems are built once in set-up from the
benchmark seed; every pass repeats the same solves, so iteration counts
and the per-solve digest of a pass repeat exactly.

Solver options are those of the shipped configs (``configs/table1.cfg``,
``configs/random_large.cfg``, and ``configs/sparse_fixture.cfg`` for
cgls-pc). Solvers are looked up on their modules at call time, so the
tracer's wrappers take effect while it is installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import tikmor.linop as linop
import tikmor.ntm as ntm
import tikmor.pntm as pntm
import tikmor.problems as problems
import tikmor.reference as reference

TOL = 1e-3  # tol of every Newton and secant solver in the shipped configs


@dataclass
class Outcome:
    """What one solve returned, in the terms the checks and metrics use."""

    method: str
    x: np.ndarray
    alpha: Optional[float]
    converged: bool
    residual_norm: float
    iters: int
    newton_iters: int
    krylov_iters: int
    trace: object
    morozov: bool  # converged solves must satisfy |res - eps| <= 2 tol eps


def solve_ntm(variant):
    def solve(problem):
        cfg = ntm.NtmConfig(
            alpha0=1.0, tol=TOL, max_iter=500,
            step_rule=ntm.StepRule(variant=variant, omega=0.9),
        )
        r = ntm.ntm_solve(problem, cfg)
        return Outcome("ntm", r.x, r.alpha, r.converged, r.residual_norm,
                       r.n_iter, r.n_iter, 0, r.trace, True)
    return solve


def solve_pntm(inner_large=10000):
    def solve(problem):
        cfg = pntm.PntmConfig(
            alpha0=1.0, tol=TOL, outer_iter_max=100, inner_cap_large=inner_large,
            step_rule=ntm.StepRule(variant="case2", omega=0.9),
        )
        r = pntm.pntm_solve(problem, cfg)
        return Outcome("pntm", r.x, r.alpha, r.converged, r.residual_norm,
                       r.n_outer, r.n_inner_total, r.n_outer, r.trace, True)
    return solve


def solve_gbit(problem):
    r = reference.gbit_solve(problem, reference.GbitConfig(alpha0=1.0, tol=TOL, max_iter=100))
    return Outcome("gbit", r.x, r.alpha, r.converged, r.residual_norm,
                   r.n_outer, 0, r.n_outer, r.trace, True)


def solve_cgls_pc(problem):
    # the problem already carries the smoothing transform, as in `tikmor run`
    r = reference.cgls(problem.operator, problem.b, problem.discrepancy_target, max_iter=2000)
    return Outcome("cgls", r.x, None, r.converged, r.residual_norm,
                   r.n_iter, 0, r.n_iter, r.trace, False)


@dataclass
class Item:
    """One problem and the methods a pass runs on it."""

    pid: str
    problem: object
    methods: list  # (label, solve)
    pairs: list = field(default_factory=list)  # labels whose alphas should agree


def _smooth(problem):
    transformed, _ = problems.priorconditioned_problem(
        problem, linop.RegularizationMatrix(problem.operator.cols)
    )
    return transformed


def build_table1(seed, tiny):
    # One problem, the first of the configs/table1.cfg batch, whatever the
    # seed: its case1 solve takes 4-6 s, so a run holds a few samples of
    # each solve, and across problem seeds case1 needs 69-110 iterations,
    # which moved solves_per_s by about 20% from seed to seed.
    m, n = (70, 50) if tiny else (700, 500)
    return [Item(
        f"random{m}x{n}:1000",
        problems.random_uniform_problem(m, n, 0.10, 1000),
        [("ntm-case1", solve_ntm("case1")), ("ntm-case2", solve_ntm("case2"))],
        [("ntm-case1", "ntm-case2")],
    )]


def build_krylov_large(seed, tiny):
    m, n, count = (210, 150, 2) if tiny else (2100, 1500, 4)
    items = []
    for i in range(count):
        s = 2000 + count * seed + i
        items.append(Item(
            f"random{m}x{n}:{s}",
            problems.random_uniform_problem(m, n, 0.10, s),
            [("pntm-case2", solve_pntm()), ("gbit", solve_gbit)],
            [("pntm-case2", "gbit")],
        ))
    return items


def build_smooth_large(seed, tiny):
    # pntm is left out: on smoothed 2100x1500 problems it raises a raw
    # ValueError from scipy on most seeds (alpha underflows under case-3
    # clipping), and a workload must not fail. gbit's init_bidiag still
    # runs the column-sweep frobenius_norm this workload is for.
    m, n = (210, 150) if tiny else (2100, 1500)
    s = 2000 + seed
    return [Item(
        f"random{m}x{n}-smooth:{s}",
        _smooth(problems.random_uniform_problem(m, n, 0.10, s)),
        [("gbit", solve_gbit), ("cgls-pc", solve_cgls_pc)],
    )]


# name -> build(seed, tiny): the problems of one pass, with their methods
WORKLOADS = {
    "table1": build_table1,
    "krylov_large": build_krylov_large,
    "smooth_large": build_smooth_large,
}


def check(problem, out):
    """Reasons the solve's output is wrong; empty when it passes."""
    errors = []
    if not np.all(np.isfinite(out.x)):
        errors.append("x is not finite")
        return errors
    if out.alpha is not None and not np.isfinite(out.alpha):
        errors.append(f"alpha is not finite: {out.alpha!r}")
    res = float(np.linalg.norm(problem.operator.matvec(out.x) - problem.b))
    if abs(res - out.residual_norm) > 1e-8 * max(res, 1e-300):
        errors.append(f"reported residual {out.residual_norm!r} != recomputed {res!r}")
    eps = problem.discrepancy_target
    if out.converged:
        if out.morozov and abs(res - eps) > 2 * TOL * eps:
            errors.append(f"|res - eps| = {abs(res - eps):.3e} > 2 tol eps = {2 * TOL * eps:.3e}")
        if not out.morozov and res > eps * (1 + 1e-8):  # cgls stops at res <= eps
            errors.append(f"converged but res = {res!r} > eps = {eps!r}")
    return errors


def morozov_gap(problem, out):
    eps = problem.discrepancy_target
    return float(abs(out.residual_norm - eps) / eps)


def full_steps(out):
    """(steps with gamma = 1, steps) of an ntm solve."""
    gamma = out.trace.column("gamma")[1:]
    return int(np.count_nonzero(gamma == 1.0)), int(gamma.size)


def inner_converged(out):
    """(outer iterations whose inner loop reached tol, outer iterations) of pntm."""
    outer = out.trace.column("outer_iter")
    fnorm = out.trace.column("F_norm")
    last = np.flatnonzero(np.append(outer[1:] != outer[:-1], True))
    return int(np.count_nonzero(fnorm[last] < TOL)), int(last.size)
