"""Acceptance suite: one test per criterion, one printed verdict line each.

The random-matrix batches are shared across criteria through module-scoped
fixtures, so the expensive solves run once. The last tests pin the
scale invariance of pntm and gbit, which ntm does not have yet (ROADMAP
items 2 and 12), and sweep the result contract over noise level and
scale and over edge regimes: rank-deficient A, eps near ||b||, far
alpha0 (ROADMAP item 11).
"""

import itertools

import numpy as np
import pytest

from tikmor import (
    BidiagFactorization,
    ConvergenceFailure,
    GbitConfig,
    InverseProblem,
    NtmConfig,
    PntmConfig,
    RegularizationMatrix,
    StepRule,
    TikmorError,
    as_operator,
    cgls,
    dinv_norm,
    gbit_solve,
    load_matrix_market,
    ntm_solve,
    pntm_solve,
    priorconditioned_problem,
    random_uniform_problem,
    sine_wave_problem,
    ssim,
)
from tikmor.metrics import SSIM_C2

from conftest import FIXTURES
from oracles import (
    bases,
    bordered_matrix,
    eval_F,
    lemma_bound,
    normal_equation_solve,
    projected_residual_norm,
    schur_inverse,
    solve_newton_system,
    spectral_gram,
)

TOL = 1e-3


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} ({name}): {verdict} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def table1_batch():
    """20 seeded NTM runs at 700x500 under both step rules."""
    runs = []
    for seed in range(1000, 1020):
        problem = random_uniform_problem(700, 500, 0.10, seed)
        entry = {"seed": seed, "eps": problem.noise_level}
        for variant in ("case1", "case2"):
            cfg = NtmConfig(
                alpha0=1.0, tol=TOL, max_iter=500,
                step_rule=StepRule(variant=variant, omega=0.9),
            )
            entry[variant] = ntm_solve(problem, cfg)
        runs.append(entry)
    return runs


@pytest.fixture(scope="module")
def scaled_krylov_batch():
    """5 seeded PNTM/GBiT runs at 2100x1500 plus the problems themselves."""
    runs = []
    for seed in range(2000, 2005):
        problem = random_uniform_problem(2100, 1500, 0.10, seed)
        p = pntm_solve(problem, PntmConfig(step_rule=StepRule(variant="case2")))
        g = gbit_solve(problem, GbitConfig())
        runs.append({"seed": seed, "problem": problem, "pntm": p, "gbit": g})
    return runs


def test_criterion_1_iteration_counts_and_alpha_agreement(table1_batch):
    case1_iters = np.array([r["case1"].n_iter for r in table1_batch], dtype=float)
    case2_iters = np.array([r["case2"].n_iter for r in table1_batch], dtype=float)
    all_converged = all(
        r["case1"].converged and r["case2"].converged for r in table1_batch
    )
    alpha_gap = max(
        abs(r["case1"].alpha - r["case2"].alpha) / r["case2"].alpha
        for r in table1_batch
    )
    ok = (
        all_converged
        and 12.0 <= case2_iters.mean() <= 22.0
        and 60.0 <= case1_iters.mean() <= 120.0
        and alpha_gap <= 1e-4
    )
    report(
        1, "step-rule iteration counts", ok,
        f"case2 mean={case2_iters.mean():.1f} case1 mean={case1_iters.mean():.1f} "
        f"max alpha gap={alpha_gap:.2e}",
    )


def test_criterion_2_morozov_consistency(table1_batch, scaled_krylov_batch):
    worst = 0.0
    count = 0
    for r in table1_batch:
        eps = r["eps"]
        for variant in ("case1", "case2"):
            res = r[variant]
            if res.converged:
                worst = max(worst, abs(res.residual_norm - eps) / (2 * TOL * eps))
                count += 1
    for r in scaled_krylov_batch:
        eps = r["problem"].noise_level
        for key in ("pntm", "gbit"):
            res = r[key]
            if res.converged:
                worst = max(worst, abs(res.residual_norm - eps) / (2 * TOL * eps))
                count += 1
    ok = count > 0 and worst <= 1.0
    report(
        2, "Morozov consistency", ok,
        f"{count} converged runs, worst |res-eps| at {worst:.3f} of the 2*tol*eps budget",
    )


def test_criterion_3_projected_vs_secant(scaled_krylov_batch):
    outer_ok = all(r["pntm"].n_outer <= r["gbit"].n_outer for r in scaled_krylov_batch)
    alpha_gap = max(
        abs(r["pntm"].alpha - r["gbit"].alpha) / r["gbit"].alpha
        for r in scaled_krylov_batch
    )
    converged = all(
        r["pntm"].converged and r["gbit"].converged for r in scaled_krylov_batch
    )
    ok = outer_ok and converged and alpha_gap <= 0.05
    detail = (
        f"outer iters pntm={[r['pntm'].n_outer for r in scaled_krylov_batch]} "
        f"gbit={[r['gbit'].n_outer for r in scaled_krylov_batch]} "
        f"max alpha gap={alpha_gap:.2%}"
    )
    report(3, "Krylov iteration comparison", ok, detail)


def test_criterion_4_bordered_inverse_bound_and_schur_form():
    rng = np.random.default_rng(4)
    worst_bound = 0.0
    worst_schur = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 31))
        m = n + int(rng.integers(0, 11))
        A = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        x *= (1.0 + 9.0 * rng.random()) / np.linalg.norm(x)  # ||x|| in [1, 10]
        alpha = 10.0 ** rng.uniform(-2, 2)
        lam, Q = spectral_gram(A.T @ A)
        exact = dinv_norm(lam, x @ Q, alpha)
        bound = lemma_bound(A.T @ A, x, alpha)
        worst_bound = max(worst_bound, exact / bound)
        S = schur_inverse(A, x, alpha)
        dense = np.linalg.inv(bordered_matrix(A.T @ A, x, alpha))
        worst_schur = max(
            worst_schur,
            np.linalg.norm(S - dense, "fro") / np.linalg.norm(dense, "fro"),
        )
    ok = worst_bound <= 1.0 + 1e-12 and worst_schur <= 1e-9
    report(
        4, "bordered-inverse bound", ok,
        f"max exact/bound={worst_bound:.4f} max Schur defect={worst_schur:.2e}",
    )


def test_criterion_5_newton_step_recurrence():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 12))
        m = n + int(rng.integers(1, 10))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        eps = (0.2 + 0.5 * rng.random()) * np.linalg.norm(b)
        alpha0 = 10.0 ** rng.uniform(-1, 1)
        x0 = normal_equation_solve(A, b, alpha0)
        F1_0, F2_0 = eval_F(A, b, eps, x0, alpha0)
        dx, dalpha = solve_newton_system(A, b, eps, x0, alpha0)
        x1, a1 = x0 + dx, alpha0 + dalpha
        F1, F2 = eval_F(A, b, eps, x1, a1)
        defect = np.sqrt(
            np.linalg.norm(F1 - dalpha * dx) ** 2
            + (F2 - 0.5 * dx @ (A.T @ (A @ dx))) ** 2
        )
        scale = 1.0 + np.sqrt(F1_0 @ F1_0 + F2_0 * F2_0)
        worst = max(worst, defect / scale)
    ok = worst <= 1e-8
    report(5, "full-step residual recurrence", ok, f"max scaled defect={worst:.2e}")


def test_criterion_6_safeguard_monotonicity(table1_batch):
    # the batch itself is evidence no solve raised a singular-Jacobian error
    strict = True
    for r in table1_batch:
        dn = r["case1"].trace.column("dir_norm")
        dn = dn[~np.isnan(dn)]
        if not (np.diff(dn) < 0).all():
            strict = False
            break
    report(
        6, "search-direction decrease under case1", strict,
        f"checked {len(table1_batch)} runs, no singular Jacobian signaled",
    )


def test_criterion_7_bidiagonalization_suite():
    rng = np.random.default_rng(7)
    worst_orth = 0.0
    worst_fact = 0.0
    worst_res = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 61))
        m = n + int(rng.integers(0, 41))
        m = min(m, 100)
        A = rng.standard_normal((m, n))
        f = BidiagFactorization(A, rng.standard_normal(m), n)
        while f.can_expand():
            if not f.expand():
                break
        (U, V), B = bases(f), f.B
        worst_orth = max(
            worst_orth,
            np.abs(U.T @ U - np.eye(U.shape[1])).max(),
            np.abs(V.T @ V - np.eye(V.shape[1])).max(),
        )
        fro = np.linalg.norm(A, "fro")
        worst_fact = max(worst_fact, np.linalg.norm(A @ V - U @ B, "fro") / fro)
        b_vec = f.beta * U[:, 0]  # the rhs that seeded the factorization
        for _ in range(3):
            y = rng.standard_normal(f.k)
            lifted = np.linalg.norm(A @ (V @ y) - b_vec)
            proj = projected_residual_norm(f, y)
            worst_res = max(worst_res, abs(lifted - proj) / max(1.0, lifted))
    ok = worst_orth <= 1e-10 and worst_fact <= 1e-10 and worst_res <= 1e-9
    report(
        7, "bidiagonalization invariants", ok,
        f"orth={worst_orth:.2e} factorization={worst_fact:.2e} residual eq={worst_res:.2e}",
    )


def test_criterion_8_dense_oracle_at_returned_alpha(scaled_krylov_batch):
    worst = 0.0
    count = 0
    for r in scaled_krylov_batch:
        res = r["pntm"]
        if not res.converged:
            continue
        problem = r["problem"]
        x_dense = normal_equation_solve(problem.operator, problem.b, res.alpha)
        res_dense = np.linalg.norm(problem.operator.matvec(x_dense) - problem.b)
        worst = max(worst, abs(res_dense - res.residual_norm) / res.residual_norm)
        count += 1
    ok = count > 0 and worst <= 0.01
    report(
        8, "dense re-solve agreement", ok,
        f"{count} converged runs, max residual change={worst:.2%}",
    )


def test_criterion_9_identity_closed_form():
    ok = True
    details = []
    for n in (1, 5, 50):
        rng = np.random.default_rng(n)
        b = rng.random(n) + 1.0
        bnorm = np.linalg.norm(b)
        eps = 0.4 * bnorm
        alpha_star = eps / (bnorm - eps)
        x_star = b * (1 - eps / bnorm)
        problem = InverseProblem(
            operator=as_operator(np.eye(n)), b=b, noise_level=eps
        )
        results = {
            "ntm": ntm_solve(problem, NtmConfig(tol=1e-10)),
            "pntm": pntm_solve(problem, PntmConfig(tol=1e-10)),
            "gbit": gbit_solve(problem, GbitConfig(tol=1e-10, max_iter=500)),
        }
        for name, res in results.items():
            a_ok = abs(res.alpha - alpha_star) / alpha_star <= 1e-6
            x_ok = np.linalg.norm(res.x - x_star) <= 1e-6 * np.linalg.norm(x_star)
            if not (res.converged and a_ok and x_ok):
                ok = False
                details.append(f"{name}@n={n}")
    report(9, "identity closed form", ok, "failures: " + ",".join(details) if details else "")


def test_criterion_10_matrix_market_fixture_study():
    rows = []
    ok = True
    for name in ("survey219", "lattice60"):
        op = load_matrix_market(FIXTURES / f"{name}.mtx")
        problem = sine_wave_problem(op, 0.10, seed=1)
        reg = RegularizationMatrix(op.cols)
        transformed, recover = priorconditioned_problem(problem, reg)
        runs = {
            "pntm": pntm_solve(
                transformed, PntmConfig(inner_cap_large=1000)
            ),
            "gbit": gbit_solve(transformed, GbitConfig()),
            "cgls-pc": cgls(
                transformed.operator, transformed.b, transformed.discrepancy_target,
                max_iter=5000,
            ),
        }
        bnorm = np.linalg.norm(problem.b)
        rel_discrepancy = problem.noise_level / bnorm
        for method, res in runs.items():
            x = recover(res.x)
            rel_residual = np.linalg.norm(problem.operator.matvec(x) - problem.b) / bnorm
            in_band = rel_discrepancy - 0.01 <= rel_residual <= rel_discrepancy + 0.01
            rows.append(
                f"{name}/{method}: res={rel_residual:.4f} "
                f"disc={rel_discrepancy:.4f} "
                f"{'in-band' if in_band else 'BAD'}"
            )
            if not in_band:
                ok = False
    report(10, "fixture study semantics", ok, "; ".join(rows))


def test_criterion_11_ssim_suite():
    rng = np.random.default_rng(11)
    img = rng.random((6, 6))
    identical_ok = ssim(img, img) == pytest.approx(1.0, abs=1e-12)
    # hand evaluation: C1 factors cancel, value is (-0.5 + C2)/(0.5 + C2)
    oracle = (-0.5 + SSIM_C2) / (0.5 + SSIM_C2)
    got = ssim(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    hand_ok = abs(got - oracle) <= 1e-4
    sym_ok = True
    for _ in range(100):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        if ssim(a, b) != ssim(b, a):
            sym_ok = False
            break
    ok = identical_ok and hand_ok and sym_ok
    report(
        11, "image similarity suite", ok,
        f"anticorrelated pair={got:.6f} (oracle {oracle:.6f})",
    )


SCALE_XFAIL = pytest.mark.xfail(
    strict=True, reason="ntm's step bound is not scale invariant (ROADMAP item 12)"
)


def _scaled_solve(method, p, c):
    """(counts, converged, alpha / c^2) of the solve of c A x = c b at eps c and alpha0 c^2."""
    q = InverseProblem(
        operator=as_operator(c * p.operator.to_dense()), b=c * p.b, noise_level=c * p.noise_level
    )
    if method == "ntm":
        r = ntm_solve(q, NtmConfig(alpha0=c * c))
        counts = (r.n_iter,)
    elif method == "pntm":
        r = pntm_solve(q, PntmConfig(alpha0=c * c, inner_cap_large=50))
        counts = (r.n_outer, r.n_inner_total)
    else:
        r = gbit_solve(q, GbitConfig(alpha0=c * c))
        counts = (r.n_outer,)
    return counts, r.converged, r.alpha / (c * c)


@pytest.mark.parametrize(
    "method, c",
    [
        pytest.param("ntm", 1e3, marks=SCALE_XFAIL),  # 500 steps, alpha stays at alpha0
        pytest.param("ntm", 1e6, marks=SCALE_XFAIL),
        ("pntm", 1e3),
        ("pntm", 1e6),
        ("gbit", 1e3),
        ("gbit", 1e6),
    ],
)
def test_scaled_problem_solves_like_unscaled(method, c):
    # scaling A, b and eps by c maps the solution x to x and alpha to c^2 alpha
    p = random_uniform_problem(120, 80, 0.1, 7)
    counts, converged, alpha = _scaled_solve(method, p, 1.0)
    scaled_counts, scaled_converged, scaled_alpha = _scaled_solve(method, p, c)
    assert (scaled_counts, scaled_converged) == (counts, converged)
    assert scaled_alpha == pytest.approx(alpha, rel=1e-9)


# item 1: gram_spectrum's rr carries eps_mach ||b||^2, so F2 at res far below ||b|| does too
ITEM1_XFAIL = pytest.mark.xfail(reason="ntm prices from eigh's small eigenvalues (ROADMAP item 1)")


def _contract_cells():
    """(method, noise, scale) cells of the contract sweep; ntm's known-off
    cell is an xfail, strict by the pytest config."""
    for method, noise, scale in itertools.product(
        ("ntm", "pntm", "gbit"), (1e-1, 1e-3, 1e-5, 1e-7), (1e-3, 1.0, 1e3)
    ):
        marks = ITEM1_XFAIL if (method, noise, scale) == ("ntm", 1e-7, 1.0) else ()
        yield pytest.param(method, noise, scale, marks=marks)


def _off_band(solve, problems, normal=False):
    """The labels of ``problems`` (label -> problem) whose result is flagged
    converged off the discrepancy level, |res - eps| > 2 tol eps on the
    operator's residual, or with ``normal`` also off the normal equations,
    F1rel = ||A^T (A x - b) + alpha x|| / ||A^T b|| > tol with the
    operator; a typed error or an unconverged flag is no breach."""
    off = []
    for label, p in problems.items():
        try:
            r = solve(p)
        except TikmorError:
            continue
        if not r.converged:
            continue
        eps = p.discrepancy_target
        if not abs(r.residual_norm - eps) <= 2 * TOL * eps:
            off.append(f"{label}: res/eps = {r.residual_norm / eps:.6g}")
        if normal:
            A = p.operator
            F1 = A.rmatvec(A.matvec(r.x) - p.b) + r.alpha * r.x
            F1rel = np.linalg.norm(F1) / np.linalg.norm(A.rmatvec(p.b))
            if not F1rel <= TOL:
                off.append(f"{label}: F1rel = {F1rel:.3g}")
    return off


def _sweep_problems(noise, scale=1.0, rank_deficient=False):
    """The sweep's family, label -> problem: random 24x16, 40x30 and 30x30
    at seeds 0-1, A, b and eps scaled by ``scale``. ``rank_deficient``
    replaces A by A[:, :n/2] @ U(-1, 1) / sqrt(n/2), of rank n/2, and b by
    a noisy sine right-hand side for it."""
    problems = {}
    for (m, n), seed in itertools.product(((24, 16), (40, 30), (30, 30)), (0, 1)):
        p = random_uniform_problem(m, n, noise, seed)
        if rank_deficient:
            k = n // 2
            U = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, n))
            p = sine_wave_problem(p.operator.to_dense()[:, :k] @ U / np.sqrt(k), noise, seed)
        problems[f"{m}x{n} seed {seed}"] = InverseProblem(
            operator=as_operator(scale * p.operator.to_dense()), b=scale * p.b,
            noise_level=scale * p.noise_level,
        )
    return problems


@pytest.mark.parametrize("method, noise, scale", _contract_cells())
def test_result_contract_sweep(method, noise, scale):
    # every result with default options is on the discrepancy level and on
    # the normal equations, flagged unconverged, or a typed error; A, b and
    # eps scaled by ``scale``
    solve = {"ntm": ntm_solve, "pntm": pntm_solve, "gbit": gbit_solve}[method]
    off = _off_band(solve, _sweep_problems(noise, scale), normal=True)
    assert not off, "; ".join(off)


# item 2(c): squares of norms in F2 overflow at 1e150
ITEM2C_REASON = "F2 squares norms at extreme scale (ROADMAP item 2(c))"
ITEM2C_OVERFLOW = pytest.mark.xfail(reason=ITEM2C_REASON, raises=RuntimeWarning)

# regime -> (noise, scale, alpha0, rank_deficient, {method: xfail mark})
REGIMES = {
    "rank-half-noise-1e-1": (1e-1, 1.0, 1.0, True, {}),
    "rank-half-noise-1e-3": (1e-3, 1.0, 1.0, True, {}),
    "noise-0.9": (0.9, 1.0, 1.0, False, {}),
    "noise-0.99": (0.99, 1.0, 1.0, False, {}),
    "alpha0-1e4-noise-1e-1": (1e-1, 1.0, 1e4, False, {}),
    "alpha0-1e4-noise-1e-3": (1e-3, 1.0, 1e4, False, {}),
    "alpha0-1e-12-noise-1e-1": (1e-1, 1.0, 1e-12, False, {}),
    "alpha0-1e-12-noise-1e-3": (1e-3, 1.0, 1e-12, False, {}),
    "alpha0-1e-16": (1e-3, 1.0, 1e-16, False, {}),
    "alpha0-1e-30": (1e-3, 1.0, 1e-30, False, {}),
    "alpha0-1e-100": (1e-3, 1.0, 1e-100, False, {}),
    "scale-1e-150": (1e-3, 1e-150, 1.0, False, {}),
    "scale-1e150": (
        1e-3, 1e150, 1.0, False,
        {"ntm": ITEM2C_OVERFLOW, "pntm": ITEM2C_OVERFLOW, "gbit": ITEM2C_OVERFLOW},
    ),
}


def _regime_cells():
    for regime, (*_, marks) in REGIMES.items():
        for method in ("ntm", "pntm", "gbit"):
            yield pytest.param(method, regime, marks=marks.get(method, ()))


@pytest.mark.parametrize("method, regime", _regime_cells())
def test_result_contract_in_edge_regimes(method, regime):
    # the contract of the sweep on rank-deficient A, eps near ||b||, alpha0
    # far from the Morozov alpha and extreme scales; every gbit alpha moves,
    # so no two consecutive alphas of its trace are equal, and no result
    # carries an alpha that underflowed to 0
    noise, scale, alpha0, rank_deficient, _ = REGIMES[regime]
    solver, config = {
        "ntm": (ntm_solve, NtmConfig), "pntm": (pntm_solve, PntmConfig),
        "gbit": (gbit_solve, GbitConfig),
    }[method]
    held, zero = [], []

    def solve(p):
        r = solver(p, config(alpha0=alpha0))
        alphas = r.trace.column("alpha")
        same = alphas[1:] == alphas[:-1]
        if method == "gbit" and same.any():
            held.append(r.trace.column("outer_iter")[1:][same])
        if r.alpha == 0.0:
            zero.append(f"{p.operator.rows}x{p.operator.cols}")
        return r

    off = _off_band(solve, _sweep_problems(noise, scale, rank_deficient), normal=True)
    assert not off, "; ".join(off)
    assert not held, f"gbit held alpha at iterations {held}"
    assert not zero, f"alpha 0 on the {zero} problems"


def test_gbit_fails_typed_where_the_secant_gap_underflows():
    # A, b and eps scaled by 1e-160 put every projected lam_i below the
    # smallest normal number; from alpha0 = 1e-300 the residual at alpha
    # rounds to phi_k, so no secant step can move alpha, and a held alpha
    # would look like stagnation (flagged converged at res/eps 0)
    p = random_uniform_problem(40, 30, 1e-3, 2)
    c = 1e-160
    q = InverseProblem(
        operator=as_operator(c * p.operator.to_dense()), b=c * p.b, noise_level=c * p.noise_level
    )
    with pytest.raises(ConvergenceFailure, match="secant update degenerate"):
        gbit_solve(q, GbitConfig(alpha0=1e-300))


@pytest.mark.parametrize("noise", [1e-5, 1e-7])
@pytest.mark.parametrize("method", ["pntm", "gbit"])
def test_result_contract_on_graded_columns(method, noise):
    # an ill-posed problem: column scales down to 1e-8 give a projected B
    # with cond up to about 2e8 by the time phi_k < eps, where a spectrum
    # from eigh(B^T B) misprices the residual and both methods stopped
    # 5-12% above eps at noise 1e-7
    solve = {"pntm": pntm_solve, "gbit": gbit_solve}[method]
    problems = {
        f"seed {seed}": sine_wave_problem(
            np.random.default_rng(seed).standard_normal((60, 40)) * np.logspace(0, -8, 40),
            noise, seed,
        )
        for seed in range(3)
    }
    off = _off_band(solve, problems)
    assert not off, "; ".join(off)


@pytest.mark.parametrize("alpha0", [1e-10, 1e-16])
@pytest.mark.parametrize("method", ["pntm", "gbit"])
def test_result_contract_from_far_alpha0(method, alpha0):
    # an alpha0 far below the Morozov alpha (about 5e-3 here): gbit's
    # secant must still move alpha, although ||B y - c|| and phi_k then
    # agree to far below an ulp
    solve = {
        "pntm": lambda p: pntm_solve(p, PntmConfig(alpha0=alpha0)),
        "gbit": lambda p: gbit_solve(p, GbitConfig(alpha0=alpha0)),
    }[method]
    problems = {f"seed {seed}": random_uniform_problem(40, 30, 1e-3, seed) for seed in range(4)}
    off = _off_band(solve, problems)
    assert not off, "; ".join(off)
