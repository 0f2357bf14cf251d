"""Acceptance suite: one test per criterion, one printed verdict line each.

The random-matrix batches are shared across criteria through module-scoped
fixtures, so the expensive solves run once.
"""

import numpy as np
import pytest

from tikmor import (
    GbitConfig,
    ImageView,
    InverseProblem,
    NtmConfig,
    PntmConfig,
    RegularizationMatrix,
    StepRule,
    as_operator,
    cgls_priorconditioned,
    dinv_norm,
    eval_F,
    gbit_solve,
    init_bidiag,
    load_matrix_market,
    normal_equation_solve,
    ntm_solve,
    pntm_solve,
    priorconditioned_problem,
    random_uniform_problem,
    relative_stats,
    sine_wave_problem,
    solve_newton_system,
    ssim,
)
from tikmor.metrics import SSIM_C2

from conftest import FIXTURES
from oracles import bordered_matrix, schur_inverse

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
        exact = dinv_norm(A, x, alpha, mode="exact_svd")
        bound = dinv_norm(A, x, alpha, mode="lemma_bound")
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
        f = init_bidiag(A, rng.standard_normal(m))
        while f.can_expand():
            if not f.expand():
                break
        U, V, B = f.U, f.V, f.B
        worst_orth = max(
            worst_orth,
            np.abs(U.T @ U - np.eye(U.shape[1])).max(),
            np.abs(V.T @ V - np.eye(V.shape[1])).max(),
        )
        fro = np.linalg.norm(A, "fro")
        worst_fact = max(worst_fact, np.linalg.norm(A @ V - U @ B, "fro") / fro)
        b_vec = f.beta * f.U[:, 0]  # the rhs that seeded the factorization
        for _ in range(3):
            y = rng.standard_normal(f.k)
            lifted = np.linalg.norm(A @ (V @ y) - b_vec)
            proj = f.projected_residual_norm(y)
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
            "cgls-pc": cgls_priorconditioned(problem, reg, max_iter=5000),
        }
        for method, res in runs.items():
            x = recover(res.x) if method != "cgls-pc" else res.x
            stats = relative_stats(problem, x)
            in_band = (
                stats.rel_discrepancy - 0.01
                <= stats.rel_residual
                <= stats.rel_discrepancy + 0.01
            )
            flagged = (not res.converged) and len(res.trace) > 0
            rows.append(
                f"{name}/{method}: res={stats.rel_residual:.4f} "
                f"disc={stats.rel_discrepancy:.4f} "
                f"{'in-band' if in_band else 'flagged' if flagged else 'BAD'}"
            )
            if not (in_band or flagged):
                ok = False
    report(10, "fixture study semantics", ok, "; ".join(rows))


def test_criterion_11_ssim_suite():
    rng = np.random.default_rng(11)
    img = ImageView(data=rng.random(36), width=6, height=6)
    identical_ok = ssim(img, img) == pytest.approx(1.0, abs=1e-12)
    # hand evaluation: C1 factors cancel, value is (-0.5 + C2)/(0.5 + C2)
    oracle = (-0.5 + SSIM_C2) / (0.5 + SSIM_C2)
    got = ssim(
        ImageView(data=np.array([0.0, 1.0]), width=2, height=1),
        ImageView(data=np.array([1.0, 0.0]), width=2, height=1),
    )
    hand_ok = abs(got - oracle) <= 1e-4
    sym_ok = True
    for _ in range(100):
        a = ImageView(data=rng.standard_normal(16), width=4, height=4)
        b = ImageView(data=rng.standard_normal(16), width=4, height=4)
        if ssim(a, b) != ssim(b, a):
            sym_ok = False
            break
    ok = identical_ok and hand_ok and sym_ok
    report(
        11, "image similarity suite", ok,
        f"anticorrelated pair={got:.6f} (oracle {oracle:.6f})",
    )
