import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikmor import (
    BidiagFactorization,
    InfeasibleDiscrepancyError,
    InverseProblem,
    PntmConfig,
    RegularizationMatrix,
    StepRule,
    as_operator,
    gbit_solve,
    load_matrix_market,
    pntm_solve,
    priorconditioned_problem,
    random_uniform_problem,
    sine_wave_problem,
)
from tikmor.ntm import eigen_residual_sq, newton_steps
from tikmor.pntm import krylov_loop, projected_spectrum, secular_root
from tikmor.trace import PNTM_COLUMNS, SolveTrace
from conftest import FIXTURES, counting_operator
from oracles import (
    normal_equation_solve,
    projected_eval_F,
    projected_newton_system,
    projected_residual_norm,
    solve_newton_system,
)


def small_factorization(rng, m=12, n=8, steps=4):
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    f = BidiagFactorization(A, b, steps)
    for _ in range(steps):
        f.expand()
    return A, b, f


def replayed_factorization(p, n_outer):
    """The factorization a Krylov solve of p held after n_outer outer
    iterations: the same expansions on the same problem give the same bits."""
    f = BidiagFactorization(as_operator(p.operator), p.b, n_outer)
    for _ in range(n_outer):
        if f.can_expand():
            f.expand()
    return f


def test_projected_system_matches_cramer_k1(rng):
    A, b, f = small_factorization(rng, steps=1)
    B, c = f.B, f.c
    y = np.array([0.3])
    alpha, eps = 0.8, 0.5 * np.linalg.norm(b)
    dy, dalpha = projected_newton_system(f, y, alpha, eps)
    # 2x2 rescaled system by Cramer's rule
    G = float(B[:, 0] @ B[:, 0])
    r = B @ y - c
    F1 = float(B[:, 0] @ r) + alpha * y[0]
    F2 = 0.5 * float(r @ r) - 0.5 * eps * eps
    J = np.array([[G + alpha, y[0]], [(F1 - alpha * y[0]) / alpha, 0.0]])
    rhs = np.array([-F1, -F2 / alpha])
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    assert dy[0] == pytest.approx((rhs[0] * J[1, 1] - J[0, 1] * rhs[1]) / det, rel=1e-11)
    assert dalpha == pytest.approx((J[0, 0] * rhs[1] - rhs[0] * J[1, 0]) / det, rel=1e-11)


def test_projected_system_zero_at_projected_root(rng):
    A, b, f = small_factorization(rng, steps=3)
    B, c = f.B, f.c
    alpha = 0.7
    y = np.linalg.solve(B.T @ B + alpha * np.eye(f.k), B.T @ c)
    eps = float(np.linalg.norm(B @ y - c))
    # force F2 to vanish exactly by reusing the computed residual
    dy, dalpha = projected_newton_system(f, y, alpha, eps)
    assert np.linalg.norm(dy) <= 1e-9
    assert abs(dalpha) <= 1e-9


def test_projected_system_equals_full_space_on_small_operator(rng):
    # treating (B, c) as a dense problem, the full-space solver must agree
    A, b, f = small_factorization(rng, steps=4)
    B, c = f.B, f.c
    y = rng.standard_normal(f.k)
    alpha, eps = 0.9, 0.4 * np.linalg.norm(b)
    dy1, da1 = projected_newton_system(f, y, alpha, eps)
    dy2, da2 = solve_newton_system(B, c, eps, y, alpha)
    assert np.allclose(dy1, dy2, rtol=1e-9, atol=1e-12)
    assert da1 == pytest.approx(da2, rel=1e-9)


def test_identity_converges_through_breakdown():
    n = 5
    b = np.arange(1.0, n + 1)
    eps = 0.3 * np.linalg.norm(b)
    p = InverseProblem(operator=as_operator(np.eye(n)), b=b, noise_level=eps)
    res = pntm_solve(p, PntmConfig(tol=1e-12))
    bnorm = np.linalg.norm(b)
    assert res.converged
    assert replayed_factorization(p, res.n_outer).breakdown
    assert res.n_outer >= 2
    assert res.alpha == pytest.approx(eps / (bnorm - eps), rel=1e-6)
    assert np.allclose(res.x, b * (1 - eps / bnorm), rtol=1e-6)


@pytest.mark.parametrize("solve", [pntm_solve, gbit_solve])
def test_krylov_loop_stops_once_no_root_can_appear(solve):
    # rank 3: the factorization breaks down at k = 3 with phi_3 = ||b - A x_LS||
    # = 2 eps, so the projected discrepancy equation never gets a root
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
    b = rng.standard_normal(40)
    eps = 0.5 * np.linalg.norm(b - A @ np.linalg.lstsq(A, b, rcond=None)[0])
    p = InverseProblem(operator=as_operator(A), b=b, noise_level=eps)
    res = solve(p)
    f = replayed_factorization(p, res.n_outer)
    assert f.breakdown and f.k == 3
    assert not res.converged
    assert res.n_outer <= f.k + 1


def test_projection_consistency_along_run():
    p = random_uniform_problem(80, 50, 0.10, seed=9)
    res = pntm_solve(p)
    A = p.operator
    # final iterate x = V y: projected residual equals lifted residual
    f = replayed_factorization(p, res.n_outer)
    proj = projected_residual_norm(f, f.V.T @ res.x)
    lifted = np.linalg.norm(A.matvec(res.x) - p.b)
    assert abs(proj - lifted) <= 1e-9 * max(1.0, lifted)


def test_trace_projection_consistency_on_inner_rows():
    p = random_uniform_problem(60, 35, 0.10, seed=41)
    res = pntm_solve(p)
    t = res.trace
    res_norms = t.column("res_norm")
    proj = t.column("proj_res")
    assert len(res_norms) > 0
    assert np.isfinite(res_norms).all()
    assert np.isfinite(proj).all()


def test_one_trace_row_per_outer_iteration():
    # alpha is the projected secular root and no Newton step follows it, even
    # at scale 1e6, where a certifying Newton loop took 50 steps an iteration
    p = random_uniform_problem(120, 80, 0.10, seed=7)
    c = 1e6
    res = pntm_solve(InverseProblem(operator=as_operator(c * p.operator.to_dense()),
                                    b=c * p.b, noise_level=c * p.noise_level),
                     PntmConfig(alpha0=c * c))
    assert res.converged
    assert res.trace.column("outer_iter").tolist() == list(range(1, res.n_outer + 1))
    assert not res.trace.column("inner_iter").any()
    assert np.isnan(res.trace.column("gamma")).all()


def test_warm_start_satisfies_projected_normal_equations(rng):
    # replicate the warm-start construction and verify its defining property
    A = rng.standard_normal((25, 15))
    b = rng.standard_normal(25)
    f = BidiagFactorization(A, b, 5)
    for _ in range(5):
        f.expand()
    B, c = f.B, f.c
    alpha = 1.0
    y0 = np.linalg.solve(B.T @ B + alpha * np.eye(f.k), B.T @ c)
    F1, _ = projected_eval_F(B, c, 0.1, y0, alpha)
    assert np.linalg.norm(F1) <= 1e-10 * np.linalg.norm(B.T @ c)


def test_final_alpha_consistent_with_full_tikhonov():
    # at the accepted alpha, a dense re-solve changes the residual by < 1%
    p = random_uniform_problem(120, 80, 0.10, seed=3)
    res = pntm_solve(p)
    assert res.converged
    x_dense = normal_equation_solve(p.operator, p.b, res.alpha)
    res_dense = np.linalg.norm(p.operator.matvec(x_dense) - p.b)
    assert abs(res_dense - res.residual_norm) <= 0.01 * res.residual_norm


def test_monotone_subspace_quality(rng):
    # projected Tikhonov residual at fixed alpha never grows with k
    A = rng.standard_normal((30, 20))
    b = rng.standard_normal(30)
    alpha = 0.5
    f = BidiagFactorization(A, b, 10)
    last = np.inf
    for _ in range(10):
        f.expand()
        B, c = f.B, f.c
        y = np.linalg.solve(B.T @ B + alpha * np.eye(f.k), B.T @ c)
        r = float(np.linalg.norm(B @ y - c))
        assert r <= last + 1e-12
        last = r


@pytest.mark.parametrize("alpha", [1e-320, 1e-3, 1.0, 1e6])
@pytest.mark.parametrize("w", [0.01, 0.5, 0.99])
def test_secular_root_solves_the_projected_discrepancy(rng, w, alpha):
    # eps anywhere in (phi_k, ||c||), the search started below or above the root
    A, b, f = small_factorization(rng, m=30, n=20, steps=6)
    B, c = f.B, f.c
    phi, cnorm = f.lsqr_residual, float(np.linalg.norm(c))
    lam, _, gh, rr = projected_spectrum(B, c, phi)
    eps = phi + w * (cnorm - phi)
    a = secular_root(lam, gh, rr, eps, alpha)
    y = np.linalg.solve(B.T @ B + a * np.eye(f.k), B.T @ c)
    assert a > 0
    assert np.linalg.norm(B @ y - c) == pytest.approx(eps, rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_secular_root_on_square_b(seed):
    # graded columns, fully factored: B is square and phi_k = 0, and eps is
    # 1e-8 ||c||; a residual priced as ||c||^2 minus the fit part lost eps^2
    # to roundoff and walked alpha far below the root
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((12, 12)) * np.logspace(0, -8, 12)
    f = BidiagFactorization(A, rng.standard_normal(12), 12)
    while f.can_expand():
        f.expand()
    B, c = f.B, f.c
    assert B.shape == (12, 12) and f.lsqr_residual == 0.0
    lam, _, gh, rr = projected_spectrum(B, c, 0.0)
    eps = 1e-8 * float(np.linalg.norm(c))
    a = secular_root(lam, gh, rr, eps, 1.0)
    U, s, _ = np.linalg.svd(B)
    res = float(np.linalg.norm(a / (s * s + a) * (U.T @ c)))  # ||B y_a - c||
    assert res == pytest.approx(eps, rel=1e-6)


def _residual_roundoff(r2, cnorm, Bnorm, ynorm):
    """64 eps_mach (r^2 + (||c|| + ||B|| ||y||) ||r||): relative to r^2, plus
    the roundoff of forming B y - c itself, which no pricing beats near the
    least-squares solution of a nearly square B."""
    return 64 * np.finfo(float).eps * (r2 + (cnorm + Bnorm * ynorm) * np.sqrt(r2))


@given(
    st.integers(1, 12),
    st.integers(0, 8),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_projected_pricing_matches_operator_residual(n, extra, log_scale, log_x, near_ls, seed):
    # pntm's and gbit's pricing: the spectrum krylov_loop builds, on an
    # exact least-squares rr as phi_k^2 is; points around 0 or around the
    # least-squares solution. Near it, on a square B with cond 1e3 to 5e3,
    # the price sits about 1e6 eps_mach r^2 off an extended-precision
    # residual: the SVD's backward error times ||B|| ||y||, the bound's
    # roundoff term
    rng = np.random.default_rng(seed)
    c = 10.0**log_scale
    B = c * rng.standard_normal((n + extra, n))
    b = c * rng.standard_normal(n + extra)
    y_ls = np.linalg.lstsq(B, b, rcond=None)[0]
    rr = float(np.linalg.norm(B @ y_ls - b) ** 2)
    lam, Q, gh, phi2 = projected_spectrum(B, b, np.sqrt(rr))
    yh = 10.0**log_x * rng.standard_normal(n) + (y_ls @ Q if near_ls else 0.0)
    y = Q @ yh
    r2 = float(np.linalg.norm(B @ y - b) ** 2)
    got = eigen_residual_sq(lam, gh, phi2, yh)
    bound = _residual_roundoff(r2, np.linalg.norm(b), np.sqrt(lam[-1]), np.linalg.norm(y))
    assert abs(got - r2) <= bound


@pytest.mark.parametrize("noise", [1e-5, 1e-7])
def test_projected_pricing_on_graded_columns(noise):
    # column scales down to 1e-8 and a sine right-hand side: at every k with
    # phi_k < eps (B's cond up to about 2e8), the price of the Tikhonov
    # points around the secular root, and the root's own residual, match
    # ||B y - c||; a spectrum from eigh(B^T B) misses by 9e6-3e8 times this
    # bound, as its small lam_i carry eps_mach lam_max of roundoff
    for seed in range(3):
        A = np.random.default_rng(seed).standard_normal((60, 40)) * np.logspace(0, -8, 40)
        p = sine_wave_problem(A, noise, seed)
        eps = p.discrepancy_target
        f = BidiagFactorization(p.operator, p.b, 40)
        while f.can_expand():
            f.expand()
            if f.lsqr_residual >= eps:
                continue
            B, c = f.B, f.c
            lam, Q, gh, rr = projected_spectrum(B, c, f.lsqr_residual)
            root = secular_root(lam, gh, rr, eps, 1.0)
            for a in (root, 0.1 * root, 10.0 * root):
                yh = gh / (lam + a)
                y = Q @ yh
                r2 = float(np.linalg.norm(B @ y - c) ** 2)
                bound = _residual_roundoff(r2, np.linalg.norm(c), np.sqrt(lam[-1]), np.linalg.norm(y))
                assert abs(eigen_residual_sq(lam, gh, rr, yh) - r2) <= bound, (seed, f.k, a)
                if a == root:
                    assert abs(r2 - eps * eps) <= bound, (seed, f.k)


def test_trace_proj_res_is_the_lsqr_residual():
    # every row of outer iteration k records phi_k = min_z ||B_k z - c||,
    # which a replayed factorization of the same problem reproduces
    raw = random_uniform_problem(210, 150, 0.10, seed=2005)
    p, _ = priorconditioned_problem(raw, RegularizationMatrix(150))
    res = pntm_solve(p)
    outer = res.trace.column("outer_iter")
    proj = res.trace.column("proj_res")
    f = BidiagFactorization(as_operator(p.operator), p.b, res.n_outer)
    phis = []
    for k in range(1, res.n_outer + 1):
        if f.can_expand():
            f.expand()
        phis.append(f.lsqr_residual)
        assert proj[outer == k] == pytest.approx(phis[-1], rel=1e-12, abs=0)
    assert (np.diff(phis) <= 0).all()
    assert phis[0] >= p.discrepancy_target > phis[-1]


def test_outer_budget_exhaustion_flagged():
    p = random_uniform_problem(80, 50, 0.10, seed=12)
    res = pntm_solve(p, PntmConfig(outer_iter_max=2))
    assert not res.converged
    assert res.n_outer == 2
    assert len(res.trace) > 0


@pytest.mark.parametrize("noise", [1e-3, 0.1])
def test_reported_residual_is_the_operators(noise):
    # the trace prices ||B y - c|| in closed form; the result recomputes
    # ||A x - b|| from the lifted x
    p = random_uniform_problem(120, 80, noise, seed=7)
    res = pntm_solve(p)
    recomputed = float(np.linalg.norm(p.operator.matvec(res.x) - p.b))
    assert res.converged
    assert res.residual_norm == pytest.approx(recomputed, rel=1e-12)
    assert res.trace.column("res_norm")[-1] == pytest.approx(recomputed, rel=1e-8)


@pytest.mark.parametrize("seed, pntm_inner, gbit_outer", [(2000, 0, 16), (2001, 0, 16)])
def test_krylov_iteration_counts_pinned(seed, pntm_inner, gbit_outer):
    # the first problems of configs/random_large.cfg
    p = random_uniform_problem(2100, 1500, 0.10, seed=seed)
    res = pntm_solve(p)
    assert res.converged
    assert (res.n_outer, res.n_inner_total) == (16, pntm_inner)
    ref = gbit_solve(p)
    assert ref.converged
    assert ref.n_outer == gbit_outer


@pytest.mark.parametrize("solve", [pntm_solve, gbit_solve])
def test_krylov_solve_makes_one_product_more_than_two_per_iteration(solve):
    # each expansion makes one matvec and one rmatvec; the stop's full-space
    # test takes the rmatvec half of the next expansion, which that
    # expansion reuses, and the reported residual one matvec: 2k + 2 in
    # all, where the projected stop made 2k + 1
    p = random_uniform_problem(2100, 1500, 0.10, seed=2000)
    op, calls = counting_operator(p.operator.to_dense())
    res = solve(InverseProblem(operator=op, b=p.b, noise_level=p.noise_level))
    assert res.converged
    k = res.n_outer
    assert calls == {"gram": 0, "matvec": k + 1, "rmatvec": k + 1}


def test_alpha_stagnation_clause_keeps_the_subspace_growing():
    # configs/sparse_fixture.cfg's seed-1 problem: the residual and the
    # full-space normal residual already meet tol at k = 7, with alpha
    # 25.27; only the alpha clause carries pntm on to k = 11 and 27.22,
    # where the subspace has stopped moving the root
    op = load_matrix_market(FIXTURES / "survey219.mtx")
    p, _ = priorconditioned_problem(sine_wave_problem(op, 0.10, seed=1),
                                    RegularizationMatrix(op.cols))
    res = pntm_solve(p, PntmConfig(inner_cap_large=1000))
    assert res.converged
    assert res.n_outer == 11
    assert res.alpha == pytest.approx(27.2188, rel=1e-4)
    assert gbit_solve(p).n_outer == 12


def test_infeasible_discrepancy_rejected():
    p = InverseProblem(
        operator=as_operator(np.eye(3)), b=np.ones(3), noise_level=5.0
    )
    with pytest.raises(InfeasibleDiscrepancyError):
        pntm_solve(p)


def test_morozov_at_convergence():
    p = random_uniform_problem(150, 90, 0.10, seed=77)
    res = pntm_solve(p)
    assert res.converged
    eps = p.noise_level
    assert abs(res.residual_norm - eps) <= 2e-3 * eps


def test_case1_rule_also_converges():
    p = random_uniform_problem(80, 50, 0.10, seed=15)
    r1 = pntm_solve(p, PntmConfig(step_rule=StepRule(variant="case1")))
    r2 = pntm_solve(p, PntmConfig(step_rule=StepRule(variant="case2")))
    assert r1.converged and r2.converged
    assert r1.alpha == pytest.approx(r2.alpha, rel=1e-3)
    assert r1.n_inner_total >= r2.n_inner_total


def test_pntm_csv_schema(tmp_path):
    p = random_uniform_problem(30, 20, 0.10, seed=1)
    res = pntm_solve(p)
    out = tmp_path / "t.csv"
    res.trace.write_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == (
        "iter,alpha,gamma,res_norm,F_norm,dinv,theta,case_id,dir_norm,"
        "outer_iter,inner_iter,subspace_dim,proj_res"
    )


@pytest.mark.parametrize("seed", [2005, 2008, 2020, 2025, 2027])
def test_smoothed_seeds_converge_in_band(seed):
    # Newton on a projected system without a root (LSQR residual >= eps)
    # let case-3 clipping drive alpha to underflow on 2020, 2025 and 2027
    # (and on 2005 and 2008 under modified Gram-Schmidt); with the gate,
    # alpha is carried until a root exists and every seed converges
    raw = random_uniform_problem(210, 150, 0.10, seed=seed)
    p, _ = priorconditioned_problem(raw, RegularizationMatrix(150))
    res = pntm_solve(p)
    eps = p.discrepancy_target
    assert res.converged
    assert abs(res.residual_norm - eps) <= 2 * 1e-3 * eps


def test_plain_seed_3649_converges_in_band():
    # alpha underflowed here before the gate (SingularJacobianError at
    # alpha = 3.4e-299), although the problem is not smoothed
    p = random_uniform_problem(2100, 1500, 0.10, seed=3649)
    res = pntm_solve(p)
    eps = p.discrepancy_target
    assert res.converged
    assert abs(res.residual_norm - eps) <= 2 * 1e-3 * eps
    assert res.n_outer <= gbit_solve(p).n_outer


@pytest.mark.parametrize("noise", [1e-3, 1e-5])
@pytest.mark.parametrize("seed", [3, 7])
def test_low_noise_converges_in_band(seed, noise):
    # the Newton loop used to stop here on its absolute ||F|| < tol with
    # res/eps at 1.05 / 0.99 (noise 1e-3) and 28 / 49 (noise 1e-5); alpha
    # from the projected secular root puts the residual on eps
    p = random_uniform_problem(300, 200, noise, seed)
    res = pntm_solve(p)
    eps = p.discrepancy_target
    assert res.converged
    assert abs(res.residual_norm - eps) <= 2 * 1e-3 * eps


def test_subnormal_alpha0_reaches_the_same_root():
    # alpha0 = 1e-320 is carried until phi_k < eps and then only starts the
    # secular search, so it ends where alpha0 = 1 does
    raw = random_uniform_problem(210, 150, 0.10, seed=2005)
    p, _ = priorconditioned_problem(raw, RegularizationMatrix(150))
    tiny = pntm_solve(p, PntmConfig(alpha0=1e-320))
    ref = pntm_solve(p, PntmConfig(alpha0=1.0))
    assert tiny.converged and ref.converged
    assert tiny.alpha == pytest.approx(ref.alpha, rel=1e-9)


def projected_newton_solve(problem, cap, tol=1e-3):
    """(result, Newton steps) of the paper's projected Newton method: pntm's
    Krylov loop, taking up to ``cap`` safeguarded Newton steps (case2) from
    the carried alpha once phi_k < eps, with no secular root."""
    eps = problem.discrepancy_target
    steps = 0

    def update(k, spectrum, phi, alpha):
        nonlocal steps
        lam, Q, gh, rr = spectrum
        *_, last = run = list(newton_steps(lam, gh, rr, eps, alpha, StepRule(), tol,
                                           cap if phi < eps else 0))
        steps += len(run) - 1
        F1_norm = float(np.linalg.norm((lam + last.alpha) * last.xh - gh))
        return Q @ last.xh, last.alpha, F1_norm, last.res_norm

    res = krylov_loop(problem, 1.0, tol, 100, SolveTrace(columns=PNTM_COLUMNS), update)
    return res, steps


def test_projected_newton_study():
    # pntm takes alpha from the projected secular root; the paper's Newton
    # steps on the same projected system stay measured here. On random
    # problems they converge at pntm's outer count to within tol of its alpha;
    # on the smoothed fixtures the step bound crawls, as in ntm (ROADMAP item
    # 12), so their counts are only reported
    for seed in (1000, 1001, 1002):
        p = random_uniform_problem(700, 500, 0.10, seed)
        ref = pntm_solve(p)
        res, steps = projected_newton_solve(p, cap=1000)
        print(f"STUDY projected Newton (random 700x500 seed {seed}): {res.n_outer} outer "
              f"(pntm {ref.n_outer}), {steps} steps, alpha gap "
              f"{abs(res.alpha - ref.alpha) / ref.alpha:.2e}")
        assert res.converged and ref.converged
        assert res.n_outer == ref.n_outer
        assert res.alpha == pytest.approx(ref.alpha, rel=1e-3)
    for name in ("survey219", "lattice60"):
        op = load_matrix_market(FIXTURES / f"{name}.mtx")
        p, _ = priorconditioned_problem(sine_wave_problem(op, 0.10, seed=1),
                                        RegularizationMatrix(op.cols))
        res, steps = projected_newton_solve(p, cap=50)
        print(f"STUDY projected Newton (smoothed {name}): {res.n_outer} outer "
              f"(pntm {pntm_solve(p).n_outer}), {steps} steps, converged={res.converged}, "
              f"res/eps {res.residual_norm / p.discrepancy_target:.3g}")
