import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tikmor import (
    DenseOperator,
    InverseProblem,
    as_operator,
    load_problem,
    random_uniform_problem,
    save_problem,
)
from tikmor.problems import gaussian
from tikmor.cli import (
    ConfigError,
    ProblemSpec,
    load_config,
    main,
    sample_discrepancy_curve,
)

from conftest import counting_operator
from oracles import normal_equation_solve
from test_scripts import run

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))

BASE_CFG = """
[experiment]
repetitions = {reps}
seed = 11
output = {out}

[problem]
type = randomUniform
m = 40
n = 25
noise = 0.10

[solver ntm-case2]
method = ntm
rule = case2

[solver gbit]
method = gbit
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# the runs.csv fields that a failed run leaves empty
RESULT_FIELDS = ("iters", "alpha", "converged", "res_norm")


def read_runs(out):
    """The rows of out/runs.csv, each a dict keyed by the header's column names."""
    with open(out / "runs.csv", newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def test_load_config_parses_sections(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(reps=2, out=tmp_path / "o"))
    cfg = load_config(path)
    assert cfg.repetitions == 2
    assert cfg.problem.kind == "randomuniform"
    assert [s.method for s in cfg.solvers] == ["ntm", "gbit"]


def test_invalid_solver_name_fails_before_work(tmp_path):
    bad = BASE_CFG.format(reps=1, out=tmp_path / "o").replace(
        "method = ntm", "method = nosuch"
    )
    path = write_cfg(tmp_path, bad)
    with pytest.raises(ConfigError, match="invalid solver name"):
        load_config(path)
    assert main(["run", str(path)]) == 1


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    cfg = load_config(path)
    assert cfg.solvers


def shrunk(text, out):
    """A shipped config at a tenth of its size, 2 repetitions, writing to out."""
    text = re.sub(r"^([mn]) = (\d+)$", lambda g: f"{g[1]} = {int(g[2]) // 10}", text,
                  flags=re.M)
    text = re.sub(r"^repetitions = .*\n", "", text, flags=re.M)
    text = text.replace("[experiment]", "[experiment]\nrepetitions = 2", 1)
    text = re.sub(r"^output = .*$", f"output = {out}", text, flags=re.M)
    return re.sub(r"^path = (.*)$", lambda g: f"path = {ROOT / g[1]}", text, flags=re.M)


# each solver's rel_error at seed 1, the first repetition, against the sine
# truth, its z mapped back through inv(L)
REL_ERRORS = {
    "sparse_fixture.cfg": {"pntm-case2": 0.03365, "gbit": 0.03365, "cgls-pc": 0.02072},
    "lattice_fixture.cfg": {"pntm-case2": 0.08651, "gbit": 0.08651, "cgls-pc": 0.05957},
}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, path):
    # each study runs end to end: 700x500 becomes 70x50, 2100x1500 210x150
    cfg = write_cfg(tmp_path, shrunk(path.read_text(), tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    runs = read_runs(tmp_path / "out")
    labels = [s.label for s in load_config(cfg).solvers]
    assert [r["method"] for r in runs] == labels * 2
    if path.name in REL_ERRORS:
        got = {r["method"]: float(r["rel_error"]) for r in runs if r["seed"] == "1"}
        assert got == pytest.approx(REL_ERRORS[path.name], abs=5e-6)


def run_saved(tmp_path, problem, solvers):
    """``tikmor run``'s exit code on the problem saved as a directory, with the
    given [solver <label>] sections; the outputs go to tmp_path / "out"."""
    save_problem(problem, tmp_path / "prob")
    cfg = (f"[experiment]\noutput = {tmp_path / 'out'}\n\n[problem]\ntype = directory\n"
           f"path = {tmp_path / 'prob'}\n\n{solvers}")
    return main(["run", str(write_cfg(tmp_path, cfg))])


@pytest.mark.parametrize("truth", [None, np.zeros(20)], ids=["none", "zero"])
def test_rel_error_empty_without_truth(tmp_path, truth):
    p = random_uniform_problem(30, 20, 0.10, seed=2)
    p.ground_truth = truth
    assert run_saved(tmp_path, p, "[solver gbit]\nmethod = gbit\n") == 0
    (row,) = read_runs(tmp_path / "out")
    assert row["converged"] == "1" and row["rel_error"] == ""


def test_error_with_comma_stays_one_field(tmp_path):
    # the ntm and gbit messages read "||b|| = inf, eps = ...: not finite"
    p = random_uniform_problem(30, 20, 0.10, seed=2)
    p.b[0] = np.inf
    solvers = "[solver ntm]\nmethod = ntm\n\n[solver gbit]\nmethod = gbit\n"
    assert run_saved(tmp_path, p, solvers) == 2
    rows = read_runs(tmp_path / "out")
    assert [r["method"] for r in rows] == ["ntm", "gbit"]
    for row in rows:
        assert None not in row  # no field beyond the header
        assert "inf, eps" in row["error"] and row["error"].endswith("not finite")
        assert row["rel_error"] == ""


def append_solver(tmp_path, body):
    # valid solvers come first, so nothing may run before the bad one is rejected
    text = BASE_CFG.format(reps=1, out=tmp_path / "o") + f"\n[solver bad]\n{body}\n"
    return write_cfg(tmp_path, text)


@pytest.mark.parametrize(
    "body",
    [
        "method = gbit\nmax_iters = 3",  # typo of max_iter
        "method = pntm\nmax_iter = 3",  # a key of ntm and gbit, not pntm
        "method = ntm\ndinv = lemma_bound",  # removed: ||D^-1|| is priced exactly
        # removed from pntm with its Newton loop: alpha is the projected secular root
        "method = pntm\ninner_large = 1000",
        "method = pntm\nrule = case2",
        "method = pntm\nomega = 0.9",
    ],
)
def test_unknown_solver_key_fails_before_work(tmp_path, body):
    path = append_solver(tmp_path, body)
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    assert main(["run", str(path)]) == 1
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "typo",
    [
        ("repetitions = {reps}", "repetition = 3"),  # [experiment]
        ("noise = 0.10", "noize = 0.5"),  # [problem], next to a valid noise
        ("noise = 0.10", "rhs = sine"),  # removed: the sine rhs is the only recipe
    ],
    ids=["experiment", "problem", "problem-rhs"],
)
def test_unknown_section_key_fails_before_work(tmp_path, typo):
    old, new = typo
    text = BASE_CFG.replace(old, old + "\n" + new).format(reps=1, out=tmp_path / "o")
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=f"unknown key {new.split()[0]!r}"):
        load_config(path)
    assert main(["run", str(path)]) == 1
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "body", ["method = ntm\nrule = case3", "method = gbit\nmax_iter = many"]
)
def test_bad_solver_value_fails_before_work(tmp_path, body):
    path = append_solver(tmp_path, body)
    with pytest.raises(ConfigError, match="invalid value"):
        load_config(path)
    assert main(["run", str(path)]) == 1
    assert not list(tmp_path.rglob("*.csv"))


def test_missing_problem_section(tmp_path):
    path = write_cfg(tmp_path, "[solver a]\nmethod = ntm\n")
    with pytest.raises(ConfigError, match="problem"):
        load_config(path)


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, BASE_CFG.format(reps=2, out=out))
    assert main(["run", str(path)]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,mean_iters,sd_iters,mean_alpha,sd_alpha,n_runs,n_failed"
    assert len(summary) == 3
    runs = (out / "runs.csv").read_text().splitlines()
    assert len(runs) == 1 + 2 * 2  # header + reps * solvers
    traces = sorted((out / "traces").glob("*.csv"))
    assert len(traces) == 4
    manifest = (out / "manifest.txt").read_text()
    assert "seeds=11,12" in manifest
    assert "config.problem.type=randomUniform" in manifest


def test_run_deterministic_summary_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = write_cfg(tmp_path, BASE_CFG.format(reps=2, out=out1), "a.cfg")
    p2 = write_cfg(tmp_path, BASE_CFG.format(reps=2, out=out2), "b.cfg")
    assert main(["run", str(p1)]) == 0
    assert main(["run", str(p2)]) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()


def test_partial_failure_exit_code(tmp_path):
    # noiseless problem: eps = 0 is infeasible for the Newton solvers,
    # but sirt still succeeds, running to its budget
    cfg = """
[experiment]
repetitions = 1
seed = 1
output = {out}

[problem]
type = sineWave
m = 20
n = 10
noise = 0.0

[solver ntm]
method = ntm

[solver sirt]
method = sirt
max_iter = 5
"""
    out = tmp_path / "out"
    path = write_cfg(tmp_path, cfg.format(out=out))
    assert main(["run", str(path)]) == 2
    runs = (out / "runs.csv").read_text()
    assert "discrepancy" in runs  # recorded error message
    summary = (out / "summary.csv").read_text().splitlines()
    ntm_row = [ln for ln in summary if ln.startswith("ntm")][0]
    assert ntm_row.endswith(",0,1")  # n_runs=0, n_failed=1


@pytest.mark.parametrize("precondition", ["none", "smooth"])
def test_cgls_pc_without_noise_recorded_per_run(tmp_path, precondition):
    # eps = 0: cgls has no discrepancy to stop at, on the plain problem or on
    # the smoothed one (CGLS-PC); sirt's run stays, running to its budget
    cfg = f"""
[experiment]
output = {tmp_path / "out"}

[problem]
type = sineWave
m = 20
n = 10
noise = 0.0
precondition = {precondition}

[solver sirt]
method = sirt
max_iter = 5

[solver cgls]
method = cgls
"""
    assert main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    runs = read_runs(tmp_path / "out")
    assert len(runs) == 2
    sirt_row, cgls_row = runs
    assert sirt_row["method"] == "sirt" and sirt_row["iters"] == "5" and sirt_row["error"] == ""
    assert cgls_row["method"] == "cgls"
    assert [cgls_row[f] for f in RESULT_FIELDS] == ["", "", "", ""]
    assert "discrepancy level must be positive" in cgls_row["error"]


def test_sine_wave_noise_independent_of_matrix():
    # the matrix and the noise share no uniforms: A's entries replayed through
    # Box-Muller must not give the noise
    class Replay:
        def __init__(self, u):
            self.u = u

        def random(self, k):
            out, self.u = self.u[:k], self.u[k:]
            return out

    m, n, seed = 20, 10, 1
    p = ProblemSpec("sinewave", m=m, n=n, noise=0.1).build(seed)[0]
    A = p.operator.to_dense()
    replayed = p.sigma * gaussian(Replay((A.ravel()[:m] + 1.0) / 2.0), m)
    assert not np.allclose(p.b, p.b_exact + replayed, rtol=1e-12, atol=0.0)
    assert np.array_equal(p.b, p.b_exact + p.sigma * gaussian(np.random.default_rng(seed), m))
    assert p.seed == seed


def test_curve_subcommand(tmp_path):
    cfg = BASE_CFG.format(reps=1, out=tmp_path / "o") + (
        "\n[curve]\nalpha_min = 0.01\nalpha_max = 10\npoints = 8\n"
    )
    path = write_cfg(tmp_path, cfg)
    assert main(["curve", str(path)]) == 0
    lines = (tmp_path / "o" / "curve.csv").read_text().splitlines()
    assert lines[0] == "alpha,res_norm"
    assert len(lines) == 9
    residuals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_gen_subcommand_round_trips(tmp_path):
    out = tmp_path / "prob"
    path = write_cfg(tmp_path, BASE_CFG.format(reps=1, out=out))
    assert main(["gen", str(path)]) == 0
    p = load_problem(out)
    q = random_uniform_problem(40, 25, 0.10, seed=11)
    assert np.array_equal(p.operator.to_dense(), q.operator.to_dense())
    assert np.array_equal(p.b, q.b)


def test_gen_then_run_matches_generator_config(tmp_path):
    # gen writes the problem as built, A with its truth: run on that directory
    # smooths it once, as the generator config does
    def config(out, problem):
        text = ("[experiment]\nseed = 3\noutput = {}\n\n[problem]\n{}\nprecondition = smooth\n"
                "\n[solver pntm]\nmethod = pntm\n\n[solver gbit]\nmethod = gbit\n")
        return str(write_cfg(tmp_path, text.format(tmp_path / out, problem), f"{out}.cfg"))

    sine = "type = sineWave\nm = 60\nn = 40"
    assert main(["gen", config("prob", sine)]) == 0
    assert main(["run", config("a", sine)]) == 0
    assert main(["run", config("b", f"type = directory\npath = {tmp_path / 'prob'}")]) == 0
    assert (tmp_path / "a" / "runs.csv").read_bytes() == (tmp_path / "b" / "runs.csv").read_bytes()
    assert all(row["rel_error"] for row in read_runs(tmp_path / "b"))


@pytest.mark.parametrize(
    "case", ["noise", "sine-noise", "sine-noise-nan", "epsilon", "epsilon-nan"]
)
def test_failed_build_is_one_error_and_no_output(tmp_path, caplog, case):
    # the first problem is built before any output directory is made
    if case == "noise":
        problem = "type = randomUniform\nm = 30\nn = 20\nnoise = 1.5"
        message = "noise fraction must lie in (0, 1)"
    elif case.startswith("sine-noise"):
        noise = "nan" if case.endswith("nan") else "1.5"
        problem = f"type = sineWave\nm = 30\nn = 20\nnoise = {noise}"
        message = "noise fraction must lie in [0, 1)"
    else:
        save_problem(random_uniform_problem(30, 20, 0.10, seed=2), tmp_path / "prob")
        meta = tmp_path / "prob" / "meta.txt"
        lines = meta.read_text().splitlines(keepends=True)
        if case == "epsilon":
            meta.write_text("".join(ln for ln in lines if not ln.startswith("epsilon=")))
            message = f"{meta} has no 'epsilon' line"
        else:
            meta.write_text("".join("epsilon=nan\n" if ln.startswith("epsilon=") else ln
                                    for ln in lines))
            message = f"{meta}: noise level must be finite and >= 0, got nan"
        problem = f"type = directory\npath = {tmp_path / 'prob'}"
    cfg = (f"[experiment]\noutput = {tmp_path / 'out'}\n\n[problem]\n{problem}\n\n"
           "[solver gbit]\nmethod = gbit\n")
    assert main(["run", str(write_cfg(tmp_path, cfg))]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]
    assert not (tmp_path / "out").exists()


def test_discrepancy_curve_identity_value():
    from tikmor import InverseProblem, as_operator

    p = InverseProblem(operator=as_operator(np.eye(1)), b=np.array([2.0]), noise_level=0.5)
    pts = sample_discrepancy_curve(p, [1.0])
    # residual = alpha ||b|| / (1 + alpha)
    assert pts[0][1] == pytest.approx(1.0, rel=1e-12)


def test_discrepancy_curve_monotone_and_limits(rng):
    p = random_uniform_problem(30, 18, 0.10, seed=8)
    grid = np.geomspace(1e-6, 1e6, 20)
    pts = sample_discrepancy_curve(p, grid)
    residuals = np.array([r for _, r in pts])
    assert (np.diff(residuals) >= -1e-10 * residuals.max()).all()
    # alpha -> 0 limit approaches the unregularized least-squares residual
    A = p.operator.to_dense()
    lsres = np.linalg.norm(A @ np.linalg.lstsq(A, p.b, rcond=None)[0] - p.b)
    assert residuals[0] == pytest.approx(lsres, rel=1e-6)
    # alpha -> inf limit approaches ||b||
    assert residuals[-1] <= np.linalg.norm(p.b)
    assert residuals[-1] == pytest.approx(np.linalg.norm(p.b), rel=1e-3)


def test_discrepancy_curve_matches_cholesky_solves():
    p = random_uniform_problem(60, 40, 0.10, seed=6)
    A = p.operator.to_dense()
    grid = np.geomspace(1e-3, 1e4, 15)
    pts = sample_discrepancy_curve(p, grid)
    for (alpha, res), a in zip(pts, grid):
        x = normal_equation_solve(A, p.b, a)
        assert alpha == a
        assert res == pytest.approx(np.linalg.norm(A @ x - p.b), rel=1e-12)


def test_discrepancy_curve_rejects_bad_grids():
    p = random_uniform_problem(10, 6, 0.10, seed=1)
    with pytest.raises(ValueError):
        sample_discrepancy_curve(p, [1.0, 0.5])
    with pytest.raises(ValueError):
        sample_discrepancy_curve(p, [-1.0, 1.0])
    for grid in ([np.nan, 1.0], [1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="positive and finite"):
            sample_discrepancy_curve(p, grid)
    with pytest.raises(ValueError, match="nonempty"):
        sample_discrepancy_curve(p, [])


def test_precondition_smooth_problem(tmp_path):
    cfg = """
[experiment]
repetitions = 1
seed = 1
output = {out}

[problem]
type = sineWave
m = 30
n = 20
noise = 0.10
precondition = smooth

[solver cgls-pc]
method = cgls
max_iter = 200
"""
    out = tmp_path / "o"
    path = write_cfg(tmp_path, cfg.format(out=out))
    assert main(["run", str(path)]) == 0
    runs = read_runs(out)
    assert len(runs) == 1
    assert runs[0]["converged"] == "1"


def test_solver_error_recorded_per_run(tmp_path):
    # ntm started at a subnormal alpha fails at its first step with a typed
    # error; the batch still finishes and reports gbit's run
    cfg = """
[experiment]
repetitions = 1
seed = 2005
output = {out}

[problem]
type = randomUniform
m = 210
n = 150
noise = 0.10
precondition = smooth

[solver ntm]
method = ntm
alpha0 = 1e-320

[solver gbit]
method = gbit
"""
    out = tmp_path / "out"
    path = write_cfg(tmp_path, cfg.format(out=out))
    assert main(["run", str(path)]) == 2
    runs = read_runs(out)
    assert len(runs) == 2
    ntm_row, gbit_row = runs
    assert ntm_row["method"] == "ntm" and [ntm_row[f] for f in RESULT_FIELDS] == ["", "", "", ""]
    assert "not finite" in ntm_row["error"]
    assert gbit_row["method"] == "gbit" and gbit_row["converged"] == "1"
    assert gbit_row["error"] == ""


def test_unknown_section_fails_before_work(tmp_path):
    text = BASE_CFG.format(reps=1, out=tmp_path / "o") + "\n[experimnt]\nrepetitions = 3\n"
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=r"unknown section \[experimnt\]"):
        load_config(path)
    assert main(["run", str(path)]) == 1
    assert not list(tmp_path.rglob("*.csv"))


def test_not_positive_definite_start_recorded_per_run(tmp_path):
    # the first two columns are equal with squared norm 16, so the start
    # point's Cholesky of A^T A + 1e-16 I meets the exact pivot 16 - 16 = 0
    rng = np.random.default_rng(3)
    A = rng.uniform(-1.0, 1.0, (30, 10))
    A[:, 0] = A[:, 1] = np.where(np.arange(30) < 16, 1.0, 0.0)
    b = A @ rng.uniform(-1.0, 1.0, 10) + 0.1 * rng.standard_normal(30)
    save_problem(InverseProblem(as_operator(A), b, noise_level=0.1), tmp_path / "prob")
    cfg = f"""
[experiment]
output = {tmp_path / "out"}

[problem]
type = directory
path = {tmp_path / "prob"}

[solver ntm]
method = ntm
alpha0 = 1e-16

[solver gbit]
method = gbit
"""
    assert main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    ntm_row, gbit_row = read_runs(tmp_path / "out")
    assert ntm_row["method"] == "ntm" and [ntm_row[f] for f in RESULT_FIELDS] == ["", "", "", ""]
    assert "not numerically positive definite" in ntm_row["error"]
    assert gbit_row["method"] == "gbit" and gbit_row["error"] == ""
    assert (tmp_path / "out" / "summary.csv").exists()


def test_curve_forms_gram_once(monkeypatch):
    # more columns than the old 600-column cut-off for reusing the Gram matrix,
    # which gram_spectrum forms from one to_dense
    calls = []
    to_dense = DenseOperator.to_dense
    monkeypatch.setattr(
        DenseOperator, "to_dense", lambda self: calls.append(1) or to_dense(self)
    )
    p = random_uniform_problem(610, 601, 0.10, seed=4)
    pts = sample_discrepancy_curve(p, [1e-2, 1.0, 1e2])
    assert len(pts) == 3
    assert len(calls) == 1


def test_curve_applies_operator_once():
    # every grid point is priced in eigen-coordinates: one to_dense for the
    # Gram matrix's eigenpairs, one rmatvec for Q^T A^T b and no matvec
    p = random_uniform_problem(60, 40, 0.10, seed=5)
    op, calls = counting_operator(p.operator.to_dense())
    problem = InverseProblem(operator=op, b=p.b, noise_level=p.noise_level)
    pts = sample_discrepancy_curve(problem, np.geomspace(1e-3, 1e3, 12))
    assert len(pts) == 12
    assert calls == {"to_dense": 1, "matvec": 0, "rmatvec": 1}


@pytest.mark.parametrize(
    "edit",
    [
        ("[solver ntm-case2]", "[curve]\npoints = 5\nspacing = log\n\n[solver ntm-case2]"),
        ("type = randomUniform\nm = 40\nn = 25", "type = sineWave"),
        ("type = randomUniform", "type = matrixmarket"),
        ("type = randomUniform", f"type = matrixmarket\npath = {ROOT / 'tests/fixtures/survey219.mtx'}"),
        ("[solver ntm-case2]", "[curve]\nalphas = 0.1, 1, 10\n\n[solver ntm-case2]"),
        ("type = randomUniform", "type = random_uniform"),
        ("type = randomUniform", "type = sine_wave"),
        ("type = randomUniform", "type = matrix_market\npath = survey219.mtx"),
        ("[solver gbit]", "[solver pntm]\nmethod = pntm\ninner_small = 10\n\n[solver gbit]"),
        ("[solver ntm-case2]", "[curve]\npoints = 0\n\n[solver ntm-case2]"),
    ],
    ids=[
        "curve-spacing", "sinewave-without-size", "matrixmarket-without-path",
        "matrixmarket-with-path",
        "curve-alphas", "type-random_uniform", "type-sine_wave", "type-matrix_market",
        "pntm-inner_small", "curve-points-0",
    ],
)
def test_bad_problem_or_curve_fails_before_work(tmp_path, edit):
    text = BASE_CFG.format(reps=1, out=tmp_path / "o").replace(*edit)
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError):
        load_config(path)
    for command in ("run", "curve"):
        assert main([command, str(path)]) == 1
    assert not list(tmp_path.rglob("*.csv"))


CURVE_CFG = BASE_CFG + "\n[curve]\nalpha_min = 0.01\npoints = 8\n"


# id -> (edit of CURVE_CFG, what the error must name)
MALFORMED = {
    "int": (("m = 40", "m = 25x"), ["[problem]", "'m'", "'25x'"]),
    "repetitions": (("repetitions = {reps}", "repetitions = three"),
                    ["[experiment]", "'repetitions'"]),
    "float": (("noise = 0.10", "noise = lots"), ["[problem]", "'noise'", "'lots'"]),
    "alpha_min": (("alpha_min = 0.01", "alpha_min = tiny"), ["[curve]", "'alpha_min'", "'tiny'"]),
    "points": (("points = 8", "points = many"), ["[curve]", "'points'", "'many'"]),
    "interpolation": (("output = {out}", "output = out/100%"), ["[experiment]", "'output'"]),
    "repeated-section": (("[solver gbit]", "[solver g]\nmethod = ntm\n\n[solver g]"),
                         ["'solver g'"]),
    "repeated-key": (("n = 25", "n = 25\nn = 30"), ["'problem'", "'n'"]),
    "key-above-sections": (("\n[experiment]", "m = 3\n[experiment]"),
                           ["no section headers", "'m = 3"]),
    "negative-seed": (("seed = 11", "seed = -4"), ["[experiment]", "'seed'", "-4"]),
    "zero-repetitions": (("repetitions = {reps}", "repetitions = 0"),
                         ["[experiment]", "'repetitions'"]),
    "descending-curve": (("alpha_min = 0.01", "alpha_min = 10\nalpha_max = 1"),
                         ["[curve]", "ascending"]),
    # the method cgls-pc is now cgls on a problem with precondition = smooth
    "method-cgls-pc": (("method = gbit", "method = cgls-pc"),
                       ["[solver gbit]", "'cgls-pc'", "ntm, pntm, gbit, sirt, cgls"]),
    # NaN and inf parse as floats; each option's domain rejects them
    "alpha0-nan": (("method = gbit", "method = gbit\nalpha0 = nan"),
                   ["[solver gbit]", "alpha0", "nan"]),
    "tol-inf": (("rule = case2", "rule = case2\ntol = inf"),
                ["[solver ntm-case2]", "tol", "inf"]),
    "cgls-max_iter-zero": (("[solver gbit]",
                            "[solver cgls]\nmethod = cgls\nmax_iter = 0\n\n[solver gbit]"),
                           ["[solver cgls]", "'max_iter'", "0 is less than 1"]),
    "sirt-max_iter-negative": (("[solver gbit]",
                                "[solver sirt]\nmethod = sirt\nmax_iter = -1\n\n[solver gbit]"),
                               ["[solver sirt]", "'max_iter'", "-1 is less than 1"]),
    "alpha_min-nan": (("alpha_min = 0.01", "alpha_min = nan"), ["[curve]", "'alpha_min'", "nan"]),
    "alpha_max-inf": (("alpha_min = 0.01", "alpha_min = 0.01\nalpha_max = inf"),
                      ["[curve]", "'alpha_max'", "inf"]),
    # the unlabelled [solver], the second section, is labelled solver1
    "duplicate-labels": (("[solver gbit]", "[solver]\nmethod = sirt\n\n[solver solver1]\n"
                          "method = sirt\n\n[solver gbit]"),
                         ["duplicate solver labels", "'solver1', 'solver1'"]),
    "directory-without-path": (("type = randomUniform", "type = directory"),
                               ["problem type directory needs a path"]),
}

# main(argv) for every argv in one interpreter, each with its own stderr; the
# handlers are cleared so that main's basicConfig binds the new one
ONE_INTERPRETER = """
import io, json, logging, sys, traceback
from tikmor.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    sys.stderr = io.StringIO()
    logging.root.handlers.clear()
    try:
        code = main(argv)
    except BaseException:
        traceback.print_exc()
        code = None
    results.append([code, sys.stderr.getvalue()])
sys.stdout.write(json.dumps(results))
"""


@pytest.fixture(scope="module")
def malformed_runs(tmp_path_factory):
    """id -> (its directory, {command: (exit code, stderr)}) for each MALFORMED
    config under run and curve, every command from one interpreter."""
    root = tmp_path_factory.mktemp("malformed")
    argvs = []
    for case, (edit, _) in MALFORMED.items():
        (root / case).mkdir()
        text = CURVE_CFG.replace(*edit).format(reps=1, out=root / case / "o")
        path = str(write_cfg(root / case, text))
        argvs += [[command, path] for command in ("run", "curve")]
    proc = run(["-c", ONE_INTERPRETER, json.dumps(argvs)], cwd=root)
    results = iter(json.loads(proc.stdout))
    return {case: (root / case, dict(zip(("run", "curve"), results))) for case in MALFORMED}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_config_is_one_config_error(malformed_runs, case):
    named = MALFORMED[case][1]
    directory, outcomes = malformed_runs[case]
    with pytest.raises(ConfigError) as err:
        load_config(directory / "exp.cfg")
    assert all(name in str(err.value) for name in named), str(err.value)
    for command, (code, stderr) in outcomes.items():
        assert code == 1, (command, stderr)
        assert "Traceback" not in stderr
        assert stderr.startswith("ERROR:") and stderr.count("\n") == 1
    assert not list(directory.rglob("*.csv"))


@pytest.mark.parametrize(
    "method, line, message",
    [
        ("pntm", "outer_max = 0", "outer_max must be >= 1, got 0"),
        ("ntm", "rule = case3", "rule must be case1 or case2, got 'case3'"),
        ("ntm", "rule = variant", "rule must be case1 or case2, got 'variant'"),
        ("ntm", "omega = 1.0", "omega must lie strictly inside (0, 1)"),
    ],
    ids=["outer_max", "rule", "rule-value-is-a-field", "omega"],
)
def test_solver_option_error_names_ini_key(tmp_path, caplog, method, line, message):
    # PntmConfig and StepRule name their fields; the error names the key
    # written and echoes the value as written, even one that is a field's name
    text = BASE_CFG.format(reps=1, out=tmp_path / "o").replace(
        "[solver gbit]", f"[solver p]\nmethod = {method}\n{line}\n\n[solver gbit]"
    )
    assert main(["run", str(write_cfg(tmp_path, text))]) == 1
    [logged] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert logged == f"invalid value in [solver p]: {message}"


def test_undecodable_config_is_config_error(tmp_path):
    # 0xff starts no UTF-8 sequence; read in a one-byte encoding it is no problem type
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"[problem]\ntype = \xff\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("run", None, "cannot read config file"),
        ("curve", BASE_CFG, "curve subcommand needs a [curve] section"),
    ],
    ids=["unreadable-file", "curve-without-section"],
)
def test_config_fault_is_one_logged_error(tmp_path, caplog, command, text, message):
    path = tmp_path / "exp.cfg"
    if text is not None:
        path.write_text(text.format(reps=1, out=tmp_path / "o"))
    assert main([command, str(path)]) == 1
    [logged] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message in logged
    assert not (tmp_path / "o").exists()


def test_curve_and_gen_read_no_solver_section(tmp_path, monkeypatch):
    # no [experiment] either: everything goes to the default output, out/
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, "[problem]\ntype = randomUniform\nm = 30\nn = 20\n"
                               "\n[curve]\npoints = 5\n")
    assert main(["run", str(path)]) == 1
    assert not list(tmp_path.rglob("*.csv")) and not (tmp_path / "out").exists()
    assert main(["gen", str(path)]) == 0
    assert load_problem(tmp_path / "out").operator.shape == (30, 20)
    assert main(["curve", str(path)]) == 0
    assert len((tmp_path / "out" / "curve.csv").read_text().splitlines()) == 6
