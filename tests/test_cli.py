import re
from pathlib import Path

import numpy as np
import pytest

from tikmor import (
    InverseProblem,
    LinearOperator,
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


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, path):
    # each study runs end to end: 700x500 becomes 70x50, 2100x1500 210x150
    cfg = write_cfg(tmp_path, shrunk(path.read_text(), tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    labels = [s.label for s in load_config(cfg).solvers]
    assert [ln.split(",")[0] for ln in runs[1:]] == labels * 2


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
    # but sirt (stop_at_discrepancy disabled) still succeeds
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
stop_at_discrepancy = false
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
    # eps = 0: cgls-pc has no discrepancy to stop at, under either branch
    # (wrapping the operator, or plain cgls on a smoothed one); sirt's run stays
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
stop_at_discrepancy = false

[solver cgls-pc]
method = cgls-pc
"""
    assert main(["run", str(write_cfg(tmp_path, cfg))]) == 2
    runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    assert len(runs) == 3
    sirt_row, cgls_row = runs[1].split(",", 7), runs[2].split(",", 7)
    assert sirt_row[0] == "sirt" and sirt_row[3] == "5" and sirt_row[7] == ""
    assert cgls_row[0] == "cgls-pc" and cgls_row[3:7] == ["", "", "", ""]
    assert "discrepancy level must be positive" in cgls_row[7]


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
    p = ProblemSpec("sinewave", m=m, n=n, noise=0.1).build(seed)
    A = p.operator.to_dense()
    replayed = p.sigma * gaussian(Replay((A.ravel()[:m] + 1.0) / 2.0), m)
    assert not np.allclose(p.noise, replayed, rtol=1e-12, atol=0.0)
    assert np.array_equal(p.noise, p.sigma * gaussian(np.random.default_rng(seed), m))
    assert p.seed == seed


def test_curve_subcommand(tmp_path):
    cfg = BASE_CFG.format(reps=1, out=tmp_path / "o") + (
        "\n[curve]\nalpha_min = 0.01\nalpha_max = 10\npoints = 8\nspacing = log\n"
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
method = cgls-pc
max_iter = 200
"""
    out = tmp_path / "o"
    path = write_cfg(tmp_path, cfg.format(out=out))
    assert main(["run", str(path)]) == 0
    runs = (out / "runs.csv").read_text().splitlines()
    assert len(runs) == 2
    assert runs[1].split(",")[5] == "1"  # converged


def test_cgls_pc_same_with_and_without_smooth_precondition(tmp_path):
    # cgls-pc transforms a plain problem itself, and a smoothed one only once
    cfg = """
[experiment]
repetitions = 2
seed = 3
output = {out}

[problem]
type = sineWave
m = 30
n = 20
noise = 0.10
precondition = {precondition}

[solver cgls-pc]
method = cgls-pc
max_iter = 200
"""
    outs = {}
    for precondition in ("none", "smooth"):
        out = tmp_path / precondition
        path = write_cfg(tmp_path, cfg.format(out=out, precondition=precondition),
                         f"{precondition}.cfg")
        assert main(["run", str(path)]) == 0
        outs[precondition] = out
    runs = (outs["none"] / "runs.csv").read_text()
    assert runs == (outs["smooth"] / "runs.csv").read_text()
    assert runs.count("cgls-pc,") == 2
    for rep in range(2):
        trace = f"traces/cgls-pc_rep{rep}.csv"
        assert (outs["none"] / trace).read_bytes() == (outs["smooth"] / trace).read_bytes()


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
    runs = (out / "runs.csv").read_text().splitlines()
    assert len(runs) == 3
    ntm_row, gbit_row = runs[1].split(",", 7), runs[2].split(",", 7)
    assert ntm_row[0] == "ntm" and ntm_row[3:7] == ["", "", "", ""]
    assert "not finite" in ntm_row[7]
    assert gbit_row[0] == "gbit" and gbit_row[5] == "1" and gbit_row[7] == ""


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
    runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    ntm_row, gbit_row = runs[1].split(",", 7), runs[2].split(",", 7)
    assert ntm_row[0] == "ntm" and ntm_row[3:7] == ["", "", "", ""]
    assert "not numerically positive definite" in ntm_row[7]
    assert gbit_row[0] == "gbit" and gbit_row[7] == ""
    assert (tmp_path / "out" / "summary.csv").exists()


def test_curve_forms_gram_once(monkeypatch):
    # more columns than the old 600-column cut-off for reusing the Gram matrix
    calls = []
    gram = LinearOperator.gram
    monkeypatch.setattr(
        LinearOperator, "gram", lambda self: calls.append(1) or gram(self)
    )
    p = random_uniform_problem(610, 601, 0.10, seed=4)
    pts = sample_discrepancy_curve(p, [1e-2, 1.0, 1e2])
    assert len(pts) == 3
    assert len(calls) == 1


def test_curve_applies_operator_once():
    # every grid point is priced in eigen-coordinates: one gram for the
    # eigenpairs, one rmatvec for Q^T A^T b and no matvec
    p = random_uniform_problem(60, 40, 0.10, seed=5)
    op, calls = counting_operator(p.operator.to_dense())
    problem = InverseProblem(operator=op, b=p.b, noise_level=p.noise_level)
    pts = sample_discrepancy_curve(problem, np.geomspace(1e-3, 1e3, 12))
    assert len(pts) == 12
    assert calls == {"gram": 1, "matvec": 0, "rmatvec": 1}


@pytest.mark.parametrize(
    "edit",
    [
        ("[solver ntm-case2]", "[curve]\npoints = 5\nspacing = linaer\n\n[solver ntm-case2]"),
        ("type = randomUniform\nm = 40\nn = 25", "type = sineWave"),
        ("type = randomUniform", "type = matrixmarket"),
        ("type = randomUniform", f"type = matrixmarket\npath = {ROOT / 'tests/fixtures/survey219.mtx'}"),
        ("[solver ntm-case2]", "[curve]\nalphas = 0.1, 1, 10\n\n[solver ntm-case2]"),
        ("type = randomUniform", "type = random_uniform"),
        ("type = randomUniform", "type = sine_wave"),
        ("type = randomUniform", "type = matrix_market\npath = survey219.mtx"),
        ("[solver gbit]", "[solver pntm]\nmethod = pntm\ninner_small = 10\n\n[solver gbit]"),
    ],
    ids=[
        "curve-spacing", "sinewave-without-size", "matrixmarket-without-path",
        "matrixmarket-with-path",
        "curve-alphas", "type-random_uniform", "type-sine_wave", "type-matrix_market",
        "pntm-inner_small",
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


@pytest.mark.parametrize(
    "edit, named",
    [
        (("m = 40", "m = 25x"), ["[problem]", "'m'", "'25x'"]),
        (("repetitions = {reps}", "repetitions = three"), ["[experiment]", "'repetitions'"]),
        (("noise = 0.10", "noise = lots"), ["[problem]", "'noise'", "'lots'"]),
        (("alpha_min = 0.01", "alpha_min = tiny"), ["[curve]", "'alpha_min'", "'tiny'"]),
        (("points = 8", "points = many"), ["[curve]", "'points'", "'many'"]),
        (("output = {out}", "output = out/100%"), ["[experiment]", "'output'"]),
        (("[solver gbit]", "[solver g]\nmethod = ntm\n\n[solver g]"), ["'solver g'"]),
        (("n = 25", "n = 25\nn = 30"), ["'problem'", "'n'"]),
        (("\n[experiment]", "m = 3\n[experiment]"), ["no section headers", "'m = 3"]),
    ],
    ids=[
        "int", "repetitions", "float", "alpha_min", "points", "interpolation",
        "repeated-section", "repeated-key", "key-above-sections",
    ],
)
def test_malformed_config_is_one_config_error(tmp_path, edit, named):
    text = CURVE_CFG.replace(*edit).format(reps=1, out=tmp_path / "o")
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert all(name in str(err.value) for name in named), str(err.value)
    for command in ("run", "curve"):
        proc = run(["-m", "tikmor.cli", command, str(path)], cwd=tmp_path, returncode=1)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("ERROR:") and proc.stderr.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))


def test_undecodable_config_is_config_error(tmp_path):
    # 0xff starts no UTF-8 sequence; read in a one-byte encoding it is no problem type
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"[problem]\ntype = \xff\n")
    with pytest.raises(ConfigError):
        load_config(path)


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
