from pathlib import Path

import numpy as np
import pytest

from tikmor import load_problem, random_uniform_problem
from tikmor.cli import (
    ConfigError,
    load_config,
    main,
    sample_discrepancy_curve,
)

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))

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
    assert cfg.problem.kind == "random_uniform"
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


def append_solver(tmp_path, body):
    # valid solvers come first, so nothing may run before the bad one is rejected
    text = BASE_CFG.format(reps=1, out=tmp_path / "o") + f"\n[solver bad]\n{body}\n"
    return write_cfg(tmp_path, text)


@pytest.mark.parametrize(
    "body",
    [
        "method = gbit\nmax_iters = 3",  # typo of max_iter
        "method = pntm\ndinv = lemma_bound",  # ntm-only key
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
    ],
    ids=["experiment", "problem"],
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


def test_solver_error_recorded_per_run(tmp_path):
    # smoothed pntm underflows alpha on this problem and fails with a typed
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

[solver pntm]
method = pntm

[solver gbit]
method = gbit
"""
    out = tmp_path / "out"
    path = write_cfg(tmp_path, cfg.format(out=out))
    assert main(["run", str(path)]) == 2
    runs = (out / "runs.csv").read_text().splitlines()
    assert len(runs) == 3
    pntm_row, gbit_row = runs[1].split(",", 7), runs[2].split(",", 7)
    assert pntm_row[0] == "pntm" and pntm_row[3:7] == ["", "", "", ""]
    assert "not finite" in pntm_row[7]
    assert gbit_row[0] == "gbit" and gbit_row[5] == "1" and gbit_row[7] == ""
