"""The fixtures and output-digest scripts, and the curve subcommand run in
its own interpreter.

``run`` starts an interpreter with numpy RuntimeWarnings as errors, so a
command that computes a statistic from too few samples fails here.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(args, cwd=ROOT, returncode=0, env=()):
    """The finished interpreter run on ``args``, with the variables ``env``
    added to this one's, which must exit with ``returncode``."""
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_make_fixtures_reproduces_committed_files(tmp_path):
    # the fixtures script's promise: a rerun writes the committed bytes
    script = runpy.run_path(str(ROOT / "scripts" / "make_fixtures.py"))
    for name, write in (("survey219", "write_survey"), ("lattice60", "write_lattice")):
        script[write](tmp_path / f"{name}.mtx")
        committed = (ROOT / "tests" / "fixtures" / f"{name}.mtx").read_bytes()
        assert (tmp_path / f"{name}.mtx").read_bytes() == committed, name


def test_curve_subcommand_on_shipped_config(tmp_path):
    # dcurve.cfg writes to the relative out/dcurve, here under tmp_path
    run(["-m", "tikmor.cli", "curve", str(ROOT / "configs" / "dcurve.cfg")], cwd=tmp_path)
    lines = (tmp_path / "out" / "dcurve" / "curve.csv").read_text().splitlines()
    assert lines[0] == "alpha,res_norm"
    assert len(lines) == 41


def test_output_digests_repeat_and_cover_every_csv():
    # the listing is a byte-identity check between checkouts: a rerun of one
    # checkout prints the same text, naming each CSV that run and curve write
    configs = ["configs/sparse_fixture.cfg", "configs/dcurve.cfg"]
    first, second = (run(["scripts/output_digests.py", *configs]).stdout for _ in range(2))
    assert first == second
    listing = dict(reversed(line.split("  ", 1)) for line in first.splitlines())
    assert all(len(digest) == 64 for digest in listing.values())
    names = set(listing)
    for stem in ("sparse_fixture", "dcurve"):
        assert {f"{stem}/runs.csv", f"{stem}/summary.csv"} <= names
        assert any(name.startswith(f"{stem}/traces/") for name in names)
    assert "dcurve/curve.csv" in names
    assert "sparse_fixture/curve.csv" not in names


def test_output_digests_exit_1_on_a_failed_run(tmp_path):
    # noiseless problem: eps = 0 is infeasible for ntm, so run_experiment
    # returns 2 and runs.csv holds an error row; no listing is printed
    cfg = tmp_path / "noiseless.cfg"
    cfg.write_text(
        "[experiment]\nrepetitions = 1\nseed = 1\noutput = out\n\n"
        "[problem]\ntype = sineWave\nm = 20\nn = 10\nnoise = 0.0\n\n"
        "[solver ntm]\nmethod = ntm\n\n"
        "[solver sirt]\nmethod = sirt\nmax_iter = 5\n"
    )
    proc = run(["scripts/output_digests.py", str(cfg)], returncode=1)
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"{cfg}: a solve failed (status 2), so no digest is printed"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs and the affinity call")
def test_output_digests_do_not_depend_on_the_cpu_count():
    # at one BLAS thread a large dense product is split into one block per
    # allowed CPU, bit-identical to the whole product; so an interpreter pinned
    # to one CPU writes what one on every allowed CPU writes
    one_blas = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")}
    args = ["scripts/output_digests.py", "configs/random_large.cfg"]
    pin = (f"import os, runpy, sys; os.sched_setaffinity(os.getpid(), "
           f"{{{min(os.sched_getaffinity(0))}}}); sys.argv = sys.argv[1:]; "
           f"runpy.run_path(sys.argv[0], run_name='__main__')")
    pinned = run(["-c", pin, *args], env=one_blas).stdout
    assert len(pinned.splitlines()) == 12
    assert pinned == run(args, env=one_blas).stdout
