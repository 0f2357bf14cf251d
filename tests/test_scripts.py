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

ROOT = Path(__file__).resolve().parent.parent


def run(args, cwd=ROOT, returncode=0):
    """The finished interpreter run on ``args``, which must exit with ``returncode``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
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
