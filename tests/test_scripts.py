"""Smoke runs of the shipped scripts and the curve subcommand, at tiny sizes.

Each runs in its own interpreter with numpy RuntimeWarnings as errors, so
a script that imports a name the package no longer exports, or prints a
statistic computed from too few samples, fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "script", [["run_sparse_fixture_table.py", "--inner-cap", "10"]], ids=lambda s: s[0]
)
def test_script_runs(script):
    out = run([str(ROOT / "scripts" / script[0]), *script[1:]]).stdout
    assert out.strip() and "nan" not in out


def test_curve_subcommand_on_shipped_config(tmp_path):
    # dcurve.cfg writes to the relative out/dcurve, here under tmp_path
    run(["-m", "tikmor.cli", "curve", str(ROOT / "configs" / "dcurve.cfg")], cwd=tmp_path)
    lines = (tmp_path / "out" / "dcurve" / "curve.csv").read_text().splitlines()
    assert lines[0] == "alpha,res_norm"
    assert len(lines) == 41
