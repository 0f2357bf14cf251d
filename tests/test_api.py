"""The package's public names: everything exported resolves, and the
Newton-kernel wrappers that only tests used are not exported."""

import os
import subprocess
import sys
from pathlib import Path

import tikmor

REMOVED = (
    "eval_F",
    "solve_newton_system",
    "projected_newton_system",
    "PntmResult",
    "GbitResult",
    "normal_equation_solve",
)


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from tikmor import *", namespace)
    for name in tikmor.__all__:
        assert name in namespace
        assert getattr(tikmor, name) is namespace[name]
    assert len(set(tikmor.__all__)) == len(tikmor.__all__)


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in tikmor.__all__
        assert not hasattr(tikmor, name)


def test_import_does_not_load_scipy_linalg():
    # every Tikhonov solve runs in an eigenbasis from numpy's eigh; scipy.linalg
    # would add its import time and resident memory to every run
    code = "import sys, tikmor, tikmor.cli; print('scipy.linalg' in sys.modules)"
    src = str(Path(tikmor.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
