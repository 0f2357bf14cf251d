"""Synthetic inverse-problem generation with seeded, reproducible noise.

The noise recipe is fixed across generators: Gaussian noise with
sigma = noise_fraction * ||b_exact|| / sqrt(m), and the discrepancy level
recorded as the deterministic value eps = sigma * sqrt(m)
(= noise_fraction * ||b_exact|| exactly), not the realized ||e||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DimensionError, TikmorError
from .linop import (
    DenseOperator,
    LinearOperator,
    PriorconditionedOperator,
    as_operator,
    load_matrix_market,
    save_matrix_market,
)


def gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via Box-Muller on the generator's uniform stream.

    Pinning the transform (rather than the generator's native normal
    sampler) keeps noise draws reproducible from the documented recipe.
    """
    pairs = (size + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1]: log is finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2 * np.pi * u2), radius * np.sin(2 * np.pi * u2)])
    return z[:size]


@dataclass
class InverseProblem:
    """A linear inverse problem A x = b with a known discrepancy level."""

    operator: LinearOperator
    b: np.ndarray
    noise_level: float  # eps: target for ||A x - b||
    eta: float = 1.0  # discrepancy-principle tolerance factor, >= 1
    ground_truth: Optional[np.ndarray] = None
    b_exact: Optional[np.ndarray] = None
    noise: Optional[np.ndarray] = None
    sigma: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.operator.rows,):
            raise DimensionError(
                f"rhs length {self.b.shape} does not match operator rows {self.operator.rows}"
            )
        if not (self.noise_level >= 0 and math.isfinite(self.noise_level)):  # NaN fails
            raise ValueError(f"noise level must be finite and >= 0, got {self.noise_level}")
        if not (self.eta >= 1 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite and >= 1, got {self.eta}")

    @property
    def discrepancy_target(self) -> float:
        return self.eta * self.noise_level


@dataclass
class RelativeStats:
    """Reconstruction quality relative to the data and ground truth."""

    rel_discrepancy: float
    rel_residual: float
    rel_error: Optional[float] = None  # None without a nonzero ground truth


def uniform_operator(rng: np.random.Generator, m: int, n: int) -> DenseOperator:
    """i.i.d. U(-1, 1) entries, bitwise 2.0 * rng.random((m, n)) - 1.0, built in place."""
    M = rng.random((m, n))
    M *= 2.0
    M -= 1.0
    M.setflags(write=False)
    return DenseOperator(M)


def _add_noise(operator, x_exact, noise_fraction, rng, seed) -> InverseProblem:
    """The problem with b = A x_exact plus noise by the module's recipe."""
    b_exact = operator.matvec(x_exact)
    m = operator.rows
    nrm = np.linalg.norm(b_exact)
    sigma = noise_fraction * nrm / np.sqrt(m)
    e = sigma * gaussian(rng, m) if noise_fraction > 0 else np.zeros(m)
    return InverseProblem(
        operator=operator,
        b=b_exact + e,
        noise_level=sigma * np.sqrt(m),  # == noise_fraction * ||b_exact|| exactly
        ground_truth=x_exact,
        b_exact=b_exact,
        noise=e,
        sigma=sigma,
        seed=seed,
    )


def random_uniform_problem(m, n, noise_fraction, seed) -> InverseProblem:
    """Dense A and ground truth with i.i.d. U(-1, 1) entries."""
    if m < n:
        raise DimensionError(f"need m >= n, got m={m}, n={n}")
    if not (0 < noise_fraction < 1):
        raise ValueError("noise fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    A = uniform_operator(rng, m, n)
    x_exact = 2.0 * rng.random(n) - 1.0
    return _add_noise(A, x_exact, noise_fraction, rng, seed)


def sine_wave_problem(A, noise_fraction, seed) -> InverseProblem:
    """Smooth sine ground truth x_i = sin(i h), h = 2 pi / (n + 1)."""
    A = as_operator(A)
    n = A.cols
    h = 2.0 * np.pi / (n + 1)
    x_exact = np.sin(h * np.arange(1, n + 1))
    return _add_noise(A, x_exact, noise_fraction, np.random.default_rng(seed), seed)


def relative_stats(problem: InverseProblem, x) -> RelativeStats:
    x = np.asarray(x, dtype=float)
    bnorm = np.linalg.norm(problem.b)
    rel_disc = problem.noise_level / bnorm
    rel_res = np.linalg.norm(problem.operator.matvec(x) - problem.b) / bnorm
    rel_err = None
    if problem.ground_truth is not None:
        tnorm = np.linalg.norm(problem.ground_truth)
        if tnorm > 0:
            rel_err = float(np.linalg.norm(x - problem.ground_truth) / tnorm)
    return RelativeStats(float(rel_disc), float(rel_res), rel_err)


def priorconditioned_problem(problem: InverseProblem, reg):
    """Rewrite the problem in standard form through the smoothing prior L.

    Returns the problem A inv(L) z = b (same ``b`` and discrepancy level,
    so residual norms agree) and ``reg.solve``, the map x = inv(L) z back
    from its solutions. This is the one place the transform is applied.
    """
    transformed = InverseProblem(
        operator=PriorconditionedOperator(as_operator(problem.operator), reg),
        b=problem.b,
        noise_level=problem.noise_level,
        eta=problem.eta,
        seed=problem.seed,
    )
    return transformed, reg.solve


# -- directory serialization --------------------------------------------------


def _write_vector(path, v):
    with open(path, "w", encoding="ascii") as fh:
        for val in np.asarray(v, dtype=float):
            fh.write(f"{float(val)!r}\n")


def _read_vector(path):
    with open(path, "r", encoding="ascii") as fh:
        return np.array([float(ln) for ln in fh if ln.strip()], dtype=float)


def save_problem(problem: InverseProblem, directory):
    """Persist matrix (Matrix Market), vectors (one value per line) and metadata."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    op = problem.operator
    if hasattr(op, "sparse"):
        save_matrix_market(d / "matrix.mtx", op.sparse)
    else:
        save_matrix_market(d / "matrix.mtx", op.to_dense())
    _write_vector(d / "b.txt", problem.b)
    if problem.ground_truth is not None:
        _write_vector(d / "x_true.txt", problem.ground_truth)
    if problem.b_exact is not None:
        _write_vector(d / "b_exact.txt", problem.b_exact)
    meta = {
        "epsilon": repr(float(problem.noise_level)),
        "eta": repr(float(problem.eta)),
    }
    if problem.sigma is not None:
        meta["sigma"] = repr(float(problem.sigma))
    if problem.seed is not None:
        meta["seed"] = str(problem.seed)
    with open(d / "meta.txt", "w", encoding="ascii") as fh:
        for key, val in meta.items():
            fh.write(f"{key}={val}\n")


def load_problem(directory) -> InverseProblem:
    d = Path(directory)
    op = load_matrix_market(d / "matrix.mtx")
    b = _read_vector(d / "b.txt")
    meta = {}
    with open(d / "meta.txt", "r", encoding="ascii") as fh:
        for ln in fh:
            if "=" in ln:
                key, val = ln.strip().split("=", 1)
                meta[key] = val
    if "epsilon" not in meta:
        raise TikmorError(f"{d / 'meta.txt'} has no 'epsilon' line")
    ground_truth = _read_vector(d / "x_true.txt") if (d / "x_true.txt").exists() else None
    b_exact = _read_vector(d / "b_exact.txt") if (d / "b_exact.txt").exists() else None
    return InverseProblem(
        operator=op,
        b=b,
        noise_level=float(meta["epsilon"]),
        eta=float(meta.get("eta", 1.0)),
        ground_truth=ground_truth,
        b_exact=b_exact,
        sigma=float(meta["sigma"]) if "sigma" in meta else None,
        seed=int(meta["seed"]) if "seed" in meta else None,
    )
