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

from .errors import (
    ConvergenceFailure, DimensionError, InfeasibleDiscrepancyError, TikmorError, check_count,
)
from .linop import (
    DenseOperator,
    LinearOperator,
    PriorconditionedOperator,
    as_operator,
    load_matrix_market,
    real_vector,
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
    """A linear inverse problem A x = b with a known discrepancy level. An
    ndarray or scipy sparse ``operator`` is wrapped once, by ``as_operator``."""

    operator: LinearOperator
    b: np.ndarray
    noise_level: float  # eps: target for ||A x - b||
    eta: float = 1.0  # discrepancy-principle tolerance factor, >= 1
    ground_truth: Optional[np.ndarray] = None
    b_exact: Optional[np.ndarray] = None
    sigma: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        op = self.operator = as_operator(self.operator)
        self.b = real_vector(self.b, op.rows, "rhs", "operator rows")
        if self.ground_truth is not None:
            self.ground_truth = real_vector(
                self.ground_truth, op.cols, "ground truth", "operator cols")
        if self.b_exact is not None:
            self.b_exact = real_vector(self.b_exact, op.rows, "exact rhs", "operator rows")
        if not (self.noise_level >= 0 and math.isfinite(self.noise_level)):  # NaN fails
            raise ValueError(f"noise level must be finite and >= 0, got {self.noise_level}")
        if not (self.eta >= 1 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite and >= 1, got {self.eta}")

    @property
    def discrepancy_target(self) -> float:
        return self.eta * self.noise_level

    def morozov_level(self) -> float:
        """eps = ``discrepancy_target`` where the coupled Tikhonov-Morozov
        system has a root, 0 < eps < ||b||; else ``InfeasibleDiscrepancyError``,
        or ``ConvergenceFailure`` if ||b|| or eps is not finite."""
        bnorm, eps = float(np.linalg.norm(self.b)), self.discrepancy_target
        if not math.isfinite(bnorm + eps):
            raise ConvergenceFailure(f"||b|| = {bnorm:.6g}, eps = {eps:.6g}: not finite")
        if eps <= 0:
            raise InfeasibleDiscrepancyError("discrepancy level must be positive")
        if eps >= bnorm:
            raise InfeasibleDiscrepancyError(
                f"eps = {eps:.6g} >= ||b|| = {bnorm:.6g}: no positive alpha can "
                "reach that residual"
            )
        return eps


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
        sigma=sigma,
        seed=seed,
    )


def _check_noise_fraction(noise_fraction, zero_ok):
    """A ValueError unless the fraction lies in (0, 1), or [0, 1) if
    ``zero_ok``; NaN lies in neither."""
    if not (0 <= noise_fraction < 1 and (zero_ok or noise_fraction > 0)):
        raise ValueError(f"noise fraction must lie in {'[' if zero_ok else '('}0, 1)")


def random_uniform_problem(m, n, noise_fraction, seed) -> InverseProblem:
    """Dense A and ground truth with i.i.d. U(-1, 1) entries."""
    for name, size in (("m", m), ("n", n)):
        check_count(name, size, 1, DimensionError)
    if m < n:
        raise DimensionError(f"need m >= n, got m={m}, n={n}")
    _check_noise_fraction(noise_fraction, zero_ok=False)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    A = uniform_operator(rng, m, n)
    x_exact = 2.0 * rng.random(n) - 1.0
    return _add_noise(A, x_exact, noise_fraction, rng, seed)


def sine_wave_problem(A, noise_fraction, seed) -> InverseProblem:
    """Smooth sine ground truth x_i = sin(i h), h = 2 pi / (n + 1); a noise
    fraction of 0 gives the exact right-hand side."""
    _check_noise_fraction(noise_fraction, zero_ok=True)
    check_count("seed", seed, 0)
    A = as_operator(A)
    n = A.cols
    h = 2.0 * np.pi / (n + 1)
    x_exact = np.sin(h * np.arange(1, n + 1))
    return _add_noise(A, x_exact, noise_fraction, np.random.default_rng(seed), seed)


def relative_error(problem: InverseProblem, x) -> Optional[float]:
    """||x - truth|| / ||truth||; None without a nonzero ground truth."""
    truth = problem.ground_truth
    tnorm = 0.0 if truth is None else np.linalg.norm(truth)
    if not tnorm > 0:
        return None
    x = real_vector(x, problem.operator.cols, "x", "operator cols")
    return float(np.linalg.norm(x - truth) / tnorm)


def priorconditioned_problem(problem: InverseProblem, reg):
    """Rewrite the problem in standard form through the smoothing prior L.

    Returns the problem A inv(L) z = b (same ``b`` and discrepancy level,
    so residual norms agree) and ``reg.solve``, the map x = inv(L) z back
    from its solutions. This is the one place the transform is applied.
    """
    transformed = InverseProblem(
        operator=PriorconditionedOperator(problem.operator, reg),
        b=problem.b,
        noise_level=problem.noise_level,
        eta=problem.eta,
        seed=problem.seed,
    )
    return transformed, reg.solve


# -- directory serialization --------------------------------------------------


def _write_vector(path, v):
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{float(val)!r}\n" for val in v)


def _parse(parse, path, lineno, raw):
    """``parse(raw)``; a TikmorError naming the file, the line and why if it fails."""
    try:
        return parse(raw.strip())
    except ValueError as err:
        raise TikmorError(f"{path} line {lineno}: cannot parse {raw.strip()!r}: {err}") from None


def _read_vector(path, op, what, dim):
    with open(path, "r", encoding="ascii") as fh:
        values = [_parse(float, path, i, ln) for i, ln in enumerate(fh, start=1) if ln.strip()]
    return real_vector(values, getattr(op, dim), f"{path}: {what}", f"operator {dim}")


def save_problem(problem: InverseProblem, directory):
    """Persist matrix (Matrix Market), vectors (one value per line) and metadata."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    op = problem.operator
    save_matrix_market(d / "matrix.mtx", op.sparse if hasattr(op, "sparse") else op.to_dense())
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
    """The problem ``save_problem`` wrote. A value that does not parse (a
    negative seed too) or that ``InverseProblem`` rejects is a TikmorError, and
    a vector of the wrong length a DimensionError, each naming its file."""
    d = Path(directory)
    op = load_matrix_market(d / "matrix.mtx")
    b = _read_vector(d / "b.txt", op, "rhs", "rows")
    meta_path = d / "meta.txt"
    meta = {}  # key -> (line number, value)
    with open(meta_path, "r", encoding="ascii") as fh:
        for lineno, ln in enumerate(fh, start=1):
            if "=" in ln:
                key, val = ln.strip().split("=", 1)
                meta[key] = (lineno, val)
    if "epsilon" not in meta:
        raise TikmorError(f"{meta_path} has no 'epsilon' line")

    def value(key, parse, default=None):
        return _parse(parse, meta_path, *meta[key]) if key in meta else default

    truth, exact = d / "x_true.txt", d / "b_exact.txt"
    ground_truth = _read_vector(truth, op, "ground truth", "cols") if truth.exists() else None
    b_exact = _read_vector(exact, op, "exact rhs", "rows") if exact.exists() else None
    try:
        return InverseProblem(
            operator=op,
            b=b,
            noise_level=value("epsilon", float),
            eta=value("eta", float, 1.0),
            ground_truth=ground_truth,
            b_exact=b_exact,
            sigma=value("sigma", float),
            seed=value("seed", lambda raw: check_count("seed", int(raw), 0)),
        )
    except ValueError as err:  # eps or eta outside InverseProblem's domain
        raise TikmorError(f"{meta_path}: {err}") from None
