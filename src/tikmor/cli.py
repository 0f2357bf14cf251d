"""Experiment runner: seeded problem batches, solver comparisons, traces.

A config is a flat INI file: one ``[problem]`` section, the ``[solver
<label>]`` sections that ``run`` compares, and optional ``[experiment]`` and ``[curve]``::

    [experiment]
    repetitions = 20
    seed = 1000
    output = out/table1

    [problem]
    type = randomUniform        ; randomUniform | sineWave | directory
    m = 700
    n = 500
    noise = 0.10
    ; path = fixtures/survey219.mtx   (sineWave / directory)

    [solver ntm-case2]
    method = ntm                ; ntm | pntm | gbit | sirt | cgls
    rule = case2
    alpha0 = 1.0
    omega = 0.9
    tol = 1e-3

    [curve]                     ; used by the `curve` subcommand
    alpha_min = 1e-2
    alpha_max = 1e4
    points = 25                 ; alphas spaced evenly in log

``[problem]`` also takes ``precondition`` (none | smooth): ``smooth`` hands
every solver the standard-form problem A inv(L) z = b of the smoothing
prior L (``problems.priorconditioned_problem``), and is the only switch
for it: cgls on a smoothed problem is priorconditioned CGLS (CGLS-PC).
Solver keys besides ``method``, by method (defaults are those of the
config classes and of ``sirt_solve`` and ``cgls``):

* ntm: ``alpha0``, ``tol``, ``max_iter``, ``rule`` (case1 | case2), ``omega``
* pntm: ``alpha0``, ``tol``, ``outer_max``, ``inner_large``, ``rule``, ``omega``
* gbit: ``alpha0``, ``tol``, ``max_iter``
* sirt: ``max_iter``
* cgls: ``max_iter``

``alpha0`` and ``tol`` are positive and finite (NaN and inf are neither),
every iteration budget (``max_iter``, ``outer_max``) is at least 1,
``inner_large`` is at least 0 and ``omega`` lies strictly inside (0, 1);
in ``[curve]``, ``alpha_min`` and ``alpha_max`` are positive and finite.
Every method is called one way, ``METHODS[method].solve(problem, options)``.

One parser reads every section through its table of INI key -> (field,
parser): ``SECTIONS``, and ``METHODS[method].keys`` for a solver. An unknown
section or key, a value that does not parse or that its solver rejects, and
a malformed file (a repeated section or key, a key above the first section)
are a ``ConfigError``, raised before any work.

Subcommands: ``run`` executes every solver on every seeded repetition and
writes per-run trace CSVs, runs.csv (``method, rep, seed, iters, alpha,
converged, res_norm, rel_error, error``; ``problems.relative_error`` gives
``rel_error``), summary.csv and a manifest; ``curve`` samples the
discrepancy curve on an alpha grid and ``gen`` writes a generated problem
to a directory, neither reading a solver section. Exit codes: 0 success,
1 config or input error (one logged line: e.g. a directory problem's value
that does not parse or vector of the wrong length, or a Matrix Market size
line that the file cannot hold), 2 partial solver failures.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .errors import TikmorError
from .linop import RegularizationMatrix, load_matrix_market
from .ntm import NtmConfig, StepRule, eigen_residual_sq, gram_spectrum, ntm_solve
from .pntm import PntmConfig, pntm_solve
from .problems import (
    InverseProblem,
    load_problem,
    priorconditioned_problem,
    random_uniform_problem,
    relative_error,
    save_problem,
    sine_wave_problem,
    uniform_operator,
)
from .reference import (
    GbitConfig,
    cgls,
    gbit_solve,
    sirt_solve,
)
from .trace import write_csv

logger = logging.getLogger(__name__)


class ConfigError(TikmorError):
    """Experiment configuration is invalid."""


def _choice(*choices):
    """A parser that takes one of the choices, blanks around it aside."""

    def parse(raw):
        if raw.strip() not in choices:
            raise ValueError(f"{raw.strip()!r} is not one of {', '.join(choices)}")
        return raw.strip()

    return parse


def _at_least(low):
    """A parser of integers no less than ``low``."""

    def parse(raw):
        value = int(raw)
        if value < low:
            raise ValueError(f"{value} is less than {low}")
        return value

    return parse


def _positive(raw) -> float:
    """A parser of positive, finite floats; NaN is neither."""
    value = float(raw)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{value!r} is not positive and finite")
    return value


@dataclass
class ProblemSpec:
    kind: str  # randomuniform | sinewave | directory: the lower-cased INI type
    m: int = 0
    n: int = 0
    noise: float = 0.1
    path: Optional[str] = None
    precondition: str = "none"  # none | smooth (solve A inv(L) z = b instead)

    def build(self, seed: int):
        """``(problem, to_x, original)``: the problem the solvers are given,
        the map from its solutions back to x (inv(L) under ``smooth``, else
        the identity), and the problem as built, with its ground truth."""
        original = self._build_raw(seed)
        if self.precondition == "smooth":
            reg = RegularizationMatrix(original.operator.cols)
            return (*priorconditioned_problem(original, reg), original)
        return original, np.asarray, original

    def _build_raw(self, seed: int) -> InverseProblem:
        if self.kind == "randomuniform":
            return random_uniform_problem(self.m, self.n, self.noise, seed)
        if self.kind == "sinewave":
            if self.path:
                op = load_matrix_market(self.path)
            else:
                # a child of the seed's stream, which sine_wave_problem draws the noise from
                rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
                op = uniform_operator(rng, self.m, self.n)
            return sine_wave_problem(op, self.noise, seed)
        if self.kind == "directory":
            return load_problem(self.path)
        raise ConfigError(f"unknown problem type {self.kind!r}")


class Method(NamedTuple):
    config: Callable  # keyword fields -> the options ``solve`` takes
    keys: dict  # INI key -> (field, parser)
    solve: Callable  # (problem, options) -> result
    count: str = "n_iter"  # the result field that fills ``iters``


_START_KEYS = {"alpha0": ("alpha0", float), "tol": ("tol", float)}
_RULE_KEYS = {"rule": ("variant", str), "omega": ("omega", float)}
_RULE_FIELDS = {field for field, _ in _RULE_KEYS.values()}

METHODS = {
    "ntm": Method(NtmConfig, {
        **_START_KEYS, "max_iter": ("max_iter", int), **_RULE_KEYS,
    }, ntm_solve),
    "pntm": Method(PntmConfig, {
        **_START_KEYS, "outer_max": ("outer_iter_max", int),
        "inner_large": ("inner_cap_large", int), **_RULE_KEYS,
    }, pntm_solve, "n_outer"),
    "gbit": Method(GbitConfig, {
        **_START_KEYS, "max_iter": ("max_iter", int),
    }, gbit_solve, "n_outer"),
    "sirt": Method(dict, {"max_iter": ("max_iter", _at_least(1))},
                   lambda p, opts: sirt_solve(p, **opts)),
    "cgls": Method(dict, {"max_iter": ("max_iter", _at_least(1))},
                   lambda p, opts: cgls(p.operator, p.b, p.discrepancy_target, **opts)),
}


class SolverSpec(NamedTuple):
    label: str
    method: str
    options: object  # what METHODS[method].config built from the section


class _Run(NamedTuple):
    """One solver's run on one repetition: a row of runs.csv, whose header
    is the field names. A failed run has only its error."""

    method: str  # the solver label
    rep: int
    seed: int
    iters: Optional[int] = None
    alpha: Optional[float] = None
    converged: Optional[bool] = None
    res_norm: Optional[float] = None
    rel_error: Optional[float] = None  # ||x - truth|| / ||truth||, x mapped back by to_x
    error: str = ""

    @property
    def failed(self):
        return self.iters is None

    @property
    def status(self):
        if self.failed:
            return f"error: {self.error}"
        return "ok" if self.converged else "not-converged"


@dataclass
class ExperimentConfig:
    problem: ProblemSpec
    solvers: list
    raw: configparser.ConfigParser  # echoed into the manifest
    repetitions: int = 1
    seed: int = 0
    output: str = "out"
    curve_grid: Optional[np.ndarray] = None


def _alpha_grid(alphas):
    """The alphas as a float array; a ValueError unless they are a nonempty,
    positive, strictly ascending 1-d sequence."""
    grid = np.asarray(alphas, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("alpha grid must be a nonempty 1-d sequence")
    if not (np.isfinite(grid).all() and (grid > 0).all()):  # NaN fails both
        raise ValueError("alpha grid values must be positive and finite")
    if (np.diff(grid) <= 0).any():
        raise ValueError("alpha grid must be strictly ascending")
    return grid


def _curve_grid(alpha_min=1e-2, alpha_max=1e2, points=20):
    """The [curve] section's grid: ``points`` alphas, log-spaced from alpha_min to alpha_max."""
    return _alpha_grid(np.geomspace(alpha_min, alpha_max, points))


_problem_kind = _choice("randomuniform", "sinewave", "directory")

SECTIONS = {  # the sections besides [solver <label>]: INI key -> (field, parser)
    "experiment": {
        "repetitions": ("repetitions", _at_least(1)), "seed": ("seed", _at_least(0)),
        "output": ("output", str),
    },
    "problem": {
        "type": ("kind", lambda raw: _problem_kind(raw.lower())), "m": ("m", int),
        "n": ("n", int), "noise": ("noise", float), "path": ("path", str),
        "precondition": ("precondition", _choice("none", "smooth")),
    },
    "curve": {
        "alpha_min": ("alpha_min", _positive), "alpha_max": ("alpha_max", _positive),
        "points": ("points", int),
    },
}


def _parse(name, section, keys):
    """The fields that INI section ``name`` sets, by its table ``keys``
    (INI key -> (field, parser)); an unknown key, or a value its parser
    rejects, is a ConfigError naming the section and key."""
    fields = {}
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in [{name}]; it takes {', '.join(keys)}")
        field_name, parse = keys[key]
        try:
            fields[field_name] = parse(section[key])
        except (ValueError, configparser.InterpolationError) as exc:
            raise ConfigError(f"invalid value for {key!r} in [{name}]: {exc}") from exc
    return fields


def _build(name, make, fields, keys=None):
    """``make(**fields)``; a ValueError it raises is a ConfigError naming the
    section, the field its message starts with renamed to its INI key by
    ``keys`` (INI key -> (field, parser))."""
    try:
        return make(**fields)
    except ValueError as exc:
        message = str(exc)
        for key, (field_name, _) in (keys or {}).items():
            if message.startswith(f"{field_name} "):
                message = key + message[len(field_name):]
                break
        raise ConfigError(f"invalid value in [{name}]: {message}") from exc


def _solver_spec(name, section, default_label):
    """The solver of a [solver <label>] section, its options checked before any work."""
    method = section.get("method", "", raw=True).strip()
    if method not in METHODS:
        raise ConfigError(
            f"invalid solver name {method!r} in [{name}]; choose from {', '.join(METHODS)}"
        )
    spec = METHODS[method]
    kwargs = _parse(name, section, {"method": ("method", str), **spec.keys})
    del kwargs["method"]
    rule = {f: kwargs.pop(f) for f in _RULE_FIELDS & kwargs.keys()}
    if rule:
        kwargs["step_rule"] = _build(name, StepRule, rule, spec.keys)
    label = name[len("solver"):].strip() or default_label
    return SolverSpec(label, method, _build(name, spec.config, kwargs, spec.keys))


def load_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # e.g. a repeated section or key; some of these messages span lines
        raise ConfigError(" ".join(str(exc).split())) from exc

    parsed, solvers = {}, []
    for name in cp.sections():
        if name.startswith("solver"):
            solvers.append(_solver_spec(name, cp[name], f"solver{len(solvers)}"))
        elif name in SECTIONS:
            parsed[name] = _parse(name, cp[name], SECTIONS[name])
        else:
            raise ConfigError(
                f"unknown section [{name}]; sections are "
                f"{', '.join(SECTIONS)} and solver <label>"
            )
    labels = [s.label for s in solvers]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate solver labels: {labels}")

    if "kind" not in parsed.get("problem", {}):
        raise ConfigError("config needs a [problem] section with a type")
    problem = ProblemSpec(**parsed["problem"])
    if problem.kind == "directory" and not problem.path:
        raise ConfigError("problem type directory needs a path")
    if (problem.kind == "randomuniform" or not problem.path) and min(problem.m, problem.n) < 1:
        raise ConfigError(f"problem type {problem.kind} without a path needs positive m and n")

    curve = parsed.get("curve")
    return ExperimentConfig(
        problem, solvers, cp, **parsed.get("experiment", {}),
        curve_grid=None if curve is None else _build("curve", _curve_grid, curve),
    )


def sample_discrepancy_curve(problem: InverseProblem, alpha_grid):
    """Residual norms of Tikhonov solutions along an ascending alpha grid.

    One ``eigh`` of A^T A prices each point in O(n): the Tikhonov solution
    has eigen-coordinates xh = (Q^T A^T b) / (lam + alpha), and its residual
    comes from ``eigen_residual_sq`` on ``gram_spectrum``'s least-squares
    residual, without forming x. The sampled curve is checked to be
    nondecreasing (up to roundoff), the shape the discrepancy principle relies on.
    """
    grid = _alpha_grid(alpha_grid)
    lam, _, gh, rr = gram_spectrum(problem.operator, problem.b)
    residuals = np.sqrt([eigen_residual_sq(lam, gh, rr, gh / (lam + a)) for a in grid])
    slack = 1e-10 * max(1.0, residuals.max())
    if (np.diff(residuals) < -slack).any():
        raise TikmorError("sampled discrepancy curve is not nondecreasing")
    return [(float(a), float(r)) for a, r in zip(grid, residuals)]


def _write_manifest(path, config: ExperimentConfig, seeds, runs):
    lines = [
        f"package_version={__version__}",
        f"timestamp={time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
        f"seeds={','.join(str(s) for s in seeds)}",
    ]
    for section in config.raw.sections():
        for key, val in config.raw[section].items():
            lines.append(f"config.{section}.{key}={val}")
    statuses = sorted((f"{r.method}_rep{r.rep}", r.status) for r in runs)
    lines.extend(f"run.{key}={status}" for key, status in statuses)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _mean_sd(values):
    """(mean, sample sd) of the values: sd 0 for one value, both None for none."""
    a = np.array(values, dtype=float)
    if not a.size:
        return None, None
    return float(a.mean()), float(a.std(ddof=1)) if a.size > 1 else 0.0


def run_experiment(config: ExperimentConfig) -> int:
    """Execute all solvers over the seeded repetitions; returns exit code."""
    if not config.solvers:
        raise ConfigError("config needs at least one [solver <label>] section")
    out = Path(config.output)
    traces = out / "traces"

    seeds = [config.seed + r for r in range(config.repetitions)]
    runs = []
    for rep, seed in enumerate(seeds):
        problem, to_x, original = config.problem.build(seed)
        traces.mkdir(parents=True, exist_ok=True)  # after a build: a failed one leaves none
        for spec in config.solvers:
            method = METHODS[spec.method]
            try:
                r = method.solve(problem, spec.options)
            except TikmorError as exc:
                logger.error("solver %s failed on rep %d: %s", spec.label, rep, exc)
                runs.append(_Run(spec.label, rep, seed, error=str(exc)))
                continue
            r.trace.write_csv(traces / f"{spec.label}_rep{rep}.csv")
            iters = getattr(r, method.count)
            runs.append(_Run(
                spec.label, rep, seed, iters, r.alpha, bool(r.converged), r.residual_norm,
                relative_error(original, to_x(r.x)),
            ))
    write_csv(out / "runs.csv", _Run._fields, runs)

    summary_rows = []
    for spec in config.solvers:
        done = [r for r in runs if r.method == spec.label and not r.failed]
        summary_rows.append((
            spec.label,
            *_mean_sd([r.iters for r in done]),
            *_mean_sd([r.alpha for r in done if r.alpha is not None]),
            len(done),
            config.repetitions - len(done),
        ))
    write_csv(
        out / "summary.csv",
        ("method", "mean_iters", "sd_iters", "mean_alpha", "sd_alpha", "n_runs", "n_failed"),
        summary_rows,
    )
    _write_manifest(out / "manifest.txt", config, seeds, runs)
    return 2 if any(r.failed for r in runs) else 0


def run_curve(config: ExperimentConfig) -> int:
    if config.curve_grid is None:
        raise ConfigError("curve subcommand needs a [curve] section")
    problem = config.problem.build(config.seed)[0]
    points = sample_discrepancy_curve(problem, config.curve_grid)
    out = Path(config.output)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "curve.csv", ("alpha", "res_norm"), points)
    logger.info("wrote %d curve points to %s", len(points), out / "curve.csv")
    return 0


def run_gen(config: ExperimentConfig) -> int:
    problem = config.problem.build(config.seed)[2]  # as built, with its ground truth
    save_problem(problem, config.output)
    logger.info("wrote problem to %s", config.output)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tikmor",
        description="Run Tikhonov/discrepancy solver experiments from a config file.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run every configured solver over the seeded repetitions"),
        ("curve", "sample the discrepancy curve on an alpha grid"),
        ("gen", "generate a problem and write it to the output directory"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the INI config file")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    try:
        config = load_config(args.config)
        if args.command == "run":
            return run_experiment(config)
        if args.command == "curve":
            return run_curve(config)
        return run_gen(config)
    except (TikmorError, OSError, ValueError) as exc:
        # solver failures are caught per run inside run_experiment; anything
        # reaching here is a config- or input-level problem
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
