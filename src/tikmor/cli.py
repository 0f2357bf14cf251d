"""Experiment runner: seeded problem batches, solver comparisons, traces.

Configuration is a flat INI file (sections of key=value pairs) with one
``[problem]`` section and one or more ``[solver <label>]`` sections::

    [experiment]
    repetitions = 20
    seed = 1000
    output = out/table1

    [problem]
    type = randomUniform        ; randomUniform | sineWave | matrixmarket | directory
    m = 700
    n = 500
    noise = 0.10
    ; path = fixtures/survey219.mtx   (matrixmarket / sineWave / directory)
    ; rhs = sine                      (matrixmarket rhs policy)

    [solver ntm-case2]
    method = ntm                ; ntm | pntm | gbit | sirt | cgls-pc
    rule = case2
    alpha0 = 1.0
    omega = 0.9
    tol = 1e-3

    [curve]                     ; used by the `curve` subcommand
    alpha_min = 1e-2
    alpha_max = 1e4
    points = 25
    spacing = log

Other sections take only the keys shown, plus ``precondition`` (none |
smooth) in ``[problem]`` and ``alphas`` (a comma-separated grid) in
``[curve]``. Solver keys besides ``method``, by method (defaults are
those of the config dataclasses; any other key, or a value the solver
rejects, is a config error):

* ntm: ``alpha0``, ``tol``, ``max_iter``, ``rule`` (case1 | case2),
  ``omega``, ``dinv`` (exact_svd: exact, no SVD is taken | lemma_bound)
* pntm: ``alpha0``, ``tol``, ``outer_max``, ``inner_small``,
  ``inner_large``, ``rule``, ``omega``
* gbit: ``alpha0``, ``tol``, ``max_iter``
* sirt: ``max_iter``, ``stop_at_discrepancy`` (true | false)
* cgls-pc: ``max_iter``

Subcommands: ``run`` executes every solver on every seeded repetition and
writes per-run trace CSVs, runs.csv, summary.csv and a manifest;
``curve`` samples the discrepancy curve on an alpha grid; ``gen`` writes
a generated problem to a directory. Exit codes: 0 success, 1 config
error, 2 partial solver failures.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .errors import TikmorError
from .linop import (
    PriorconditionedOperator,
    RegularizationMatrix,
    load_matrix_market,
    normal_equation_solve,
)
from .ntm import NtmConfig, StepRule, ntm_solve
from .pntm import PntmConfig, pntm_solve
from .problems import (
    InverseProblem,
    load_problem,
    priorconditioned_problem,
    random_uniform_problem,
    save_problem,
    sine_wave_problem,
)
from .reference import (
    GbitConfig,
    cgls,
    cgls_priorconditioned,
    gbit_solve,
    sirt_solve,
)
from .trace import write_csv

logger = logging.getLogger(__name__)

PROBLEM_TYPES = {
    "randomuniform": "random_uniform",
    "random_uniform": "random_uniform",
    "sinewave": "sine_wave",
    "sine_wave": "sine_wave",
    "matrixmarket": "matrix_market",
    "matrix_market": "matrix_market",
    "directory": "directory",
}

SECTION_KEYS = {  # keys of the sections other than [solver <label>]
    "experiment": ("repetitions", "seed", "output"),
    "problem": ("type", "m", "n", "noise", "path", "rhs", "precondition"),
    "curve": ("alphas", "alpha_min", "alpha_max", "points", "spacing"),
}


class ConfigError(TikmorError):
    """Experiment configuration is invalid."""


def _parse_flag(raw) -> bool:
    value = raw.strip().lower()
    if value not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[value]


@dataclass
class ProblemSpec:
    kind: str
    m: int = 0
    n: int = 0
    noise: float = 0.1
    path: Optional[str] = None
    rhs_policy: str = "sine"
    precondition: str = "none"  # none | smooth (solve A inv(L) z = b instead)

    def build(self, seed: int) -> InverseProblem:
        problem = self._build_raw(seed)
        if self.precondition == "smooth":
            problem, _ = priorconditioned_problem(
                problem, RegularizationMatrix(problem.operator.cols)
            )
        return problem

    def _build_raw(self, seed: int) -> InverseProblem:
        if self.kind == "random_uniform":
            return random_uniform_problem(self.m, self.n, self.noise, seed)
        if self.kind == "sine_wave":
            if self.path:
                op = load_matrix_market(self.path)
            else:
                rng = np.random.default_rng(seed)
                op = 2.0 * rng.random((self.m, self.n)) - 1.0
            return sine_wave_problem(op, self.noise, seed)
        if self.kind == "matrix_market":
            op = load_matrix_market(self.path)
            if self.rhs_policy != "sine":
                raise ConfigError(f"unknown rhs policy {self.rhs_policy!r}")
            return sine_wave_problem(op, self.noise, seed)
        if self.kind == "directory":
            return load_problem(self.path)
        raise ConfigError(f"unknown problem type {self.kind!r}")


def _run_ntm(problem, cfg):
    r = ntm_solve(problem, cfg)
    return r.x, r.alpha, r.n_iter, r.converged, r.residual_norm, r.trace


def _run_krylov(solve):
    def run(problem, cfg):
        r = solve(problem, cfg)
        return r.x, r.alpha, r.n_outer, r.converged, r.residual_norm, r.trace

    return run


def _run_sirt(problem, opts):
    r = sirt_solve(problem, **opts)
    return r.x, None, r.n_iter, r.reached_discrepancy, r.residual_norm, r.trace


def _run_cgls_pc(problem, opts):
    if isinstance(problem.operator, PriorconditionedOperator):
        # problem already carries the smoothing transform
        r = cgls(problem.operator, problem.b, problem.discrepancy_target, **opts)
    else:
        reg = RegularizationMatrix(problem.operator.cols)
        r = cgls_priorconditioned(problem, reg, **opts)
    return r.x, None, r.n_iter, r.converged, r.residual_norm, r.trace


class Method(NamedTuple):
    config: Callable  # keyword fields -> the options ``run`` takes
    keys: dict  # INI key -> (field, parser)
    run: Callable  # (problem, options) -> (x, alpha, iters, converged, res_norm, trace)


_START_KEYS = {"alpha0": ("alpha0", float), "tol": ("tol", float)}
_RULE_KEYS = {"rule": ("variant", str), "omega": ("omega", float)}
_RULE_FIELDS = {f.name for f in fields(StepRule)}

METHODS = {
    "ntm": Method(NtmConfig, {
        **_START_KEYS, "max_iter": ("max_iter", int), **_RULE_KEYS,
        "dinv": ("dinv_mode", str),
    }, _run_ntm),
    "pntm": Method(PntmConfig, {
        **_START_KEYS, "outer_max": ("outer_iter_max", int),
        "inner_small": ("inner_cap_small", int),
        "inner_large": ("inner_cap_large", int), **_RULE_KEYS,
    }, _run_krylov(pntm_solve)),
    "gbit": Method(GbitConfig, {
        **_START_KEYS, "max_iter": ("max_iter", int),
    }, _run_krylov(gbit_solve)),
    "sirt": Method(dict, {
        "max_iter": ("max_iter", int),
        "stop_at_discrepancy": ("stop_at_discrepancy", _parse_flag),
    }, _run_sirt),
    "cgls-pc": Method(dict, {"max_iter": ("max_iter", int)}, _run_cgls_pc),
}
SOLVER_METHODS = tuple(METHODS)


@dataclass
class SolverSpec:
    label: str
    method: str
    config: object  # what METHODS[method].config built from the section

    def run(self, problem: InverseProblem):
        return METHODS[self.method].run(problem, self.config)


@dataclass
class ExperimentConfig:
    problem: ProblemSpec
    solvers: list
    repetitions: int = 1
    seed: int = 0
    output: str = "out"
    curve_grid: Optional[np.ndarray] = None
    raw: Optional[configparser.ConfigParser] = None


def _solver_config(name, method, section):
    """The method's options from its INI section, checked before any work."""
    spec = METHODS[method]
    kwargs, rule = {}, {}
    try:
        for key, raw in section.items():
            if key == "method":
                continue
            if key not in spec.keys:
                raise ConfigError(
                    f"unknown key {key!r} in [{name}]; {method} accepts "
                    f"{', '.join(spec.keys)}"
                )
            field_name, parse = spec.keys[key]
            (rule if field_name in _RULE_FIELDS else kwargs)[field_name] = parse(raw)
        if rule:
            kwargs["step_rule"] = StepRule(**rule)
        return spec.config(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid value in [{name}]: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for name, keys in SECTION_KEYS.items():
        for key in sorted(set(cp[name] if name in cp else ()) - set(keys)):
            raise ConfigError(f"unknown key {key!r} in [{name}]; it takes {', '.join(keys)}")

    if "problem" not in cp:
        raise ConfigError("config needs a [problem] section")
    psec = cp["problem"]
    raw_kind = psec.get("type", "").strip()
    kind = PROBLEM_TYPES.get(raw_kind.lower())
    if kind is None:
        raise ConfigError(f"unknown problem type {raw_kind!r}")
    problem = ProblemSpec(
        kind=kind,
        m=psec.getint("m", 0),
        n=psec.getint("n", 0),
        noise=psec.getfloat("noise", 0.1),
        path=psec.get("path", None),
        rhs_policy=psec.get("rhs", "sine").strip(),
        precondition=psec.get("precondition", "none").strip(),
    )
    if kind == "random_uniform" and (problem.m < 1 or problem.n < 1):
        raise ConfigError("randomUniform problems need positive m and n")
    if kind in ("matrix_market", "directory") and not problem.path:
        raise ConfigError(f"problem type {raw_kind!r} needs a path")
    if problem.precondition not in ("none", "smooth"):
        raise ConfigError(f"unknown precondition {problem.precondition!r}")

    solvers = []
    for name in cp.sections():
        if not name.startswith("solver"):
            continue
        label = name[len("solver"):].strip() or f"solver{len(solvers)}"
        method = cp[name].get("method", "").strip()
        if method not in SOLVER_METHODS:
            raise ConfigError(
                f"invalid solver name {method!r} in [{name}]; "
                f"choose from {', '.join(SOLVER_METHODS)}"
            )
        solvers.append(
            SolverSpec(label, method, _solver_config(name, method, cp[name]))
        )
    if not solvers:
        raise ConfigError("config needs at least one [solver <label>] section")
    labels = [s.label for s in solvers]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate solver labels: {labels}")

    esec = cp["experiment"] if "experiment" in cp else {}
    repetitions = int(esec.get("repetitions", 1))
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")

    curve_grid = None
    if "curve" in cp:
        csec = cp["curve"]
        if csec.get("alphas"):
            grid = np.array([float(t) for t in csec["alphas"].split(",")])
        else:
            lo = csec.getfloat("alpha_min", 1e-2)
            hi = csec.getfloat("alpha_max", 1e2)
            pts = csec.getint("points", 20)
            if csec.get("spacing", "log").strip() == "linear":
                grid = np.linspace(lo, hi, pts)
            else:
                grid = np.geomspace(lo, hi, pts)
        curve_grid = grid

    return ExperimentConfig(
        problem=problem,
        solvers=solvers,
        repetitions=repetitions,
        seed=int(esec.get("seed", 0)),
        output=str(esec.get("output", "out")),
        curve_grid=curve_grid,
        raw=cp,
    )


def sample_discrepancy_curve(problem: InverseProblem, alpha_grid):
    """Residual norms of Tikhonov solutions along an ascending alpha grid.

    The sampled curve is checked to be nondecreasing (up to roundoff),
    which is the shape the discrepancy principle relies on.
    """
    grid = np.asarray(alpha_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("alpha grid must be a nonempty 1-d sequence")
    if (grid <= 0).any():
        raise ValueError("alpha grid values must be positive")
    if (np.diff(grid) <= 0).any():
        raise ValueError("alpha grid must be strictly ascending")
    A = problem.operator
    points = []
    gram = A.gram() if A.cols <= 600 else None  # reuse across grid points
    for alpha in grid:
        x = normal_equation_solve(A, problem.b, alpha, gram=gram)
        res = float(np.linalg.norm(A.matvec(x) - problem.b))
        points.append((float(alpha), res))
    residuals = np.array([r for _, r in points])
    slack = 1e-10 * max(1.0, residuals.max())
    if (np.diff(residuals) < -slack).any():
        raise TikmorError("sampled discrepancy curve is not nondecreasing")
    return points


def _write_manifest(path, config: ExperimentConfig, seeds, statuses):
    lines = [
        f"package_version={__version__}",
        f"timestamp={time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
        f"seeds={','.join(str(s) for s in seeds)}",
    ]
    if config.raw is not None:
        for section in config.raw.sections():
            for key, val in config.raw[section].items():
                lines.append(f"config.{section}.{key}={val}")
    for key, status in sorted(statuses.items()):
        lines.append(f"run.{key}={status}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(config: ExperimentConfig) -> int:
    """Execute all solvers over the seeded repetitions; returns exit code."""
    out = Path(config.output)
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)

    seeds = [config.seed + r for r in range(config.repetitions)]
    per_solver = {s.label: [] for s in config.solvers}
    run_rows = []
    statuses = {}
    any_failed = False

    for rep, seed in enumerate(seeds):
        problem = config.problem.build(seed)
        for spec in config.solvers:
            key = f"{spec.label}_rep{rep}"
            try:
                x, alpha, iters, conv, resid, trace = spec.run(problem)
            except TikmorError as exc:
                logger.error("solver %s failed on rep %d: %s", spec.label, rep, exc)
                statuses[key] = f"error: {exc}"
                run_rows.append((spec.label, rep, seed, None, None, None, None, str(exc)))
                any_failed = True
                continue
            statuses[key] = "ok" if conv else "not-converged"
            trace.write_csv(traces / f"{key}.csv")
            per_solver[spec.label].append((iters, alpha, conv))
            run_rows.append(
                (spec.label, rep, seed, iters, alpha, int(bool(conv)), resid, "")
            )

    write_csv(
        out / "runs.csv",
        ("method", "rep", "seed", "iters", "alpha", "converged", "res_norm", "error"),
        run_rows,
    )

    summary_rows = []
    for spec in config.solvers:
        entries = per_solver[spec.label]
        iters = np.array([e[0] for e in entries], dtype=float)
        alphas = np.array(
            [e[1] for e in entries if e[1] is not None], dtype=float
        )
        n_ok = len(entries)
        n_failed = config.repetitions - n_ok

        def _mean(a):
            return float(a.mean()) if a.size else None

        def _sd(a):
            if a.size > 1:
                return float(a.std(ddof=1))
            return 0.0 if a.size == 1 else None

        summary_rows.append(
            (
                spec.label,
                _mean(iters),
                _sd(iters),
                _mean(alphas),
                _sd(alphas),
                n_ok,
                n_failed,
            )
        )
    write_csv(
        out / "summary.csv",
        ("method", "mean_iters", "sd_iters", "mean_alpha", "sd_alpha", "n_runs", "n_failed"),
        summary_rows,
    )
    _write_manifest(out / "manifest.txt", config, seeds, statuses)
    return 2 if any_failed else 0


def run_curve(config: ExperimentConfig) -> int:
    if config.curve_grid is None:
        raise ConfigError("curve subcommand needs a [curve] section")
    problem = config.problem.build(config.seed)
    points = sample_discrepancy_curve(problem, config.curve_grid)
    out = Path(config.output)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "curve.csv", ("alpha", "res_norm"), points)
    logger.info("wrote %d curve points to %s", len(points), out / "curve.csv")
    return 0


def run_gen(config: ExperimentConfig) -> int:
    problem = config.problem.build(config.seed)
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
