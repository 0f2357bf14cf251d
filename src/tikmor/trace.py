"""Per-iteration solve traces, their CSV form, and the result record of a solve.

Every solver appends aligned rows; the CSV schema is fixed per solver so
runs of different methods can be overlaid by downstream tooling. Missing
values (e.g. alpha for SIRT) serialize as empty fields. ``write_csv``
also writes the experiment tables of the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

NTM_COLUMNS = (
    "iter", "alpha", "gamma", "res_norm", "F_norm", "dinv", "theta", "case_id", "dir_norm",
)
PNTM_COLUMNS = NTM_COLUMNS + ("outer_iter", "inner_iter", "subspace_dim", "proj_res")
GBIT_COLUMNS = ("iter", "alpha", "res_norm", "F_norm", "subspace_dim", "lsqr_res")
SIRT_COLUMNS = ("iter", "alpha", "res_norm")
CGLS_COLUMNS = ("iter", "alpha", "res_norm")


def format_cell(value) -> str:
    """CSV text of one value: None empty, integers plain, strings as they
    are, any other number by ``repr(float(value))`` (so NaN is ``nan``)."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


@dataclass
class SolveTrace:
    """Column-aligned iteration log for one solver run."""

    columns: tuple
    rows: list = field(default_factory=list)

    def append(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def column(self, name) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(name)
        idx = self.columns.index(name)
        return np.array(
            [np.nan if row[idx] is None else float(row[idx]) for row in self.rows],
            dtype=float,
        )

    def __len__(self):
        return len(self.rows)

    def write_csv(self, path):
        write_csv(path, self.columns, self.rows)


@dataclass
class SolveResult:
    """Outcome of an ntm, sirt or cgls solve; alpha is None for sirt and cgls,
    and ``converged`` says whether the method's stop test was met."""

    x: np.ndarray
    alpha: Optional[float]
    trace: SolveTrace
    converged: bool
    n_iter: int
    residual_norm: float
