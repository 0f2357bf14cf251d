"""Per-iteration solve traces, their CSV form, and the result record of a solve.

Every solver appends aligned rows; the CSV schema is fixed per solver so
runs of different methods can be overlaid by downstream tooling. ntm
writes one row per Newton step, ``NTM_COLUMNS``, in ``ntm.newton_steps``;
pntm and gbit share ``KRYLOV_COLUMNS``, one row per outer iteration,
written by ``pntm.krylov_loop``; sirt and cgls share ``RESIDUAL_COLUMNS``.
Missing values (the step cells of ntm's start row) serialize as empty fields.
``write_csv`` also writes the experiment tables of the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

NTM_COLUMNS = (
    "iter", "alpha", "gamma", "res_norm", "F_norm", "dinv", "theta", "case_id", "dir_norm",
)
KRYLOV_COLUMNS = ("outer_iter", "alpha", "res_norm", "F_norm", "subspace_dim", "lsqr_res")
RESIDUAL_COLUMNS = ("iter", "res_norm")


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


def _quoted(cell):
    """The cell as one CSV field, quoted (RFC 4180) if it holds a comma, a
    quote or a line break."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_csv(path, header, rows):
    """The header and rows as CSV, each cell by ``format_cell`` and
    ``_quoted``."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([_quoted(format_cell(v)) for v in row]) + "\n")


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
