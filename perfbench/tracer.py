"""Layer spans recorded from outside the package.

The tracer replaces named entry points of the tikmor modules with thin
wrappers while it is installed and restores the originals afterwards, so
no file under ``src/`` changes. Each call becomes one span: name, start,
end, parent span and solve id, kept in flat arrays until the run ends.

An entry point is looked up where its caller looks it up. ``pntm``
imports ``solve_rescaled_system`` from ``ntm`` by name, so patching the
``pntm`` binding times only pntm's direction solves; that is how the
same function yields both ``ntm.direction`` and ``pntm.direction``.
An entry point that no longer exists is listed in ``missing`` and the
run goes on without it.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span): module-level functions, patched in the module
# whose globals the caller reads.
FUNCTION_SPANS = (
    ("tikmor.ntm", "ntm_solve", "ntm.solve"),
    ("tikmor.ntm", "dinv_norm", "ntm.dinv"),
    ("tikmor.ntm", "solve_rescaled_system", "ntm.direction"),
    ("tikmor.ntm", "step_size", "ntm.step_size"),
    ("tikmor.ntm", "normal_equation_solve", "linop.normal_equation_solve"),
    ("tikmor.linop", "normal_equation_solve", "linop.normal_equation_solve"),
    ("tikmor.pntm", "pntm_solve", "pntm.solve"),
    ("tikmor.pntm", "_projected_dinv", "pntm.dinv"),
    ("tikmor.pntm", "solve_rescaled_system", "pntm.direction"),
    ("tikmor.pntm", "init_bidiag", "bidiag.init"),
    ("tikmor.reference", "init_bidiag", "bidiag.init"),
    ("tikmor.reference", "gbit_solve", "reference.gbit"),
    ("tikmor.reference", "cgls", "reference.cgls"),
    ("tikmor.problems", "random_uniform_problem", "problems.generate"),
    ("tikmor.problems", "priorconditioned_problem", "problems.priorcondition"),
)

_OPERATORS = ("LinearOperator", "DenseOperator", "SparseOperator", "PriorconditionedOperator")

# (module, classes, attribute, span): methods and properties, patched on
# every listed class that defines the attribute itself.
METHOD_SPANS = (
    ("tikmor.bidiag", ("BidiagFactorization",), "expand", "bidiag.expand"),
    ("tikmor.bidiag", ("BidiagFactorization",), "B", "bidiag.B"),
    ("tikmor.linop", ("DenseOperator",), "matvec", "linop.matvec.dense"),
    ("tikmor.linop", ("DenseOperator",), "rmatvec", "linop.rmatvec.dense"),
    ("tikmor.linop", ("PriorconditionedOperator",), "matvec", "linop.matvec.pc"),
    ("tikmor.linop", ("PriorconditionedOperator",), "rmatvec", "linop.rmatvec.pc"),
    ("tikmor.linop", _OPERATORS, "gram", "linop.gram"),
    ("tikmor.linop", _OPERATORS, "frobenius_norm", "linop.frobenius_norm"),
    ("tikmor.trace", ("SolveTrace",), "write_csv", "trace.write_csv"),
)

SPAN_NAMES = tuple(
    dict.fromkeys(s[-1] for s in FUNCTION_SPANS + METHOD_SPANS)
)


def _dense_cost(span, op):
    """Bytes and flops of a dense kernel, computed from the operand shapes."""
    m, n = op.rows, op.cols
    if span in ("linop.matvec.dense", "linop.rmatvec.dense"):
        return 8 * (m * n + m + n), 2 * m * n
    if span == "linop.gram":
        return 8 * (m * n + n * n), 2 * m * n * n
    return 8 * m * n, 2 * m * n  # frobenius_norm


class Tracer:
    """Span recorder; ``install`` patches the entry points, ``remove`` undoes it."""

    def __init__(self):
        self.names = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_ids = array("q")
        self.parents = array("q")
        self.solve_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.solve_id = -1
        self._window_start = 0.0
        self.solve_windows = []  # (solve id, start, end)
        self.dense_bytes = 0
        self.dense_flops = 0
        self.setup_dense = (0, 0)  # (bytes, flops) counted during set-up
        self.missing = []
        self._patches = []  # (owner, attribute, original)
        self._targets = self._resolve()

    def _resolve(self):
        targets = []
        for modname, attr, span in FUNCTION_SPANS:
            try:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{attr}")
                continue
            targets.append((module, attr, original, span))
        for modname, classes, attr, span in METHOD_SPANS:
            found = False
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            for clsname in classes:
                cls = getattr(module, clsname, None)
                if cls is not None and attr in vars(cls):
                    targets.append((cls, attr, vars(cls)[attr], span))
                    found = True
            if not found:
                self.missing.append(f"{modname}.{'|'.join(classes)}.{attr}")
        return targets

    def _wrap(self, fn, span):
        name_id = self.names[span]
        counted = span in (
            "linop.matvec.dense", "linop.rmatvec.dense", "linop.gram",
            "linop.frobenius_norm",
        )
        dense_cls = importlib.import_module("tikmor.linop").DenseOperator
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.parents.append(tracer.stack[-1])
            tracer.solve_ids.append(tracer.solve_id)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.starts[idx] = t0
                tracer.stack.pop()
            if counted and type(args[0]) is dense_cls:
                nbytes, flops = _dense_cost(span, args[0])
                tracer.dense_bytes += nbytes
                tracer.dense_flops += flops
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for owner, attr, original, span in self._targets:
            if isinstance(original, property):
                patched = property(self._wrap(original.fget, span))
            else:
                patched = self._wrap(original, span)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def end_setup(self):
        self.setup_dense = (self.dense_bytes, self.dense_flops)

    def begin_solve(self, solve_id):
        self.solve_id = solve_id
        self._window_start = perf_counter()

    def end_solve(self):
        self.solve_windows.append((self.solve_id, self._window_start, perf_counter()))

    def spans(self):
        """The recorded spans as numpy arrays (durations and self times added)."""
        start = np.array(self.starts, dtype=float)
        end = np.array(self.ends, dtype=float)
        parent = np.array(self.parents, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            "name_id": np.array(self.name_ids, dtype=np.int64),
            "parent": parent,
            "solve_id": np.array(self.solve_ids, dtype=np.int64),
            "start": start,
            "end": end,
            "duration": dur,
            "self": dur - child,
        }

    def untraced_seconds(self, spans):
        """Solve time that no top-level span covers, summed over solves."""
        total = 0.0
        roots = spans["parent"] < 0
        for solve_id, lo, hi in self.solve_windows:
            inside = (
                roots & (spans["solve_id"] == solve_id)
                & (spans["start"] >= lo) & (spans["end"] <= hi)
            )
            total += (hi - lo) - float(spans["duration"][inside].sum())
        return total

    def save(self, path, spans):
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            **{k: v for k, v in spans.items() if k in
               ("name_id", "parent", "solve_id", "start", "end")},
        )
