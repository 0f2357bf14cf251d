"""Linear operators, Matrix Market ingestion and standard-form transformation.

Operators expose ``matvec``/``rmatvec`` plus exact dimensions. Three
representations are supported: dense (ndarray), sparse (CSR) and the
composite right-preconditioned product ``A @ inv(L)`` used to reduce
general-form Tikhonov problems to standard form. Tikhonov systems
(G + alpha I) x = g are not solved here: the solvers solve them in the
eigenbasis of A^T A, formed from ``to_dense()`` by ``ntm.gram_spectrum``.

Everything is float64: ``real_vector`` takes each vector from outside and the
operators each matrix, real entries as float64, complex or non-numeric ones as
an ``UnsupportedFormatError`` and a ragged nested list as a ``DimensionError``.
Operators are immutable: a ``DenseOperator`` holds a read-only float64 array
that owns its data as is (a generator or the Matrix Market loader hands A over)
and copies anything else. ``scipy.sparse`` is imported on first sparse use.

A dense ``matvec`` or ``rmatvec`` over at least ``SPLIT_ENTRIES`` matrix entries
runs, where numpy's BLAS has one thread, as one BLAS call per CPU in
``os.sched_getaffinity(0)``, each on a block of rows of A (of A^T) aligned to 64
rows, on the calling thread and persistent helper threads (one per extra CPU,
woken and awaited through plain locks). The blocks are sized from the rows per
second each reached on earlier products of that size, so that they finish
together. A product has the bits of the whole call whatever the CPU count and
the cuts; ``taskset -c 0`` runs every product whole, as does a thread that
finds the helpers busy with another thread's product.
"""

from __future__ import annotations

import os
import sys
import threading
from time import perf_counter

import numpy as np

from .errors import DimensionError, MatrixMarketError, UnsupportedFormatError, check_count


class LinearOperator:
    """Base class: an m-by-n real linear map with an exact transpose."""

    rows: int
    cols: int

    @property
    def shape(self):
        return (self.rows, self.cols)

    def matvec(self, v):
        raise NotImplementedError

    def rmatvec(self, w):
        raise NotImplementedError

    def to_dense(self):
        raise NotImplementedError


def _real(a, what):
    """``a`` (anything with a dtype); UnsupportedFormatError unless it is real."""
    if a.dtype.kind not in "biuf":  # bool, signed, unsigned, float
        raise UnsupportedFormatError(f"{what} has {a.dtype} entries: only real ones are supported")
    return a


def _real_array(a, what):
    """``np.asarray(a)``, real; a ragged nested sequence: DimensionError."""
    try:
        a = np.asarray(a)
    except ValueError as err:  # numpy: "... inhomogeneous shape ..."
        raise DimensionError(f"{what} is not rectangular: {err}") from None
    return _real(a, what)


def real_vector(v, size, what, against):
    """``v`` as a float64 vector of ``size`` entries, ``v`` itself if it is one (as on
    every product); complex or non-numeric: UnsupportedFormatError, other shapes: DimensionError."""
    if not (isinstance(v, np.ndarray) and v.dtype == float and v.shape == (size,)):
        v = np.asarray(_real_array(v, what), dtype=float)
        if v.shape != (size,):
            raise DimensionError(f"{what} length {v.shape} does not match {against} {size}")
    return v


# -- dense products split across the CPUs --------------------------------------

# A dense product over at least this many matrix entries is split; below it the
# hand-off to a helper costs more than the second CPU saves (2 vCPU, 1 BLAS
# thread: 1.1M entries slower split, 1.3M faster). table1's 700x500 stays whole.
SPLIT_ENTRIES = 1_200_000
_ALIGN = 64  # block boundaries: a row keeps its alignment and its place in gemv's row groups

# Split only where numpy's BLAS has one thread: the first of its thread variables
# that is set reads 1, at import. A BLAS that threads products competes with the
# split (2100x1500 pntm or gbit, 2 vCPU, 2 BLAS threads: 35-44 ms split, 29-32 whole).
_threads = [os.environ.get(v, "").strip()
            for v in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")]
_SPLIT = next(filter(None, _threads), "") == "1"

# Persistent helper threads for the process, whose CPUs every operator shares:
# one per extra CPU, started on the first split product, not on import. A
# product claims them all or, finding them busy, runs whole.
_helpers = None
_claim = threading.Lock()

# Each block's share of the rows, per (rows, parts): an exponential average of
# the rows per second each block reached on earlier products, normalized, so
# that the blocks finish together.
_shares = {}
_LEARN = 0.125  # weight of the newest product in the average


def _forget_helpers():
    global _helpers, _claim
    _helpers, _claim = None, threading.Lock()  # a fork child has none of its parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunks(rows):
    """Row chunks that blocks are made of: _ALIGN rows each but the last, which
    holds the rest, at least 2 rows (numpy takes a one-row block as a dot
    product, summed differently)."""
    return (rows + _ALIGN - 2) // _ALIGN


def _cuts(rows, shares):
    """Block boundaries ``0 < c_1 < ... < rows`` splitting ``rows`` in proportion
    to ``shares``: each inner one a multiple of _ALIGN, each block at least one chunk."""
    chunks, parts = _chunks(rows), len(shares)
    cuts, acc = [0], 0.0
    for i, share in enumerate(shares[:-1], start=1):
        acc += share
        cuts.append(min(max(round(acc * rows / _ALIGN), cuts[-1] + 1), chunks - parts + i))
    return [_ALIGN * c for c in cuts] + [rows]


def _block(M, x, y, err):
    with np.errstate(**err):
        np.matmul(M, x, out=y)


class _Helper:
    """A thread that computes one block per wake-up: ``go`` hands it a job,
    ``done`` hands back the block, written, with its end time and exception."""

    def __init__(self, name):
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.job = self.error = None
        threading.Thread(target=self._serve, name=name, daemon=True).start()

    def _serve(self):
        while True:
            self.go.acquire()
            try:
                _block(*self.job)  # whose frame, not this one, holds the operands
            except BaseException as exc:  # raised by the caller
                self.error = exc
            self.end = perf_counter()
            self.job = None  # holds no operand between products
            self.done.release()


def _product(M, x):
    """``M @ x``, bit for bit: split into one row block of M per CPU when M is large.

    Each block is one BLAS gemv into its slice of the output, so every entry is
    summed by the same kernel in the same order as in the whole call (at one
    BLAS thread), wherever the cuts fall. The caller computes the first block
    and helper threads the others, under the caller's floating-point error
    state; the blocks are sized by the learned ``_shares``.
    """
    if not _SPLIT or M.size < SPLIT_ENTRIES:
        return M @ x
    rows = M.shape[0]
    parts = min(_cpus(), _chunks(rows))
    if parts < 2 or not _claim.acquire(blocking=False):
        return M @ x  # one CPU, too few rows, or the helpers are busy
    try:
        return _split(M, x, rows, parts)
    finally:
        _claim.release()


def _split(M, x, rows, parts):
    global _helpers
    if _helpers is None:
        _helpers = []
    while len(_helpers) < parts - 1:
        _helpers.append(_Helper(f"tikmor-product-{len(_helpers) + 1}"))
    helpers = _helpers[: parts - 1]
    key = (rows, parts)
    shares = _shares.get(key) or [1 / parts] * parts
    cuts = _cuts(rows, shares)
    y = np.empty(rows)
    err = np.geterr()
    start = perf_counter()
    for helper, lo, hi in zip(helpers, cuts[1:], cuts[2:]):
        helper.job = (M[lo:hi], x, y[lo:hi], err)
        helper.go.release()
    failed = None
    try:
        np.matmul(M[: cuts[1]], x, out=y[: cuts[1]])
        ends = [perf_counter()]
    finally:
        for helper in helpers:  # every block is written before y is returned or dropped
            helper.done.acquire()
            failed, helper.error = failed or helper.error, None
    if failed is not None:
        raise failed
    ends += [helper.end for helper in helpers]
    speeds = [(hi - lo) / (end - start) for lo, hi, end in zip(cuts, cuts[1:], ends)]
    total = sum(speeds)
    _shares[key] = [s + _LEARN * (v / total - s) for s, v in zip(shares, speeds)]
    return y


class DenseOperator(LinearOperator):
    def __init__(self, matrix):
        A = matrix  # a read-only float64 array that owns its data is taken as is
        if not (isinstance(A, np.ndarray) and A.dtype == float
                and A.flags.owndata and not A.flags.writeable):
            A = np.array(_real_array(matrix, "matrix"), dtype=float)  # own copy
            A.setflags(write=False)
        if A.ndim != 2:
            raise DimensionError(f"dense operator needs a 2-d array, got ndim={A.ndim}")
        self._A = A
        self.rows, self.cols = A.shape

    def matvec(self, v):
        return _product(self._A, real_vector(v, self.cols, "matvec input", "operator cols"))

    def rmatvec(self, w):
        return _product(self._A.T, real_vector(w, self.rows, "rmatvec input", "operator rows"))

    def to_dense(self):
        return self._A


class SparseOperator(LinearOperator):
    def __init__(self, matrix):
        import scipy.sparse as sp
        # object or complex entries fail typed, before scipy sees them
        matrix = _real(matrix, "matrix") if sp.issparse(matrix) else _real_array(matrix, "matrix")
        A = sp.csr_matrix(matrix).astype(float)  # own copy
        A.sum_duplicates()  # canonical, columns sorted in each row: one summation order
        self._A = A
        self.rows, self.cols = A.shape

    def matvec(self, v):
        return self._A @ real_vector(v, self.cols, "matvec input", "operator cols")

    def rmatvec(self, w):
        return self._A.T @ real_vector(w, self.rows, "rmatvec input", "operator rows")

    def to_dense(self):
        return self._A.toarray()

    @property
    def sparse(self):
        return self._A


class RegularizationMatrix:
    """Upper bidiagonal smoothing matrix: -1 on the diagonal, +1 above it.

    Square and invertible by construction; applying the inverse is a
    back substitution, which for this stencil collapses to a reversed
    cumulative sum. The explicit inverse is never formed by the solvers.
    """

    def __init__(self, dim):
        self.dim = int(check_count("dim", dim, 1, DimensionError))

    def solve(self, w):
        """z with L z = w (back substitution, O(n))."""
        w = real_vector(w, self.dim, "solve input", "regularizer dim")
        return -np.cumsum(w[::-1])[::-1]

    def solve_transpose(self, w):
        """z with L^T z = w along the last axis (forward substitution, O(n)
        per row): for a matrix W, the rows of W inv(L)."""
        w = np.asarray(_real_array(w, "solve_transpose input"), dtype=float)
        if w.shape[-1:] != (self.dim,):
            raise DimensionError(f"expected last axis of length {self.dim}, got {w.shape}")
        z = np.cumsum(w, axis=-1)
        return np.negative(z, out=z)


class PriorconditionedOperator(LinearOperator):
    """The standard-form operator A @ inv(L) of a smoothing prior L.

    A solution z of A inv(L) z = b maps back to x = inv(L) z
    (``priorconditioned_problem``). ``reg`` provides ``dim``, ``solve`` and
    ``solve_transpose`` (along the last axis).
    """

    def __init__(self, base: LinearOperator, reg):
        if reg.dim != base.cols:
            raise DimensionError(
                f"regularizer dim {reg.dim} does not match operator cols {base.cols}"
            )
        self.base = base
        self.reg = reg
        self.rows, self.cols = base.rows, base.cols

    def matvec(self, z):
        return self.base.matvec(self.reg.solve(z))

    def rmatvec(self, w):
        return self.reg.solve_transpose(self.base.rmatvec(w))

    def to_dense(self):
        return self.reg.solve_transpose(self.base.to_dense())


def _issparse(obj):
    sp = sys.modules.get("scipy.sparse")  # not loaded: obj cannot be sparse
    return sp is not None and sp.issparse(obj)


def as_operator(obj) -> LinearOperator:
    if isinstance(obj, LinearOperator):
        return obj
    if _issparse(obj):
        return SparseOperator(obj)
    return DenseOperator(obj)


# -- Matrix Market ----------------------------------------------------------

_MM_BANNER = "%%matrixmarket"


def load_matrix_market(path) -> LinearOperator:
    """Read a real Matrix Market file into an operator.

    Coordinate files become sparse operators, array files dense ones.
    Symmetric and skew-symmetric storage is expanded from its lower triangle
    (skew: below the diagonal); a coordinate entry outside it, or an integer
    field's value not written as an integer, is malformed. Complex and
    pattern fields are rejected. The file is read in one pass, straight
    into the value arrays, which are allocated only for a size line that the
    file's bytes can hold (each entry takes at least 2). A malformed file
    raises a ``MatrixMarketError`` that reads ``<path> line <n>: <what>``.
    """
    try:
        return _read_matrix_market(path)
    except MatrixMarketError as err:  # each carries its line: "line <n>: <what>"
        err.args = (f"{path} {err}",)
        raise


def _mm_value(token, field):
    """A stored value as a float; an integer field's must be written as an integer."""
    return float(int(token) if field == "integer" else token)


def _read_matrix_market(path) -> LinearOperator:
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        if not first:
            raise MatrixMarketError("empty file", line=1)
        header = first.strip().lower().split()
        if len(header) != 5 or header[0] != _MM_BANNER or header[1] != "matrix":
            raise MatrixMarketError(f"bad header {first.strip()!r}", line=1)
        layout, field, symmetry = header[2], header[3], header[4]
        if layout not in ("coordinate", "array"):
            raise UnsupportedFormatError(f"unsupported layout {layout!r}", line=1)
        if field not in ("real", "integer"):
            raise UnsupportedFormatError(f"unsupported field {field!r}", line=1)
        if symmetry not in ("general", "symmetric", "skew-symmetric"):
            raise UnsupportedFormatError(f"unsupported symmetry {symmetry!r}", line=1)
        skew = int(symmetry == "skew-symmetric")  # stored triangle: j < i, else j <= i
        sign = -1.0 if skew else 1.0  # of the mirrored entries

        # skip comments/blank lines; keep real line numbers for diagnostics
        numbered = enumerate(fh, start=2)
        size_lineno = 1
        for size_lineno, size_line in numbered:
            size_line = size_line.strip()
            if size_line and not size_line.startswith("%"):
                break
        else:
            raise MatrixMarketError("missing size line", line=size_lineno)
        parts = size_line.split()
        try:
            dims = [int(p) for p in parts]
        except ValueError:
            raise MatrixMarketError(f"bad size line {size_line!r}", line=size_lineno)
        size_fields = "rows cols nnz" if layout == "coordinate" else "rows cols"
        if len(dims) != len(size_fields.split()):
            raise MatrixMarketError(f"{layout} size line needs {size_fields!r}", line=size_lineno)
        if min(dims) < 0:
            raise MatrixMarketError(f"negative size in {size_line!r}", line=size_lineno)
        m, n = dims[:2]
        if symmetry != "general" and m != n:
            raise MatrixMarketError("symmetric storage requires a square matrix", line=size_lineno)

        entries = (
            (i, ln.strip()) for i, ln in numbered
            if ln.strip() and not ln.lstrip().startswith("%")
        )
        if layout == "coordinate":
            expected, what = dims[2], "entries"
        elif symmetry == "general":
            expected, what = m * n, "values"
        else:
            expected = m * (m + 1) // 2 if symmetry == "symmetric" else m * (m - 1) // 2
            what = "values"
        size = os.fstat(fh.fileno()).st_size
        if 2 * expected > size:
            raise MatrixMarketError(
                f"size line declares {expected} {what}, more than a file of {size} bytes holds",
                line=size_lineno,
            )
        if layout == "coordinate":
            rows = np.empty(expected, dtype=np.int64)
            cols = np.empty(expected, dtype=np.int64)
        vals = np.empty(expected, dtype=float)
        found = 0
        for found, (lineno, ln) in enumerate(entries, start=1):
            if found > expected:
                continue  # only counted, for the error below
            idx = found - 1
            toks = ln.split()
            if layout == "coordinate":
                if len(toks) != 3:
                    raise MatrixMarketError(f"bad entry {ln!r}", line=lineno)
                try:
                    i, j, v = int(toks[0]), int(toks[1]), _mm_value(toks[2], field)
                except (ValueError, OverflowError):
                    raise MatrixMarketError(f"bad entry {ln!r} for field {field!r}", line=lineno)
                if not (1 <= i <= m and 1 <= j <= n):
                    raise MatrixMarketError(f"index ({i},{j}) outside {m}x{n}", line=lineno)
                if symmetry != "general" and j + skew > i:
                    raise MatrixMarketError(
                        f"entry ({i},{j}) outside the triangle {symmetry} storage keeps",
                        line=lineno,
                    )
                rows[idx], cols[idx], vals[idx] = i - 1, j - 1, v
            else:  # array layout: column-major dense values
                if len(toks) != 1:
                    raise MatrixMarketError(f"expected one value per line, got {ln!r}", line=lineno)
                try:
                    vals[idx] = _mm_value(toks[0], field)
                except (ValueError, OverflowError):
                    raise MatrixMarketError(f"bad value {ln!r} for field {field!r}", line=lineno)
        if found != expected:
            raise MatrixMarketError(f"expected {expected} {what}, found {found}", line=size_lineno)

    if layout == "array":  # A is built owned and read-only, so DenseOperator keeps it
        if symmetry == "general":
            A = vals.reshape((n, m)).T.copy()
        else:  # the stored lower triangle, column by column, and its mirror
            A, end = np.zeros((m, n)), 0
            for j in range(n):
                start, end = end, end + n - j - skew
                A[j + skew:, j] = vals[start:end]
                A[j, j + skew:] = sign * vals[start:end]
        A.setflags(write=False)
        return DenseOperator(A)
    if symmetry != "general":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, sign * vals[off]]),
        )
    import scipy.sparse as sp
    return SparseOperator(sp.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr())


def save_matrix_market(path, matrix):
    """Write a dense array or sparse matrix as a real general MM file. Complex or
    non-numeric entries raise an UnsupportedFormatError before the file is opened."""
    sparse = _issparse(matrix)
    A = _real(matrix, "matrix") if sparse else np.asarray(_real_array(matrix, "matrix"), dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        if sparse:
            coo = A.tocoo()
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")
        else:
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{A.shape[0]} {A.shape[1]}\n")
            for j in range(A.shape[1]):
                for i in range(A.shape[0]):
                    fh.write(f"{float(A[i, j])!r}\n")
