"""Linear operators, Matrix Market ingestion and standard-form transformation.

Operators expose ``matvec``/``rmatvec`` plus exact dimensions. Three
representations are supported: dense (ndarray), sparse (CSR) and the
composite right-preconditioned product ``A @ inv(L)`` used to reduce
general-form Tikhonov problems to standard form. Tikhonov systems
(G + alpha I) x = g are not solved here: the solvers solve them in the
eigenbasis of the dense Gram matrix ``gram()``.

Everything is float64; operators are immutable after construction. A
``DenseOperator`` holds a read-only float64 array that owns its data as is
(a generator hands A over) and copies anything else, so a caller may
change its writable array later. ``scipy.sparse`` is imported on first
sparse use, so a dense run never loads it.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import (
    DimensionError,
    MatrixMarketError,
    UnsupportedFormatError,
)


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

    def gram(self):
        """Dense A^T A, diagonalized once per full-space solve (``ntm.spectral_gram``)."""
        A = self.to_dense()
        return A.T @ A

    def _check_in(self, v, length, name):
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or v.shape[0] != length:
            raise DimensionError(
                f"{name} expects a vector of length {length}, got shape {v.shape}"
            )
        return v


class DenseOperator(LinearOperator):
    def __init__(self, matrix):
        A = matrix  # a read-only float64 array that owns its data is taken as is
        if not (isinstance(A, np.ndarray) and A.dtype == float
                and A.flags.owndata and not A.flags.writeable):
            A = np.array(matrix, dtype=float)  # own copy: operators are immutable
            A.setflags(write=False)
        if A.ndim != 2:
            raise DimensionError(f"dense operator needs a 2-d array, got ndim={A.ndim}")
        self._A = A
        self.rows, self.cols = A.shape

    def matvec(self, v):
        return self._A @ self._check_in(v, self.cols, "matvec")

    def rmatvec(self, w):
        return self._A.T @ self._check_in(w, self.rows, "rmatvec")

    def to_dense(self):
        return self._A


class SparseOperator(LinearOperator):
    def __init__(self, matrix):
        import scipy.sparse as sp
        A = sp.csr_matrix(matrix).astype(float)
        self._A = A
        self._At = A.T.tocsr()
        self.rows, self.cols = A.shape

    def matvec(self, v):
        return self._A @ self._check_in(v, self.cols, "matvec")

    def rmatvec(self, w):
        return self._At @ self._check_in(w, self.rows, "rmatvec")

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
        if dim < 1:
            raise DimensionError("regularization matrix needs dim >= 1")
        self.dim = int(dim)

    def solve(self, w):
        """z with L z = w (back substitution, O(n))."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise DimensionError(f"expected length {self.dim}, got {w.shape}")
        return -np.cumsum(w[::-1])[::-1]

    def solve_transpose(self, w):
        """z with L^T z = w along the last axis (forward substitution, O(n)
        per row): for a matrix W, the rows of W inv(L)."""
        w = np.asarray(w, dtype=float)
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
        return self.base.matvec(self.reg.solve(self._check_in(z, self.cols, "matvec")))

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
    Symmetric and skew-symmetric storage is expanded. Complex and
    pattern fields are rejected. The file is read in one pass, straight
    into the value arrays.
    """
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
            rows = np.empty(expected, dtype=np.int64)
            cols = np.empty(expected, dtype=np.int64)
        elif symmetry == "general":
            expected, what = m * n, "values"
        else:
            expected = m * (m + 1) // 2 if symmetry == "symmetric" else m * (m - 1) // 2
            what = "values"
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
                    i, j, v = int(toks[0]), int(toks[1]), float(toks[2])
                except ValueError:
                    raise MatrixMarketError(f"bad entry {ln!r}", line=lineno)
                if not (1 <= i <= m and 1 <= j <= n):
                    raise MatrixMarketError(f"index ({i},{j}) outside {m}x{n}", line=lineno)
                rows[idx], cols[idx], vals[idx] = i - 1, j - 1, v
            else:  # array layout: column-major dense values
                if len(toks) != 1:
                    raise MatrixMarketError(f"expected one value per line, got {ln!r}", line=lineno)
                try:
                    vals[idx] = float(toks[0])
                except ValueError:
                    raise MatrixMarketError(f"bad value {ln!r}", line=lineno)
        if found != expected:
            raise MatrixMarketError(f"expected {expected} {what}, found {found}", line=size_lineno)

    if layout == "array":
        if symmetry == "general":
            return DenseOperator(vals.reshape((n, m)).T.copy())
        # the stored lower triangle, column by column
        cols, rows = np.triu_indices(n, 1 if symmetry == "skew-symmetric" else 0)

    if symmetry != "general":
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, sign * vals[off]]),
        )
    if layout == "array":  # each position stored once: no duplicates to sum
        A = np.zeros((m, n))
        A[rows, cols] = vals
        return DenseOperator(A)
    import scipy.sparse as sp
    return SparseOperator(sp.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr())


def save_matrix_market(path, matrix):
    """Write a dense array or sparse matrix as a real general MM file."""
    with open(path, "w", encoding="ascii") as fh:
        if _issparse(matrix):
            coo = matrix.tocoo()
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")
        else:
            A = np.asarray(matrix, dtype=float)
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{A.shape[0]} {A.shape[1]}\n")
            for j in range(A.shape[1]):
                for i in range(A.shape[0]):
                    fh.write(f"{float(A[i, j])!r}\n")

