"""Growable Golub-Kahan bidiagonalization with full reorthogonalization.

One expansion adds one column to V (and normally one to U), maintaining
A V_k = U_{k+1} B_{k+1,k} with orthonormal columns and lower bidiagonal B.
Each new direction is reorthogonalized by classical Gram-Schmidt applied
twice (CGS2: "twice is enough", Giraud, Langou & Rozloznik 2005), two
matrix-vector products with the stored basis per pass. Exact invariant
subspaces surface as breakdown; the factorization then stays usable at
its final dimension. Each expansion also carries LSQR's Givens rotation of
B one column further (Paige & Saunders 1982), so the least-squares
residual min_z ||B z - c|| costs O(1) per step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure, DegenerateRhsError, TikmorError
from .linop import as_operator


class BidiagBreakdown(TikmorError):
    """Krylov subspace became invariant; the factorization is final."""


def _cgs2(vec, rows):
    """vec with its components along the orthonormal rows of ``rows`` removed,
    by two classical Gram-Schmidt passes."""
    for _ in range(2):
        vec = vec - (rows @ vec) @ rows
    return vec


class BidiagFactorization:
    """Holds U, B, V, growable one Krylov step at a time.

    The bases are stored as rows (``_U`` is cap x m, ``_V`` cap x n), so
    each basis vector and each Gram-Schmidt block is contiguous; ``U``/``V``
    expose transposed views of the active rows (m x k+1 and n x k) and
    ``B`` a copy of the active block. Storage of U, V and B doubles
    together, amortized. On a nu-breakdown the exactly zero trailing row
    of B is dropped together with the never-created u_{k+1}, which leaves
    A V = U B intact with square B.

    ``lsqr_residual`` is phi_k = min_z ||B z - c||, LSQR's ``phibar``: it
    starts at beta, each column of B scales it by the sine of the Givens
    rotation that eliminates that column's subdiagonal entry, and a
    nu-breakdown (square B) sets it to 0.
    """

    def __init__(self, A, b):
        self.A = as_operator(A)
        b = np.asarray(b, dtype=float)
        beta = np.linalg.norm(b)
        if beta == 0.0:
            raise DegenerateRhsError("cannot bidiagonalize with b = 0")
        m, n = self.A.shape
        self._U = np.zeros((8, m))
        self._V = np.zeros((8, n))
        self._B = np.zeros((8, 8))
        self._U[0] = b / beta
        self._nu = 1  # vectors in U
        self._nv = 0  # vectors in V
        self.beta = float(beta)
        self.lsqr_residual = float(beta)
        self._cos = 1.0  # cosine of the last Givens rotation
        self.breakdown = False
        norm = self.A.frobenius_norm()
        if not math.isfinite(norm):
            raise ConvergenceFailure(f"||A||_F = {norm!r} is not finite")
        self.breakdown_tol = 1e-14 * norm

    def _grow(self):
        # room for one more vector of U; V never holds more vectors than U
        cap = self._U.shape[0]
        if self._nu == cap:
            self._U = np.concatenate([self._U, np.zeros_like(self._U)])
            self._V = np.concatenate([self._V, np.zeros_like(self._V)])
            self._B = np.pad(self._B, ((0, cap), (0, cap)))

    @property
    def k(self) -> int:
        return self._nv

    @property
    def U(self):
        return self._U[: self._nu].T

    @property
    def V(self):
        return self._V[: self._nv].T

    @property
    def B(self):
        return self._B[: self._nu, : self._nv].copy()

    @property
    def c(self):
        c = np.zeros(self._nu)
        c[0] = self.beta
        return c

    def expand(self) -> bool:
        """Grow the factorization by one column of V.

        Returns True on a clean expansion. Returns False when the new
        direction falls below the breakdown tolerance; the factorization
        is then final (and ``breakdown`` is set).
        """
        if self.breakdown:
            raise BidiagBreakdown("factorization already broke down")
        m, n = self.A.shape
        if self.k >= min(m, n):
            raise BidiagBreakdown(f"subspace already full at k = {self.k}")

        k = self.k
        r = self.A.rmatvec(self._U[k])
        if k > 0:
            r = r - self._B[k, k - 1] * self._V[k - 1]
        r = _cgs2(r, self._V[:k])
        mu = float(np.linalg.norm(r))
        if mu <= self.breakdown_tol:
            self.breakdown = True
            return False
        self._nv += 1
        self._V[k] = r / mu
        self._B[k, k] = mu

        p = self.A.matvec(self._V[k]) - mu * self._U[k]
        p = _cgs2(p, self._U[: k + 1])
        nu = float(np.linalg.norm(p))
        if nu <= self.breakdown_tol:
            self.breakdown = True
            self.lsqr_residual = 0.0
            return False
        rhobar = self._cos * mu  # diagonal entry left by the previous rotations
        rho = math.hypot(rhobar, nu)
        self._cos = rhobar / rho
        self.lsqr_residual *= nu / rho
        self._grow()
        self._nu += 1
        self._U[k + 1] = p / nu
        self._B[k + 1, k] = nu
        return True

    def can_expand(self) -> bool:
        return not self.breakdown and self.k < min(self.A.shape)

    def lift(self, y):
        """Map projected coordinates to the full space: x = V y."""
        y = np.asarray(y, dtype=float)
        return y @ self._V[: self._nv]


def init_bidiag(A, b) -> BidiagFactorization:
    """k = 0 factorization holding u_1 = b / ||b||."""
    return BidiagFactorization(A, b)
