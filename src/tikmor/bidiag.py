"""Golub-Kahan bidiagonalization with full reorthogonalization, grown one
column at a time up to the caller's iteration budget.

One expansion adds one column to V (and normally one to U), maintaining
A V_k = U_{k+1} B_{k+1,k} with orthonormal columns and lower bidiagonal B.
Each new direction is reorthogonalized by classical Gram-Schmidt applied
twice (CGS2: "twice is enough", Giraud, Langou & Rozloznik 2005), two
matrix-vector products with the stored basis per pass. Exact invariant
subspaces surface as breakdown, judged against the factorization's own
scale, LSQR's running estimate ||B_k||_F of ||A||_F (``anorm``, Paige &
Saunders 1982). After a breakdown, or at k = min(m, n, k_max), the
factorization is final: ``expand`` returns False and changes nothing, and
it stays usable at its final dimension. A^T b = 0 raises
``DegenerateRhsError``; a non-finite entry of A surfaces as a non-finite mu
or nu. Each expansion also carries LSQR's Givens rotation of B one column
further, so the least-squares residual min_z ||B z - c|| costs O(1) per step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure, DegenerateRhsError, check_count
from .linop import as_operator, real_vector


def _cgs2(vec, rows):
    """vec with its components along the orthonormal rows of ``rows`` removed,
    by two classical Gram-Schmidt passes."""
    for _ in range(2):
        vec = vec - (rows @ vec) @ rows
    return vec


class BidiagFactorization:
    """Holds U, B, V, grown one Krylov step at a time up to k_max columns.

    Storage for cap = min(m, n, k_max) columns of V is allocated once. The
    bases are stored as rows (``_U`` is cap+1 x m, ``_V`` cap x n), so each
    basis vector and each Gram-Schmidt block is contiguous; ``B`` is a copy of
    the active block. A new mu or nu at or below 1e-14 ||B_k||_F (itself
    included) is a breakdown; one that is not finite raises
    ``ConvergenceFailure``. On a nu-breakdown the exactly zero
    trailing row of B is dropped together with the never-created u_{k+1},
    which leaves A V = U B intact with square B.

    ``lsqr_residual`` is phi_k = min_z ||B z - c||, LSQR's ``phibar``: it
    starts at beta, each column of B scales it by the sine of the Givens
    rotation that eliminates that column's subdiagonal entry, and a
    nu-breakdown (square B) sets it to 0.
    """

    def __init__(self, A, b, k_max):
        check_count("k_max", k_max, 1)
        self.A = as_operator(A)
        b = real_vector(b, self.A.rows, "rhs", "operator rows")
        beta = np.linalg.norm(b)
        if beta == 0.0:
            raise DegenerateRhsError("cannot bidiagonalize with b = 0")
        m, n = self.A.shape
        self._cap = cap = min(m, n, k_max)
        self._U = np.zeros((cap + 1, m))
        self._V = np.zeros((cap, n))
        self._B = np.zeros((cap + 1, cap))
        self._U[0] = b / beta
        self._nu = 1  # vectors in U
        self._nv = 0  # vectors in V
        self.beta = float(beta)
        self.lsqr_residual = float(beta)
        self._cos = 1.0  # cosine of the last Givens rotation
        self._anorm = 0.0  # ||B_k||_F
        self.breakdown = False
        self._next = None  # ``_next_direction`` of the current k

    def _accept(self, name, value):
        """Whether a new mu or nu is a direction rather than a breakdown;
        folds it into ||B_k||_F when it is."""
        if not math.isfinite(value):
            raise ConvergenceFailure(f"{name} = {value!r} is not finite")
        anorm = math.hypot(self._anorm, value)
        if value <= 1e-14 * anorm:
            return False
        self._anorm = anorm
        return True

    @property
    def k(self) -> int:
        return self._nv

    @property
    def B(self):
        return self._B[: self._nu, : self._nv].copy()

    @property
    def c(self):
        c = np.zeros(self._nu)
        c[0] = self.beta
        return c

    @np.errstate(invalid="ignore", over="ignore")  # non-finite A: mu or nu says so
    def expand(self) -> bool:
        """Grow the factorization by one column of V.

        Returns True on a clean expansion and False once the factorization
        is final: the new direction fell below the breakdown tolerance
        (``breakdown`` is set), or it was final already and stays unchanged.
        mu_1 = ||A^T b|| = 0 raises ``DegenerateRhsError``.
        """
        if not self.can_expand():
            return False
        k = self.k
        r, mu = self._next_direction()
        self._next = None
        if not self._accept("mu", mu):
            if k == 0:
                raise DegenerateRhsError("A^T b is numerically zero: no Krylov direction exists")
            self.breakdown = True
            return False
        self._nv += 1
        self._V[k] = r / mu
        self._B[k, k] = mu

        p = self.A.matvec(self._V[k]) - mu * self._U[k]
        p = _cgs2(p, self._U[: k + 1])
        nu = float(np.linalg.norm(p))
        if not self._accept("nu", nu):
            self.breakdown = True
            self.lsqr_residual = 0.0
            return False
        rhobar = self._cos * mu  # diagonal entry left by the previous rotations
        rho = math.hypot(rhobar, nu)
        self._cos = rhobar / rho
        self.lsqr_residual *= nu / rho
        self._nu += 1
        self._U[k + 1] = p / nu
        self._B[k + 1, k] = nu
        return True

    @np.errstate(invalid="ignore", over="ignore")
    def _next_direction(self):
        """(r, mu): the next column of V before its normalization, and mu_{k+1}
        = ||r||, the first half of the next expansion. Computed once per k,
        whether ``normal_tail`` or ``expand`` asks first."""
        if self._next is None:
            k = self.k
            r = self.A.rmatvec(self._U[k])
            if k > 0:
                r = r - self._B[k, k - 1] * self._V[k - 1]
            r = _cgs2(r, self._V[:k])
            self._next = r, float(np.linalg.norm(r))
        return self._next

    @property
    def atb_norm(self) -> float:
        """||A^T b|| = mu_1 beta."""
        return float(self._B[0, 0]) * self.beta

    def normal_tail(self, y) -> float:
        """mu_{k+1} nu_{k+1} y_k, the part of the full-space normal residual
        that the projection does not see: as A^T U_{k+1} = V_k B^T + mu_{k+1}
        v_{k+1} e_{k+1}^T, for x = V y

            ||A^T (A x - b) + alpha x||^2 = ||B^T (B y - c) + alpha y||^2
                                            + normal_tail(y)^2

        (Paige & Saunders 1982). 0 once the factorization is final: after a
        breakdown, or once V spans the whole domain."""
        if self.breakdown or self.k == self.A.cols:
            return 0.0
        mu = self._next_direction()[1]
        # nu_{k+1} y_k = (B y - c)_{k+1} first: it is of the residual's size
        return mu * (float(self._B[self.k, self.k - 1]) * float(y[-1]))

    def can_expand(self) -> bool:
        return not self.breakdown and self.k < self._cap

    def lift(self, y):
        """Map projected coordinates to the full space: x = V y."""
        return real_vector(y, self._nv, "y", "factorization columns") @ self._V[: self._nv]
