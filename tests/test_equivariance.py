"""Equivariance of the Tikhonov-Morozov solve under orthogonal maps (ROADMAP item 20).

Under A -> P A Q^T and b -> P b, with P and Q orthogonal, the pair solves
to x -> Q x with alpha unchanged. The maps drawn here are a row
permutation, a column permutation, column sign flips and a random
orthogonal H on the rows; a solve of the mapped problem must take the
same number of iterations, reach the same flag, and return the mapped x
and the same alpha to 1e-10 relative. A column sign flip changes no
magnitude in any product, so there the results must be bitwise equal.
Sparse operators keep their sparsity under permutations and sign flips;
sirt's row and column sums are invariant under permutations only.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tikmor import (
    InverseProblem,
    cgls,
    gbit_solve,
    ntm_solve,
    pntm_solve,
    random_uniform_problem,
    sirt_solve,
)

SOLVERS = {
    "ntm": ntm_solve,
    "pntm": pntm_solve,
    "gbit": gbit_solve,
    "cgls": lambda p: cgls(p.operator, p.b, p.discrepancy_target),
    "sirt": sirt_solve,
}


def row_permutation(rng, m, n):
    """(map of A, map of b, x of the mapped problem from x)."""
    p = rng.permutation(m)
    return (lambda A: A[p]), (lambda b: b[p]), (lambda x: x)


def column_permutation(rng, m, n):
    q = rng.permutation(n)
    return (lambda A: A[:, q]), (lambda b: b), (lambda x: x[q])


def column_signs(rng, m, n):
    s = rng.choice([-1.0, 1.0], n)
    # A @ diags(s) leaves a CSR matrix's column indices unsorted in each row;
    # SparseOperator sorts its copy, so its products sum as on A
    def map_A(A):
        return A @ sp.diags(s) if sp.issparse(A) else A * s

    return map_A, (lambda b: b), (lambda x: s * x)


def row_rotation(rng, m, n):
    H, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (lambda A: H @ A), (lambda b: H @ b), (lambda x: x)


MAPS = {
    "row-permutation": row_permutation,
    "column-permutation": column_permutation,
    "column-signs": column_signs,
    "row-rotation": row_rotation,
}


def _cells():
    for solver in SOLVERS:
        for kind in ("dense", "sparse"):
            for name in MAPS:
                if solver == "sirt" and "permutation" not in name:
                    continue  # its row and column scalings are not orthogonally invariant
                if kind == "sparse" and name == "row-rotation":
                    continue  # H A is dense
                yield solver, kind, name


def _count(result):
    return result.n_outer if hasattr(result, "n_outer") else result.n_iter


@pytest.mark.parametrize("solver, kind, name", list(_cells()))
@given(seed=st.integers(0, 2**16), map_seed=st.integers(0, 2**16))
@settings(max_examples=5, deadline=None)
def test_solve_is_equivariant_under_orthogonal_maps(solver, kind, name, seed, map_seed):
    p = random_uniform_problem(120, 80, 0.10, seed)
    A = p.operator.to_dense()
    if kind == "sparse":
        A = sp.csr_matrix(A)
    map_A, map_b, map_x = MAPS[name](np.random.default_rng(map_seed), *A.shape)
    solve = SOLVERS[solver]
    ref = solve(InverseProblem(operator=A, b=p.b, noise_level=p.noise_level))
    got = solve(InverseProblem(operator=map_A(A), b=map_b(p.b), noise_level=p.noise_level))
    assert (_count(got), got.converged) == (_count(ref), ref.converged)
    want = map_x(ref.x)
    if name == "column-signs":
        assert np.array_equal(got.x, want) and got.alpha == ref.alpha
    else:
        assert np.linalg.norm(got.x - want) <= 1e-10 * np.linalg.norm(want)
        if ref.alpha is not None:
            assert got.alpha == pytest.approx(ref.alpha, rel=1e-10, abs=0)
