import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tikmor import (
    DenseOperator,
    DimensionError,
    MatrixMarketError,
    PriorconditionedOperator,
    RegularizationMatrix,
    SparseOperator,
    UnsupportedFormatError,
    as_operator,
    load_matrix_market,
    random_uniform_problem,
    save_matrix_market,
)

from oracles import inverse_dense, normal_equation_solve, regularization_dense


# -- operators ---------------------------------------------------------------


def adjoint_defect(op, rng, trials=100):
    worst = 0.0
    fro = np.linalg.norm(op.to_dense())
    for _ in range(trials):
        v = rng.standard_normal(op.cols)
        w = rng.standard_normal(op.rows)
        lhs = float(op.matvec(v) @ w)
        rhs = float(v @ op.rmatvec(w))
        scale = np.linalg.norm(v) * np.linalg.norm(w) * fro
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def test_dense_adjoint_consistency(rng):
    op = DenseOperator(rng.standard_normal((17, 9)))
    assert adjoint_defect(op, rng) <= 1e-12


def test_sparse_adjoint_consistency(rng):
    A = sp.random(25, 13, density=0.3, random_state=7)
    op = SparseOperator(A)
    assert adjoint_defect(op, rng) <= 1e-12


def test_composite_adjoint_consistency(rng):
    base = DenseOperator(rng.standard_normal((12, 8)))
    op = PriorconditionedOperator(base, RegularizationMatrix(8))
    assert adjoint_defect(op, rng) <= 1e-12


def test_dense_operator_copies_a_writable_array(rng):
    A = rng.standard_normal((6, 4))
    op = DenseOperator(A)
    v = rng.standard_normal(4)
    before = op.matvec(v)
    A[:] = 0.0
    assert np.array_equal(op.matvec(v), before)
    assert not op.to_dense().flags.writeable
    with pytest.raises(ValueError):
        op.to_dense()[0, 0] = 1.0


def test_dense_operator_takes_a_frozen_owned_array_as_is(rng):
    A = rng.standard_normal((6, 4))
    A.setflags(write=False)
    assert DenseOperator(A).to_dense() is A
    view = A[:3]  # read-only, but shares its data: copied
    assert DenseOperator(view).to_dense() is not view
    ints = np.arange(6).reshape(3, 2)
    ints.setflags(write=False)
    assert DenseOperator(ints).to_dense().dtype == float


def test_generated_matrix_is_bitwise_two_u_minus_one():
    # built in place as u *= 2; u -= 1, which rounds exactly as 2.0 * u - 1.0
    A = random_uniform_problem(2100, 1500, 0.1, 2000).operator.to_dense()
    ref = 2.0 * np.random.default_rng(2000).random((2100, 1500)) - 1.0
    assert A.tobytes() == ref.tobytes()


def test_dimension_checks(rng):
    op = DenseOperator(rng.standard_normal((4, 3)))
    with pytest.raises(DimensionError):
        op.matvec(np.ones(4))
    with pytest.raises(DimensionError):
        op.rmatvec(np.ones(3))


def test_composite_matches_dense_product(rng):
    base = DenseOperator(rng.standard_normal((10, 6)))
    reg = RegularizationMatrix(6)
    op = PriorconditionedOperator(base, reg)
    dense = op.to_dense()
    v = rng.standard_normal(6)
    assert np.allclose(op.matvec(v), dense @ v, atol=1e-12)


# -- regularization matrix ----------------------------------------------------


def test_reg_solve_hand_example():
    L = RegularizationMatrix(2)
    assert np.allclose(L.solve(np.array([1.0, 1.0])), [-2.0, -1.0])


def test_reg_solve_zero():
    L = RegularizationMatrix(3)
    assert np.array_equal(L.solve(np.zeros(3)), np.zeros(3))


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_reg_solve_residual(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    L, D = RegularizationMatrix(n), regularization_dense(n)
    z = L.solve(w)
    assert np.linalg.norm(D @ z - w) <= 1e-12 * max(1.0, np.linalg.norm(w))
    zt = L.solve_transpose(w)
    assert np.linalg.norm(D.T @ zt - w) <= 1e-12 * max(1.0, np.linalg.norm(w))


def test_reg_dense_agrees_with_stencil(rng):
    L, D = RegularizationMatrix(7), regularization_dense(7)
    v = rng.standard_normal(7)
    assert np.allclose(D @ L.solve(v), v)
    assert np.allclose(D.T @ L.solve_transpose(v), v)
    assert np.allclose(inverse_dense(7), np.linalg.inv(D))


def test_reg_solve_transpose_acts_on_rows(rng):
    L = RegularizationMatrix(6)
    W = rng.standard_normal((4, 6))
    Z = L.solve_transpose(W)
    assert np.allclose(Z, W @ inverse_dense(6), rtol=0, atol=1e-12)
    assert np.array_equal(Z[2], L.solve_transpose(W[2]))
    with pytest.raises(DimensionError):
        L.solve_transpose(np.ones((6, 5)))
    with pytest.raises(DimensionError):
        L.solve_transpose(np.ones(5))


def test_priorconditioning_round_trip(rng):
    # z = L x maps back through inv(L), and A inv(L) z reproduces A x
    n = 15
    reg = RegularizationMatrix(n)
    base = DenseOperator(rng.standard_normal((20, n)))
    op = PriorconditionedOperator(base, reg)
    x = rng.standard_normal(n)
    z = regularization_dense(n) @ x
    rec = reg.solve(z)
    assert np.linalg.norm(rec - x) <= 1e-12 * max(1.0, np.linalg.norm(x))
    assert np.allclose(op.matvec(z), base.matvec(x), rtol=0, atol=1e-12)


# -- Matrix Market ------------------------------------------------------------


def test_mm_coordinate_diagonal(tmp_path):
    path = tmp_path / "diag.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 2.0\n"
        "2 2 1.0\n"
    )
    op = load_matrix_market(path)
    assert op.shape == (2, 2)
    assert np.allclose(op.matvec(np.array([1.0, 1.0])), [2.0, 1.0])


def test_mm_array_column_major(tmp_path):
    path = tmp_path / "arr.mtx"
    values = "\n".join(str(v) for v in range(1, 7))
    path.write_text("%%MatrixMarket matrix array real general\n3 2\n" + values + "\n")
    op = load_matrix_market(path)
    # column-major fill: first column 1,2,3, second column 4,5,6
    assert np.array_equal(op.to_dense(), [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


def test_mm_complex_rejected(tmp_path):
    path = tmp_path / "cplx.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n")
    with pytest.raises(UnsupportedFormatError):
        load_matrix_market(path)


def test_mm_pattern_rejected(tmp_path):
    path = tmp_path / "pat.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
    with pytest.raises(UnsupportedFormatError):
        load_matrix_market(path)


def test_mm_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment line\n"
        "2 2 2\n"
        "1 1 2.0\n"
        "2 oops 1.0\n"
    )
    with pytest.raises(MatrixMarketError) as err:
        load_matrix_market(path)
    assert err.value.line == 5
    assert "line 5" in str(err.value)


def test_mm_symmetric_expansion(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n"
        "1 1 2.0\n"
        "2 1 -1.0\n"
        "2 2 2.0\n"
        "3 3 2.0\n"
    )
    op = load_matrix_market(path)
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.array_equal(op.to_dense(), expected)


@pytest.mark.parametrize(
    "symmetry, values, expected",
    [
        ("symmetric", range(1, 7), [[1, 2, 3], [2, 4, 5], [3, 5, 6]]),
        ("skew-symmetric", range(1, 4), [[0, -1, -2], [1, 0, -3], [2, 3, 0]]),
    ],
)
def test_mm_array_symmetric_expansion(tmp_path, symmetry, values, expected):
    # array files store the lower triangle column by column (skew: below the diagonal)
    path = tmp_path / "arr.mtx"
    body = "".join(f"{v}\n" for v in values)
    path.write_text(f"%%MatrixMarket matrix array real {symmetry}\n3 3\n{body}")
    op = load_matrix_market(path)
    assert isinstance(op, DenseOperator)
    assert np.array_equal(op.to_dense(), np.array(expected, dtype=float))


@pytest.mark.parametrize(
    "layout, body", [("coordinate", "3 2 1\n1 1 1.0\n"), ("array", "3 2\n1\n2\n3\n")]
)
def test_mm_symmetric_storage_needs_square(tmp_path, layout, body):
    path = tmp_path / "rect.mtx"
    path.write_text(f"%%MatrixMarket matrix {layout} real symmetric\n{body}")
    with pytest.raises(MatrixMarketError, match="square") as err:
        load_matrix_market(path)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "layout, body",
    [("coordinate", "2 2 -1\n"), ("array", "-2 -3\n" + "1\n" * 6)],
)
def test_mm_negative_size_rejected(tmp_path, layout, body):
    path = tmp_path / "neg.mtx"
    path.write_text(f"%%MatrixMarket matrix {layout} real general\n% note\n{body}")
    with pytest.raises(MatrixMarketError, match="negative") as err:
        load_matrix_market(path)
    assert err.value.line == 3


COORD = "%%MatrixMarket matrix coordinate real general\n"
ARRAY = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize(
    "text, error, line, match",
    [
        ("", MatrixMarketError, 1, "empty file"),
        ("%%MatrixMarket vector coordinate real general\n1 1 1\n", MatrixMarketError, 1,
         "bad header"),
        ("%%MatrixMarket matrix dense real general\n", UnsupportedFormatError, 1, "layout"),
        ("%%MatrixMarket matrix coordinate real hermitian\n", UnsupportedFormatError, 1,
         "symmetry"),
        (COORD + "% only a comment\n", MatrixMarketError, 2, "missing size line"),
        (COORD + "2 2 x\n", MatrixMarketError, 2, "bad size line"),
        (COORD + "2 2\n", MatrixMarketError, 2, "needs 'rows cols nnz'"),
        (COORD + "2 2 1\n1 1\n", MatrixMarketError, 3, "bad entry"),
        (COORD + "2 2 1\n3 1 1.0\n", MatrixMarketError, 3, r"index \(3,1\) outside 2x2"),
        (ARRAY + "2 1\n1.0 2.0\n", MatrixMarketError, 3, "one value per line"),
        (ARRAY + "2 1\n1.0\nx\n", MatrixMarketError, 4, "bad value"),
        (COORD + "2 2 2\n1 1 1.0\n", MatrixMarketError, 2, "expected 2 entries, found 1"),
        (ARRAY + "2 1\n1\n2\n3\n", MatrixMarketError, 2, "expected 2 values, found 3"),
    ],
    ids=[
        "empty", "header", "layout", "symmetry", "no-size-line", "size-not-integer",
        "size-fields", "entry-tokens", "index-outside", "array-two-values",
        "array-not-number", "too-few", "too-many",
    ],
)
def test_mm_malformed_input_names_its_line(tmp_path, text, error, line, match):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(MatrixMarketError, match=match) as err:
        load_matrix_market(path)
    assert type(err.value) is error
    assert err.value.line == line


def test_mm_round_trip_sparse(tmp_path, rng):
    A = sp.random(14, 9, density=0.25, random_state=3).tocsr()
    path = tmp_path / "rt.mtx"
    save_matrix_market(path, A)
    op = load_matrix_market(path)
    assert np.allclose(op.to_dense(), A.toarray(), atol=0, rtol=0)


def test_mm_round_trip_dense(tmp_path, rng):
    A = rng.standard_normal((5, 7))
    path = tmp_path / "rt2.mtx"
    save_matrix_market(path, A)
    op = load_matrix_market(path)
    assert np.array_equal(op.to_dense(), A)


# -- normal equations ----------------------------------------------------------


def test_normal_solve_identity():
    x = normal_equation_solve(np.eye(3), np.array([2.0, 2.0, 2.0]), alpha=1.0)
    assert np.allclose(x, [1.0, 1.0, 1.0])


def test_normal_solve_diagonal():
    A = np.diag([2.0, 1.0])
    x = normal_equation_solve(A, np.array([2.0, 1.0]), alpha=2.0)
    # per-component (a_i^2 + alpha) x_i = a_i b_i
    assert np.allclose(x, [2.0 * 2.0 / 6.0, 1.0 / 3.0])


def test_normal_solve_matches_dense_oracle(rng):
    A = rng.standard_normal((10, 5))
    b = rng.standard_normal(10)
    alpha = 0.5
    x = normal_equation_solve(A, b, alpha)
    oracle = np.linalg.solve(A.T @ A + alpha * np.eye(5), A.T @ b)
    assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_normal_solve_residual_bound(rng):
    for trial in range(20):
        A = rng.standard_normal((30, 12))
        b = rng.standard_normal(30)
        alpha = 10.0 ** rng.uniform(-3, 2)
        x = normal_equation_solve(A, b, alpha)
        g = A.T @ b
        res = np.linalg.norm(A.T @ (A @ x) + alpha * x - g)
        assert res <= 1e-10 * np.linalg.norm(g)


def test_as_operator_passthrough(rng):
    op = as_operator(np.eye(3))
    assert as_operator(op) is op
