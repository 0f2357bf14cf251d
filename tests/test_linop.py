import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
from tikmor import linop
from tikmor.linop import real_vector

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


def test_sparse_operator_sums_each_row_in_one_order(rng):
    # A @ diags(s) leaves each row's column indices unsorted, A.multiply(s)
    # sorted; the operator sorts its own copy, so both sum their products alike
    A = sp.random(60, 40, density=0.3, random_state=3, format="csr")
    s = rng.choice([-1.0, 1.0], 40)
    unsorted = (A @ sp.diags(s)).tocsr()
    indices = unsorted.indices.copy()
    assert not unsorted.has_sorted_indices
    ops = SparseOperator(unsorted), SparseOperator(A.multiply(s).tocsr())
    v, w = rng.standard_normal(40), rng.standard_normal(60)
    assert ops[0].matvec(v).tobytes() == ops[1].matvec(v).tobytes()
    assert ops[0].rmatvec(w).tobytes() == ops[1].rmatvec(w).tobytes()
    assert np.array_equal(unsorted.indices, indices)  # the caller's matrix is left as it is


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


def test_real_vector_returns_a_float64_vector_as_is():
    # every matvec and rmatvec passes through it: no copy on the product path
    v = np.ones(4)
    assert real_vector(v, 4, "v", "operator cols") is v
    view = np.ones(8)[::2]  # a strided float64 view is a vector too
    assert real_vector(view, 4, "v", "operator cols") is view
    # other real entries come back as a float64 copy
    for given in ([0, 1, 2, 3], np.arange(4, dtype=np.int32), np.arange(4, dtype=np.float32)):
        out = real_vector(given, 4, "v", "operator cols")
        assert out.dtype == np.float64 and np.array_equal(out, [0.0, 1.0, 2.0, 3.0])


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


# -- dense products split across the CPUs ---------------------------------------

# just above the split threshold, neither side a multiple of 64: the last block
# of a 70-row product has 6 rows, and a 65-row one would end in a one-row block
SPLIT_SHAPES = [(70, 17143), (17143, 70), (65, 18462), (1100, 1091)]
HERE = Path(__file__).resolve().parent


def report_cpus(monkeypatch, count):
    """The split sees ``count`` CPUs, is on whatever BLAS's thread count, and
    starts with no helper threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(linop, "_SPLIT", True)
    monkeypatch.setattr(linop, "_helpers", None)


def check_split_products_bitwise():
    """Every split product of SPLIT_SHAPES, on 2 and 3 CPUs, directly and
    through a PriorconditionedOperator, has the bits of the whole BLAS call."""
    rng = np.random.default_rng(3)
    for m, n in SPLIT_SHAPES:
        assert linop.SPLIT_ENTRIES <= m * n < 1.01 * linop.SPLIT_ENTRIES
        A = rng.standard_normal((m, n))
        v, w = rng.standard_normal(n), rng.standard_normal(m)
        op = DenseOperator(A)
        pc = PriorconditionedOperator(op, RegularizationMatrix(n))
        for cpus in (2, 3):
            os.sched_getaffinity = lambda pid: set(range(cpus))
            linop._helpers = None
            pairs = {
                "matvec": (op.matvec(v), A @ v),
                "rmatvec": (op.rmatvec(w), A.T @ w),
                "pc matvec": (pc.matvec(v), A @ pc.reg.solve(v)),
                "pc rmatvec": (pc.rmatvec(w), pc.reg.solve_transpose(A.T @ w)),
            }
            assert linop._helpers is not None, "the products were not split"
            for what, (split, whole) in pairs.items():
                assert split.tobytes() == whole.tobytes(), f"{m}x{n} on {cpus} CPUs: {what}"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def run_in_child(call, **threads):
    """Run ``test_linop.<call>`` in a fresh interpreter whose BLAS thread
    variables are ``threads`` and no others; assert that it succeeds."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(threads, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import test_linop; test_linop.{call}"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_split_products_are_bitwise_the_whole_products():
    # the bits are promised at one BLAS thread, so they are checked in an
    # interpreter that has one
    run_in_child("check_split_products_bitwise()", **dict.fromkeys(BLAS_THREAD_VARS, "1"))


def check_strided_vectors_bitwise():
    """A reversed vector and a broadcast one (strides < 0 and 0) have the
    products of their contiguous copies, bit for bit: dense operators whole
    and split on 2 and 3 CPUs, sparse ones and a PriorconditionedOperator."""
    rng = np.random.default_rng(6)
    for m, n in [(120, 80), (700, 500)] + SPLIT_SHAPES:
        A = rng.standard_normal((m, n))
        ops = [DenseOperator(A), SparseOperator(sp.random(m, n, 0.05, random_state=rng)),
               PriorconditionedOperator(DenseOperator(A), RegularizationMatrix(n))]
        for cpus in (2, 3):
            os.sched_getaffinity = lambda pid: set(range(cpus))
            for op in ops:
                for apply, size in ((op.matvec, n), (op.rmatvec, m)):
                    for v in (rng.standard_normal(size)[::-1],
                              np.broadcast_to(rng.standard_normal(), (size,))):
                        got, want = apply(v), apply(v.copy())
                        what = f"{type(op).__name__}.{apply.__name__}"
                        assert got.tobytes() == want.tobytes(), f"{m}x{n} on {cpus} CPUs: {what}"
    assert linop._helpers is not None, "no product was split"


def test_strided_vectors_keep_the_bits_of_their_copies():
    # numpy multiplies a vector of stride <= 0 outside BLAS, to other bits
    run_in_child("check_strided_vectors_bitwise()", **dict.fromkeys(BLAS_THREAD_VARS, "1"))


class PinnedOwn(dict):
    """``linop._own`` held at a clamp, which the products cannot move: the
    caller's block is one chunk (``high`` false) or leaves one to each helper."""

    def __init__(self, high):
        super().__init__()
        self.high = high

    def get(self, key, default=None):
        rows, parts = key
        return linop._chunks(rows) - parts + 1 if self.high else 1

    def __setitem__(self, key, value):
        pass


def recording_cuts(seen):
    """``linop._cuts``, appending the cuts of each split product to ``seen``."""
    cuts = linop._cuts
    return lambda rows, parts, own: seen.append(cuts(rows, parts, own)) or seen[-1]


def check_uneven_shares_bitwise():
    """With the caller's block pinned at either clamp, every split product of
    SPLIT_SHAPES, directly and through a PriorconditionedOperator, has the bits
    of the whole BLAS call, and the blocks follow the pinned block."""
    rng = np.random.default_rng(4)
    seen = []
    linop._cuts = recording_cuts(seen)
    for cpus, high in ((2, False), (2, True), (3, False), (3, True)):
        os.sched_getaffinity = lambda pid: set(range(cpus))
        linop._own = PinnedOwn(high)
        for m, n in SPLIT_SHAPES:
            A = rng.standard_normal((m, n))
            v, w = rng.standard_normal(n), rng.standard_normal(m)
            op = DenseOperator(A)
            pc = PriorconditionedOperator(op, RegularizationMatrix(n))
            pairs = {
                "matvec": (op.matvec(v), A @ v),
                "rmatvec": (op.rmatvec(w), A.T @ w),
                "pc matvec": (pc.matvec(v), A @ pc.reg.solve(v)),
                "pc rmatvec": (pc.rmatvec(w), pc.reg.solve_transpose(A.T @ w)),
            }
            for what, (split, whole) in pairs.items():
                assert split.tobytes() == whole.tobytes(), f"{m}x{n}, {cpus} CPUs, high {high}: {what}"
    # 1100 rows (matvec and pc matvec), 18 chunks: the caller's block is 1, 17, 1 and 16 of them
    assert [c[1:-1] for c in seen if c[-1] == 1100] == (
        [[64]] * 2 + [[1088]] * 2 + [[64, 576]] * 2 + [[1024, 1088]] * 2)


def test_uneven_shares_keep_the_bits():
    run_in_child("check_uneven_shares_bitwise()", **dict.fromkeys(BLAS_THREAD_VARS, "1"))


def assert_whole_chunks(rows, cuts):
    """Cuts that make every block at least one chunk: inner ones multiples of
    _ALIGN, increasing, the last block at least 2 rows."""
    assert cuts[0] == 0 and cuts[-1] == rows
    assert all(c % linop._ALIGN == 0 for c in cuts[1:-1])
    assert all(hi - lo >= linop._ALIGN for lo, hi in zip(cuts, cuts[1:-1]))
    assert rows - cuts[-2] >= 2


def assert_cuts_for_own(rows, parts, own):
    """``_cuts`` gives the caller ``own`` whole chunks and splits the rest
    evenly among the helpers, in whole chunks."""
    chunks = linop._chunks(rows)
    cuts = linop._cuts(rows, parts, own)
    assert len(cuts) == parts + 1 and cuts[1] == own * linop._ALIGN
    assert_whole_chunks(rows, cuts)
    bounds = [c // linop._ALIGN for c in cuts[1:-1]] + [chunks]
    helper_chunks = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    assert max(helper_chunks) - min(helper_chunks) <= 1  # the rest, split evenly


@pytest.mark.parametrize("shares", [[1e-9, 1 - 1e-9], [1 - 1e-9, 1e-9], [0.5, 0.5],
                                    [0.998, 1e-3, 1e-3], [1e-3, 1e-3, 0.998]])
def test_cuts_keep_whole_chunks(shares):
    # the caller's block asks for shares[0] of the rows over len(shares) blocks:
    # the nearest allowed block, so extreme shares land on the clamps.
    # 70 rows: 2 chunks, the last of 6 rows; 129: 2, the last of 65 (not 64 + 1)
    parts = len(shares)
    for rows in (70, 129, 1100, 17143):
        chunks = linop._chunks(rows)
        if parts <= chunks:  # a product takes no more blocks than chunks
            own = min(max(round(shares[0] * chunks), 1), chunks - parts + 1)
            assert_cuts_for_own(rows, parts, own)


def test_cuts_keep_whole_chunks_at_every_own():
    for rows in (70, 129, 1100, 17143):
        chunks = linop._chunks(rows)
        for parts in (2, 3):
            if parts <= chunks:
                for own in range(1, chunks - parts + 2):
                    assert_cuts_for_own(rows, parts, own)


class DelayedMatmul:
    """numpy, but ``np.matmul`` sleeps 50 ms first on the caller's thread
    (``late`` false) or on the helpers' (``late`` true): far longer than the
    other side's block of a 600x40 product takes, even on a loaded host."""

    def __init__(self, late):
        self.late = late

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        if (threading.current_thread() is not threading.main_thread()) == self.late:
            time.sleep(0.05)
        return np.matmul(*args, **kwargs)


@pytest.mark.parametrize("late", [True, False], ids=["late-helper", "early-helper"])
def test_wait_rule_drives_the_callers_block_to_a_clamp(monkeypatch, rng, late):
    # each product moves the caller's block by one chunk: up to leaving one to
    # each helper while a helper is late, down to one while every helper is early
    seen = []
    monkeypatch.setattr(linop, "_cuts", recording_cuts(seen))
    monkeypatch.setattr(linop, "_own", {})
    monkeypatch.setattr(linop, "np", DelayedMatmul(late))
    monkeypatch.setattr(linop, "SPLIT_ENTRIES", 0)
    A = rng.standard_normal((600, 40))  # 10 chunks, the last of 24 rows
    op, v = DenseOperator(A), rng.standard_normal(40)
    chunks = linop._chunks(600)
    for parts in (2, 3):
        report_cpus(monkeypatch, parts)
        start, clamp = chunks // parts, (chunks - parts + 1 if late else 1)
        owns = []
        for _ in range(abs(clamp - start) + 2):
            assert np.allclose(op.matvec(v), A @ v, rtol=0, atol=1e-12)  # bitwise at one BLAS thread: above
            owns.append(seen[-1][1] // linop._ALIGN)
        step = 1 if late else -1
        assert owns == list(range(start, clamp, step)) + [clamp] * 2
        assert linop._own[(600, parts)] == clamp
    for c in seen:
        assert_whole_chunks(600, c)


def check_split_follows_blas_threads(split):
    """A large product on 2 CPUs starts a helper thread if and only if ``split``."""
    os.sched_getaffinity = lambda pid: {0, 1}
    m, n = SPLIT_SHAPES[-1]
    DenseOperator(np.ones((m, n))).matvec(np.ones(n))
    helpers = [t for t in threading.enumerate() if t.name.startswith("tikmor-product")]
    assert (linop._SPLIT, bool(helpers)) == (split, split)


@pytest.mark.parametrize("threads, split", [
    (dict.fromkeys(BLAS_THREAD_VARS, "1"), True),
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
    ({"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
], ids=["all-one", "unset", "openblas-decides", "mkl-before-omp"])
def test_split_only_where_blas_has_one_thread(threads, split):
    # the first thread variable that is set decides, as in numpy's BLAS; a
    # BLAS with threads of its own takes the product whole
    run_in_child(f"check_split_follows_blas_threads({split})", **threads)


@pytest.mark.parametrize("product", ["matvec", "rmatvec"])
def test_helper_block_runs_under_the_callers_error_state(monkeypatch, rng, product):
    # on 2 CPUs the helper takes rows (columns) 64-69; only entry 66 overflows
    report_cpus(monkeypatch, 2)
    m, n = SPLIT_SHAPES[0] if product == "matvec" else SPLIT_SHAPES[1]
    A = rng.standard_normal((m, n))
    if product == "matvec":
        A[66] = 1e300
    else:
        A[:, 66] = 1e300
    apply = getattr(DenseOperator(A), product)
    x = np.full(n if product == "matvec" else m, 1e10)
    with np.errstate(over="ignore", invalid="ignore"):  # a RuntimeWarning fails the test
        y = apply(x)
    assert linop._helpers is not None  # split
    assert np.flatnonzero(~np.isfinite(y)).tolist() == [66]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        apply(x)


def check_concurrent_callers():
    """More calling threads than CPUs, switching threads often: each product
    still gets its own blocks back, split or, where the helpers are busy, whole."""
    os.sched_getaffinity = lambda pid: {0, 1}
    rng = np.random.default_rng(5)
    op = DenseOperator(rng.standard_normal(SPLIT_SHAPES[-1]))
    xs = [rng.standard_normal(op.cols) for _ in range(6)]
    expected = [op.matvec(x) for x in xs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as callers:
            futures = [callers.submit(op.matvec, x) for x in xs for _ in range(3)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert linop._helpers is not None
    for i, y in enumerate(results):
        assert np.array_equal(y, expected[i // 3])


def test_concurrent_callers_share_the_helpers():
    # at one BLAS thread, as the split runs: a whole product (helpers busy)
    # and a split one at any cuts have the same bits; a BLAS that threads
    # its calls sums differently at different cuts
    run_in_child("check_concurrent_callers()", **dict.fromkeys(BLAS_THREAD_VARS, "1"))


def _apply_and_compare(op, v, expected):
    sys.exit(0 if np.allclose(op.matvec(v), expected, rtol=1e-12, atol=0) else 3)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_fork_child_applies_a_large_operator(monkeypatch, rng):
    report_cpus(monkeypatch, 2)
    m, n = SPLIT_SHAPES[-1]
    op = DenseOperator(rng.standard_normal((m, n)))
    v = rng.standard_normal(n)
    expected = op.matvec(v)
    assert linop._helpers is not None  # the parent's helper thread is running
    child = multiprocessing.get_context("fork").Process(
        target=_apply_and_compare, args=(op, v, expected))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("cpus, shape", [(1, SPLIT_SHAPES[-1]), (2, (700, 500))],
                         ids=["one-cpu", "below-threshold"])
def test_whole_products_start_no_helper(monkeypatch, rng, cpus, shape):
    # one CPU, or table1's 700x500 under the threshold: one BLAS call, no thread
    report_cpus(monkeypatch, cpus)
    threads = threading.active_count()
    A = rng.standard_normal(shape)
    op = DenseOperator(A)
    v, w = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
    assert np.array_equal(op.matvec(v), A @ v)
    assert np.array_equal(op.rmatvec(w), A.T @ w)
    assert linop._helpers is None
    assert threading.active_count() <= threads


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
SYM = "%%MatrixMarket matrix coordinate real symmetric\n"
SKEW = "%%MatrixMarket matrix coordinate real skew-symmetric\n"


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
        # storing both 2 1 and 1 2 used to load the off-diagonal as their sum
        (SYM + "2 2 3\n1 1 1.0\n2 1 3.0\n1 2 3.0\n", MatrixMarketError, 5,
         r"entry \(1,2\) outside the triangle symmetric storage keeps"),
        # a diagonal entry used to load a matrix that is not skew-symmetric
        (SKEW + "2 2 2\n2 1 3.0\n1 1 5.0\n", MatrixMarketError, 4,
         r"entry \(1,1\) outside the triangle skew-symmetric storage keeps"),
        (SKEW + "2 2 1\n1 2 3.0\n", MatrixMarketError, 3, r"entry \(1,2\) outside"),
        (COORD.replace("real", "integer") + "2 2 2\n1 1 2\n2 2 1.5\n", MatrixMarketError, 4,
         "bad entry '2 2 1.5' for field 'integer'"),
        (ARRAY.replace("real", "integer") + "2 1\n1\n0.5\n", MatrixMarketError, 4,
         "bad value '0.5' for field 'integer'"),
        (ARRAY.replace("real", "integer") + "2 1\n1\n" + "9" * 400 + "\n", MatrixMarketError, 4,
         "bad value '9+' for field 'integer'"),
    ],
    ids=[
        "empty", "header", "layout", "symmetry", "no-size-line", "size-not-integer",
        "size-fields", "entry-tokens", "index-outside", "array-two-values",
        "array-not-number", "too-few", "too-many", "symmetric-upper", "skew-diagonal",
        "skew-upper", "integer-coordinate", "integer-array", "integer-overflow",
    ],
)
def test_mm_malformed_input_names_its_line(tmp_path, text, error, line, match):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(MatrixMarketError, match=match) as err:
        load_matrix_market(path)
    assert type(err.value) is error
    assert err.value.line == line


@pytest.mark.parametrize("layout, body", [
    ("coordinate", "2 2 3\n1 1 -7\n2 1 3\n2 2 +4\n"), ("array", "2 2\n-7\n3\n3\n4\n"),
])
def test_mm_integer_field_loads_its_values(tmp_path, layout, body):
    path = tmp_path / "int.mtx"
    path.write_text(f"%%MatrixMarket matrix {layout} integer general\n{body}")
    want = [[-7.0, 0.0], [3.0, 4.0]] if layout == "coordinate" else [[-7.0, 3.0], [3.0, 4.0]]
    assert np.array_equal(load_matrix_market(path).to_dense(), want)


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


@pytest.mark.parametrize("symmetry, values", [
    ("general", range(1, 10)), ("symmetric", range(1, 7)), ("skew-symmetric", range(1, 4)),
])
def test_mm_dense_load_hands_its_array_over(tmp_path, monkeypatch, symmetry, values):
    # the loader builds a read-only array that owns its data, and the
    # operator keeps it: no copy of A beyond the one built
    given = []
    keep = DenseOperator.__init__

    def spy(self, matrix):
        given.append(matrix)
        keep(self, matrix)

    monkeypatch.setattr(DenseOperator, "__init__", spy)
    path = tmp_path / "arr.mtx"
    body = "".join(f"{v}\n" for v in values)
    path.write_text(f"%%MatrixMarket matrix array real {symmetry}\n3 3\n{body}")
    op = load_matrix_market(path)
    assert op.to_dense() is given[0]
    assert given[0].flags.owndata and not given[0].flags.writeable


def write_lower_triangle(path, A, symmetry):
    """A's lower triangle as an array file, column by column (skew: below the diagonal)."""
    skew = symmetry == "skew-symmetric"
    n = A.shape[0]
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix array real {symmetry}\n{n} {n}\n")
        for j in range(n):
            fh.writelines(f"{float(v)!r}\n" for v in A[j + skew:, j])


def traced_load(path):
    """(operator, peak bytes traced while loading it)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        op = load_matrix_market(path)
        return op, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mm_symmetric_array_loads_in_place(tmp_path, rng):
    # each stored column and its mirrored row go straight into A: no index
    # arrays or mirrored copies, so a symmetric load needs no more memory
    # than a general one of the same size
    n = 120
    lower = np.tril(rng.standard_normal((n, n)))
    expected = {
        "symmetric": lower + np.tril(lower, -1).T,
        "skew-symmetric": np.tril(lower, -1) - np.tril(lower, -1).T,
    }
    save_matrix_market(tmp_path / "general.mtx", expected["symmetric"])
    _, general_peak = traced_load(tmp_path / "general.mtx")
    for symmetry, full in expected.items():
        write_lower_triangle(tmp_path / f"{symmetry}.mtx", full, symmetry)
        op, peak = traced_load(tmp_path / f"{symmetry}.mtx")
        assert op.to_dense().tobytes() == full.tobytes(), symmetry
        assert peak <= general_peak, (symmetry, peak / (8 * n * n))


@pytest.mark.parametrize("matrix", [
    np.ones((2, 2)) * (1 + 1j), sp.csr_matrix(np.ones((2, 2)) * 1j), np.array([[1.0, "a"]], dtype=object),
], ids=["dense-complex", "sparse-complex", "object"])
def test_mm_save_rejects_entries_that_are_not_real(tmp_path, matrix):
    # numpy would write the real part with only a ComplexWarning
    path = tmp_path / "c.mtx"
    with pytest.raises(UnsupportedFormatError, match="matrix has (complex128|object) entries"):
        save_matrix_market(path, matrix)
    assert not path.exists()


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
