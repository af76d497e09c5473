"""CSR kernels and the LAPACK eigensolver wrapper against closed forms and
oracles."""

import concurrent.futures
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from spmm_oracle import bincount_spmm, loop_spmm, same_bits

from flowerpetals import linalg
from flowerpetals.linalg import (
    SLOT_GROUP_BYTES,
    ConvergenceError,
    SparseMatrix,
    _BlasThreadHold,
    _thread_map,
    dense_sym_eig,
    spmm_dense,
    spmv,
)


def random_sparse(rng, rows, cols, density=0.3):
    dense = np.where(rng.random((rows, cols)) < density, rng.normal(size=(rows, cols)), 0.0)
    return SparseMatrix.from_dense(dense), dense


def assert_oracle_bits(m, x):
    """``spmm_dense`` equals both oracles bit for bit."""
    out = spmm_dense(m, x)
    assert out.shape == (m.rows, x.shape[1])
    for oracle in (loop_spmm, bincount_spmm):
        assert same_bits(out, oracle(m, x)), oracle.__name__


def empty_row_cases(d):
    """Ten random matrices with empty rows, each with a block of width d."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        _, dense = random_sparse(rng, rows, cols, density=float(rng.random()))
        dense[rng.random(rows) < 0.3] = 0.0  # empty rows
        m = SparseMatrix.from_dense(dense)
        yield m, rng.normal(size=(cols, d))


def special_value_case():
    """Signed zeros, NaN and infinities in the block and the matrix."""
    x = np.array([1.0, 0.0, -0.0, np.nan, np.inf, -np.inf])
    # column 0's products, row by row: -0.0; -0.0 twice; nan; inf then
    # -inf; 0.0 * inf; none; -1 * nan then inf; a lone inf
    m = SparseMatrix(8, 6, [0, 1, 3, 4, 6, 7, 7, 9, 10], [0, 1, 2, 3, 4, 5, 4, 3, 4, 4],
                     [-0.0, -1.0, 1.0, 1.0, 1.0, 1.0, 0.0, -1.0, 1.0, 2.0])
    return m, np.c_[x, x[::-1]]


class TestSparseMatrix:
    def test_identity_spmv(self):
        assert np.array_equal(spmv(SparseMatrix.identity(3), np.array([1.0, 2, 3])), [1, 2, 3])

    def test_zero_annihilates(self):
        assert np.array_equal(spmv(SparseMatrix.zeros(2, 2), np.array([5.0, 7.0])), [0, 0])

    def test_k3_row_sums_are_degrees(self):
        a = np.ones((3, 3)) - np.eye(3)
        m = SparseMatrix.from_dense(a)
        assert np.array_equal(spmv(m, np.ones(3)), [2, 2, 2])

    def test_spmv_reconstructs_columns(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rows = int(rng.integers(1, 65))
            cols = int(rng.integers(1, 65))
            m, dense = random_sparse(rng, rows, cols)
            for j in range(cols):
                e = np.zeros(cols)
                e[j] = 1.0
                assert np.array_equal(spmv(m, e), dense[:, j])

    def test_spmv_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv(SparseMatrix.identity(3), np.ones(4))

    def test_from_coo_sums_duplicates(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
        assert m.nnz == 2
        assert np.array_equal(m.to_dense(), [[0, 3], [5, 0]])

    def test_from_coo_sums_duplicates_in_input_order(self):
        # per coordinate, the sum must be 0.0 + v1 + v2 + ... in input order;
        # values over 16 orders of magnitude make any other order show
        rng = np.random.default_rng(7)
        n = 3000
        r, c = rng.integers(0, 6, n), rng.integers(0, 7, n)
        v = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, n)
        v[(rng.random(n) < 0.2) | (r == 5)] = -0.0  # row 5 holds only -0.0
        expected = {}
        for key, val in zip(zip(r.tolist(), c.tolist()), v.tolist()):
            expected[key] = expected.get(key, 0.0) + val
        keys = sorted(expected)
        m = SparseMatrix.from_coo(6, 7, r, c, v)
        assert np.array_equal(m._row_ids(), [k[0] for k in keys])
        assert np.array_equal(m.col_indices, [k[1] for k in keys])
        assert m.values.tobytes() == np.array([expected[k] for k in keys]).tobytes()

    def test_transpose_round_trip(self):
        rng = np.random.default_rng(1)
        m, dense = random_sparse(rng, 7, 5)
        assert np.array_equal(m.transpose().to_dense(), dense.T)
        assert np.array_equal(m.transpose().transpose().to_dense(), dense)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):  # duplicate column in a row
            SparseMatrix(1, 3, np.array([0, 2]), np.array([1, 1]), np.ones(2))
        with pytest.raises(ValueError):  # column out of range
            SparseMatrix(1, 2, np.array([0, 1]), np.array([5]), np.ones(1))

    def test_values_are_read_only(self):
        m = SparseMatrix.identity(2)
        with pytest.raises(ValueError):
            m.values[0] = 3.0

    def test_callers_arrays_stay_writable(self):
        row_starts, cols, values = np.array([0, 1, 2]), np.array([0, 1]), np.ones(2)
        m = SparseMatrix(2, 2, row_starts, cols, values)
        row_starts[1], cols[0], values[0] = 0, 1, 5.0  # the caller may still write its own arrays
        assert np.array_equal(m.to_dense(), np.eye(2))

    def test_value_equality(self):
        a, b = SparseMatrix.identity(3), SparseMatrix.identity(3)
        spmm_dense(a, np.ones((3, 2)))  # the cached slot layout takes no part
        assert a == b and not a != b
        assert a != SparseMatrix.zeros(3, 3)
        assert a != SparseMatrix.from_dense(2 * np.eye(3))


class TestSpmmDense:
    def test_identity_block(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(spmm_dense(SparseMatrix.identity(2), x), x)

    def test_matches_spmv_per_column(self):
        rng = np.random.default_rng(2)
        m, _ = random_sparse(rng, 9, 6)
        x = rng.normal(size=(6, 4))
        out = spmm_dense(m, x)
        for j in range(4):
            assert np.array_equal(out[:, j], spmv(m, x[:, j]))

    def test_k3_petal_rows_sum_to_one(self):
        # order-1 operator of K3 is doubly stochastic
        a = 0.25 * np.ones((3, 3)) + 0.25 * np.eye(3)
        m = SparseMatrix.from_dense(a)
        assert np.allclose(spmm_dense(m, np.ones((3, 1))), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spmm_dense(SparseMatrix.identity(3), np.ones((4, 2)))

    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_oracle_bits_with_empty_rows(self, d):
        for m, x in empty_row_cases(d):
            assert_oracle_bits(m, x)

    @pytest.mark.parametrize("d", [0, 1, 64])
    @pytest.mark.parametrize("m", [
        SparseMatrix.zeros(4, 3),  # nnz = 0
        SparseMatrix.zeros(0, 3),  # rows = 0
        SparseMatrix.from_dense([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]]),
    ], ids=["nnz-0", "rows-0", "2x3"])
    def test_oracle_bits_on_empty_shapes(self, m, d):
        assert_oracle_bits(m, np.arange(3.0 * d).reshape(3, d))

    def test_oracle_bits_on_non_contiguous_block(self):
        rng = np.random.default_rng(4)
        m, _ = random_sparse(rng, 12, 9)
        x = rng.normal(size=(18, 10))[::2, ::3]
        assert not x.flags.c_contiguous
        assert_oracle_bits(m, x)

    @pytest.mark.parametrize("rows, cols, d, density, wide", [
        (300, 200, 16, 0.5, False),  # about 30k products of 16 floats: slots in several groups
        (40, 30, 4096, 0.3, True),  # one full slot of 40 rows is 1.3 MB, over the budget alone
    ], ids=["several-groups", "slot-over-budget"])
    def test_oracle_bits_across_slot_groups(self, rows, cols, d, density, wide):
        rng = np.random.default_rng(5)
        _, dense = random_sparse(rng, rows, cols, density)
        dense[rng.random(rows) < 0.1] = 0.0  # empty rows
        m = SparseMatrix.from_dense(dense)
        first_slot_bytes = m._slots[3][0][0] * d * 8
        assert m.nnz * d * 8 > 2 * SLOT_GROUP_BYTES
        assert (first_slot_bytes > SLOT_GROUP_BYTES) == wide
        assert_oracle_bits(m, rng.normal(size=(cols, d)))

    def test_products_are_gathered_per_slot_group(self):
        # 40 entries in each of 2000 rows against a 64-column block: 41 MB
        # of products, gathered about 1 MiB at a time
        rows, per_row, d = 2000, 40, 64
        cols = np.sort((np.arange(rows)[:, None] + 50 * np.arange(per_row)) % rows, axis=1)
        rng = np.random.default_rng(6)
        m = SparseMatrix(rows, rows, np.arange(rows + 1) * per_row, cols.ravel(),
                         rng.normal(size=rows * per_row))
        x = rng.normal(size=(rows, d))
        out = spmm_dense(m, x)  # builds the cached slot layout
        tracemalloc.start()
        try:
            spmm_dense(m, x, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the block-sized accumulator plus one group, against nnz * d * 8
        assert peak < m.nnz * d * 8 / 8
        assert same_bits(out, bincount_spmm(m, x))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_oracle_bits_on_signed_zeros_nan_and_inf(self):
        m, x = special_value_case()
        assert_oracle_bits(m, x)
        out = spmm_dense(m, x)[:, 0]
        assert not np.signbit(out[:2]).any()  # 0.0 + -0.0 is +0.0
        assert np.isnan(out[[2, 3, 4, 6]]).all()
        assert out[5] == 0.0 and out[7] == np.inf

    @pytest.mark.parametrize("group_bytes", [64, 1], ids=["few-slots", "one-slot"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_oracle_bits_in_small_slot_groups(self, group_bytes, monkeypatch):
        # groups of a few slots, and one slot per group (a budget of 0 products)
        monkeypatch.setattr(linalg, "SLOT_GROUP_BYTES", group_bytes)
        for d in (1, 3, 64):
            for m, x in empty_row_cases(d):
                assert_oracle_bits(m, x)
        assert_oracle_bits(*special_value_case())


class TestDenseSymEig:
    def test_diagonal(self):
        w, v = dense_sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1, 2, 3])
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_two_by_two_closed_form(self):
        w, _ = dense_sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1, 1])

    def test_k3_order2_laplacian(self):
        lap = np.eye(3) - np.ones((3, 3)) / 3.0
        w, _ = dense_sym_eig(lap)
        assert np.allclose(w, [0, 1, 1], atol=1e-12)

    def test_reconstruction_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            b = rng.normal(size=(n, n))
            a = (b + b.T) / 2
            w, v = dense_sym_eig(a)
            assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) <= 1e-9
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-9
            assert np.all(np.diff(w) >= 0)

    def test_psd_eigenvalue_floor(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            b = rng.normal(size=(n, n))
            w, _ = dense_sym_eig(b.T @ b / n)
            assert w.min() >= -1e-10

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            dense_sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            dense_sym_eig(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            dense_sym_eig(np.zeros((513, 513)))

    def test_convergence_error_is_exposed(self):
        assert issubclass(ConvergenceError, RuntimeError)


class TestThreadMap:
    def test_tasks_run_in_the_callers_context(self):
        # pool threads start from an empty context, where numpy's errstate
        # reads "warn"; the barrier puts both tasks on pool threads at once
        barrier = threading.Barrier(2, timeout=10)

        def read(_):
            barrier.wait()
            return np.geterr()["over"], threading.get_ident()

        with np.errstate(all="ignore"):
            got = _thread_map(read, range(2), 2)
        assert [mode for mode, _ in got] == ["ignore", "ignore"]
        assert len({ident for _, ident in got} - {threading.get_ident()}) == 2

    def test_results_keep_item_order_and_a_task_error_is_raised(self):
        assert _thread_map(lambda i: i * i, range(7), 3) == [i * i for i in range(7)]

        def fail_on_three(i):
            if i == 3:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            _thread_map(fail_on_three, range(5), 2)

    @pytest.mark.parametrize("items, workers", [(range(4), 1), ([5], 4), ([], 2)])
    def test_one_worker_runs_the_loop_on_the_calling_thread(self, monkeypatch, items, workers):
        def no_pool(*args):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        caller = threading.get_ident()
        got = _thread_map(lambda i: (i, threading.get_ident()), items, workers)
        assert got == [(i, caller) for i in items]


class FakeOpenblas:
    """Stands in for the bundled library: a thread count and every setting
    made of it."""

    def __init__(self, threads):
        self.threads, self.settings = threads, []

    def scipy_openblas_get_num_threads64_(self):
        return self.threads

    def scipy_openblas_set_num_threads64_(self, threads):
        self.threads = threads
        self.settings.append(threads)


class TestBlasThreadHold:
    @pytest.fixture
    def fake(self, monkeypatch):
        lib = FakeOpenblas(3)
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        return lib

    def test_normal_exit_restores_the_callers_count(self, fake):
        hold = _BlasThreadHold()
        with hold() as held:
            assert held and fake.threads == 1
        assert fake.threads == 3 and fake.settings == [1, 3]

    def test_an_exception_restores_the_callers_count(self, fake):
        hold = _BlasThreadHold()
        with pytest.raises(KeyError), hold():
            assert fake.threads == 1
            raise KeyError("inside the scope")
        assert fake.threads == 3 and fake.settings == [1, 3]

    def test_nested_entries_share_one_hold(self, fake):
        hold = _BlasThreadHold()
        with hold():
            with hold():
                assert fake.threads == 1
            assert fake.threads == 1
        assert fake.settings == [1, 3]

    def test_overlapping_entries_on_two_threads_share_one_hold(self, fake):
        hold = _BlasThreadHold()
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        seen = []

        def first():
            with hold():
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second():
            first_in.wait(10)
            with hold():
                second_in.set()
                first_out.wait(10)
                seen.append(fake.threads)  # the first thread has left

        threads = [threading.Thread(target=f) for f in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert seen == [1] and fake.threads == 3 and fake.settings == [1, 3]

    def test_many_threads_entering_at_once_restore_the_count(self, fake):
        hold, wrong = _BlasThreadHold(), []

        def enter_often():
            for _ in range(200):
                with hold():
                    if fake.threads != 1:
                        wrong.append(fake.threads)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enter_often) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [] and fake.threads == 3

    def test_without_the_library_the_scope_does_nothing(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        with _BlasThreadHold()() as held:
            assert held is False

    def test_the_bundled_library_gets_the_callers_count_back(self):
        lib = linalg._openblas()
        if lib is None:
            pytest.skip("numpy's bundled OpenBLAS is not found")
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        before = get()
        set_(2)
        try:
            with _BlasThreadHold()():
                assert get() == 1
                a = np.arange(64.0).reshape(8, 8)
                assert np.array_equal(a @ np.eye(8), a)
            assert get() == 2
        finally:
            set_(before)
