"""Minimal CSR sparse algebra, a dense symmetric eigensolver and the
package's two thread helpers.

Everything is 64-bit floats. Products use a fixed summation order
(ascending column index within each row) so repeated runs are
bit-identical: the kernel adds the row slots (entry j of every row
longer than j) in ascending j, over a slot layout cached per matrix.
The eigensolver wraps LAPACK for small dense matrices. ``_thread_map``
runs independent tasks on a thread pool, and ``_one_blas_thread`` holds
numpy's bundled OpenBLAS at one thread while tasks that call it run side
by side.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache, cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "ConvergenceError",
    "SparseMatrix",
    "spmv",
    "spmm_dense",
    "dense_sym_eig",
]

EIG_SIZE_CAP = 512
# spmm_dense's products per slot group, in bytes: small enough to stay in
# cache between the gather and the slot adds
SLOT_GROUP_BYTES = 1 << 20


class ConvergenceError(RuntimeError):
    """The eigensolver did not converge."""


def _fields_equal(a, b) -> bool:
    """Value equality for frozen dataclasses that hold arrays: the compared
    fields must be equal, arrays by ``np.array_equal`` (also inside dicts
    and tuples).
    Caches kept outside the fields, such as a ``cached_property``, take no
    part. Its classes are declared ``eq=False``, so Python leaves them
    unhashable, whatever their optional fields hold."""
    if a.__class__ is not b.__class__:
        return NotImplemented
    return all(
        _values_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare
    )


def _values_equal(x, y) -> bool:
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_values_equal(x[k], y[k]) for k in x)
    if isinstance(x, tuple) and isinstance(y, tuple):
        return len(x) == len(y) and all(map(_values_equal, x, y))
    return x == y


def _as_float_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {x.shape}")
    return x


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Compressed sparse row matrix of 64-bit floats.

    ``row_starts`` has length ``rows + 1``; ``col_indices`` are strictly
    ascending within each row (no duplicates). Instances are immutable:
    the backing arrays are read-only copies made at construction, so the
    caller's own arrays stay writable.
    """

    rows: int
    cols: int
    row_starts: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        rs = np.array(self.row_starts, dtype=np.int64)
        ci = np.array(self.col_indices, dtype=np.int64)
        vals = np.array(self.values, dtype=np.float64)
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if rs.shape != (self.rows + 1,):
            raise ValueError("row_starts must have length rows + 1")
        if rs[0] != 0 or rs[-1] != len(vals) or len(ci) != len(vals):
            raise ValueError("row_starts endpoints inconsistent with data")
        if np.any(np.diff(rs) < 0):
            raise ValueError("row_starts must be non-decreasing")
        if len(ci) and (ci.min() < 0 or ci.max() >= self.cols):
            raise ValueError("column index out of range")
        # strictly ascending columns inside every row <=> no duplicates
        if len(ci) > 1:
            row_breaks = np.zeros(len(ci), dtype=bool)
            breaks = rs[1:-1]
            row_breaks[breaks[breaks < len(ci)]] = True
            if np.any((np.diff(ci) <= 0) & ~row_breaks[1:]):
                raise ValueError("columns must be strictly ascending within a row")
        for arr in (rs, ci, vals):
            arr.flags.writeable = False
        object.__setattr__(self, "row_starts", rs)
        object.__setattr__(self, "col_indices", ci)
        object.__setattr__(self, "values", vals)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @classmethod
    def from_coo(cls, rows, cols, r, c, v) -> "SparseMatrix":
        """Build from coordinate triplets; duplicate entries are summed."""
        r = np.asarray(r, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        v = np.asarray(v, dtype=np.float64)
        if not (len(r) == len(c) == len(v)):
            raise ValueError("coordinate arrays must have equal length")
        if len(r):
            if r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols:
                raise ValueError("coordinate out of range")
            key = r * cols + c
            order = np.argsort(key, kind="stable")
            key = key[order]
            # duplicates, which the stable sort keeps in input order, are summed
            first = np.concatenate(([True], key[1:] != key[:-1]))
            v = np.bincount(np.cumsum(first) - 1, weights=v[order])
            r, c = r[order[first]], c[order[first]]
        row_starts = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=rows), out=row_starts[1:])
        return cls(rows, cols, row_starts, c, v)

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        a = _as_float_matrix(a)
        r, c = np.nonzero(a)
        return cls.from_coo(a.shape[0], a.shape[1], r, c, a[r, c])

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMatrix":
        empty = np.zeros(0, dtype=np.int64)
        return cls(rows, cols, np.zeros(rows + 1, dtype=np.int64), empty, np.zeros(0))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        out[self._row_ids(), self.col_indices] = self.values
        return out

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_coo(
            self.cols, self.rows, self.col_indices, self._row_ids(), self.values
        )

    def _row_ids(self) -> np.ndarray:
        return np.repeat(
            np.arange(self.rows, dtype=np.int64), np.diff(self.row_starts)
        )

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
        """Row-slot layout of the entries, built on the first product.

        ``order`` lists the rows by descending length (stable). Slot j holds
        entry j of each of the first ``count`` rows of ``order``, the rows
        longer than j; its column indices and values sit at
        ``cols[start:stop]`` and ``vals[start:stop]`` for the slot's
        ``(count, start, stop)``.
        """
        lengths = np.diff(self.row_starts)
        order = np.argsort(-lengths, kind="stable")
        counts = (self.rows - np.cumsum(np.bincount(lengths))[:-1]).tolist()
        starts = self.row_starts[order]
        # one short loop over the slots (the longest row's length) beats an
        # argsort of all entries into slot-major order
        entries = np.concatenate([starts[:c] + j for j, c in enumerate(counts)] + [starts[:0]])
        bounds = np.cumsum([0] + counts).tolist()
        slots = list(zip(counts, bounds[:-1], bounds[1:]))
        return order, self.col_indices[entries], self.values[entries], slots


def spmv(m: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """CSR matrix-vector product: the one-column case of ``spmm_dense``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.cols,):
        raise ValueError(f"vector length {x.shape} incompatible with {m.shape}")
    return spmm_dense(m, x[:, None])[:, 0]


def spmm_dense(m: SparseMatrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """CSR times dense block with ascending-column summation order in
    every row, so repeated runs are bit-identical.

    Every output entry is ``0.0 + v1*x1 + v2*x2 + ...`` over its row's
    entries in ascending column order: one in-place add per row slot, in
    slot order (see ``SparseMatrix._slots``). The products are gathered and
    scaled per group of consecutive slots holding about ``SLOT_GROUP_BYTES``
    of them (at least one slot), so they stay in cache until added. The
    result goes to ``out`` (an ``m.rows x x.shape[1]`` block) when given,
    else to a new array.
    """
    x = _as_float_matrix(x)
    if m.cols != x.shape[0]:
        raise ValueError(f"shapes {m.shape} and {x.shape} do not align")
    order, cols, vals, slots = m._slots
    budget = SLOT_GROUP_BYTES // (8 * max(x.shape[1], 1))  # products per group
    acc = np.zeros((m.rows, x.shape[1]))
    # the sums stay as silent on overflow and inf - inf as bincount's were
    with np.errstate(over="ignore", invalid="ignore"):
        first = 0
        while first < len(slots):
            base = slots[first][1]
            last = first + 1
            while last < len(slots) and slots[last][2] - base <= budget:
                last += 1
            end = slots[last - 1][2]
            # np.take releases the GIL, where x[cols] holds it; without out=,
            # as take(out=) buffers its output
            products = np.take(x, cols[base:end], axis=0)
            np.multiply(vals[base:end, None], products, out=products)
            for count, start, stop in slots[first:last]:
                head = acc[:count]
                head += products[start - base : stop - base]
            first = last
    if out is None:
        out = np.empty_like(acc)
    out[order] = acc
    return out


def dense_sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a small symmetric matrix (LAPACK ``eigh``).

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvector columns.
    """
    a = _as_float_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError("matrix must be square")
    if n > EIG_SIZE_CAP:
        raise ValueError(f"size {n} exceeds the verification cap {EIG_SIZE_CAP}")
    if not np.isfinite(a).all():
        raise ValueError("matrix holds a NaN or infinite entry")
    if n and np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise ValueError("matrix is not symmetric")
    try:
        return np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge ({exc})") from None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, on up to ``workers`` threads.

    Each task runs in its own copy of the caller's context, which pool
    threads do not inherit: numpy's errstate lives there. With one worker
    or one item the loop runs on the calling thread and starts no pool.
    Results come in item order; a task's exception is raised here.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported on first use, so a process that never threads skips their
    # 2-4 ms of imports
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
        return [future.result() for future in futures]


@cache
def _openblas():
    """numpy's bundled OpenBLAS (the scipy-openblas library of numpy's wheels,
    in ``numpy.libs``) as a ctypes handle with its thread-count getter and
    setter declared; None where it is not found."""
    import ctypes

    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))  # the library numpy has already loaded
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return lib
    return None


class _BlasThreadHold:
    """Reference-counted hold of the bundled OpenBLAS at one thread.

    The first entry saves the library's thread count and sets it to one;
    the last exit, also on an exception, restores the saved count. Nested
    and concurrent entries share the hold. The thread count is one
    setting of the process, so one instance serves the package.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = 0
        self._saved = 0

    @contextmanager
    def __call__(self):
        """Yields whether the library was found: where it is not, the
        scope does nothing, and its caller should not run BLAS calls side
        by side."""
        lib = _openblas()
        if lib is None:
            yield False
            return
        with self._lock:
            if not self._entries:
                self._saved = lib.scipy_openblas_get_num_threads64_()
                lib.scipy_openblas_set_num_threads64_(1)
            self._entries += 1
        try:
            yield True
        finally:
            with self._lock:
                self._entries -= 1
                if not self._entries:
                    lib.scipy_openblas_set_num_threads64_(self._saved)


_one_blas_thread = _BlasThreadHold()
