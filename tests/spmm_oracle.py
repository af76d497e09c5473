"""Reference CSR-times-dense products that ``linalg.spmm_dense`` must equal
bit for bit.

``loop_spmm`` states the contract: each output entry starts from ``0.0``
and adds ``v * x`` for every entry of its row in ascending column order.
``bincount_spmm`` is the earlier kernel: ``np.bincount`` with weights adds
its weights into their bins sequentially in input order, which is ascending
column within each row.

``same_bits`` is the comparison: equal shapes and equal bits, signed zeros
included, except that all NaNs count as one. Which NaN a sum of two NaNs
returns is not fixed by IEEE 754, and numpy's add loops differ on it (a
one-element in-place add keeps the second operand's, ``np.bincount`` the
first's), so only where a NaN appears is compared.
"""

import numpy as np


def same_bits(a, b) -> bool:
    a, b = (np.where(np.isnan(v), np.nan, v) for v in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def loop_spmm(m, x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((m.rows, x.shape[1]))
    for r in range(m.rows):
        for e in range(m.row_starts[r], m.row_starts[r + 1]):
            out[r] += m.values[e] * x[m.col_indices[e]]
    return out


def bincount_spmm(m, x):
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[1]
    if m.nnz == 0 or d == 0:
        return np.zeros((m.rows, d))
    products = m.values[:, None] * x[m.col_indices, :]
    row_ids = np.repeat(np.arange(m.rows, dtype=np.int64), np.diff(m.row_starts))
    flat_bins = (row_ids[:, None] * d + np.arange(d, dtype=np.int64)).ravel()
    out = np.bincount(flat_bins, weights=products.ravel(), minlength=m.rows * d)
    return out.reshape(m.rows, d)
