"""Flower-petals adjacency/Laplacian operators and the two-step walk.

The order-p adjacency is (1/(p+1)) D^{-1/2} H_p H_p^T D^{-1/2}, the
symmetric form of the core-petal-core two-step random walk; the matching
Laplacian is I minus it. Both are symmetric PSD with spectrum in [0, 1].
Nodes touching no p-simplex get all-zero adjacency rows and a Laplacian
diagonal of 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import IncidenceMatrix
from .linalg import (
    SparseMatrix,
    _fields_equal,
    _thread_map,
    _usable_cpus,
    dense_sym_eig,
    spmm_dense,
)

__all__ = [
    "FpOperator",
    "PropagatedFeatures",
    "WalkState",
    "build_fp_adjacency",
    "build_fp_laplacian",
    "walk_operator",
    "two_step_walk",
    "propagate_features",
    "spectral_filter_oracle",
]

# Fewest multiply-adds (sum of nnz * d * K over the petals) for which
# propagate_features runs the petal chains on threads. Below about this size,
# starting a pool (0.5-0.9 ms) and handing the GIL between threads cost more
# than a second core saves. On a 2-vCPU Xeon, two equal chains took 2.6-2.8 ms
# serial against 4.6-5.1 ms threaded at 0.75M, 12.4-13.2 against 11.0-12.4 ms
# at 5.0M, and 21-25 against 17 ms at 8.6M. Graph classification's one union
# propagation (0.85M at perfbench seed 24) and 1-column imputation signals stay serial.
PARALLEL_MIN_MADDS = 1 << 22


@dataclass(frozen=True, eq=False)
class FpOperator:
    """Symmetric order-p adjacency with its node degrees."""

    p: int
    a_tilde: SparseMatrix
    node_degrees: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        a = self.a_tilde
        if a.rows != a.cols:
            raise ValueError("adjacency must be square")
        # the pattern is symmetric iff the mirrored keys c*n + r, sorted,
        # are the CSR's own ascending keys r*n + c; the sort then puts each
        # entry's mirror at the entry's position
        rows, cols = a._row_ids(), a.col_indices
        mirrored = cols * a.rows + rows
        mirror = np.argsort(mirrored)
        if not (
            np.array_equal(mirrored[mirror], rows * a.rows + cols)
            and (a.nnz == 0 or np.max(np.abs(a.values - a.values[mirror])) <= 1e-12)
        ):
            raise ValueError("adjacency must be symmetric to 1e-12")
        deg = np.array(self.node_degrees, dtype=np.int64)
        if deg.shape != (a.rows,):
            raise ValueError("degree vector must have length n")
        deg.flags.writeable = False
        object.__setattr__(self, "node_degrees", deg)

    @property
    def n(self) -> int:
        return self.a_tilde.rows

    @property
    def isolated(self) -> np.ndarray:
        """Nodes touching no p-simplex (d_p = 0)."""
        return self.node_degrees == 0


@dataclass(frozen=True, eq=False)
class WalkState:
    """Occupation probabilities over core nodes for one petal order."""

    p: int
    pi: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        pi = np.array(self.pi, dtype=np.float64)
        if pi.ndim != 1:
            raise ValueError("pi must be a vector")
        if len(pi) and pi.min() < 0:
            raise ValueError("probabilities must be non-negative")
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)


@dataclass(frozen=True, eq=False)
class PropagatedFeatures:
    """Precomputed feature blocks as one read-only (P, K+1, n, d) array:
    ``tensor[p-1, k]`` is the order-p adjacency applied k times to the
    input features (k = 0 is the input itself)."""

    tensor: np.ndarray

    __eq__ = _fields_equal

    @property
    def p_max(self) -> int:
        return self.tensor.shape[0]

    @property
    def k_max(self) -> int:
        return self.tensor.shape[1] - 1

    @property
    def n(self) -> int:
        return self.tensor.shape[2]

    @property
    def d(self) -> int:
        return self.tensor.shape[3]

    @property
    def blocks(self) -> dict[int, list[np.ndarray]]:
        """``blocks[p][k]``: views of ``tensor[p-1, k]``. Only the perfbench
        ``_propagate`` observer reads this; it goes when perfbench reads the
        package's own spans (ROADMAP item 1's follow-up)."""
        return {p: list(petal) for p, petal in enumerate(self.tensor, start=1)}


def _pair_pattern(h: IncidenceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """COO pattern of H_p H_p^T: one (u, v) pair per simplex holding both
    nodes, so summing duplicates counts the shared p-simplices."""
    width = h.p + 1
    rows = np.repeat(h.members, width, axis=1).ravel()
    cols = np.tile(h.members, (1, width)).ravel()
    return rows, cols


def build_fp_adjacency(h: IncidenceMatrix) -> FpOperator:
    """Assemble the order-p flower-petals adjacency from an incidence matrix.

    Rows and columns of isolated nodes (d_p = 0) are left all-zero, taking
    the 0^{-1/2} * 0 = 0 convention; an empty petal yields the zero operator.
    """
    deg = h.node_degrees()
    rows, cols = _pair_pattern(h)
    scale = np.zeros(h.n)
    nz = deg > 0
    scale[nz] = 1.0 / np.sqrt(deg[nz].astype(np.float64))
    vals = scale[rows] * scale[cols] / (h.p + 1)
    a_tilde = SparseMatrix.from_coo(h.n, h.n, rows, cols, vals)
    return FpOperator(h.p, a_tilde, deg)


def build_fp_laplacian(op: FpOperator) -> SparseMatrix:
    """I minus the adjacency; diagonal stays 1 on isolated-node rows."""
    a = op.a_tilde
    n = a.rows
    rows = np.concatenate([a._row_ids(), np.arange(n, dtype=np.int64)])
    cols = np.concatenate([a.col_indices, np.arange(n, dtype=np.int64)])
    vals = np.concatenate([-a.values, np.ones(n)])
    return SparseMatrix.from_coo(n, n, rows, cols, vals)


def walk_operator(h: IncidenceMatrix) -> SparseMatrix:
    """Column-stochastic two-step walk matrix H D_h^{-1} H^T D_v^{-1}."""
    deg = h.node_degrees()
    rows, cols = _pair_pattern(h)
    inv_deg = np.zeros(h.n)
    nz = deg > 0
    inv_deg[nz] = 1.0 / deg[nz].astype(np.float64)
    return SparseMatrix.from_coo(h.n, h.n, rows, cols, inv_deg[cols] / (h.p + 1))


def two_step_walk(h: IncidenceMatrix, pi0: WalkState, steps: int) -> WalkState:
    """Run the core-petal random walk for an even number of steps.

    Each pair of steps moves mass upward (node u sends pi_u / d_p(u) to
    every p-simplex containing it) and then downward (simplex sigma sends
    pi_sigma / (p+1) to each of its nodes), applied entrywise.
    """
    if steps < 2 or steps % 2:
        raise ValueError("steps must be a positive even count")
    if pi0.p != h.p:
        raise ValueError(f"walk state order {pi0.p} != incidence order {h.p}")
    if len(pi0.pi) != h.n:
        raise ValueError("walk state length must match node count")
    deg = h.node_degrees()
    if np.any(pi0.pi[deg == 0] != 0):
        raise ValueError("probability mass on a node isolated in this petal")

    simplex_nodes = h.members.tolist()
    pi = pi0.pi.copy()
    for _ in range(steps // 2):
        up = np.zeros(h.n_p)
        for j, nodes in enumerate(simplex_nodes):
            for u in nodes:
                up[j] += pi[u] / deg[u]
        down = np.zeros(h.n)
        for j, nodes in enumerate(simplex_nodes):
            share = up[j] / (h.p + 1)
            for v in nodes:
                down[v] += share
        pi = down
    return WalkState(h.p, pi)


def propagate_features(
    ops: list[FpOperator], x: np.ndarray, k_max: int
) -> PropagatedFeatures:
    """Precompute adjacency powers applied to the feature block, per petal.

    ``ops`` are the operators of orders 1..P, in order. Powers are never
    materialized: block k is one sparse product applied to block k-1,
    written straight into its slot of the tensor. Each petal's chain of
    products is one task; when the whole propagation holds at least
    ``PARALLEL_MIN_MADDS`` multiply-adds, the chains run on up to one
    thread per usable CPU. Every task writes only its own petal's slot with
    the same products, so the bits do not depend on the thread count.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be an n x d matrix")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    orders = [op.p for op in ops]
    if orders != list(range(1, len(ops) + 1)):
        raise ValueError(f"operators must have orders 1..P in order, got {orders}")
    for op in ops:
        if op.n != x.shape[0]:
            raise ValueError(
                f"operator order {op.p} has n={op.n}, features have {x.shape[0]} rows"
            )
    tensor = np.empty((len(ops), k_max + 1) + x.shape)

    def chain(i: int) -> None:
        tensor[i, 0] = x
        for k in range(k_max):
            spmm_dense(ops[i].a_tilde, tensor[i, k], out=tensor[i, k + 1])

    madds = sum(op.a_tilde.nnz for op in ops) * x.shape[1] * k_max
    workers = min(len(ops), _usable_cpus()) if madds >= PARALLEL_MIN_MADDS else 1
    if workers > 1:
        for op in ops:
            # the cached slot layouts are built on the calling thread, so no
            # task waits behind cached_property's lock (Python < 3.12) and the
            # layouts stay in the calling thread's malloc arena
            op.a_tilde._slots
    _thread_map(chain, range(len(ops)), workers)
    tensor.flags.writeable = False
    return PropagatedFeatures(tensor)


def spectral_filter_oracle(
    l: SparseMatrix, coeffs: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Apply a polynomial spectral filter through a full eigendecomposition.

    Dense-oracle path for verification: diagonalize the (small, symmetric)
    Laplacian and evaluate sum_k coeffs[k] * lambda^k on its spectrum. Must
    agree with repeated sparse application of the same polynomial.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (l.rows,):
        raise ValueError("signal length must match the operator")
    w, phi = dense_sym_eig(l.to_dense())
    gain = np.zeros_like(w)
    for c in coeffs[::-1]:
        gain = gain * w + c
    return phi @ (gain * (phi.T @ x))
