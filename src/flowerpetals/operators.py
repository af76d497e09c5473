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
from .linalg import SparseMatrix, _fields_equal, dense_sym_eig, spmm_dense

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class WalkState:
    """Occupation probabilities over core nodes for one petal order."""

    p: int
    pi: np.ndarray

    def __post_init__(self):
        pi = np.array(self.pi, dtype=np.float64)
        if pi.ndim != 1:
            raise ValueError("pi must be a vector")
        if len(pi) and pi.min() < 0:
            raise ValueError("probabilities must be non-negative")
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)


@dataclass(frozen=True)
class PropagatedFeatures:
    """Precomputed feature blocks: ``blocks[p][k]`` is the order-p adjacency
    applied k times to the input features (k = 0 is the input itself)."""

    p_max: int
    k_max: int
    blocks: dict[int, list[np.ndarray]]

    @property
    def n(self) -> int:
        return self.blocks[1][0].shape[0]

    @property
    def d(self) -> int:
        return self.blocks[1][0].shape[1]


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

    Powers are never materialized: block k is one sparse product applied to
    block k-1.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be an n x d matrix")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    blocks: dict[int, list[np.ndarray]] = {}
    for op in ops:
        if op.n != x.shape[0]:
            raise ValueError(
                f"operator order {op.p} has n={op.n}, features have {x.shape[0]} rows"
            )
        petal = [x]
        for _ in range(k_max):
            petal.append(spmm_dense(op.a_tilde, petal[-1]))
        blocks[op.p] = petal
    p_max = max((op.p for op in ops), default=0)
    return PropagatedFeatures(p_max, k_max, blocks)


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
