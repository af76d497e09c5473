"""Build flower-petals operators for a small complex and inspect them.

A graph is lifted to its clique complex; each order p gets a bipartite
core-petal structure whose two-step random walk induces a symmetric PSD
adjacency with spectrum in [0, 1]. The Laplacian's kernel holds the
square-root degree vector.
"""

import numpy as np

from flowerpetals import (
    Graph,
    WalkState,
    build_fp_adjacency,
    build_fp_laplacian,
    clique_lift,
    dense_sym_eig,
    incidence_matrix,
    spmv,
    two_step_walk,
)

# two triangles sharing a node, plus a pendant edge
g = Graph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (4, 5)))
complex_ = clique_lift(g, max_order=3)
print("simplex counts per order:", complex_.counts())

for p in (1, 2):
    h = incidence_matrix(complex_, p)
    op = build_fp_adjacency(h)
    lap = build_fp_laplacian(op)
    eigs, _ = dense_sym_eig(op.a_tilde.to_dense())
    print(f"\norder {p}: incidence {(h.n, h.n_p)}, degrees {op.node_degrees.tolist()}")
    print(f"  adjacency spectrum in [{eigs.min():+.3f}, {eigs.max():.3f}]")
    root = np.sqrt(op.node_degrees.astype(float))
    nonzero = root > 0
    kernel_residual = np.abs(spmv(lap, np.where(nonzero, root, 0.0))).max()
    print(f"  Laplacian kernel residual on sqrt(d): {kernel_residual:.2e}")

# the two-step walk mixes mass from a single start node across its petal
h2 = incidence_matrix(complex_, 2)
start = np.zeros(6)
start[0] = 1.0
for steps in (2, 4, 8):
    pi = two_step_walk(h2, WalkState(2, start), steps).pi
    print(f"walk on the triangle petal, {steps} steps: {np.round(pi, 4).tolist()}")
