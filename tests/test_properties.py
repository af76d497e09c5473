"""Property tests of the FP operators on random small graphs.

Each property draws a graph with at most 10 nodes and a petal order p in
{1, 2, 3}, and checks the order-p adjacency against the paper's definition
A_p = 1/(p+1) D_p^{-1/2} H_p H_p^T D_p^{-1/2}, with H_p built densely from
the simplex lists of the clique complex.
"""

import numpy as np
import pytest

from flowerpetals.complexes import Graph, clique_lift, incidence_matrix
from flowerpetals.operators import build_fp_adjacency

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

MAX_ORDER = 3


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edge_list(n, [e for e, k in zip(pairs, keep) if k])


orders = st.integers(min_value=1, max_value=MAX_ORDER)
examples = settings(max_examples=50, deadline=None)


def dense_incidence(k, p):
    h = np.zeros((k.n, k.count(p)))
    for j, simplex in enumerate(k.simplices[p]):
        h[list(simplex), j] = 1.0
    return h


def operator(g, p):
    return build_fp_adjacency(incidence_matrix(clique_lift(g, MAX_ORDER), p))


@examples
@given(graphs(), orders)
def test_adjacency_matches_dense_definition(g, p):
    h = dense_incidence(clique_lift(g, MAX_ORDER), p)
    deg = h.sum(axis=1)
    scale = np.zeros(g.n)
    scale[deg > 0] = deg[deg > 0] ** -0.5
    expected = scale[:, None] * (h @ h.T) * scale[None, :] / (p + 1)
    assert np.max(np.abs(operator(g, p).a_tilde.to_dense() - expected), initial=0.0) <= 1e-12


@examples
@given(graphs(), orders)
def test_isolated_nodes_are_zero_rows_of_h(g, p):
    h = dense_incidence(clique_lift(g, MAX_ORDER), p)
    assert np.array_equal(operator(g, p).isolated, ~h.any(axis=1))


@examples
@given(graphs(), orders)
def test_adjacency_is_symmetric_with_spectrum_in_unit_interval(g, p):
    a = operator(g, p).a_tilde.to_dense()
    assert np.array_equal(a, a.T)
    eigs = np.linalg.eigvalsh(a)
    assert eigs.min() >= -1e-10 and eigs.max() <= 1 + 1e-10


@examples
@given(graphs(), orders, st.randoms(use_true_random=False))
def test_relabelling_nodes_permutes_adjacency(g, p, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabelled = Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    a = operator(g, p).a_tilde.to_dense()
    b = operator(relabelled, p).a_tilde.to_dense()
    # node u of g is node perm[u] of the relabelled graph
    assert np.allclose(b[np.ix_(perm, perm)], a, rtol=0.0, atol=1e-12)
