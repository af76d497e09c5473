"""Property tests of the FP operators and colour refinement on random
small graphs, and of the model checkpoint format.

Each graph property draws a graph with at most 10 nodes and a petal order p
in {1, 2, 3}. The operator properties check the order-p adjacency against
the paper's definition A_p = 1/(p+1) D_p^{-1/2} H_p H_p^T D_p^{-1/2}, with
H_p built densely from the simplex lists of the clique complex. The
refinement property checks WL, HWL and SHWL for permutation invariance and
monotone refinement. The rewiring property replays the accepted moves of
``rewire_to_target`` against triangle recounts of the clique lift. The
checkpoint property saves and loads parameter sets of random shapes and
values.
"""

import numpy as np
import pytest

from flowerpetals.complexes import Graph, clique_lift, incidence_matrix
from flowerpetals.isomorphism import refine
from flowerpetals.model import init_params, load_checkpoint, save_checkpoint
from flowerpetals.nullmodel import SaturationError, rewire_to_target
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


def relabel(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return perm, Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@examples
@given(graphs(), orders, st.randoms(use_true_random=False))
def test_relabelling_nodes_permutes_adjacency(g, p, rnd):
    perm, relabelled = relabel(g, rnd)
    a = operator(g, p).a_tilde.to_dense()
    b = operator(relabelled, p).a_tilde.to_dense()
    # node u of g is node perm[u] of the relabelled graph
    assert np.allclose(b[np.ix_(perm, perm)], a, rtol=0.0, atol=1e-12)


@examples
@given(graphs(), orders, st.sampled_from(["wl", "hwl", "shwl"]), st.randoms(use_true_random=False))
def test_refinement_is_permutation_invariant_and_monotone(g, p, method, rnd):
    _, relabelled = relabel(g, rnd)
    if method == "wl":
        a, b, counts = g, relabelled, [g.n]
    else:
        a, b = clique_lift(g, p), clique_lift(relabelled, p)
        counts = [g.n, *(a.count(q) for q in sorted(a.simplices))]
    rounds_a, rounds_b = list(refine([a], method)), list(refine([b], method))
    assert len(rounds_a) == len(rounds_b)
    # items are nodes, then each order's simplices: one block per order
    bounds = np.cumsum([0, *counts])
    for ca, cb in zip(rounds_a, rounds_b):
        for lo, hi in zip(bounds, bounds[1:]):
            assert sorted(ca[lo:hi].tolist()) == sorted(cb[lo:hi].tolist())
    for prev, cur in zip(rounds_a, rounds_a[1:]):
        # every colour class of a round lies inside one class of the round before
        assert len(set(zip(cur.tolist(), prev.tolist()))) == len(set(cur.tolist()))


def triangles(n, edges):
    return clique_lift(Graph.from_edge_list(n, edges), 2).count(2)


@examples
@given(graphs(), st.floats(0.01, 2.0), st.integers(0, 2**32 - 1))
def test_rewiring_keeps_degrees_and_each_move_adds_triangles(g, target, seed):
    base = triangles(g.n, g.edges)
    if base == 0:
        with pytest.raises(ValueError):
            rewire_to_target(g, target, seed)
        return
    try:
        out, log = rewire_to_target(g, target, seed)
    except SaturationError as exc:  # the moves made before saturation still count
        out, log = exc.graph, exc.log
    assert np.array_equal(out.degrees(), g.degrees())
    edges, count = set(g.edges), base
    for a, b, c, d, e in log.accepted:
        edges -= {(min(b, d), max(b, d)), (min(c, e), max(c, e))}
        edges |= {(min(b, c), max(b, c)), (min(d, e), max(d, e))}
        after = triangles(g.n, edges)
        assert after > count
        count = after
    assert sorted(edges) == list(out.edges)
    assert log.achieved_rho2 == triangles(out.n, out.edges) / base - 1.0


@examples
@given(
    st.integers(1, 3), st.integers(0, 4), st.integers(1, 4), st.integers(1, 4),
    st.integers(1, 3), st.sampled_from([1, 2]), st.floats(1e-6, 1.0),
    st.integers(0, 2**63 - 1),
)
def test_checkpoint_round_trip_is_bit_exact(
    tmp_path_factory, p_max, k_max, d, h, c, depth, alpha, seed
):
    rng = np.random.default_rng(seed)
    # values over the whole float64 range, subnormals and signed zeros included
    params = init_params(p_max, k_max, d, h, c, alpha, seed, depth).map_arrays(
        lambda _, a: rng.standard_normal(a.shape) * np.exp2(rng.integers(-1074, 1000, a.shape))
    )
    path = tmp_path_factory.mktemp("ck") / "model.ck"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert (loaded.p_max, loaded.k_max, loaded.alpha, loaded.seed, loaded.depth, loaded.dims) == (
        p_max, k_max, alpha, seed, depth, (d, h, c)
    )
    for (name, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays(), strict=True):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
