"""Property tests of the FP operators and colour refinement on random
small graphs, and of the model checkpoint format.

Each graph property draws a graph with at most 10 nodes and a petal order p
in {1, 2, 3}. The lift property checks ``clique_lift``'s rows on their own,
without the complex's validation: the simplex-row check, downward closure,
and equality with the cliques found by brute force. The operator properties
check the order-p adjacency against the paper's definition
A_p = 1/(p+1) D_p^{-1/2} H_p H_p^T D_p^{-1/2}, with H_p built densely from
the simplex lists of the clique complex. The
refinement property checks WL, HWL and SHWL for permutation invariance and
monotone refinement. The rewiring property replays the accepted moves of
``rewire_to_target`` against triangle recounts on Python sets
(``triangle_oracle``), which the lift's count of the input must equal. The
checkpoint property saves and loads parameter sets of random shapes and
values. The kernel property compares ``spmm_dense`` with its reference
products bit for bit on random CSR matrices and blocks of any float64
values. The JSON property compares the CLI's writer with the indented
``json.dumps`` it must equal, on random nested containers. The parser
properties load random edge, feature and label files both ways, through
``load_graph`` and the per-line readers of ``parser_oracle``, which state
the table grammar: files of signs, ``_`` separators, Arabic-Indic digits,
``#``, values at the edges of int64, no-break and other spaces, extra
fields, blank and whitespace-only lines and CR or CRLF line ends must give
the same graph or the same ``DataError`` text.
"""

import json
from itertools import combinations

import numpy as np
import pytest
import parser_oracle
import triangle_oracle
from parser_oracle import outcome, table_files
from spmm_oracle import bincount_spmm, loop_spmm, same_bits
from training_oracle import map_arrays

from flowerpetals.cli import _to_json
from flowerpetals.complexes import (
    Graph,
    _simplex_rows,
    clique_lift,
    incidence_matrix,
    load_graph,
)
from flowerpetals.isomorphism import refine
from flowerpetals.linalg import SparseMatrix, spmm_dense
from flowerpetals.model import init_params, load_checkpoint, save_checkpoint
from flowerpetals.nullmodel import SaturationError, rewire_to_target, triangle_count
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


@examples
@given(graphs(), orders)
def test_clique_lift_rows_are_checked_closed_and_complete(g, max_order):
    lifted = clique_lift(g, max_order)
    edges = set(map(tuple, g.edges.tolist()))
    for p, rows in lifted.simplices.items():
        assert np.array_equal(_simplex_rows(rows, p + 1, g.n, f"{p}-simplex"), rows)
        if p > 1:
            faces = set(map(tuple, lifted.simplices[p - 1].tolist()))
            for row in rows.tolist():
                assert all(tuple(row[:i] + row[i + 1:]) in faces for i in range(p + 1))
        cliques = [c for c in combinations(range(g.n), p + 1)
                   if all(pair in edges for pair in combinations(c, 2))]
        assert list(map(tuple, rows.tolist())) == cliques
    assert sorted(lifted.simplices) == list(range(1, max_order + 1))


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
    return triangle_oracle.triangle_count(triangle_oracle.adjacency_sets(n, edges))


@examples
@given(graphs(), st.floats(0.01, 2.0), st.integers(0, 2**32 - 1))
def test_rewiring_keeps_degrees_and_each_move_adds_triangles(g, target, seed):
    base = triangles(g.n, g.edges.tolist())
    assert triangle_count(g) == base
    if base == 0:
        with pytest.raises(ValueError):
            rewire_to_target(g, target, seed)
        return
    try:
        out, log = rewire_to_target(g, target, seed)
    except SaturationError as exc:  # the moves made before saturation still count
        out, log = exc.graph, exc.log
    assert np.array_equal(out.degrees(), g.degrees())
    edges, count = set(map(tuple, g.edges.tolist())), base
    for a, b, c, d, e in log.accepted:
        edges -= {(min(b, d), max(b, d)), (min(c, e), max(c, e))}
        edges |= {(min(b, c), max(b, c)), (min(d, e), max(d, e))}
        after = triangles(g.n, edges)
        assert after > count
        count = after
    assert sorted(edges) == list(map(tuple, out.edges.tolist()))
    assert log.achieved_rho2 == triangles(out.n, out.edges.tolist()) / base - 1.0


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
    params = map_arrays(
        init_params(p_max, k_max, d, h, c, alpha, seed, depth),
        lambda _, a: rng.standard_normal(a.shape) * np.exp2(rng.integers(-1074, 1000, a.shape)),
    )
    path = tmp_path_factory.mktemp("ck") / "model.ck"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert (loaded.p_max, loaded.k_max, loaded.alpha, loaded.seed, loaded.depth) == (
        p_max, k_max, alpha, seed, depth
    )
    assert (loaded.d, loaded.h, loaded.c) == (d, h, c)
    for (name, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays(), strict=True):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def sparse_products(draw):
    """A CSR matrix with stored entries at random positions (empty rows and
    stored zeros included) and a dense block; values may be any float64."""
    rows, cols, d = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 3))
    values = st.floats(allow_nan=True, allow_infinity=True)
    stored = np.array(draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)),
                      dtype=bool).reshape(rows, cols)
    _, c = np.nonzero(stored)
    v = draw(st.lists(values, min_size=len(c), max_size=len(c)))
    x = draw(st.lists(values, min_size=cols * d, max_size=cols * d))
    row_starts = np.r_[0, np.cumsum(stored.sum(axis=1))]
    m = SparseMatrix(rows, cols, row_starts, c, np.array(v, dtype=np.float64))
    return m, np.array(x, dtype=np.float64).reshape(cols, d)


@examples
@given(sparse_products())
def test_spmm_dense_equals_the_reference_products_bit_for_bit(case):
    m, x = case
    with np.errstate(all="ignore"):
        out = spmm_dense(m, x)
        for oracle in (loop_spmm, bincount_spmm):
            assert same_bits(out, oracle(m, x)), oracle.__name__


json_scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
                | st.floats(allow_nan=False, allow_infinity=False))


def json_containers(children):
    # one key type per dict: the sorted dump cannot order mixed keys
    keyed = [st.text(max_size=3), st.integers(-3, 3), st.booleans(),
             st.floats(allow_nan=False, allow_infinity=False)]
    return (st.lists(children, max_size=4) | st.tuples(children, children)
            | st.one_of([st.dictionaries(k, children, max_size=4) for k in keyed]))


@settings(max_examples=200, deadline=None)
@given(st.recursive(json_scalars, json_containers, max_leaves=25))
def test_json_output_is_the_indented_dump(payload):
    assert _to_json(payload) == json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_output_refuses_non_finite_values(value):
    for payload in ({"a": value}, {"a": [1, {"b": value}]}, {"a": {value: 1}}):
        with pytest.raises(FloatingPointError):
            _to_json(payload)


INT64_EDGES = [str(v) for v in (2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**20)]
TOKENS = ["0", "1", "2", "7", "10", "+3", "-1", "-0", "01", "1_0", "3.0", "1e3", "\u0661",
          "\u0663\u0660", "#", "#n=4", "x", "nan", "inf", "1e400", "-0.0", "0.5", "",
          *INT64_EDGES]
SEPARATORS = [" ", "\t", ",", "  ", "\xa0", "\x0c", "\x1c", "\u3000"]
SPACES = [" ", "\t", "\xa0", "\t\u3000 "]
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def table_texts(draw):
    """Files of a few lines, each a few tokens between separators, with
    whitespace-only lines among them."""
    lines = draw(st.lists(st.lists(st.sampled_from(TOKENS), max_size=4)
                          | st.sampled_from(SPACES).map(lambda space: [space]), max_size=6))
    sep, end = draw(st.sampled_from(SEPARATORS)), draw(st.sampled_from(LINE_ENDS))
    return "".join(sep.join(line) + end for line in lines)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["edges", "features", "labels"]), text=table_texts())
def test_token_files_match_the_line_reader(tmp_path_factory, kind, text):
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = table_files(tmp, kind, text)
    assert outcome(load_graph, *paths) == outcome(parser_oracle.load_graph, *paths)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3,
                         max_size=3), min_size=3, max_size=3))
def test_repr_written_features_parse_to_the_same_bits(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("floats")
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    paths = table_files(tmp, "features", text)
    got, want = load_graph(*paths).features, parser_oracle.load_graph(*paths).features
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
