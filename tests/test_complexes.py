"""Graph loading, clique lifting against brute force, incidence structure."""

import itertools

import numpy as np
import pytest
from triangle_oracle import triangles

from flowerpetals import complexes
from flowerpetals.complexes import (
    DataError,
    Graph,
    IncidenceMatrix,
    SimplicialComplex,
    clique_lift,
    incidence_matrix,
    load_graph,
)
from flowerpetals.nullmodel import triangle_count
from flowerpetals.synthetic import er_graph

K4_EDGES = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
C6_EDGES = tuple(sorted((min(i, (i + 1) % 6), max(i, (i + 1) % 6)) for i in range(6)))


class TestGraph:
    def test_callers_arrays_stay_writable(self):
        features, labels = np.zeros((3, 2)), np.array([0, 1, 0])
        g = Graph(3, (), features, labels)
        features[0, 0], labels[0] = 1.0, 1  # the caller may still write its own arrays
        assert g.features[0, 0] == 0.0 and g.labels[0] == 0
        assert not g.features.flags.writeable and not g.labels.flags.writeable

    def test_value_equality(self):
        assert Graph(3, (), np.zeros((3, 1))) == Graph(3, (), np.zeros((3, 1)))
        assert Graph(3, (), np.zeros((3, 1))) != Graph(3, (), np.ones((3, 1)))
        assert Graph(3, (), np.zeros((3, 1))) != Graph(3, ())
        assert Graph(3, ((0, 1),), labels=[0, 1, 1]) != Graph(3, ((0, 1),), labels=[0, 1, 0])

    def test_from_edge_list_takes_an_array_or_pairs(self):
        pairs = [(2, 1), (0, 3), (1, 2), (3, 0)]
        rows = np.array(pairs)
        g = Graph.from_edge_list(4, rows)
        assert g == Graph.from_edge_list(4, pairs) == Graph(4, ((0, 3), (1, 2)))
        assert rows.flags.writeable and rows.tolist() == [list(e) for e in pairs]

    def test_from_edge_list_keys_narrow_arrays_in_int64(self):
        # in int32, keys u * w + v wrap once ids pass 46340, reordering or merging edges
        pairs = [(70_000, 1), (0, 70_000), (40_000, 70_000), (1, 70_000)]
        g = Graph.from_edge_list(70_001, np.array(pairs, dtype=np.int32))
        assert g == Graph.from_edge_list(70_001, pairs)
        assert g.edges.tolist() == [[0, 70_000], [1, 70_000], [40_000, 70_000]]

    def test_from_edge_list_rejects_ids_whose_keys_overflow(self):
        with pytest.raises(DataError, match="int64 edge keys"):
            Graph.from_edge_list(2**40, [(0, 2**40 - 1)])

    @pytest.mark.parametrize("edges, n", [
        (((1, 1),), 3),  # self-loop
        (((1, 0),), 3),  # u > v
        (((0, 3),), 3),  # node >= n
        (((-1, 0),), 3),  # node < 0
        (((0, 1), (0, 1)), 3),  # duplicate edge
        (((0, 2), (0, 1)), 3),  # unsorted edges
        (((0, 1, 2),), 3),  # a row that is not a pair
        (((0, 1.0),), 3),  # a non-integer endpoint
    ], ids=["self-loop", "descending", "too-large", "negative", "duplicate", "unsorted",
            "wrong-width", "float"])
    def test_invalid_edges_rejected(self, edges, n):
        with pytest.raises(DataError):
            Graph(n, edges)


class TestLoadGraph:
    def test_canonicalization_drops_self_loops(self, tmp_path, caplog):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\n1\t0\n1\t1\n")
        with caplog.at_level("WARNING", logger="flowerpetals"):
            g = load_graph(path)
        assert g.edges.tolist() == [[0, 1]]
        assert "1 self-loop" in caplog.text

    def test_header_allows_isolated_nodes(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("#n=3\n")
        g = load_graph(path)
        assert (g.n, g.edges.tolist()) == (3, [])

    def test_k4(self, tmp_path):
        path = tmp_path / "k4.tsv"
        path.write_text("".join(f"{u}\t{v}\n" for u, v in K4_EDGES))
        g = load_graph(path)
        assert g.n == 4 and g.num_edges == 6

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\nx\ty\n")
        with pytest.raises(DataError, match=":2:"):
            load_graph(path)

    def test_feature_row_count_mismatch(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("0\t1\n")
        feats = tmp_path / "f.csv"
        feats.write_text("1.0,2.0\n")
        with pytest.raises(DataError, match="feature rows"):
            load_graph(edges, feature_path=feats)

    def test_negative_label_rejected(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("0\t1\n")
        labels = tmp_path / "l.csv"
        labels.write_text("0\n-1\n")
        with pytest.raises(DataError, match=f"^{labels}:2: negative label -1$"):
            load_graph(edges, label_path=labels)


class TestCliqueLift:
    def test_k4_counts(self):
        counts = clique_lift(Graph(4, K4_EDGES), 3).counts()
        assert counts == {1: 6, 2: 4, 3: 1}

    def test_c6_is_triangle_free(self):
        counts = clique_lift(Graph(6, C6_EDGES), 2).counts()
        assert counts == {1: 6, 2: 0}

    def test_two_disjoint_triangles(self):
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        counts = clique_lift(g, 2).counts()
        assert counts == {1: 6, 2: 2}

    def test_matches_subset_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        cases = [Graph(0, ()), Graph(1, ()), Graph(5, ())]  # no edges to grow
        cases += [Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4))), Graph(4, K4_EDGES)]
        for trial in range(12):
            n = int(rng.integers(3, 13))
            edges = tuple(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.45
            )
            cases.append(Graph(n, edges))
        for trial, g in enumerate(cases):
            lifted = clique_lift(g, 4)
            edge_set = set(map(tuple, g.edges.tolist()))
            for p in (1, 2, 3, 4):
                expected = [
                    list(subset)
                    for subset in itertools.combinations(range(g.n), p + 1)
                    if all(
                        (a, b) in edge_set
                        for a, b in itertools.combinations(subset, 2)
                    )
                ]
                assert lifted.simplices[p].tolist() == expected, (trial, p)
            assert triangle_count(g) == triangles(g), trial  # the lift's count, on sets

    def test_downward_closure_on_er_corpus(self):
        # construction argument plus the type's own closure validation
        for seed in range(50):
            g = er_graph(int(np.random.default_rng(seed).integers(8, 65)), 0.3, seed)
            lifted = clique_lift(g, 3)
            assert isinstance(lifted, SimplicialComplex)

    def test_rows_are_stored_as_a_checked_complex_stores_them(self):
        g = er_graph(20, 0.4, 3)
        lifted = clique_lift(g, 3)
        for rows in lifted.simplices.values():
            assert rows.dtype == np.int64 and rows.flags.c_contiguous
            assert not rows.flags.writeable
        assert lifted == SimplicialComplex(g.n, dict(lifted.simplices))

    def test_orders_above_the_largest_clique_are_not_searched(self, monkeypatch):
        searched = []
        real = complexes._in_sorted
        monkeypatch.setattr(complexes, "_in_sorted", lambda *a: searched.append(1) or real(*a))
        g = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))  # largest clique: one triangle
        lifted = clique_lift(g, 200)
        assert len(searched) == 1 + 2  # one search growing edges, two growing the triangle
        assert lifted.counts() == {1: 4, 2: 1, **{p: 0 for p in range(3, 201)}}
        for p, rows in lifted.simplices.items():
            assert rows.shape[1] == p + 1 and rows.dtype == np.int64
            assert rows.flags.c_contiguous and not rows.flags.writeable

    def test_membership_search_at_the_ends_and_on_empty_keys(self):
        keys = np.array([3, 5, 9], dtype=np.int64)
        queries = np.array([0, 3, 4, 5, 9, 10, 12], dtype=np.int64)  # below, among, past
        found = [False, True, False, True, True, False, False]
        assert complexes._in_sorted(keys, queries).tolist() == found
        assert complexes._in_sorted(keys[:0], queries).tolist() == [False] * 7
        assert complexes._in_sorted(keys, queries[:0]).tolist() == []
        rows = complexes._row_keys(keys[:, None])  # the bytes keys of a closure check
        assert complexes._in_sorted(rows, complexes._row_keys(queries[:, None])).tolist() == found
        assert complexes._in_sorted(rows[:0], rows).tolist() == [False] * 3

    def test_value_equality(self):
        k3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
        assert clique_lift(k3, 2) == clique_lift(k3, 2)
        assert clique_lift(k3, 2) != clique_lift(k3, 1)
        assert clique_lift(k3, 2) != clique_lift(Graph(3, ((0, 1), (0, 2))), 2)

    def test_closure_violation_rejected(self):
        with pytest.raises(DataError, match="closure"):
            SimplicialComplex(3, {1: ((0, 1),), 2: ((0, 1, 2),)})

    @pytest.mark.parametrize("simplices", [
        {1: ((0, 1, 2),)},  # a 1-simplex of the wrong width
        {1: ((1, 1),)},  # a repeated node
        {1: ((0, 1), (0, 2)), 2: ((0, 2, 1),)},  # nodes out of order
        {1: ((0, 4),)},  # a node >= n
        {1: ((0, 2), (0, 1))},  # rows out of lexicographic order
        {1: ((0, 1), (0, 1))},  # a duplicate row
        {1: ((0, 1.5),)},  # a non-integer entry
        {0: ((0,),)},  # order 0 is the nodes, not a stored order
    ], ids=["wrong-width", "repeated-node", "unsorted-row", "too-large", "unsorted-rows",
            "duplicate", "float", "order-0"])
    def test_invalid_rows_rejected(self, simplices):
        with pytest.raises(DataError):
            SimplicialComplex(4, simplices)

    @pytest.mark.parametrize("simplices", [
        {1: ((0, 1), (1, 2)), 2: ((0, 1, 2),)},  # order 2 lacks the middle face (0, 2)
        {1: K4_EDGES, 2: ((0, 1, 2), (0, 1, 3), (0, 2, 3)), 3: ((0, 1, 2, 3),)},  # (1, 2, 3)
        {1: K4_EDGES, 3: ((0, 1, 2, 3),)},  # order 3 without order 2
    ], ids=["order-2", "order-3", "order-below-absent"])
    def test_missing_face_rejected(self, simplices):
        with pytest.raises(DataError, match="closure"):
            SimplicialComplex(4, simplices)


class TestIncidenceMatrix:
    def test_k3_triangle_column(self):
        h = incidence_matrix(clique_lift(Graph(3, ((0, 1), (0, 2), (1, 2))), 2), 2)
        assert (h.n, h.n_p) == (3, 1)
        assert np.array_equal(h.members, [[0, 1, 2]])

    def test_k3_edge_incidence_row_sums(self):
        h = incidence_matrix(clique_lift(Graph(3, ((0, 1), (0, 2), (1, 2))), 1), 1)
        assert (h.n, h.n_p) == (3, 3)
        assert np.array_equal(h.node_degrees(), [2, 2, 2])

    def test_empty_petal(self):
        h = incidence_matrix(clique_lift(Graph(6, C6_EDGES), 2), 2)
        assert (h.n, h.n_p) == (6, 0)
        assert h.members.shape == (0, 3)

    def test_value_equality(self):
        h = IncidenceMatrix(1, 3, np.array([[0, 1], [1, 2]]))
        assert h == IncidenceMatrix(1, 3, np.array([[0, 1], [1, 2]]))
        assert h != IncidenceMatrix(1, 3, np.array([[0, 1], [0, 2]]))
        assert h != IncidenceMatrix(1, 4, np.array([[0, 1], [1, 2]]))

    def test_out_of_range_order(self):
        with pytest.raises(ValueError):
            incidence_matrix(clique_lift(Graph(3, ((0, 1), (0, 2), (1, 2))), 2), 3)

    def test_total_entries_formula(self):
        # sum of all H_p entries equals (p+1) * n_p
        for seed in range(8):
            g = er_graph(24, 0.3, seed)
            lifted = clique_lift(g, 3)
            for p in (1, 2, 3):
                h = incidence_matrix(lifted, p)
                assert h.node_degrees().sum() == (p + 1) * lifted.count(p)

    @pytest.mark.parametrize("members", [
        [[0, 1, 2]],  # a row of the wrong width for p = 1
        [[1, 1]],  # a repeated node
        [[0, 3]],  # a node >= n
        [[-1, 2]],  # a node < 0
        [[0, 2], [0, 1]],  # rows out of lexicographic order
        [[0, 1], [0, 1]],  # a duplicate row
        [[0, 1.5]],  # a non-integer node
    ])
    def test_invalid_members_rejected(self, members):
        with pytest.raises(DataError):
            IncidenceMatrix(1, 3, np.array(members))
