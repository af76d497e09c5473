"""Refinement behavior, witness pairs, soundness, and partition properties."""

from collections import Counter

import numpy as np
import pytest
from refinement_oracle import (
    complex_neighbors,
    graph_neighbors,
    reference_distinguish,
    reference_rounds,
)

from flowerpetals.complexes import Graph, clique_lift
from flowerpetals.isomorphism import _rank, distinguish, refine

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
TWO_TRIANGLES = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
C6 = Graph(6, tuple(sorted((min(i, (i + 1) % 6), max(i, (i + 1) % 6)) for i in range(6))))


def random_graph(rng, n, density=0.4):
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    )
    return Graph(n, edges)


def geometric_graph(rng, n, radius):
    """Nodes at uniform points in the unit square, joined when closer than
    ``radius``: many triangles and tetrahedra."""
    points = rng.random((n, 2))
    u, v = np.triu_indices(n, 1)
    near = np.hypot(*(points[u] - points[v]).T) < radius
    return Graph(n, np.stack([u[near], v[near]], axis=1))


def relabel(g, perm):
    edges = tuple(
        sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)
    )
    return Graph(g.n, edges)


def item_orders(structure):
    """Simplex order of every item, in the item layout ``refine`` uses."""
    if isinstance(structure, Graph):
        return np.zeros(structure.n, dtype=np.int64)
    orders = sorted(structure.simplices)
    return np.repeat([0, *orders], [structure.n, *(structure.count(p) for p in orders)])


def histograms(structure, method):
    """Per round, the colour multiset of every simplex order that has items."""
    orders = item_orders(structure)
    return [
        {p: Counter(colors[orders == p].tolist()) for p in dict.fromkeys(orders.tolist())}
        for colors in refine([structure], method)
    ]


def node_partition(colors, n):
    groups = {}
    for v in range(n):
        groups.setdefault(int(colors[v]), set()).add(v)
    return frozenset(frozenset(g) for g in groups.values())


class TestRank:
    RNG = np.random.default_rng(11)

    @pytest.mark.parametrize("key", [
        np.zeros(0, dtype=np.int64),
        np.array([7]),
        np.full(9, 42),
        RNG.integers(0, 50, 2000),  # ties
        RNG.integers(-5, 5, 300),
        2**62 - 1 - RNG.integers(0, 40, 500),  # near the packed passes' bound
        np.array([2**62 - 1, 0, 2**62 - 2, 2**62 - 1, 1]),
    ], ids=["empty", "single", "all-equal", "ties", "negative", "near-2**62", "extremes"])
    def test_matches_unique_inverse(self, key):
        distinct, inverse = np.unique(key, return_inverse=True)
        rank, count = _rank(key)
        assert count == len(distinct)
        assert rank.dtype == inverse.dtype and np.array_equal(rank, inverse)


class TestWl:
    def test_k3_stays_monochrome(self):
        rounds = histograms(K3, "wl")
        for hist in rounds:
            assert len(hist[0]) == 1

    def test_star_splits_center_from_leaves(self):
        rounds = histograms(Graph(4, ((0, 1), (0, 2), (0, 3))), "wl")
        assert sorted(rounds[1][0].values()) == [1, 3]
        assert sorted(rounds[-1][0].values()) == [1, 3]

    def test_two_triangles_and_c6_share_histograms(self):
        a, b = histograms(TWO_TRIANGLES, "wl"), histograms(C6, "wl")
        assert len(a) == len(b)
        # every node is degree 2: refinement stabilizes immediately
        for ha, hb in zip(a, b):
            assert sorted(ha[0].values()) == sorted(hb[0].values())


class TestHwl:
    def test_k3_orbit_classes(self):
        hist = histograms(clique_lift(K3, 2), "hwl")[-1]
        assert list(hist[0].values()) == [3]
        assert list(hist[1].values()) == [3]
        assert list(hist[2].values()) == [1]

    def test_two_triangles_vs_c6_differ_at_round_one(self):
        ha = histograms(clique_lift(TWO_TRIANGLES, 2), "hwl")
        hb = histograms(clique_lift(C6, 2), "hwl")
        assert ha[0].get(2) != hb[0].get(2)  # simplex counts differ already

    def test_round_zero_histogram_reflects_counts_only(self):
        lifted = clique_lift(TWO_TRIANGLES, 2)
        hist = histograms(lifted, "hwl")[0]
        assert hist[0] == {0: 6} and hist[1] == {0: 6} and hist[2] == {0: 2}


class TestShwl:
    def test_witness_pair_distinguished(self):
        verdict, _ = distinguish(TWO_TRIANGLES, C6, "shwl", 2)
        assert verdict == "distinguished"

    def test_relabeling_gives_identical_histogram_sequences(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            g = random_graph(rng, int(rng.integers(5, 12)))
            perm = rng.permutation(g.n)
            a = histograms(clique_lift(g, 2), "shwl")
            b = histograms(clique_lift(relabel(g, perm), 2), "shwl")
            assert a == b, trial

    def test_triangle_free_node_partition_matches_wl(self):
        rng = np.random.default_rng(4)
        cases = [
            Graph(7, ((0, 1), (0, 2), (1, 3), (2, 4), (4, 5), (4, 6))),  # tree
            C6,
            Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4))),  # path
        ]
        for _ in range(5):  # random bipartite graphs stay triangle-free
            left = int(rng.integers(2, 5))
            right = int(rng.integers(2, 5))
            edges = tuple(
                (u, left + v)
                for u in range(left)
                for v in range(right)
                if rng.random() < 0.6
            )
            cases.append(Graph(left + right, edges))
        for g in cases:
            wl_final = node_partition(list(refine([g], "wl"))[-1], g.n)
            shwl_final = node_partition(list(refine([clique_lift(g, 2)], "shwl"))[-1], g.n)
            assert wl_final == shwl_final, g.edges

    def test_monotone_refinement(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(5, 14)))
            rounds = list(refine([clique_lift(g, 3)], "shwl"))
            for prev, cur in zip(rounds, rounds[1:]):
                parents = {}
                for item, color in enumerate(cur.tolist()):
                    parents.setdefault(color, set()).add(int(prev[item]))
                assert all(len(p) == 1 for p in parents.values())


class TestDistinguish:
    def test_wl_inconclusive_on_witness(self):
        verdict, rounds = distinguish(TWO_TRIANGLES, C6, "wl")
        assert verdict == "inconclusive"
        assert rounds[-1]["a"] == rounds[-1]["b"]

    def test_identical_graphs_inconclusive_under_all_methods(self):
        for method in ("wl", "hwl", "shwl"):
            verdict, _ = distinguish(C6, C6, method, 2)
            assert verdict == "inconclusive"

    def test_wl_separates_triangle_from_path(self):
        verdict, _ = distinguish(K3, Graph(3, ((0, 1), (1, 2))), "wl")
        assert verdict == "distinguished"

    def test_soundness_on_relabelings(self):
        rng = np.random.default_rng(6)
        for trial in range(60):
            g = random_graph(rng, int(rng.integers(4, 12)))
            twin = relabel(g, rng.permutation(g.n))
            for method in ("wl", "hwl", "shwl"):
                verdict, _ = distinguish(g, twin, method, 2)
                assert verdict == "inconclusive", (trial, method)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            distinguish(K3, C6, "k-wl")

    def test_structure_must_suit_method(self):
        with pytest.raises(TypeError):
            next(refine([K3], "shwl"))  # SHWL refines complexes, not graphs
        with pytest.raises(TypeError):
            next(refine([clique_lift(K3, 2)], "wl"))


class TestAgainstReference:
    """The array refinement gives the dict-of-tuples reference's bytes."""

    @staticmethod
    def hub(rng, leaves=240):
        """A random graph whose node 0 also has ``leaves`` leaves: its row
        spans many passes, and the leaves' rows end inside the first."""
        g = random_graph(rng, 12, 0.5)
        spokes = [(0, v) for v in range(12, 12 + leaves)]
        return Graph.from_edge_list(12 + leaves, [*g.edges.tolist(), *spokes])

    @staticmethod
    def scattered(rng):
        """A random graph on nodes 0..11 beside 8 isolated nodes: rows of
        length 0 among longer ones."""
        return Graph(20, random_graph(rng, 12, 0.5).edges)

    @staticmethod
    def pairs():
        rng = np.random.default_rng(8)
        fixed = [
            (Graph(0, ()), Graph(0, ())),
            (Graph(1, ()), Graph(1, ())),
            (Graph(1, ()), Graph(2, ())),
            (Graph(4, ()), Graph(4, ((0, 1),))),  # edgeless: orders 1+ are empty
            (C6, TWO_TRIANGLES),  # triangle-free against two triangles
            (C6, relabel(C6, [3, 1, 4, 0, 5, 2])),
            (K3, Graph(3, ((0, 1), (1, 2)))),
        ]
        random = []
        for _ in range(100):
            n = int(rng.integers(1, 10))
            g = random_graph(rng, n, float(rng.choice([0.2, 0.5, 0.8])))
            other = random_graph(rng, n, 0.5) if rng.random() < 0.5 else g
            random.append((g, relabel(other, rng.permutation(n))))
        hub, moved = TestAgainstReference.hub(rng), TestAgainstReference.hub(rng)
        spokes = [(1, v) if v == 12 else (u, v) for u, v in moved.edges.tolist()]
        moved = Graph.from_edge_list(moved.n, spokes)
        scattered = TestAgainstReference.scattered(rng)
        shaped = [
            (hub, relabel(hub, rng.permutation(hub.n))),
            (hub, moved),  # one leaf moved from node 0 to node 1
            (scattered, relabel(scattered, rng.permutation(scattered.n))),
            (scattered, TestAgainstReference.scattered(rng)),
        ]
        # 80 nodes, 491 triangles: SHWL's sums collide here, so its partition
        # depends on the colour numbering, and the isomorphic pair refines to
        # the end
        rng = np.random.default_rng(0)
        g = geometric_graph(rng, 80, 0.2)
        return fixed + random + shaped + [(g, relabel(g, rng.permutation(g.n)))]

    @pytest.mark.parametrize("method", ["wl", "hwl", "shwl"])
    def test_verdicts_and_histograms_match_reference(self, method):
        verdicts = Counter()
        for a, b in self.pairs():
            for p_max in (1, 2, 3):
                verdict, rounds = distinguish(a, b, method, p_max)
                ref_verdict, ref_rounds = reference_distinguish(a, b, method, p_max)
                assert verdict == ref_verdict, (a, b, p_max)
                assert repr(rounds) == repr(ref_rounds)
                verdicts[verdict] += 1
        assert verdicts["distinguished"] and verdicts["inconclusive"]

    @pytest.mark.parametrize("method", ["hwl", "shwl"])
    def test_dense_geometric_pair_matches_reference(self, method):
        # over a thousand classes: late rounds pack only a few positions a pass
        rng = np.random.default_rng(1)
        g = geometric_graph(rng, 70, 0.35)
        twin = relabel(g, rng.permutation(g.n))
        verdict, rounds = distinguish(g, twin, method, 2)
        ref_verdict, ref_rounds = reference_distinguish(g, twin, method, 2)
        assert verdict == ref_verdict and repr(rounds) == repr(ref_rounds)
        assert sum(len(hist) for hist in rounds[-1]["a"].values()) > 1000

    @pytest.mark.parametrize("method", ["wl", "hwl", "shwl"])
    def test_joint_refinement_of_three_structures_matches_reference_rounds(self, method):
        rng = np.random.default_rng(9)
        graphs = [self.hub(rng), self.scattered(rng), geometric_graph(rng, 40, 0.3)]
        if method == "wl":
            structures, neighbors = graphs, [graph_neighbors(g) for g in graphs]
        else:
            structures = [clique_lift(g, 3) for g in graphs]
            neighbors = [complex_neighbors(k) for k in structures]
        expected = reference_rounds(neighbors, method)
        rounds = list(refine(structures, method))
        assert len(rounds) == len(expected)
        for colors, coloring in zip(rounds, expected):
            assert colors.tolist() == [c for per in coloring for c in per.values()]
