"""Rewiring invariants: degrees, counts, strict triangle growth, determinism."""

import numpy as np
import pytest
from triangle_oracle import adjacency_sets, apply_chain, triangle_count, triangles

import flowerpetals.nullmodel
from flowerpetals.complexes import Graph, clique_lift
from flowerpetals.nullmodel import (
    SaturationError,
    relative_density,
    rewire_add_triangle,
    rewire_to_target,
    _triangle_gain,
)
from flowerpetals.synthetic import er_graph

P5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
K4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))


class TestRewireAddTriangle:
    def test_path_example(self):
        rewired, chain = rewire_add_triangle(P5, seed=0)
        assert set(map(tuple, rewired.edges.tolist())) == {(0, 4), (1, 2), (1, 3), (2, 3)}
        assert chain == (2, 1, 3, 0, 4)
        assert np.array_equal(np.sort(rewired.degrees()), np.sort(P5.degrees()))
        assert triangles(P5) == 0 and triangles(rewired) == 1

    def test_complete_graph_saturates(self):
        with pytest.raises(SaturationError):
            rewire_add_triangle(K4, seed=0)

    def test_fifty_rewires_preserve_degrees_and_grow_triangles(self):
        g = er_graph(64, 0.1, seed=42)
        degrees = g.degrees().copy()
        edges = g.num_edges
        rng = np.random.default_rng(7)
        count = triangles(g)
        for _ in range(50):
            g, _ = rewire_add_triangle(g, rng)
            new_count = triangles(g)
            assert new_count > count
            count = new_count
        assert np.array_equal(g.degrees(), degrees)
        assert g.num_edges == edges

    def test_same_seed_same_sequence(self):
        g = er_graph(40, 0.12, seed=3)
        a, chain_a = rewire_add_triangle(g, seed=9)
        b, chain_b = rewire_add_triangle(g, seed=9)
        assert np.array_equal(a.edges, b.edges) and chain_a == chain_b


class TestRelativeDensity:
    def test_identical_complexes(self):
        lifted = clique_lift(K4, 2)
        assert relative_density(lifted, lifted, 2) == 0.0

    def test_arithmetic(self):
        g10 = er_graph(30, 0.25, seed=1)
        base = clique_lift(g10, 2)
        grown, _ = rewire_to_target(g10, 0.2, seed=0)
        rho = relative_density(base, clique_lift(grown, 2), 2)
        assert rho >= 0.2

    def test_zero_base_signalled(self):
        base = clique_lift(P5, 2)
        with pytest.raises(ValueError):
            relative_density(base, base, 2)


class TestRewireToTarget:
    def test_zero_target_returns_original(self):
        g = er_graph(30, 0.25, seed=2)
        out, log = rewire_to_target(g, 0.0, seed=0)
        assert np.array_equal(out.edges, g.edges) and log.accepted == []
        assert log.achieved_rho2 == 0.0

    def test_overshoot_is_at_most_one_rewire(self):
        g = er_graph(128, 0.1, seed=1)
        out, log = rewire_to_target(g, 0.2, seed=3)
        base = triangles(g)
        achieved = triangles(out) / base - 1.0
        assert achieved >= 0.2
        assert log.achieved_rho2 == achieved
        # replay the accepted chains: density crosses the target only at the
        # very last one
        adj = adjacency_sets(g.n, g.edges.tolist())
        for chain in log.accepted[:-1]:
            apply_chain(adj, chain)
            assert triangle_count(adj) / base - 1.0 < 0.2

    def test_running_total_matches_recount_and_stops_at_target(self):
        g = er_graph(200, 0.05, seed=4)
        target = 0.3
        out, log = rewire_to_target(g, target, seed=2)
        base = triangles(g)
        # replay: each accepted move's gain, summed, tracks a full recount
        adj = adjacency_sets(g.n, g.edges.tolist())
        total = base
        reached = []
        for chain in log.accepted:
            total += _triangle_gain(adj, chain)
            assert total == triangle_count(adj)
            reached.append(total / base - 1.0 >= target)
        assert triangles(out) == total
        assert reached[-1] and not any(reached[:-1])

    def test_unreachable_target_reports_partial(self):
        g = er_graph(24, 0.2, seed=5)
        with pytest.raises(SaturationError) as err:
            rewire_to_target(g, 50.0, seed=1)
        assert err.value.achieved_rho2 is not None
        assert err.value.graph is not None
        assert err.value.achieved_rho2 < 50.0
        assert err.value.achieved_rho2 == triangles(err.value.graph) / triangles(g) - 1.0
        assert err.value.log.achieved_rho2 == err.value.achieved_rho2

    def test_no_triangles_rejected(self):
        with pytest.raises(ValueError):
            rewire_to_target(P5, 0.5, seed=0)

    def test_centres_are_listed_once_per_run(self, monkeypatch):
        # a move keeps every degree, so a saturating run lists the centres
        # once for all its attempts
        calls = []
        centres = flowerpetals.nullmodel._centres
        monkeypatch.setattr(
            flowerpetals.nullmodel, "_centres", lambda adj: calls.append(1) or centres(adj)
        )
        with pytest.raises(SaturationError) as err:
            rewire_to_target(er_graph(24, 0.2, seed=5), 50.0, seed=1)
        assert err.value.log.attempts > 240 and len(calls) == 1
        rewire_add_triangle(P5, seed=0)
        assert len(calls) == 2
