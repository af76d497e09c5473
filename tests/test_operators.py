"""Petal operators: closed forms, walk dynamics, filtering oracles."""

import numpy as np
import pytest

from flowerpetals.complexes import Graph, clique_lift, incidence_matrix
from flowerpetals.linalg import SparseMatrix, dense_sym_eig, spmm_dense, spmv
from flowerpetals.operators import (
    FpOperator,
    WalkState,
    build_fp_adjacency,
    build_fp_laplacian,
    propagate_features,
    spectral_filter_oracle,
    two_step_walk,
    walk_operator,
)
from flowerpetals.synthetic import er_graph
from flowerpetals.tasks import petal_operators

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))


def petal(g, p, max_order=None):
    lifted = clique_lift(g, max_order or max(p, 2))
    return incidence_matrix(lifted, p)


@pytest.mark.parametrize("make", [
    lambda: Graph(3, ((0, 1),)),
    lambda: clique_lift(K3, 2),
    lambda: petal(K3, 1),
    lambda: SparseMatrix.identity(3),
    lambda: build_fp_adjacency(petal(K3, 1)),
], ids=["Graph", "SimplicialComplex", "IncidenceMatrix", "SparseMatrix", "FpOperator"])
def test_value_equal_types_do_not_hash(make):
    # equality compares arrays by value, so no hash can agree with it
    with pytest.raises(TypeError, match="unhashable"):
        hash(make())


class TestCallersArraysStayWritable:
    def test_fp_operator(self):
        op = build_fp_adjacency(petal(K3, 1))
        degrees = op.node_degrees.copy()
        copy = FpOperator(1, op.a_tilde, degrees)
        degrees[0] = 0  # the caller may still write its own array
        assert np.array_equal(copy.node_degrees, [2, 2, 2])
        assert not copy.node_degrees.flags.writeable

    def test_walk_state(self):
        pi = np.array([1.0, 0.0, 0.0])
        state = WalkState(1, pi)
        pi[0] = 0.5  # the caller may still write its own array
        assert state.pi[0] == 1.0 and not state.pi.flags.writeable


class TestFpOperator:
    def test_value_equality(self):
        k = clique_lift(K3, 2)
        a, b = petal_operators(k, 2), petal_operators(k, 2)
        spmm_dense(a[0].a_tilde, np.ones((3, 1)))  # the cached slot layout takes no part
        assert a == b
        assert a[0] != a[1]
        assert a[0] != FpOperator(1, a[0].a_tilde, [2, 2, 1])

    def test_asymmetric_pattern_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FpOperator(1, SparseMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]]), [1, 1])

    def test_asymmetric_values_rejected(self):
        def op(eps):
            return FpOperator(1, SparseMatrix.from_dense([[1.0, 0.5], [0.5 + eps, 0.0]]), [1, 1])

        op(1e-13)  # within the tolerance
        with pytest.raises(ValueError, match="symmetric"):
            op(1e-11)


class TestAdjacency:
    def test_k3_order1_closed_form(self):
        op = build_fp_adjacency(petal(K3, 1))
        expected = 0.25 * np.ones((3, 3)) + 0.25 * np.eye(3)
        assert np.max(np.abs(op.a_tilde.to_dense() - expected)) <= 1e-15

    def test_k3_order2_rank_one(self):
        op = build_fp_adjacency(petal(K3, 2))
        assert np.allclose(op.a_tilde.to_dense(), np.ones((3, 3)) / 3.0)
        w, _ = dense_sym_eig(op.a_tilde.to_dense())
        assert np.allclose(w, [0, 0, 1], atol=1e-12)

    def test_triangle_free_gives_zero_operator(self):
        c6 = Graph(6, tuple(sorted((min(i, (i + 1) % 6), max(i, (i + 1) % 6)) for i in range(6))))
        op = build_fp_adjacency(petal(c6, 2))
        assert op.a_tilde.nnz == 0
        assert op.isolated.all()

    def test_order1_equals_half_normalized_adjacency_plus_identity(self):
        # closed form for the first petal when no node is isolated
        for seed in range(10):
            g = er_graph(30, 0.3, seed)
            op = build_fp_adjacency(petal(g, 1))
            if op.isolated.any():
                continue
            deg = op.node_degrees.astype(float)
            a = np.zeros((g.n, g.n))
            for u, v in g.edges:
                a[u, v] = a[v, u] = 1.0
            scale = 1.0 / np.sqrt(deg)
            reference = 0.5 * (scale[:, None] * a * scale[None, :] + np.eye(g.n))
            assert np.max(np.abs(op.a_tilde.to_dense() - reference)) <= 1e-12


class TestLaplacian:
    def test_k3_order2(self):
        lap = build_fp_laplacian(build_fp_adjacency(petal(K3, 2)))
        assert np.allclose(lap.to_dense(), np.eye(3) - np.ones((3, 3)) / 3.0)
        assert np.max(np.abs(spmv(lap, np.ones(3)))) <= 1e-12

    def test_zero_operator_gives_identity(self):
        c6 = Graph(6, tuple(sorted((min(i, (i + 1) % 6), max(i, (i + 1) % 6)) for i in range(6))))
        lap = build_fp_laplacian(build_fp_adjacency(petal(c6, 2)))
        assert np.array_equal(lap.to_dense(), np.eye(6))

    def test_k3_order1_spectrum(self):
        lap = build_fp_laplacian(build_fp_adjacency(petal(K3, 1)))
        assert np.allclose(np.diag(lap.to_dense()), 0.5)
        w, _ = dense_sym_eig(lap.to_dense())
        assert np.allclose(w, [0, 0.75, 0.75], atol=1e-12)

    def test_sqrt_degree_kernel(self):
        # 0 is always an eigenvalue, with kernel vector sqrt(d_p)
        for seed in range(10):
            g = er_graph(28, 0.3, seed)
            lifted = clique_lift(g, 3)
            for p in (1, 2, 3):
                op = build_fp_adjacency(incidence_matrix(lifted, p))
                if op.isolated.any() or op.node_degrees.max() == 0:
                    continue
                lap = build_fp_laplacian(op)
                root = np.sqrt(op.node_degrees.astype(float))
                assert np.max(np.abs(spmv(lap, root))) <= 1e-12 * max(1.0, root.max())


class TestWalk:
    def test_k3_order2_mixes_in_one_round_trip(self):
        out = two_step_walk(petal(K3, 2), WalkState(2, np.array([1.0, 0, 0])), 2)
        assert np.allclose(out.pi, 1.0 / 3.0)

    def test_k3_order1_two_steps(self):
        out = two_step_walk(petal(K3, 1), WalkState(1, np.array([1.0, 0, 0])), 2)
        assert np.allclose(out.pi, [0.5, 0.25, 0.25])

    def test_mass_conservation(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            g = er_graph(20, 0.35, seed)
            h = petal(g, 1)
            deg = h.node_degrees()
            pi0 = rng.random(g.n) * (deg > 0)
            pi0 /= pi0.sum()
            out = two_step_walk(h, WalkState(1, pi0), 6)
            assert abs(out.pi.sum() - 1.0) <= 1e-12

    def test_odd_steps_rejected(self):
        with pytest.raises(ValueError):
            two_step_walk(petal(K3, 1), WalkState(1, np.ones(3) / 3), 3)

    def test_mass_on_isolated_node_rejected(self):
        g = Graph(4, ((0, 1), (0, 2), (1, 2)))  # node 3 isolated
        with pytest.raises(ValueError, match="isolated"):
            two_step_walk(petal(g, 1), WalkState(1, np.array([0.0, 0, 0, 1.0])), 2)

    def test_matches_matrix_form(self):
        for seed in range(5):
            g = er_graph(18, 0.4, seed)
            h = petal(g, 1)
            deg = h.node_degrees()
            rng = np.random.default_rng(seed)
            pi0 = rng.random(g.n) * (deg > 0)
            pi0 /= pi0.sum()
            w = walk_operator(h)
            for steps in (2, 4, 8):
                elementwise = two_step_walk(h, WalkState(1, pi0), steps).pi
                vec = pi0.copy()
                for _ in range(steps // 2):
                    vec = spmv(w, vec)
                assert np.max(np.abs(elementwise - vec)) <= 1e-12

    def test_similarity_to_walk_operator(self):
        # the adjacency is the symmetrized two-step walk matrix
        for seed in range(5):
            g = er_graph(22, 0.35, seed)
            h = petal(g, 1)
            op = build_fp_adjacency(h)
            if op.isolated.any():
                continue
            root = np.sqrt(op.node_degrees.astype(float))
            walk_dense = walk_operator(h).to_dense()
            # column-stochastic walk matrix: adjacency = D^-1/2 W D^1/2
            conjugated = walk_dense * root[None, :] / root[:, None]
            assert np.max(np.abs(conjugated - op.a_tilde.to_dense())) <= 1e-12
            walk_eigs = np.sort(np.linalg.eigvals(walk_dense).real)
            adj_eigs, _ = dense_sym_eig(op.a_tilde.to_dense())
            assert np.max(np.abs(walk_eigs - adj_eigs)) <= 1e-9


class TestPropagation:
    def test_zeroth_block_is_input(self):
        x = np.arange(6.0).reshape(3, 2)
        ops = [build_fp_adjacency(petal(K3, 1)), build_fp_adjacency(petal(K3, 2))]
        feats = propagate_features(ops, x, 3)
        for p in (1, 2):
            assert np.array_equal(feats.tensor[p - 1, 0], x)

    def test_zero_operator_blocks_vanish(self):
        c6 = Graph(6, tuple(sorted((min(i, (i + 1) % 6), max(i, (i + 1) % 6)) for i in range(6))))
        op1, op2 = build_fp_adjacency(petal(c6, 1)), build_fp_adjacency(petal(c6, 2))
        feats = propagate_features([op1, op2], np.ones((6, 2)), 2)
        # the order-2 operator of a triangle-free graph is zero
        assert np.array_equal(feats.tensor[1, 1:], np.zeros((2, 6, 2)))

    def test_k3_single_hop(self):
        op = build_fp_adjacency(petal(K3, 1))
        feats = propagate_features([op], np.array([[1.0], [0.0], [0.0]]), 1)
        assert np.allclose(feats.tensor[0, 1].ravel(), [0.5, 0.25, 0.25])

    def test_dimension_mismatch(self):
        op = build_fp_adjacency(petal(K3, 1))
        with pytest.raises(ValueError):
            propagate_features([op], np.ones((4, 1)), 1)

    def test_orders_must_run_from_one_to_p(self):
        op1, op2 = build_fp_adjacency(petal(K3, 1)), build_fp_adjacency(petal(K3, 2))
        for ops in ([op2], [op2, op1], [op1, op1], [op1, op2, op2]):
            with pytest.raises(ValueError, match="orders 1..P"):
                propagate_features(ops, np.ones((3, 1)), 1)

    def test_blocks_are_views_of_the_tensor(self):
        ops = petal_operators(clique_lift(K3, 2), 2)
        feats = propagate_features(ops, np.arange(6.0).reshape(3, 2), 3)
        assert feats.tensor.shape == (2, 4, 3, 2) and not feats.tensor.flags.writeable
        blocks = feats.blocks
        assert sorted(blocks) == [1, 2] and all(len(hops) == 4 for hops in blocks.values())
        for p, hops in blocks.items():
            for k, b in enumerate(hops):
                assert np.shares_memory(b, feats.tensor[p - 1, k])
                assert np.array_equal(b, feats.tensor[p - 1, k])
        # perfbench's feature_mb sums the block sizes
        assert sum(b.nbytes for hops in blocks.values() for b in hops) == feats.tensor.nbytes


class TestSpectralFilterOracle:
    def test_identity_filter(self):
        lap = build_fp_laplacian(build_fp_adjacency(petal(K3, 1)))
        x = np.array([1.0, -2.0, 0.5])
        out = spectral_filter_oracle(lap, np.array([1.0, 0.0]), x)
        assert np.max(np.abs(out - x)) <= 1e-12

    def test_order2_laplacian_kills_ones(self):
        lap = build_fp_laplacian(build_fp_adjacency(petal(K3, 2)))
        out = spectral_filter_oracle(lap, np.array([0.0, 1.0]), np.ones(3))
        assert np.max(np.abs(out)) <= 1e-12

    def test_matches_polynomial_application(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            g = er_graph(16, 0.4, seed)
            lap = build_fp_laplacian(build_fp_adjacency(petal(g, 1)))
            coeffs = rng.normal(size=int(rng.integers(2, 6)))
            x = rng.normal(size=g.n)
            oracle = spectral_filter_oracle(lap, coeffs, x)
            direct = np.zeros(g.n)
            power = x.copy()
            for c in coeffs:
                direct += c * power
                power = spmv(lap, power)
            assert np.max(np.abs(oracle - direct)) <= 1e-8
