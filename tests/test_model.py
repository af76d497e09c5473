"""Model mechanics: initialization, forward closed forms, exact gradients,
Adam, strength, and checkpoint round-trips."""

from dataclasses import replace

import numpy as np
import pytest
import training_oracle

from flowerpetals.complexes import Graph, clique_lift
from flowerpetals.model import (
    AdamState,
    _backprop,
    _decay_term,
    adam_step,
    forward,
    forward_embedding,
    init_params,
    l1_loss_and_grad,
    load_checkpoint,
    loss_and_grad,
    predict_graph_labels,
    readout_loss_and_grad,
    save_checkpoint,
    strength,
)
from flowerpetals.operators import propagate_features
from flowerpetals.synthetic import er_graph
from flowerpetals.tasks import disjoint_union, petal_features, petal_operators


def graph_feats(n, d, seed, p_max=2, k_max=2, density=0.35):
    g = er_graph(n, density, seed)
    rng = np.random.default_rng((seed, 77))
    x = rng.normal(size=(n, d))
    return petal_features(clique_lift(g, p_max), x, p_max, k_max)


def union_feats(ns, d, seeds, p_max=2, k_max=2, density=0.35):
    """The graphs and features of ``graph_feats`` for each (n, seed), as one
    disjoint union: its propagated features and the graph sizes."""
    graphs = []
    for n, seed in zip(ns, seeds):
        g = er_graph(n, density, seed)
        x = np.random.default_rng((seed, 77)).normal(size=(n, d))
        graphs.append(Graph(g.n, g.edges, x))
    union, sizes = disjoint_union(graphs)
    feats = petal_features(clique_lift(union, p_max), union.features, p_max, k_max)
    return feats, sizes


def finite_difference_max_rel(loss_fn, params, h=1e-5):
    _, grads = loss_fn(params)
    gmap = dict(grads.named_arrays())
    worst = 0.0
    for name, arr in params.named_arrays():
        for idx in np.ndindex(arr.shape):

            def shifted(delta):
                def bump(nm, a):
                    if nm == name:
                        out = a.copy()
                        out[idx] += delta
                        return out
                    return a

                return params.map_arrays(bump)

            plus, _ = loss_fn(shifted(h))
            minus, _ = loss_fn(shifted(-h))
            fd = (plus - minus) / (2 * h)
            an = gmap[name][idx]
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
    return worst


class TestInit:
    def test_filter_profile(self):
        params = init_params(1, 2, 2, 2, 2, alpha=0.5, seed=0)
        assert np.allclose(params.gamma[0], [0.5, 0.25, 0.25])
        assert params.gamma[0].sum() == 1.0

    def test_alpha_one_concentrates_on_hop_zero(self):
        params = init_params(2, 5, 2, 2, 2, alpha=1.0, seed=0)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.array_equal(params.gamma, np.tile(expected, (2, 1)))

    def test_same_seed_same_params(self):
        a = init_params(2, 3, 4, 8, 3, 0.3, seed=11)
        b = init_params(2, 3, 4, 8, 3, 0.3, seed=11)
        for (_, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
            assert np.array_equal(x, y)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            init_params(1, 1, 1, 1, 1, alpha=0.0, seed=0)

    def test_value_equality(self):
        a, b = init_params(1, 1, 2, 2, 2, 0.5, 0), init_params(1, 1, 2, 2, 2, 0.5, 0)
        assert a == b and not a != b
        theta = a.theta[0][0].copy()
        theta[1, 0] += 1.0
        assert a != replace(a, theta=((theta, a.theta[0][1]),))
        assert a != init_params(1, 1, 2, 2, 2, 0.5, 0, depth=1)
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

    def test_tail_weight_matches_geometric_form(self):
        for alpha in (0.1, 1 / 3, 0.5, 0.9):
            params = init_params(1, 10, 1, 1, 1, alpha, seed=0)
            assert abs(params.gamma[0, -1] - (1 - alpha) ** 10) <= 1e-15


class TestForward:
    def test_zero_hop_identity_path(self):
        # delta filter + identity transforms reduce to log-softmax of [X | X]
        feats = graph_feats(6, 3, seed=1, k_max=2)
        params = init_params(2, 2, 3, 3, 6, alpha=1.0, seed=0, depth=1)
        gamma = np.zeros((2, 3))
        gamma[:, 0] = 1.0
        params = params.map_arrays(
            lambda name, a: {
                "gamma": gamma,
                "theta1_p1": np.eye(3),
                "theta1_p2": np.eye(3),
                "w": np.eye(6),
            }.get(name, a)
        )
        _, log_probs = forward(params, feats)
        x = feats.tensor[0, 0]
        z = np.hstack([x, x])
        expected = z - np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) - z.max(axis=1, keepdims=True)
        assert np.max(np.abs(log_probs - expected)) <= 1e-12

    def test_tape_value_equality(self):
        feats = graph_feats(6, 3, seed=1)
        params = init_params(2, 2, 3, 4, 2, 0.5, seed=0)
        tape, _ = forward(params, feats)
        assert tape == forward(params, feats)[0]
        assert tape != replace(tape, logits=tape.logits + 1.0)
        assert tape != replace(tape, pre=tape.pre[:1])

    def test_rows_exponentiate_to_one(self):
        feats = graph_feats(10, 4, seed=2)
        params = init_params(2, 2, 4, 8, 3, 0.5, seed=3)
        _, log_probs = forward(params, feats)
        assert np.max(np.abs(np.exp(log_probs).sum(axis=1) - 1.0)) <= 1e-12

    def test_single_petal_matches_direct_fixed_filter(self):
        # frozen geometric filter with a linear transform equals the explicit
        # polynomial-in-adjacency evaluation
        g = er_graph(12, 0.4, seed=4)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(12, 3))
        k_max = 4
        ops = petal_operators(clique_lift(g, 1), 1)
        feats = propagate_features(ops, x, k_max)
        params = init_params(1, k_max, 3, 5, 2, alpha=0.3, seed=5, depth=1)

        dense = ops[0].a_tilde.to_dense()
        filtered = sum(
            params.gamma[0, k] * np.linalg.matrix_power(dense, k) @ x
            for k in range(k_max + 1)
        )
        expected_logits = filtered @ params.theta[0][0] @ params.w
        tape, _ = forward(params, feats)
        assert np.max(np.abs(tape.logits - expected_logits)) <= 1e-10


class TestGradients:
    def test_uniform_prediction_loss_is_log_c(self):
        feats = graph_feats(8, 3, seed=6)
        params = init_params(2, 2, 3, 4, 5, 0.5, seed=7)
        # zero output map gives identical logits per row
        params = params.map_arrays(
            lambda name, a: np.zeros_like(a) if name == "w" else a
        )
        labels = np.zeros(8, dtype=np.int64)
        loss, _ = loss_and_grad(params, feats, labels, np.arange(8), weight_decay=0.0)
        assert abs(loss - np.log(5)) <= 1e-12

    def test_dead_petal_filter_gradients_vanish(self):
        c6 = Graph(6, tuple(sorted((min(i, (i + 1) % 6), max(i, (i + 1) % 6)) for i in range(6))))
        feats = petal_features(clique_lift(c6, 2), np.ones((6, 2)), 2, 3)
        params = init_params(2, 3, 2, 4, 2, 0.5, seed=8)
        labels = np.array([0, 1, 0, 1, 0, 1])
        _, grads = loss_and_grad(params, feats, labels, np.arange(6))
        assert np.array_equal(grads.gamma[1, 1:], np.zeros(3))
        assert np.any(grads.gamma[0] != 0)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_nll_gradients_match_finite_differences(self, depth):
        feats = graph_feats(8, 3, seed=10 + depth)
        params = init_params(2, 2, 3, 4, 2, 0.5, seed=20 + depth, depth=depth)
        rng = np.random.default_rng(30 + depth)
        labels = rng.integers(0, 2, 8)
        mask = np.array([0, 2, 3, 5, 6])
        rel = finite_difference_max_rel(
            lambda p: loss_and_grad(p, feats, labels, mask, weight_decay=0.01),
            params,
        )
        assert rel <= 1e-4

    def test_l1_gradients_match_finite_differences(self):
        feats = graph_feats(8, 2, seed=40)
        params = init_params(2, 2, 2, 4, 1, 0.5, seed=41)
        targets = np.random.default_rng(42).normal(size=8)
        rel = finite_difference_max_rel(
            lambda p: l1_loss_and_grad(p, feats, targets, np.arange(8), 0.01),
            params,
        )
        assert rel <= 1e-4

    @pytest.mark.parametrize("readout", ["mean", "sum"])
    def test_readout_gradients_match_finite_differences(self, readout):
        feats, sizes = union_feats([5, 3, 7, 4], 3, seeds=range(4))
        labels = np.array([0, 1, 0, 1])
        params = init_params(2, 2, 3, 4, 2, 0.5, seed=50)
        rel = finite_difference_max_rel(
            lambda p: readout_loss_and_grad(
                p, feats, sizes, labels, np.arange(4), readout, 0.01
            ),
            params,
        )
        assert rel <= 1e-4

    def test_empty_mask_rejected(self):
        feats = graph_feats(4, 2, seed=60)
        params = init_params(2, 2, 2, 3, 2, 0.5, seed=61)
        with pytest.raises(ValueError):
            loss_and_grad(params, feats, np.zeros(4, dtype=int), np.array([], dtype=int))


def tensor_case(name, depth):
    """Params with random filters, and features, for one oracle case of
    ``TestFeatureTensor``."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(30, 4))
    # the features of "sliced" cover more petals and hops than the params use
    p_max, k_max, feats_p, feats_k = {
        "signed-zero": (2, 3, 2, 3), "k0": (2, 0, 2, 0), "sliced": (2, 2, 3, 4),
    }[name]
    gamma = rng.normal(size=(p_max, k_max + 1))
    if name == "signed-zero":
        x[:, [1, 3]] = 0.0
        gamma = -np.abs(gamma)
    feats = petal_features(clique_lift(er_graph(30, 0.3, seed=13), feats_p), x, feats_p, feats_k)
    params = init_params(p_max, k_max, 4, 5, 3, 0.5, seed=14, depth=depth)
    return params.map_arrays(lambda nm, a: gamma if nm == "gamma" else a), feats


class TestFeatureTensor:
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("case", ["signed-zero", "k0", "sliced"])
    def test_tape_and_gradients_equal_the_loop_oracle(self, case, depth):
        params, feats = tensor_case(case, depth)
        filtered, pre, _, z, logits = training_oracle.forward_embedding(params, feats)
        tape = forward_embedding(params, feats)
        assert tape.filtered.shape == (params.p_max, feats.n, feats.d)
        assert np.array_equal(tape.filtered, np.stack(filtered))
        if depth == 2:
            assert len(tape.pre) == len(pre)
            assert all(np.array_equal(a, b) for a, b in zip(tape.pre, pre))
        else:
            assert tape.pre is None
        assert np.array_equal(tape.z, z) and np.array_equal(tape.logits, logits)
        if case == "signed-zero":  # the loop's sums are -0.0 there
            assert np.signbit(np.stack(filtered)[:, :, [1, 3]]).all()

        rng = np.random.default_rng(17)
        dlogits = rng.normal(size=logits.shape)
        dlogits[rng.random(len(dlogits)) < 0.4] = 0.0  # rows off the mask
        grads = _backprop(params, feats, tape, dlogits, 0.01)
        expected = training_oracle.backprop(params, feats, dlogits, 0.01)
        for (name, a), (_, b) in zip(grads.named_arrays(), expected.named_arrays()):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("dims, message", [
        ((3, 2, 3), "features cover petals up to 2, params need 3"),
        ((2, 3, 3), "features cover hops up to 2, params need 3"),
        ((2, 2, 4), "feature width 3 != transform input width 4"),
    ])
    def test_params_beyond_the_features_are_rejected(self, dims, message):
        feats = graph_feats(6, 3, seed=18)
        p_max, k_max, d = dims
        with pytest.raises(ValueError, match=message):
            forward(init_params(p_max, k_max, d, 4, 2, 0.5, seed=19), feats)

    @pytest.mark.parametrize("n, c, p_max, h", [
        (1200, 2, 2, 32), (2400, 4, 3, 32), (600, 1, 2, 16),
        (755, 2, 2, 32), (30, 3, 3, 8), (7, 5, 1, 64),
    ])
    def test_petal_columns_of_the_output_gradient_are_bit_equal(self, n, c, p_max, h):
        # the backward takes each petal's dy = dlogits @ w[s].T; it must be
        # bit-equal to the slice s of the full dlogits @ w.T, which depends
        # on the BLAS
        rng = np.random.default_rng(n)
        dlogits = rng.normal(size=(n, c))
        dlogits[rng.random(n) < 0.5] = 0.0
        w = rng.normal(size=(p_max * h, c))
        full = dlogits @ w.T
        for p in range(p_max):
            s = slice(p * h, (p + 1) * h)
            assert np.array_equal((dlogits @ w[s].T).view(np.int64), full[:, s].view(np.int64))


class TestAdam:
    def test_zero_gradient_is_a_fixed_point(self):
        params = init_params(1, 2, 2, 3, 2, 0.5, seed=0)
        zero = params.map_arrays(lambda _, a: np.zeros_like(a))
        updated, _ = adam_step(params, zero, AdamState.zeros_like(params), lr=0.1)
        for (_, a), (_, b) in zip(params.named_arrays(), updated.named_arrays()):
            assert np.array_equal(a, b)

    def test_first_step_magnitude_is_learning_rate(self):
        params = init_params(1, 0, 1, 1, 1, 1.0, seed=0, depth=1)
        params = params.map_arrays(
            lambda name, a: np.ones_like(a) if name == "w" else a
        )
        grads = params.map_arrays(
            lambda name, a: a.copy() if name == "w" else np.zeros_like(a)
        )
        updated, _ = adam_step(params, grads, AdamState.zeros_like(params), lr=0.1)
        step = float(params.w[0, 0] - updated.w[0, 0])
        assert 0.0 < step < 0.11 and abs(step - 0.1) <= 1e-8

    def test_deterministic_across_reruns(self):
        feats = graph_feats(6, 2, seed=70)
        labels = np.random.default_rng(71).integers(0, 2, 6)

        def train():
            params = init_params(2, 2, 2, 3, 2, 0.5, seed=72)
            state = AdamState.zeros_like(params)
            for _ in range(20):
                _, grads = loss_and_grad(params, feats, labels, np.arange(6), 0.001)
                params, state = adam_step(params, grads, state, lr=0.05)
            return params

        a, b = train(), train()
        for (_, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
            assert np.array_equal(x, y)

    def test_loss_decreases_on_separable_instance(self):
        # two blobs, block-indicator features: loss should fall monotonically
        # over the first 50 steps up to tiny tolerance blips
        from flowerpetals.synthetic import planted_two_block

        g = planted_two_block(30, seed=5)
        feats = petal_features(clique_lift(g, 2), g.features, 2, 3)
        params = init_params(2, 3, 2, 8, 2, 0.5, seed=73)
        state = AdamState.zeros_like(params)
        losses = []
        for _ in range(50):
            loss, grads = loss_and_grad(params, feats, g.labels, np.arange(g.n))
            params, state = adam_step(params, grads, state, lr=0.05)
            losses.append(loss)
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-9)
        assert violations <= 5
        assert losses[-1] < losses[0]


class TestStrength:
    def test_initial_strength_is_one_for_any_alpha(self):
        for alpha in (0.1, 0.2, 1 / 3, 0.5, 0.7, 0.9, 1.0):
            params = init_params(3, 10, 2, 2, 2, alpha, seed=0)
            assert np.max(np.abs(strength(params) - 1.0)) <= 1e-15

    def test_absolute_sum(self):
        params = init_params(1, 2, 1, 1, 1, 0.5, seed=0)
        params = params.map_arrays(
            lambda name, a: np.array([[0.5, -0.25, 0.25]]) if name == "gamma" else a
        )
        assert strength(params)[0] == 1.0

    def test_zero_filters(self):
        params = init_params(2, 2, 1, 1, 1, 0.5, seed=0)
        params = params.map_arrays(
            lambda name, a: np.zeros_like(a) if name == "gamma" else a
        )
        assert np.array_equal(strength(params), [0.0, 0.0])


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_params(2, 3, 5, 8, 4, 0.37, seed=123, depth=2)
        # dirty the params so they differ from a fresh init
        params = params.map_arrays(lambda _, a: a * 1.000001 + 1e-9)
        path = tmp_path / "model.ck"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert (loaded.p_max, loaded.k_max, loaded.depth) == (2, 3, 2)
        assert loaded.alpha == params.alpha and loaded.seed == params.seed
        for (_, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays()):
            assert np.array_equal(a, b)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b'{"magic": "nope"}\n' + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestGraphReadout:
    def test_sum_and_mean_agree_on_equal_sizes(self):
        # same node count per graph: sum readout scales logits by n, so the
        # predicted labels coincide at any fixed parameters
        feats, sizes = union_feats([6] * 6, 3, seeds=range(6), density=0.5)
        params = init_params(2, 2, 3, 4, 3, 0.5, seed=80)
        mean_pred = predict_graph_labels(params, feats, sizes, "mean")
        sum_pred = predict_graph_labels(params, feats, sizes, "sum")
        assert np.array_equal(mean_pred, sum_pred)

    @pytest.mark.parametrize("readout", ["mean", "sum"])
    def test_union_matches_per_graph_loop(self, readout):
        ns, seeds = [5, 9, 3, 7, 6, 4], range(90, 96)
        labels = np.array([0, 2, 1, 1, 0, 2])
        mask = np.array([0, 1, 3, 5])
        wd = 0.01
        params = init_params(2, 2, 3, 4, 3, 0.5, seed=81)
        feats, sizes = union_feats(ns, 3, seeds)
        loss, grads = readout_loss_and_grad(
            params, feats, sizes, labels, mask, readout, wd
        )
        pred = predict_graph_labels(params, feats, sizes, readout)

        # reference: one forward and backward per graph on its own features
        ref_loss = _decay_term(params, wd, False)
        ref = dict(params.map_arrays(
            lambda name, a: np.zeros_like(a) if name == "gamma" else wd * a
        ).named_arrays())
        ref_pred = []
        for gi, (n, seed) in enumerate(zip(ns, seeds)):
            g_feats = graph_feats(n, 3, seed)
            tape = forward_embedding(params, g_feats)
            vec = tape.z.mean(axis=0) if readout == "mean" else tape.z.sum(axis=0)
            logits = vec @ params.w
            ref_pred.append(int(np.argmax(logits)))
            if gi not in mask:
                continue
            log_probs = logits - logits.max()
            log_probs -= np.log(np.exp(log_probs).sum())
            ref_loss -= log_probs[labels[gi]] / len(mask)
            dlogit = np.exp(log_probs)
            dlogit[labels[gi]] -= 1.0
            dlogit /= len(mask) * (n if readout == "mean" else 1)
            g = _backprop(params, g_feats, tape, np.tile(dlogit, (n, 1)), 0.0)
            for name, arr in g.named_arrays():
                ref[name] = ref[name] + arr

        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, arr in grads.named_arrays():
            scale = np.max(np.abs(ref[name]))
            assert np.max(np.abs(arr - ref[name])) <= 1e-12 * scale, name
        assert np.array_equal(pred, ref_pred)

    def test_sizes_must_cover_the_nodes(self):
        feats, _ = union_feats([4, 5], 2, seeds=range(2))
        params = init_params(2, 2, 2, 3, 2, 0.5, seed=82)
        for bad in ([4, 4], [9, 0], [0, 9]):
            with pytest.raises(ValueError, match="sizes"):
                predict_graph_labels(params, feats, bad, "mean")
