"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest
from training_oracle import map_arrays
from triangle_oracle import adjacency_sets, apply_chain, triangle_count, triangles

from flowerpetals.cli import run as cli_run
from flowerpetals.complexes import Graph, clique_lift, incidence_matrix
from flowerpetals.isomorphism import distinguish
from flowerpetals.linalg import dense_sym_eig, spmv
from flowerpetals.model import (
    forward,
    init_params,
    loss_and_grad,
    stack_params,
    strength,
)
from flowerpetals.nullmodel import (
    rewire_add_triangle,
    rewire_to_target,
)
from flowerpetals.operators import (
    WalkState,
    build_fp_adjacency,
    build_fp_laplacian,
    spectral_filter_oracle,
    two_step_walk,
    walk_operator,
)
from flowerpetals.synthetic import coauthorship_complex, er_graph, triangle_task
from flowerpetals.tasks import (
    TrainConfig,
    impute_signals,
    petal_features,
    train_node_classification,
)

TWO_TRIANGLES = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
C6 = Graph(6, tuple(sorted((min(i, (i + 1) % 6), max(i, (i + 1) % 6)) for i in range(6))))
C9 = Graph(9, tuple(sorted((min(i, (i + 1) % 9), max(i, (i + 1) % 9)) for i in range(9))))
THREE_TRIANGLES = Graph(
    9, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8))
)
TRIANGLE_PLUS_HEXAGON = Graph(
    9, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 8), (4, 5), (5, 6), (6, 7), (7, 8))
)


def _report(number: int, name: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:02d} {name}: PASS"
    print(f"{line}  {detail}".rstrip())


def er_corpus():
    """50 seeded ER graphs with n <= 64 and edge probability 0.3."""
    graphs = []
    for seed in range(50):
        n = int(np.random.default_rng((seed, 1)).integers(8, 65))
        graphs.append(er_graph(n, 0.3, seed))
    return graphs


def petal_ops(g, p_max):
    lifted = clique_lift(g, p_max)
    return [build_fp_adjacency(incidence_matrix(lifted, p)) for p in range(1, p_max + 1)]


def test_c01_spectral_theorem_suite():
    started = time.perf_counter()
    worst_asym = 0.0
    eig_low, eig_high = 0.0, 1.0
    worst_sqrtd_kernel = 0.0
    worst_regular_ones = 0.0
    irregular_ones_residual = 0.0
    for g in er_corpus():
        for op in petal_ops(g, 3):
            adj = op.a_tilde.to_dense()
            lap_sparse = build_fp_laplacian(op)
            lap = lap_sparse.to_dense()
            worst_asym = max(
                worst_asym,
                float(np.max(np.abs(adj - adj.T), initial=0.0)),
                float(np.max(np.abs(lap - lap.T), initial=0.0)),
            )
            for matrix in (adj, lap):
                eigs, _ = dense_sym_eig(matrix)
                eig_low = min(eig_low, float(eigs.min(initial=0.0)))
                eig_high = max(eig_high, float(eigs.max(initial=1.0)))
            if op.isolated.any():
                continue
            # kernel lemma, executable form: 0 is an eigenvalue, with kernel
            # vector sqrt(d_p); this equals the all-ones vector only on
            # petal-regular graphs
            root = np.sqrt(op.node_degrees.astype(np.float64))
            worst_sqrtd_kernel = max(
                worst_sqrtd_kernel,
                float(np.max(np.abs(spmv(lap_sparse, root)))) / max(1.0, root.max()),
            )
            ones_residual = float(np.max(np.abs(spmv(lap_sparse, np.ones(g.n)))))
            if op.node_degrees.min() == op.node_degrees.max():
                worst_regular_ones = max(worst_regular_ones, ones_residual)
            else:
                irregular_ones_residual = max(irregular_ones_residual, ones_residual)
    elapsed = time.perf_counter() - started
    assert worst_asym <= 1e-12
    assert eig_low >= -1e-10
    assert eig_high <= 1.0 + 1e-10
    assert worst_sqrtd_kernel <= 1e-12
    assert worst_regular_ones <= 1e-12
    assert elapsed < 30.0
    _report(
        1,
        "spectral theorem suite",
        f"asym={worst_asym:.1e} eigs=[{eig_low:.1e}, {eig_high - 1:+.1e}+1] "
        f"kernel(sqrt d)={worst_sqrtd_kernel:.1e} "
        f"[informational: literal ones-residual on irregular petals "
        f"{irregular_ones_residual:.2f}] {elapsed:.1f}s",
    )


def test_c02_order1_closed_form_identity():
    worst = 0.0
    checked = 0
    for g in er_corpus():
        op = petal_ops(g, 1)[0]
        if op.isolated.any():
            continue
        checked += 1
        deg = op.node_degrees.astype(np.float64)
        a = np.zeros((g.n, g.n))
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1.0
        scale = 1.0 / np.sqrt(deg)
        reference = 0.5 * (scale[:, None] * a * scale[None, :] + np.eye(g.n))
        worst = max(worst, float(np.max(np.abs(op.a_tilde.to_dense() - reference))))
    assert checked >= 45
    assert worst <= 1e-12
    _report(2, "order-1 closed-form identity", f"max residual={worst:.1e} over {checked} graphs")


def test_c03_walk_equivalence():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_mass = 0.0
    cases = 0
    seed = 0
    while cases < 20:
        seed += 1
        g = er_graph(int(rng.integers(8, 33)), 0.3, seed)
        lifted = clique_lift(g, 2)
        p = int(rng.integers(1, 3))
        if lifted.count(p) == 0:
            continue
        h = incidence_matrix(lifted, p)
        deg = h.node_degrees()
        support = deg > 0
        pi0 = rng.random(g.n) * support
        pi0 /= pi0.sum()
        steps = 2 * int(rng.integers(1, 6))
        stepwise = two_step_walk(h, WalkState(p, pi0), steps).pi
        vec = pi0.copy()
        w = walk_operator(h)
        for _ in range(steps // 2):
            vec = spmv(w, vec)
        worst_gap = max(worst_gap, float(np.max(np.abs(stepwise - vec))))
        worst_mass = max(worst_mass, abs(float(stepwise.sum()) - 1.0))
        cases += 1
    assert worst_gap <= 1e-12
    assert worst_mass <= 1e-12
    _report(3, "walk equivalence", f"gap={worst_gap:.1e} mass drift={worst_mass:.1e}")


def test_c04_filter_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for seed in range(20):
        g = er_graph(int(rng.integers(6, 25)), 0.35, seed)
        p = 1 if seed % 3 else 2
        lifted = clique_lift(g, 2)
        op = build_fp_adjacency(incidence_matrix(lifted, p))
        lap = build_fp_laplacian(op)
        coeffs = rng.normal(size=int(rng.integers(2, 7)))
        x = rng.normal(size=g.n)
        oracle = spectral_filter_oracle(lap, coeffs, x)
        direct = np.zeros(g.n)
        power = x.copy()
        for c in coeffs:
            direct += c * power
            power = spmv(lap, power)
        worst = max(worst, float(np.max(np.abs(oracle - direct))))
    assert worst <= 1e-8
    _report(4, "spectral filter oracle", f"max deviation={worst:.1e}")


def _gradient_instance(seed, depth):
    rng = np.random.default_rng((seed, 5))
    n = int(rng.integers(8, 17))
    g = er_graph(n, 0.4, seed)
    x = rng.normal(size=(n, 3))
    feats = petal_features(clique_lift(g, 2), x, 2, 2)
    params = init_params(2, 2, 3, 4, 2, 0.5, seed=seed, depth=depth)
    labels = rng.integers(0, 2, n)
    mask = np.sort(rng.permutation(n)[: max(3, n // 2)])
    return feats, params, labels, mask


def test_c05_gradient_check():
    started = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for depth in (1, 2):
        checked = 0
        seed = 0
        while checked < 10:
            seed += 1
            feats, params, labels, mask = _gradient_instance(seed, depth)
            if depth == 2:
                # keep rectifier kinks far away from the finite-difference step
                tape, _ = forward(stack_params([params]), feats)
                pre = tape.filtered[:, 0] @ params.theta[0]
                if float(np.abs(pre).min()) < 1e-3:
                    continue
            def loss_fn(p):  # row 0 of a stack of one: its loss and gradient
                loss, grads = loss_and_grad(stack_params([p]), feats, labels, [mask], 0.01)
                return loss[0], grads[0]

            _, grads = loss_fn(params)
            gmap = dict(replace(params, flat=grads).named_arrays())
            for name, arr in params.named_arrays():
                for idx in np.ndindex(arr.shape):

                    def shifted(delta, _name=name, _idx=idx):
                        def bump(nm, a):
                            if nm == _name:
                                out = a.copy()
                                out[_idx] += delta
                                return out
                            return a

                        return map_arrays(params, bump)

                    plus, _ = loss_fn(shifted(h))
                    minus, _ = loss_fn(shifted(-h))
                    fd = (plus - minus) / (2 * h)
                    an = gmap[name][idx]
                    worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
            checked += 1
    elapsed = time.perf_counter() - started
    assert worst <= 1e-4
    assert elapsed < 60.0
    _report(5, "gradient check", f"max rel err={worst:.1e} over 20 instances, {elapsed:.1f}s")


def test_c06_permutation_equivariance():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng((trial, 6))
        n = int(rng.integers(10, 30))
        g = er_graph(n, 0.35, trial)
        x = rng.normal(size=(n, 3))
        feats = petal_features(clique_lift(g, 2), x, 2, 4)
        params = init_params(2, 4, 3, 5, 3, 0.4, seed=trial)
        _, (base,) = forward(stack_params([params]), feats)

        perm = rng.permutation(n)
        edges = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)
        )
        inv = np.argsort(perm)
        permuted = Graph(n, edges)
        pfeats = petal_features(clique_lift(permuted, 2), x[inv], 2, 4)
        _, (out,) = forward(stack_params([params]), pfeats)
        worst = max(worst, float(np.max(np.abs(out[perm] - base))))
    assert worst <= 1e-10
    _report(6, "permutation equivariance", f"max deviation={worst:.1e}")


def test_c07_shwl_strictly_beats_wl():
    started = time.perf_counter()
    # witness families: all same-size pairs are WL-blind, SHWL-separable
    for a, b in [
        (TWO_TRIANGLES, C6),
        (C9, THREE_TRIANGLES),
        (C9, TRIANGLE_PLUS_HEXAGON),
        (THREE_TRIANGLES, TRIANGLE_PLUS_HEXAGON),
    ]:
        assert distinguish(a, b, "wl")[0] == "inconclusive"
        assert distinguish(a, b, "shwl", 2)[0] == "distinguished"

    # soundness: no false positives over 200 self-relabeling pairs
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(4, 13))
        edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        )
        g = Graph(n, edges)
        perm = rng.permutation(n)
        twin = Graph(
            n,
            tuple(
                sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
            ),
        )
        assert distinguish(g, twin, "shwl", 2)[0] == "inconclusive", trial

    # dominance, exhaustive for n <= 6: whatever WL separates, SHWL separates
    atlas = pytest.importorskip("networkx.generators.atlas")
    import networkx as nx

    graphs = []
    for g in atlas.graph_atlas_g():
        if 1 <= g.number_of_nodes() <= 6 and nx.is_connected(g):
            edges = tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))
            graphs.append(Graph(g.number_of_nodes(), edges))
    wl_separated = 0
    for a, b in itertools.combinations(graphs, 2):
        if distinguish(a, b, "wl")[0] != "distinguished":
            continue
        wl_separated += 1
        for p_max in (1, 2):
            assert distinguish(a, b, "shwl", p_max)[0] == "distinguished", (
                a.edges,
                b.edges,
                p_max,
            )
    assert wl_separated > 10000
    elapsed = time.perf_counter() - started
    _report(
        7,
        "SHWL strictly beats WL",
        f"witnesses ok, 200 sound relabelings, dominance on {wl_separated} pairs, {elapsed:.0f}s",
    )


def _one_petal_bayes_rate(g: Graph, k_max: int) -> float:
    """Brute-force Bayes rate of the order-1 filtered view.

    Enumerates every node's stack {(A_1^k X)_i}; if the stacks are constant
    across nodes (up to float noise) the optimal classifier is the majority
    vote. A sweep over random filter directions and thresholds double-checks
    that nothing beats it.
    """
    feats = petal_features(clique_lift(g, 1), g.features, 1, k_max)
    stack = np.stack([feats.tensor[0, k] for k in range(k_max + 1)], axis=1)
    flat = stack.reshape(g.n, -1)
    assert float(np.max(np.abs(flat - 1.0))) <= 5e-14, "stacks are not constant"
    majority = max(np.mean(g.labels == c) for c in np.unique(g.labels))

    rng = np.random.default_rng(88)
    best_sweep = 0.0
    y = (g.labels == 1).astype(np.int64)
    total_ones = int(y.sum())
    for _ in range(200):
        gamma = rng.normal(size=flat.shape[1])
        z = flat @ gamma
        sorted_y = y[np.argsort(z, kind="stable")]
        ones_left = np.concatenate([[0], np.cumsum(sorted_y)])
        for cut in range(g.n + 1):
            zeros_left = cut - ones_left[cut]
            ones_right = total_ones - ones_left[cut]
            zeros_right = (g.n - cut) - ones_right
            predict_one_right = (zeros_left + ones_right) / g.n
            predict_one_left = (ones_left[cut] + zeros_right) / g.n
            best_sweep = max(best_sweep, predict_one_right, predict_one_left)
    return float(majority), float(best_sweep)


def test_c08_higher_order_benefit():
    started = time.perf_counter()
    # construction validation first: the order-1 view is provably blind
    g0 = triangle_task(noise_dims=0, seed=0)
    bayes, sweep = _one_petal_bayes_rate(g0, k_max=10)
    assert bayes < 0.8
    assert sweep <= bayes + 0.02

    means = {}
    for p_max in (1, 2):
        scores = []
        for seed in range(10):
            g = triangle_task(noise_dims=0, seed=seed)
            assert g.n == 200
            cfg = TrainConfig(
                task="node", P=p_max, seeds=(seed,), epochs=600, patience=150
            )
            scores.append(train_node_classification(g, cfg).mean)
        means[p_max] = float(np.mean(scores))
    elapsed = time.perf_counter() - started
    assert means[2] >= means[1]
    assert means[2] >= 0.9
    assert means[1] < 0.8
    assert elapsed < 300.0
    _report(
        8,
        "higher-order benefit",
        f"bayes(1-petal)={bayes:.2f} sweep={sweep:.2f} "
        f"acc(1-HiGCN)={means[1]:.3f} acc(2-HiGCN)={means[2]:.3f} {elapsed:.0f}s",
    )


def test_c09_imputation_monotonicity():
    cc = coauthorship_complex(n_authors=600, seed=0)
    assert cc.n >= 500
    cfg = TrainConfig(
        task="impute",
        P=2,
        seeds=tuple(range(10)),
        alpha=0.1,
        lr=0.02,
        hidden=16,
        weight_decay=0.0,
    )
    means = []
    for fraction in (0.1, 0.3, 0.5, 0.7):
        means.append(impute_signals(cc, replace(cfg, known_fraction=fraction)).mean)
    assert all(b > a for a, b in zip(means, means[1:])), means
    assert means[-1] >= means[0] + 0.1
    _report(
        9,
        "imputation monotonicity",
        "tau=" + " ".join(f"{m:.3f}" for m in means),
    )


def test_c10_null_model():
    g = er_graph(64, 0.1, seed=42)
    degree_bytes = g.degrees().tobytes()
    edge_count = g.num_edges
    rng = np.random.default_rng(10)
    count = triangles(g)
    current = g
    for _ in range(50):
        current, _ = rewire_add_triangle(current, rng)
        new_count = triangles(current)
        assert new_count > count
        count = new_count
    assert current.degrees().tobytes() == degree_bytes
    assert current.num_edges == edge_count

    base_graph = er_graph(128, 0.1, seed=1)
    base = triangles(base_graph)
    target, log = rewire_to_target(base_graph, 0.2, seed=3)
    achieved = triangles(target) / base - 1.0
    assert achieved >= 0.2
    adj = adjacency_sets(base_graph.n, base_graph.edges.tolist())
    for chain in log.accepted[:-1]:
        apply_chain(adj, chain)
        assert triangle_count(adj) / base - 1.0 < 0.2
    _report(
        10,
        "null model",
        f"50 rewires degree-exact, n2 {triangles(g)}->{count}; "
        f"target 0.2 achieved {achieved:.3f} in {len(log.accepted)} rewires",
    )


def test_c11_strength_initialization():
    worst = 0.0
    for alpha in (0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.6, 0.7, 0.85, 0.9, 0.99, 1.0):
        params = init_params(4, 10, 3, 8, 4, alpha, seed=0)
        worst = max(worst, float(np.max(np.abs(strength(params) - 1.0))))
    assert worst <= 1e-15
    _report(11, "strength initialization", f"max |S_p - 1| = {worst:.1e}")


def test_c12_cli_determinism(tmp_path):
    edges = tmp_path / "g.tsv"
    g = er_graph(24, 0.25, seed=5)
    edges.write_text(f"#n={g.n}\n" + "".join(f"{u}\t{v}\n" for u, v in g.edges))
    rng = np.random.default_rng((5, 2))
    features = tmp_path / "f.csv"
    labels = tmp_path / "l.csv"
    np.savetxt(features, rng.normal(size=(g.n, 3)), delimiter=",", fmt="%.8f")
    np.savetxt(labels, rng.integers(0, 2, g.n), fmt="%d")
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"task": "node", "epochs": 40, "patience": 20, "hidden": 4, "seeds": [0, 1]})
    )
    invocations = [
        ["lift", "--edges", str(edges), "--max-order", "3"],
        ["spectra", "--edges", str(edges), "-p", "2"],
        ["shwl", "--a", str(edges), "--b", str(edges), "--method", "shwl"],
        ["rewire", "--edges", str(edges), "--target-rho2", "0.1", "--seed", "4"],
        [
            "train",
            "--edges", str(edges),
            "--features", str(features),
            "--labels", str(labels),
            "--config", str(config),
        ],
    ]
    for i, argv in enumerate(invocations):
        payloads = []
        for rep in range(2):
            out = tmp_path / f"out_{i}_{rep}.json"
            code = cli_run(argv + ["--out", str(out)])
            assert code == 0, argv
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], argv
    _report(12, "CLI determinism", f"{len(invocations)} invocations byte-identical")
