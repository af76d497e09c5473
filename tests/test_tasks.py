"""Splits, rank correlation, homophily, and the three training pipelines."""

import concurrent.futures
import json
from dataclasses import replace

import numpy as np
import pytest
import training_oracle

from flowerpetals import linalg, tasks
from flowerpetals.complexes import (
    CoauthorshipComplex,
    DataError,
    Graph,
    clique_lift,
    load_coauthorship,
)
from flowerpetals.model import init_params, predict_graph_labels
from flowerpetals.operators import propagate_features
from flowerpetals.synthetic import (
    coauthorship_complex,
    planted_two_block,
    triangle_task,
    triangles_vs_hexagons,
)
from flowerpetals.tasks import (
    ConstantSignalError,
    SplitSpec,
    TrainConfig,
    disjoint_union,
    graph_classify,
    impute_signals,
    kendall_tau,
    fit_node_params,
    make_splits,
    petal_features,
    train_node_classification,
)

C6 = Graph(6, tuple(sorted((min(i, (i + 1) % 6), max(i, (i + 1) % 6)) for i in range(6))))


class TestSplits:
    def test_exact_ratio_sizes(self):
        s = make_splits(10, (0.6, 0.2, 0.2), seed=0)
        assert (len(s.train), len(s.val), len(s.test)) == (6, 2, 2)

    def test_same_seed_same_split(self):
        a = make_splits(50, seed=4)
        b = make_splits(50, seed=4)
        assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)

    def test_remainder_distribution(self):
        s = make_splits(5, (0.6, 0.2, 0.2), seed=1)
        assert (len(s.train), len(s.val), len(s.test)) == (3, 1, 1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_splits(2, (0.6, 0.2, 0.2), seed=0)

    def test_parts_disjoint_and_covering(self):
        s = make_splits(23, (0.5, 0.25, 0.25), seed=9)
        union = np.sort(np.concatenate([s.train, s.val, s.test]))
        assert np.array_equal(union, np.arange(23))

    def test_callers_arrays_stay_writable(self):
        train = np.array([0, 1])
        s = SplitSpec(train, np.array([2]), np.array([3]))
        train[0] = 3  # the caller may still write its own array
        assert np.array_equal(s.train, [0, 1]) and not s.train.flags.writeable

    def test_value_equality(self):
        s = make_splits(10, seed=3)
        assert s == make_splits(10, seed=3) and not s != make_splits(10, seed=3)
        assert s != make_splits(10, seed=4)
        assert s != SplitSpec(s.val, s.train, s.test)
        with pytest.raises(TypeError, match="unhashable"):
            hash(s)


class TestKendallTau:
    def test_identity(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversal(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_partial_agreement(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3, abs=0)

    def test_symmetry_and_brute_force_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            a = rng.integers(0, 8, n).astype(float)
            b = rng.integers(0, 8, n).astype(float)
            try:
                fast = kendall_tau(a, b)
            except ConstantSignalError:
                assert len(set(a)) == 1 or len(set(b)) == 1
                continue
            assert fast == kendall_tau(b, a)
            cmd = sum(
                int(np.sign(a[i] - a[j]) * np.sign(b[i] - b[j]))
                for i in range(n)
                for j in range(i + 1, n)
            )
            n0 = n * (n - 1) // 2
            n1 = sum(int(c) * (int(c) - 1) // 2 for c in np.unique(a, return_counts=True)[1])
            n2 = sum(int(c) * (int(c) - 1) // 2 for c in np.unique(b, return_counts=True)[1])
            assert fast == cmd / np.sqrt((n0 - n1) * (n0 - n2))

    def test_zero_variance_signalled(self):
        with pytest.raises(ConstantSignalError):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_non_finite_input_rejected(self):
        # unchecked, these predictions scored tau = 1.0
        for a, b in (([1.0, 2.0, 3.0, 4.0], [np.nan, np.inf, np.nan, -np.inf]),
                     ([np.inf, 2.0, 3.0], [1.0, 2.0, 3.0])):
            with pytest.raises(ValueError, match="finite"):
                kendall_tau(a, b)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])


def compute_homophily(g: Graph) -> float:
    """Fraction of edges whose endpoints share a label."""
    if g.labels is None:
        raise DataError("homophily needs node labels")
    if g.num_edges == 0:
        raise ValueError("homophily undefined on an edgeless graph")
    return float(np.mean(g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]))


class TestHomophily:
    def test_uniform_labels(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)), labels=np.zeros(3, dtype=int))
        assert compute_homophily(g) == 1.0

    def test_proper_two_coloring_of_c6(self):
        g = Graph(6, C6.edges, labels=np.array([0, 1, 0, 1, 0, 1]))
        assert compute_homophily(g) == 0.0

    def test_k3_mixed(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)), labels=np.array([0, 0, 1]))
        assert compute_homophily(g) == pytest.approx(1 / 3, abs=0)

    def test_requires_edges(self):
        g = Graph(2, (), labels=np.array([0, 1]))
        with pytest.raises(ValueError):
            compute_homophily(g)


class TestTrainConfig:
    def test_unknown_key_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"task": "node", "lrr": 0.1}')
        with pytest.raises(DataError, match="lrr"):
            TrainConfig.from_json(path)

    def test_empty_seeds_rejected(self):
        with pytest.raises(DataError, match="seed"):
            TrainConfig(task="node", seeds=())

    def test_repeated_seeds_rejected(self):
        # a seed named twice would count one run twice and hide its spread
        want = r"^seeds must be non-negative and distinct, got \(3, 1, 3\)"
        with pytest.raises(DataError, match=want):
            TrainConfig(task="node", seeds=(3, 1, 3))

    def test_round_trip(self):
        cfg = TrainConfig(task="impute", seeds=(1, 2), known_fraction=0.3)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_json_fills_and_checks_the_commands_task(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"epochs": 3}')
        assert TrainConfig.from_json(path, "impute").task == "impute"
        assert TrainConfig.from_json(path).task == "node"
        path.write_text('{"task": "graphclass"}')
        assert TrainConfig.from_json(path, "graphclass").task == "graphclass"
        with pytest.raises(DataError, match="graphclass"):
            TrainConfig.from_json(path, "impute")

    def test_per_task_epoch_defaults(self):
        assert TrainConfig(task="node").resolved_epochs == 1000
        assert TrainConfig(task="impute").resolved_epochs == 500
        assert TrainConfig(task="impute", epochs=77).resolved_epochs == 77


class TestNodeClassification:
    def test_separable_instance_reaches_full_accuracy(self):
        g = planted_two_block(60, seed=0)
        cfg = TrainConfig(task="node", seeds=(0,), epochs=200, patience=80)
        report = train_node_classification(g, cfg)
        assert report.mean == 1.0

    def test_shuffled_labels_score_at_chance(self):
        base = planted_two_block(60, seed=1)
        scores = []
        for seed in range(10):
            rng = np.random.default_rng((seed, 999))
            g = Graph(base.n, base.edges, base.features, rng.permutation(base.labels))
            cfg = TrainConfig(
                task="node", seeds=(seed,), epochs=120, patience=50, hidden=8
            )
            scores.append(train_node_classification(g, cfg).mean)
        assert abs(np.mean(scores) - 0.5) <= 0.15

    def test_triangle_task_orders_the_models(self):
        # noisy-feature variant: the order-2 petal must not hurt, and in the
        # mean it helps
        means = {}
        for p_max in (1, 2):
            scores = []
            for seed in range(10):
                g = triangle_task(seed=seed)
                cfg = TrainConfig(
                    task="node", P=p_max, seeds=(seed,), epochs=300, patience=100
                )
                scores.append(train_node_classification(g, cfg).mean)
            means[p_max] = float(np.mean(scores))
        assert means[2] >= means[1]

    def test_missing_features_rejected(self):
        g = Graph(4, ((0, 1), (2, 3)), labels=np.array([0, 0, 1, 1]))
        with pytest.raises(DataError):
            train_node_classification(g, TrainConfig(task="node"))

    def test_relabeling_invariance(self):
        g = planted_two_block(40, seed=2)
        cfg = TrainConfig(task="node", seeds=(3,), epochs=150, patience=60)
        base = train_node_classification(g, cfg)

        perm = np.random.default_rng(11).permutation(g.n)
        edges = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)
        )
        inv = np.argsort(perm)
        permuted = Graph(g.n, edges, g.features[inv], g.labels[inv])
        # the permuted run draws the same split indices, which now name
        # different nodes; equality of accuracy needs the split permuted too,
        # so compare through a run with identical node-set semantics
        feats = petal_features(clique_lift(g, cfg.P), g.features, cfg.P, cfg.K)
        pfeats = petal_features(clique_lift(permuted, cfg.P), permuted.features, cfg.P, cfg.K)
        from flowerpetals.tasks import _fit_node_model, make_splits
        from flowerpetals.model import forward

        split = make_splits(g.n, cfg.split_ratios, 3)
        params = _fit_node_model(feats, g.labels, split, 3, cfg).params

        class PermutedSplit:
            train = perm[split.train]
            val = perm[split.val]
            test = perm[split.test]

        pparams = _fit_node_model(pfeats, permuted.labels, PermutedSplit, 3, cfg).params
        _, log_probs = forward(params, feats)
        _, plog_probs = forward(pparams, pfeats)
        base_acc = float(np.mean(np.argmax(log_probs[split.test], 1) == g.labels[split.test]))
        perm_acc = float(
            np.mean(
                np.argmax(plog_probs[perm[split.test]], 1)
                == permuted.labels[perm[split.test]]
            )
        )
        assert base_acc == perm_acc


@pytest.fixture(scope="module")
def complex_():
    return coauthorship_complex(
        n_authors=120, community_size=30, papers_per_community=30, seed=0
    )


class TestImputation:
    def test_constant_signal_flagged(self):
        simplices = {1: ((0, 1), (1, 2))}
        signals = {0: np.full(3, 7.0), 1: np.array([3.0, 4.0])}
        from flowerpetals.complexes import SimplicialComplex

        cc = CoauthorshipComplex(SimplicialComplex(3, simplices), signals)
        cfg = TrainConfig(task="impute", seeds=(0,), epochs=5, hidden=4, K=2,
                          known_fraction=1 / 3)
        report = impute_signals(cc, cfg)
        assert report.runs[0]["kendall_tau"] == 0.0
        assert "constant-signal" in report.flags

    def test_degenerate_fraction_rejected(self):
        for fraction in (0.0, 1.0):
            with pytest.raises(DataError, match=r"known_fraction must be in \(0, 1\)"):
                TrainConfig(task="impute", known_fraction=fraction)

    def test_fraction_rounding_to_no_known_node_rejected(self):
        cc = coauthorship_complex(40, 20, 12, seed=0)
        cfg = TrainConfig(task="impute", known_fraction=0.01)
        with pytest.raises(ValueError, match="degenerate known fraction 0.01 for n=40"):
            impute_signals(cc, cfg)

    def test_each_seed_of_a_run_is_the_run_of_that_seed_alone(self):
        # each seed trains alone on its own mask, so a seed's run is byte for
        # byte the same whichever seeds run beside it
        cc = coauthorship_complex(40, 20, 12, seed=0)
        cfg = TrainConfig(task="impute", seeds=(4, 0, 7), epochs=30, hidden=4, K=3)
        runs = impute_signals(cc, cfg).runs
        for seed, run in zip(cfg.seeds, runs, strict=True):
            (alone,) = impute_signals(cc, replace(cfg, seeds=(seed,))).runs
            assert json.dumps(run) == json.dumps(alone)

    def test_more_known_signals_help(self, complex_):
        cfg = TrainConfig(
            task="impute", seeds=(0, 1, 2), alpha=0.1, lr=0.02, hidden=16,
            weight_decay=0.0, epochs=300,
        )
        low = impute_signals(complex_, replace(cfg, known_fraction=0.2)).mean
        high = impute_signals(complex_, replace(cfg, known_fraction=0.7)).mean
        assert high > low

    def test_perfect_predictions_have_tau_one(self):
        taus = kendall_tau(np.arange(10.0), np.arange(10.0))
        assert taus == 1.0


class TestCoauthorshipIO:
    def test_round_trip_with_drop_rule(self, tmp_path):
        path = tmp_path / "cc.tsv"
        path.write_text(
            "#n=4\n"
            "0\t0\t5\n0\t1\t6\n0\t2\t0\n0\t3\t1\n"
            "1\t0,1\t4\n"
            "1\t2,3\t2\n"  # dropped: signal <= 2
            "2\t0,1,2\t3\n"
        )
        cc = load_coauthorship(path)
        assert cc.n == 4
        assert cc.complex.simplices[2].tolist() == [[0, 1, 2]]
        # closure adds the two missing faces of the triangle with signal 0
        assert cc.complex.simplices[1].tolist() == [[0, 1], [0, 2], [1, 2]]
        sig = dict(zip(map(tuple, cc.complex.simplices[1].tolist()), cc.signals[1]))
        assert sig[(0, 1)] == 4.0 and sig[(0, 2)] == 0.0 and sig[(1, 2)] == 0.0
        assert np.array_equal(cc.node_signals, [5, 6, 0, 1])

    def test_callers_signals_stay_writable(self):
        nodes = np.array([5.0, 6.0, 0.0])
        cc = CoauthorshipComplex(clique_lift(Graph(3, ((0, 1),)), 1), {0: nodes})
        nodes[0] = 1.0  # the caller may still write its own array
        assert cc.node_signals[0] == 5.0 and not cc.node_signals.flags.writeable

    def test_value_equality(self):
        k = clique_lift(Graph(3, ((0, 1),)), 1)
        cc = CoauthorshipComplex(k, {0: [5.0, 6.0, 0.0], 1: [2.0]})
        assert cc == CoauthorshipComplex(k, {0: [5.0, 6.0, 0.0], 1: [2.0]})
        assert cc != CoauthorshipComplex(k, {0: [5.0, 6.0, 0.0], 1: [3.0]})
        assert cc != CoauthorshipComplex(k, {0: [5.0, 6.0, 0.0]})
        assert cc != CoauthorshipComplex(clique_lift(Graph(3, ((1, 2),)), 1),
                                         {0: [5.0, 6.0, 0.0], 1: [2.0]})
        with pytest.raises(TypeError, match="unhashable"):
            hash(cc)

    @pytest.mark.parametrize("signals", [
        {0: [1.0, np.nan, 3.0], 1: [3.0, 4.0]},
        {0: [1.0, 2.0, 3.0], 1: [np.inf, 4.0]},
        {0: [1.0, 2.0, -np.inf], 1: [3.0, 4.0]},
    ])
    def test_non_finite_signals_rejected(self, signals):
        from flowerpetals.complexes import SimplicialComplex

        with pytest.raises(DataError, match="finite"):
            CoauthorshipComplex(SimplicialComplex(3, {1: [(0, 1), (1, 2)]}), signals)

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t0,0\t5\n")
        with pytest.raises(DataError, match="distinct"):
            load_coauthorship(path)


class TestGraphClassification:
    def test_triangles_vs_hexagons_are_separable(self):
        graphs, labels = triangles_vs_hexagons(per_class=10, seed=0)
        cfg = TrainConfig(
            task="graphclass", seeds=(0,), epochs=40, hidden=8, K=3, lr=0.05
        )
        report = graph_classify(graphs, labels, cfg)
        assert report.extras["max_mean_val_accuracy"] == 1.0

    def test_config_with_more_than_one_seed_is_refused(self):
        with pytest.raises(DataError, match="^seeds must name one seed for graphclass"):
            TrainConfig(task="graphclass", seeds=(0, 1))
        assert TrainConfig(task="node", seeds=(0, 1)).seeds == (0, 1)

    def test_single_class_dataset(self):
        graphs, _ = triangles_vs_hexagons(per_class=6, seed=1)
        labels = np.zeros(len(graphs), dtype=int)
        cfg = TrainConfig(task="graphclass", seeds=(0,), epochs=5, hidden=4, K=2)
        report = graph_classify(graphs, labels, cfg)
        assert report.extras["max_mean_val_accuracy"] == 1.0

    def test_equal_sizes_make_readouts_agree(self):
        union, sizes = disjoint_union([planted_two_block(8, seed=s) for s in range(6)])
        feats = petal_features(clique_lift(union, 2), union.features, 2, 2)
        params = init_params(2, 2, 2, 4, 2, 0.5, seed=12)
        assert np.array_equal(
            predict_graph_labels(params, feats, sizes, "mean"),
            predict_graph_labels(params, feats, sizes, "sum"),
        )

    def test_disjoint_union_offsets_ids_and_stacks_features(self):
        graphs = [planted_two_block(n, seed=s) for s, n in enumerate((8, 5, 6))]
        union, sizes = disjoint_union(graphs)
        assert sizes.tolist() == [8, 5, 6] and union.n == 19
        assert union.edges.tolist() == [
            [u + off, v + off] for g, off in zip(graphs, (0, 8, 13)) for u, v in g.edges.tolist()
        ]
        assert np.array_equal(union.features, np.vstack([g.features for g in graphs]))
        assert disjoint_union([Graph(4, ()), Graph(2, ())])[0].features is None
        # given features are never dropped: every graph has them at one width, or none
        bare = Graph(graphs[0].n, graphs[0].edges)
        wide = Graph(3, (), np.ones((3, graphs[0].features.shape[1] + 1)))
        for mixed in ([bare, graphs[1]], [graphs[1], bare], [graphs[0], wide]):
            with pytest.raises(DataError, match="one width"):
                disjoint_union(mixed)

    def test_missing_labels_rejected(self):
        graphs, labels = triangles_vs_hexagons(per_class=6, seed=2)
        with pytest.raises(DataError):
            graph_classify(graphs, labels[:-1], TrainConfig(task="graphclass"))


class TestConcurrentFolds:
    @staticmethod
    def two_cap_dataset():
        """Triangles and hexagons (degree 2) and one star of degree 4: the
        fold that validates on the star has degree cap 2, the others 4."""
        graphs, labels = triangles_vs_hexagons(per_class=6, seed=0)
        star = Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
        return graphs + [star], np.append(labels, 0)

    def test_one_and_two_workers_give_the_same_report(self, monkeypatch):
        graphs, labels = self.two_cap_dataset()
        cfg = TrainConfig(task="graphclass", epochs=12, K=3, hidden=8)
        propagations, pools = [], []

        def counted(*args):
            propagations.append(args[1].shape[1])  # the one-hot width: cap + 1
            return propagate_features(*args)

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(tasks, "propagate_features", counted)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        reports = {}
        for workers in (1, 2):
            monkeypatch.setattr(tasks, "_usable_cpus", lambda: workers)
            reports[workers] = graph_classify(graphs, labels, cfg).to_dict()
        assert sorted(set(propagations)) == [3, 5]
        assert pools == ([2] if linalg._openblas() is not None else [])
        assert reports[1] == reports[2]

        # the node and imputation seeds run side by side the same way
        g, cc = planted_two_block(40, seed=2), coauthorship_complex(40, 20, 12, seed=0)
        node_cfg = TrainConfig(task="node", seeds=(0, 3, 5), epochs=30, patience=5, K=3,
                               hidden=8)
        impute_cfg = TrainConfig(task="impute", seeds=(4, 0, 7), epochs=10, K=3, hidden=4)

        def node():
            report, params = fit_node_params(g, node_cfg)
            return report.to_dict(), [p.flat.tobytes() for p in params]

        for name, fit in (("node", node),
                          ("impute", lambda: impute_signals(cc, impute_cfg).to_dict())):
            pools.clear()
            for workers in (1, 2):
                monkeypatch.setattr(tasks, "_usable_cpus", lambda: workers)
                reports[workers] = fit()
            assert pools == ([2] if linalg._openblas() is not None else []), name
            assert reports[1] == reports[2], name

    def test_without_the_bundled_blas_the_folds_train_one_by_one(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        monkeypatch.setattr(tasks, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        graphs, labels = triangles_vs_hexagons(per_class=6, seed=0)
        report = graph_classify(graphs, labels, TrainConfig(task="graphclass", epochs=3, K=2))
        assert len(report.runs) == 10


class TestPipelineTask:
    @pytest.mark.parametrize("pipeline, task", [
        ("node", "impute"), ("impute", "node"), ("graphclass", "node"),
    ])
    def test_config_for_another_task_is_refused(self, pipeline, task):
        # a node config would train graphclass 1000 epochs, not 200, and drop seed 4
        cfg = TrainConfig(task=task, seeds=(3, 4))
        graphs, labels = triangles_vs_hexagons(per_class=6, seed=0)
        runs = {
            "node": lambda: fit_node_params(planted_two_block(20, seed=0), cfg),
            "impute": lambda: impute_signals(coauthorship_complex(40, 20, 12, seed=0), cfg),
            "graphclass": lambda: graph_classify(graphs, labels, cfg),
        }
        with pytest.raises(DataError, match=f"the '{pipeline}' pipeline cannot run "
                                            f"a config for task '{task}'"):
            runs[pipeline]()


class TestDecayGamma:
    @pytest.mark.parametrize("task", ["impute", "graphclass"])
    def test_decay_gamma_changes_what_the_model_learns(self, task):
        def reads(decay_gamma):
            """Each run's Kendall tau or validation accuracies: what the trained
            parameters predict, not the losses, which hold the decay term."""
            cfg = TrainConfig(task=task, epochs=20, K=2, hidden=4, weight_decay=0.5,
                              decay_gamma=decay_gamma)
            if task == "impute":
                report = impute_signals(coauthorship_complex(40, 20, 12, seed=0), cfg)
                return [r["kendall_tau"] for r in report.runs]
            graphs, labels = triangles_vs_hexagons(per_class=6, seed=0)
            return [r["val_curve"] for r in graph_classify(graphs, labels, cfg).runs]

        assert reads(True) != reads(False)


class TestAgainstTwoForwardOracle:
    """The one-forward trainer against the loops in tests/training_oracle.py,
    which run a second forward per epoch for the validation read."""

    @pytest.mark.parametrize("depth, decay_gamma", [(1, False), (2, False), (2, True)])
    def test_node_early_stopping_matches(self, depth, decay_gamma):
        g = planted_two_block(40, seed=2)
        cfg = TrainConfig(task="node", seeds=(0, 3, 5), epochs=150, patience=5, K=3,
                          hidden=8, theta_depth=depth, decay_gamma=decay_gamma)
        report, params = fit_node_params(g, cfg)
        want_report, want_params = training_oracle.fit_node_params(g, cfg)
        assert all(len(r["val_loss_curve"]) < cfg.epochs for r in report.runs)
        assert report.to_dict() == want_report.to_dict()
        for got, want in zip(params, want_params, strict=True):
            for (name, a), (_, b) in zip(got.named_arrays(), want.named_arrays()):
                assert a.tobytes() == b.tobytes(), name

    def test_stopping_rule_keeps_the_first_best_read(self):
        """Scripted reads: a tie with the best is not an improvement, and the
        fit stops after the read that leaves the best more than ``patience``
        epochs old. Zero gradients leave Adam's parameters unchanged."""
        from flowerpetals.model import forward_embedding
        from flowerpetals.tasks import _adam_fit

        params = init_params(1, 1, 2, 2, 2, 0.5, seed=0)
        feats = petal_features(clique_lift(Graph(3, ((0, 1), (1, 2))), 1), np.ones((3, 2)), 1, 1)
        tape = forward_embedding(params, feats)
        zero = np.zeros_like(tape.logits)  # with no weight decay, a zero gradient
        reads = iter([9.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.5])
        fit = _adam_fit(params, feats, TrainConfig(epochs=20, weight_decay=0.0),
                        lambda p: (tape, next(reads)),
                        lambda out: (out, zero), validate=lambda out: out, patience=2)
        assert fit.val_curve == [3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
        assert (fit.epoch, fit.out) == (3, 1.0)
        assert fit.train_curve == [9.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("readout, features", [("mean", False), ("sum", True)])
    def test_graphclass_val_curves_match(self, readout, features):
        graphs, labels = triangles_vs_hexagons(per_class=6, seed=4)
        if features:
            graphs = [Graph(g.n, g.edges, g.degrees()[:, None] / 3.0) for g in graphs]
        cfg = TrainConfig(task="graphclass", epochs=12, patience=3, K=3, hidden=8,
                          readout=readout)
        got = graph_classify(graphs, labels, cfg).to_dict()
        assert got == training_oracle.graph_classify(graphs, labels, cfg).to_dict()
