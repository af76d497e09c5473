"""CLI contracts: help, JSON shapes, exit codes, byte determinism."""

import json
import os
import subprocess
import sys
from collections import OrderedDict
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from triangle_oracle import triangles

import flowerpetals.cli
import flowerpetals.model
import flowerpetals.nullmodel
import flowerpetals.tasks
from flowerpetals.cli import run
from flowerpetals.complexes import Graph, clique_lift, incidence_matrix, load_graph
from flowerpetals.linalg import dense_sym_eig
from flowerpetals.model import init_params, save_checkpoint
from flowerpetals.nullmodel import rewire_to_target
from flowerpetals.operators import build_fp_adjacency, build_fp_laplacian
from flowerpetals.tasks import TrainConfig, fit_node_params
from flowerpetals.synthetic import (
    coauthorship_complex,
    er_graph,
    planted_two_block,
    triangles_vs_hexagons,
)

K4 = "0\t1\n0\t2\n0\t3\n1\t2\n1\t3\n2\t3\n"
K3 = "0\t1\n0\t2\n1\t2\n"
TWO_TRIANGLES = "0\t1\n0\t2\n1\t2\n3\t4\n3\t5\n4\t5\n"
C6 = "0\t1\n0\t5\n1\t2\n2\t3\n3\t4\n4\t5\n"


@pytest.fixture
def work(tmp_path):
    files = {"k4": K4, "k3": K3, "tri2": TWO_TRIANGLES, "c6": C6}
    for name, content in files.items():
        (tmp_path / f"{name}.tsv").write_text(content)
    return tmp_path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def node_train_argv(work, config_text):
    """Write a small planted two-block instance and a config; return the
    ``train`` arguments that read them."""
    g = planted_two_block(24, seed=0)
    (work / "e.tsv").write_text(f"#n={g.n}\n" + "".join(f"{u}\t{v}\n" for u, v in g.edges))
    np.savetxt(work / "f.csv", g.features, delimiter=",", fmt="%.6f")
    np.savetxt(work / "l.csv", g.labels, fmt="%d")
    (work / "cfg.json").write_text(config_text)
    return ["train", "--edges", str(work / "e.tsv"), "--features", str(work / "f.csv"),
            "--labels", str(work / "l.csv"), "--config", str(work / "cfg.json")]


def write_coauthorship(path):
    cc = coauthorship_complex(120, 30, 30, seed=0)
    lines = [f"#n={cc.n}"]
    for v in range(cc.n):
        lines.append(f"0\t{v}\t{cc.node_signals[v]:.0f}")
    for p, simps in cc.complex.simplices.items():
        for s, sig in zip(simps, cc.signals[p]):
            lines.append(f"{p}\t{','.join(map(str, s))}\t{sig:.0f}")
    path.write_text("\n".join(lines) + "\n")


def write_graph_dataset(path, degree_features=False, hub=False):
    """Write a triangles-vs-hexagons dataset; with ``degree_features`` every
    node carries its degree as a given one-column feature, and with ``hub``
    a 5-leaf star is appended, the one graph holding a node of degree 5."""
    graphs, labels = triangles_vs_hexagons(per_class=6, seed=0)
    if hub:
        graphs = graphs + [Graph(6, tuple((0, leaf) for leaf in range(1, 6)))]
        labels = list(labels) + [0]
    with open(path, "w") as fh:
        for g, lab in zip(graphs, labels):
            record = {"n": g.n, "edges": g.edges.tolist(), "label": int(lab)}
            if degree_features:
                record["features"] = [[float(d)] for d in g.degrees()]
            fh.write(json.dumps(record) + "\n")
    return len(graphs)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so every call is tallied; returns the tally."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestHelp:
    @pytest.mark.parametrize("command", list(flowerpetals.cli._COMMANDS))
    def test_every_subcommand_has_help(self, command, capsys):
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "usage:" in out and command in out

    def test_two_runs_build_the_parser_once(self, work, monkeypatch, capsys):
        flowerpetals.cli._parser.cache_clear()
        built = count_calls(monkeypatch, flowerpetals.cli._Parser, "__init__")
        for argv in (["lift", "--edges", str(work / "k3.tsv")], ["strength", "--help"]):
            run(argv)
        # the top-level parser and one subparser per command, all on the first run
        assert len(built) == 1 + len(flowerpetals.cli._COMMANDS)


class TestLift:
    def test_k4_counts(self, work, capsys):
        assert run(["lift", "--edges", str(work / "k4.tsv"), "--max-order", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 4, "n_1": 6, "n_2": 4, "n_3": 1}


class TestSpectra:
    def test_k3_psd_verdict(self, work, monkeypatch):
        ops = count_calls(monkeypatch, flowerpetals.cli, "build_fp_adjacency")
        out = work / "spectra.json"
        code = run(["spectra", "--edges", str(work / "k3.tsv"), "-p", "2", "--out", str(out)])
        assert code == 0
        assert len(ops) == 2  # the closed-form check reuses the order-1 operator
        payload = read_json(out)
        for order in ("1", "2"):
            entry = payload["orders"][order]
            assert entry["psd"] is True
            assert entry["min_eig"] >= -1e-10
            assert entry["max_eig"] <= 1 + 1e-10
        assert payload["p1_closed_form_residual"] <= 1e-12

    def test_one_decomposition_per_order(self, work, monkeypatch):
        eigs = count_calls(monkeypatch, flowerpetals.cli, "dense_sym_eig")
        laps = count_calls(monkeypatch, flowerpetals.cli, "build_fp_laplacian")
        assert run(["spectra", "--edges", str(work / "k4.tsv"), "-p", "3"]) == 0
        assert len(eigs) == 3
        assert laps == []

    def test_extremes_cover_the_adjacency_and_laplacian_spectra(self, work):
        # a triangle with a pendant node and an isolated node: order 3 is empty
        edges, out = work / "g.tsv", work / "spectra.json"
        edges.write_text("#n=5\n0\t1\n0\t2\n1\t2\n2\t3\n")
        assert run(["spectra", "--edges", str(edges), "-p", "3", "--out", str(out)]) == 0
        orders = read_json(out)["orders"]
        lifted = clique_lift(load_graph(str(edges)), 3)
        for p in (1, 2, 3):
            op = build_fp_adjacency(incidence_matrix(lifted, p))
            lam, _ = dense_sym_eig(op.a_tilde.to_dense())
            entry = orders[str(p)]
            assert entry["min_eig"] == min(lam.min(initial=0.0), (1.0 - lam).min(initial=0.0))
            assert entry["max_eig"] == max(lam.max(initial=0.0), (1.0 - lam).max(initial=0.0))
            assert entry["psd"] is True
            # 1 - λ(A_p) is the spectrum of the L_p that build_fp_laplacian builds
            lap, _ = dense_sym_eig(build_fp_laplacian(op).to_dense())
            assert np.allclose(np.sort(1.0 - lam), lap, rtol=0.0, atol=1e-12)
        assert orders["3"]["isolated_nodes"] == 5
        assert (orders["3"]["min_eig"], orders["3"]["max_eig"]) == (0.0, 1.0)


class TestShwl:
    def test_witness_pair_verdicts(self, work):
        out = work / "v.json"
        run(["shwl", "--a", str(work / "tri2.tsv"), "--b", str(work / "c6.tsv"),
             "--method", "wl", "--out", str(out)])
        assert read_json(out)["verdict"] == "inconclusive"
        run(["shwl", "--a", str(work / "tri2.tsv"), "--b", str(work / "c6.tsv"),
             "--method", "shwl", "--out", str(out)])
        payload = read_json(out)
        assert payload["verdict"] == "distinguished"
        assert payload["rounds"][0]["a"]["0"] == {"0": 6}

    @pytest.mark.parametrize("method", ["wl", "hwl", "shwl"])
    def test_max_order_below_one_is_data_error(self, work, capsys, method):
        out = work / "v.json"
        assert run(["shwl", "--a", str(work / "k3.tsv"), "--b", str(work / "c6.tsv"),
                    "--method", method, "-p", "-3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: max_order must be >= 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("method, p_max, edges, keys", [
        # K11 at p = 10 has simplices of orders 0..10: order keys 0..10
        ("shwl", 10, [(u, v) for u in range(11) for v in range(u + 1, 11)], "order"),
        # WL on a 24-node path ends with 12 colours: colour keys 0..11
        ("wl", 1, [(u, u + 1) for u in range(23)], "colour"),
    ], ids=["order-keys", "colour-keys"])
    def test_integer_keys_are_written_in_numeric_order(self, tmp_path, capsys, method, p_max,
                                                       edges, keys):
        path = tmp_path / "g.tsv"
        path.write_text("".join(f"{u}\t{v}\n" for u, v in edges))
        assert run(["shwl", "--a", str(path), "--b", str(path), "--method", method,
                    "-p", str(p_max)]) == 0
        payload = json.loads(capsys.readouterr().out, object_pairs_hook=list)  # as written
        orders = dict(dict(payload)["rounds"][-1])["a"]
        written = [key for key, _ in (orders if keys == "order" else dict(orders)["0"])]
        assert len(written) >= 11 and written == [str(i) for i in range(len(written))]


class TestRewire:
    def test_rewire_writes_edges_and_log(self, work, monkeypatch):
        edges = work / "er.tsv"
        g = planted_two_block(40, p_in=0.35, p_out=0.1, seed=0)
        edges.write_text("".join(f"{u}\t{v}\n" for u, v in g.edges))
        out = work / "rw.json"
        out_edges = work / "rw.tsv"
        counts = count_calls(monkeypatch, flowerpetals.nullmodel, "triangle_count")
        code = run(["rewire", "--edges", str(edges), "--target-rho2", "0.1",
                    "--seed", "5", "--out", str(out), "--out-edges", str(out_edges)])
        assert code == 0
        assert len(counts) == 1  # the input's; the rest is a running total
        payload = read_json(out)
        assert payload["achieved_rho2"] >= 0.1
        assert payload["accepted"] == len(payload["chains"])
        assert out_edges.read_text().startswith("#n=40\n")
        base = triangles(load_graph(str(edges)))
        rewired = triangles(load_graph(str(out_edges)))
        assert payload["achieved_rho2"] == rewired / base - 1.0

    def test_out_edges_is_one_line_per_edge_row_in_row_order(self, work):
        # isolated nodes after the last edge: the header, not the lines, carries n
        g = planted_two_block(40, p_in=0.35, p_out=0.1, seed=0)
        edges = work / "er.tsv"
        edges.write_text("#n=45\n" + "".join(f"{u}\t{v}\n" for u, v in g.edges))
        out_edges = work / "rw.tsv"
        assert run(["rewire", "--edges", str(edges), "--target-rho2", "0.1", "--seed", "5",
                    "--out", str(work / "rw.json"), "--out-edges", str(out_edges)]) == 0
        rewired, _ = rewire_to_target(load_graph(str(edges)), 0.1, 5)
        lines = out_edges.read_text().splitlines(keepends=True)
        assert lines[0] == "#n=45\n" and len(lines) == 1 + rewired.num_edges
        assert lines[1:] == [f"{u}\t{v}\n" for u, v in rewired.edges.tolist()]

    def test_saturation_exit_code(self, work):
        assert run(["rewire", "--edges", str(work / "k4.tsv"), "--target-rho2", "0.5"]) == 3

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_is_data_error(self, work, capsys, monkeypatch, target):
        attempts = count_calls(monkeypatch, flowerpetals.nullmodel, "_try_add_chain")
        out = work / "rw.json"
        assert run(["rewire", "--edges", str(work / "k4.tsv"), f"--target-rho2={target}",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: target_rho2 must be finite, got {target}\n"
        assert not attempts and not out.exists()


class _Point(NamedTuple):
    x: int
    y: float


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


class TestJsonWriter:
    """Containers holding a value whose exact type is not a JSON scalar's are
    written value by value; the text must still be the indented dump's."""

    @pytest.mark.parametrize("payload", [
        {"points": [_Point(1, 2.5), _Point(-3, 0.0)]},
        {"points": [[_Point(1, 2.5)], _Point(4, 1e-300)], "n": 2},
        {"x": np.float64(0.1), "xs": [np.float64(1.5), 2, None]},
        {"level": _Level.HIGH, "levels": [_Level.LOW, _Level.HIGH, True]},
        {"o": OrderedDict([("b", 1), ("a", [1, 2])]), "flat": OrderedDict([("z", 1), ("y", "s")])},
        OrderedDict([("b", {"d": _Point(0, 1.0)}), ("a", np.float64(-2.0))]),
        {"empty": [], "nested": [{}, [], [_Level.LOW]], "t": (1, (2, 3))},
    ], ids=["namedtuple-in-list", "nested-namedtuple", "np.float64", "IntEnum", "OrderedDict",
            "OrderedDict-top", "empty-and-tuples"])
    def test_fallback_values_write_the_indented_dump(self, payload):
        expected = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert flowerpetals.cli._to_json(payload) == expected

    @pytest.mark.parametrize("value", [float("nan"), np.float64("inf")])
    def test_non_finite_value_is_refused(self, value):
        with pytest.raises(FloatingPointError):
            flowerpetals.cli._to_json({"a": [1, value]})


class TestTrainImputeGraphclass:
    def test_train_reports_and_saves_model(self, work):
        g = planted_two_block(30, seed=0)
        (work / "e.tsv").write_text(f"#n={g.n}\n" + "".join(f"{u}\t{v}\n" for u, v in g.edges))
        np.savetxt(work / "f.csv", g.features, delimiter=",", fmt="%.6f")
        np.savetxt(work / "l.csv", g.labels, fmt="%d")
        (work / "cfg.json").write_text(
            json.dumps({"task": "node", "epochs": 60, "patience": 30, "seeds": [0, 1], "hidden": 8})
        )
        out = work / "train.json"
        model = work / "model.ck"
        code = run(["train", "--edges", str(work / "e.tsv"), "--features", str(work / "f.csv"),
                    "--labels", str(work / "l.csv"), "--config", str(work / "cfg.json"),
                    "--out", str(out), "--save-model", str(model)])
        assert code == 0
        payload = read_json(out)
        assert payload["mean"] == 1.0
        assert len(payload["runs"]) == 2
        # the checkpoint is seed 0 of the reported training, not a retrain
        cfg = TrainConfig.from_json(work / "cfg.json")
        g_read = load_graph(work / "e.tsv", work / "f.csv", work / "l.csv")
        _, params = fit_node_params(g_read, cfg)
        save_checkpoint(params[0], work / "seed0.ck")
        assert model.read_bytes() == (work / "seed0.ck").read_bytes()

        strength_out = work / "s.json"
        assert run(["strength", "--model", str(model), "--out", str(strength_out)]) == 0
        assert len(read_json(strength_out)["strength"]) == 2

    def test_impute_runs(self, work):
        write_coauthorship(work / "cc.tsv")
        (work / "icfg.json").write_text(
            json.dumps({"task": "impute", "epochs": 60, "hidden": 8, "K": 4,
                        "known_fraction": 0.5, "seeds": [0], "weight_decay": 0.0})
        )
        out = work / "imp.json"
        code = run(["impute", "--simplices", str(work / "cc.tsv"),
                    "--config", str(work / "icfg.json"), "--out", str(out)])
        assert code == 0
        assert -1.0 <= read_json(out)["mean"] <= 1.0

    def test_impute_closes_a_file_holding_only_a_3_simplex(self, work):
        path = work / "cc.tsv"
        path.write_text("3\t0,1,2,3\t5\n0\t0\t1\n0\t1\t2\n0\t2\t3\n0\t3\t4\n")
        (work / "icfg.json").write_text(json.dumps({"epochs": 2, "hidden": 2, "K": 1}))
        out = work / "imp.json"
        assert run(["impute", "--simplices", str(path), "--config", str(work / "icfg.json"),
                    "--out", str(out)]) == 0
        assert read_json(out)["extras"]["n"] == 4

    def test_graphclass_runs(self, work):
        write_graph_dataset(work / "gs.jsonl")
        (work / "gcfg.json").write_text(
            json.dumps({"task": "graphclass", "epochs": 15, "hidden": 8, "K": 2})
        )
        out = work / "gc.json"
        code = run(["graphclass", "--dataset", str(work / "gs.jsonl"),
                    "--config", str(work / "gcfg.json"), "--out", str(out)])
        assert code == 0
        assert read_json(out)["extras"]["max_mean_val_accuracy"] >= 0.5


    @pytest.mark.parametrize("command", ["train", "impute", "graphclass"])
    def test_training_payload_holds_seeds_only_where_they_are_used(self, work, command):
        argv = node_train_argv(work, '{"epochs": 3, "hidden": 4, "K": 2}')  # writes cfg.json
        config = ["--config", str(work / "cfg.json")]
        if command == "impute":
            write_coauthorship(work / "in")
            argv = ["impute", "--simplices", str(work / "in"), *config]
        elif command == "graphclass":
            write_graph_dataset(work / "in")
            argv = ["graphclass", "--dataset", str(work / "in"), *config]
        out = work / "out.json"
        assert run(argv + ["--out", str(out), "--seed", "2"]) == 0
        payload = read_json(out)

        def seed_keys(value, path):
            if isinstance(value, dict):
                for key, item in value.items():
                    yield from ([f"{path}.{key}"] if "seed" in key else [])
                    yield from seed_keys(item, f"{path}.{key}")
            elif isinstance(value, list):
                for item in value:
                    yield from seed_keys(item, f"{path}[*]")

        want = {".config.seeds"}
        want |= {".extras.seed"} if command == "graphclass" else {".runs[*].seed"}
        assert set(seed_keys(payload, "")) == want
        used = ([payload["extras"]["seed"]] if command == "graphclass"
                else [r["seed"] for r in payload["runs"]])
        assert payload["config"]["seeds"] == used == [2]

    @pytest.mark.parametrize("command, epochs", [("impute", 500), ("graphclass", 200)])
    def test_no_config_runs_the_commands_own_task(self, work, command, epochs):
        if command == "impute":
            write_coauthorship(work / "in")
            argv = ["impute", "--simplices", str(work / "in")]
        else:
            write_graph_dataset(work / "in")
            argv = ["graphclass", "--dataset", str(work / "in")]
        out = work / "out.json"
        assert run(argv + ["--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["config"]["task"] == command
        curve = "train_loss_curve" if command == "impute" else "val_curve"
        assert [len(r[curve]) for r in payload["runs"]] == [epochs] * len(payload["runs"])

    @pytest.mark.parametrize("command, task", [
        ("train", "impute"), ("impute", "node"), ("graphclass", "impute"),
    ])
    def test_config_for_another_task_is_data_error(self, work, capsys, command, task):
        argv = node_train_argv(work, json.dumps({"task": task, "epochs": 2}))
        if command == "impute":
            write_coauthorship(work / "cc.tsv")
            argv = ["impute", "--simplices", str(work / "cc.tsv"), "--config", argv[-1]]
        elif command == "graphclass":
            write_graph_dataset(work / "gs.jsonl")
            argv = ["graphclass", "--dataset", str(work / "gs.jsonl"), "--config", argv[-1]]
        out = work / "out.json"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(work / "cfg.json") in err and task in err
        assert not out.exists()


class TestOneSetUpPerRun:
    def test_train_lifts_once_for_all_seeds_and_the_checkpoint(self, work, monkeypatch):
        argv = node_train_argv(work, json.dumps(
            {"task": "node", "epochs": 10, "seeds": [0, 1], "hidden": 4}))
        lifts = count_calls(monkeypatch, flowerpetals.tasks, "clique_lift")
        ops = count_calls(monkeypatch, flowerpetals.tasks, "build_fp_adjacency")
        code = run(argv + ["--out", str(work / "t.json"),
                           "--save-model", str(work / "m.ck")])
        assert code == 0
        assert len(lifts) == 1
        assert len(ops) == 2  # one operator per order, P=2

    def test_graphclass_lifts_each_graph_once(self, work, monkeypatch):
        n_graphs = write_graph_dataset(work / "gs.jsonl")
        (work / "gcfg.json").write_text(
            json.dumps({"task": "graphclass", "epochs": 2, "hidden": 4, "K": 2})
        )
        lifts = count_calls(monkeypatch, flowerpetals.tasks, "clique_lift")
        ops = count_calls(monkeypatch, flowerpetals.tasks, "build_fp_adjacency")
        props = count_calls(monkeypatch, flowerpetals.tasks, "propagate_features")
        code = run(["graphclass", "--dataset", str(work / "gs.jsonl"),
                    "--config", str(work / "gcfg.json"), "--out", str(work / "gc.json")])
        assert code == 0
        # the whole dataset is lifted once, as one disjoint union
        records = [json.loads(line) for line in (work / "gs.jsonl").read_text().splitlines()]
        assert len(records) == n_graphs
        assert len(lifts) == 1 and lifts[0][0].n == sum(r["n"] for r in records)
        assert len(ops) == 2  # one operator per order, P=2
        assert len(props) == 1  # every fold caps the 2-regular graphs' degrees at 2

    def test_graphclass_propagates_once_per_distinct_cap(self, work, monkeypatch):
        write_graph_dataset(work / "gs.jsonl", hub=True)
        (work / "gcfg.json").write_text(
            json.dumps({"task": "graphclass", "epochs": 2, "hidden": 4, "K": 2})
        )
        props = count_calls(monkeypatch, flowerpetals.tasks, "propagate_features")
        code = run(["graphclass", "--dataset", str(work / "gs.jsonl"),
                    "--config", str(work / "gcfg.json"), "--out", str(work / "gc.json")])
        assert code == 0
        # cap 5 while the hub trains, cap 2 in the one fold validating it
        assert sorted(p[1].shape[1] for p in props) == [3, 6]

    def test_graphclass_propagates_given_features_once(self, work, monkeypatch):
        write_graph_dataset(work / "gs.jsonl", degree_features=True)
        (work / "gcfg.json").write_text(
            json.dumps({"task": "graphclass", "epochs": 2, "hidden": 4, "K": 2})
        )
        props = count_calls(monkeypatch, flowerpetals.tasks, "propagate_features")
        code = run(["graphclass", "--dataset", str(work / "gs.jsonl"),
                    "--config", str(work / "gcfg.json"), "--out", str(work / "gc.json")])
        assert code == 0
        assert len(props) == 1  # given features do not depend on the fold
        assert props[0][1].shape[1] == 1
        assert len(read_json(work / "gc.json")["runs"]) == 10

    def test_impute_builds_operators_once_for_all_seeds(self, work, monkeypatch):
        write_coauthorship(work / "cc.tsv")
        (work / "icfg.json").write_text(
            json.dumps({"task": "impute", "epochs": 3, "hidden": 4, "K": 2,
                        "seeds": [0, 1, 2]})
        )
        ops = count_calls(monkeypatch, flowerpetals.tasks, "build_fp_adjacency")
        code = run(["impute", "--simplices", str(work / "cc.tsv"),
                    "--config", str(work / "icfg.json"), "--out", str(work / "i.json")])
        assert code == 0
        assert len(read_json(work / "i.json")["runs"]) == 3
        assert len(ops) == 2  # one operator per order, P=2

    def test_one_forward_per_parameter_set(self, work, monkeypatch):
        """Each parameter set runs forward once: the forward after an Adam
        step is both that epoch's validation read and the next epoch's tape,
        so each fit (a node seed, a fold, an imputation seed) runs one
        forward per epoch it trains and one from its initialization."""
        forwards = count_calls(monkeypatch, flowerpetals.model, "forward_embedding")
        argv = node_train_argv(work, json.dumps(
            {"task": "node", "epochs": 60, "patience": 3, "seeds": [0, 1], "hidden": 4}))
        assert run(argv + ["--out", str(work / "t.json"),
                           "--save-model", str(work / "m.ck")]) == 0
        epochs_run = [len(r["train_loss_curve"]) for r in read_json(work / "t.json")["runs"]]
        assert min(epochs_run) < 60  # early stopping cut at least one seed short
        assert len(forwards) == sum(epochs + 1 for epochs in epochs_run)

        forwards.clear()
        write_graph_dataset(work / "gs.jsonl")
        (work / "gcfg.json").write_text(
            json.dumps({"task": "graphclass", "epochs": 4, "hidden": 4, "K": 2}))
        assert run(["graphclass", "--dataset", str(work / "gs.jsonl"),
                    "--config", str(work / "gcfg.json"), "--out", str(work / "gc.json")]) == 0
        assert len(forwards) == 10 * (4 + 1)

        forwards.clear()
        write_coauthorship(work / "cc.tsv")
        (work / "icfg.json").write_text(json.dumps(
            {"task": "impute", "epochs": 3, "hidden": 4, "K": 2, "seeds": [0, 1, 2]}))
        assert run(["impute", "--simplices", str(work / "cc.tsv"),
                    "--config", str(work / "icfg.json"), "--out", str(work / "i.json")]) == 0
        assert len(forwards) == 3 * (3 + 1)


class TestBlasThreadCount:
    def test_node_training_writes_the_same_bytes_under_one_and_two_blas_threads(self, work):
        """``train`` at node-train's scale (n = 1200, average degree 8, 32
        random features, P=2, K=10, hidden 32, two seeds): the products over
        the n rows are long enough that two BLAS threads would split them and
        change their last bits, unless each fit holds the BLAS at one thread."""
        g = er_graph(1200, 8 / 1199, seed=5)
        rng = np.random.default_rng(6)
        (work / "e.tsv").write_text(f"#n={g.n}\n" + "".join(f"{u}\t{v}\n" for u, v in g.edges))
        np.savetxt(work / "f.csv", rng.normal(size=(g.n, 32)), delimiter=",", fmt="%.6f")
        np.savetxt(work / "l.csv", rng.integers(0, 2, g.n), fmt="%d")
        (work / "cfg.json").write_text(json.dumps(
            {"task": "node", "P": 2, "K": 10, "hidden": 32, "seeds": [0, 1], "epochs": 3}))
        written = {}
        for threads in ("1", "2"):
            # the thread count is read when the BLAS loads, so each run is a
            # child process with the variable set in its own environment only
            out = work / f"threads{threads}"
            out.mkdir()
            env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "flowerpetals.cli", "train", "--edges", str(work / "e.tsv"),
                 "--features", str(work / "f.csv"), "--labels", str(work / "l.csv"),
                 "--config", str(work / "cfg.json"), "--out", str(out / "train.json"),
                 "--save-model", str(out / "model.ck")],
                cwd=Path(__file__).resolve().parents[1], env=env, capture_output=True,
                text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            written[threads] = [(out / name).read_bytes() for name in ("train.json", "model.ck")]
        assert written["1"][0] == written["2"][0], "train.json"
        assert written["1"][1] == written["2"][1], "model.ck"


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run(["lift", "--edges", str(tmp_path / "nope.tsv")]) == 2

    def test_directory_as_input_is_data_error(self, tmp_path, capsys):
        assert run(["lift", "--edges", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unexpected_exception_is_internal_error(self, work, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        _, help_line, flags = flowerpetals.cli._COMMANDS["lift"]
        monkeypatch.setitem(flowerpetals.cli._COMMANDS, "lift", (broken, help_line, flags))
        assert run(["lift", "--edges", str(work / "k3.tsv")]) == 4
        err = capsys.readouterr().err
        assert err == "error: internal error (RuntimeError: boom)\n"

    def test_module_entry_point_runs_the_cli(self, work):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": "src"}
        proc = subprocess.run(
            [sys.executable, "-m", "flowerpetals.cli", "spectra",
             "--edges", str(work / "k3.tsv"), "--max-order", "0"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "error: max_order must be >= 1" in proc.stderr

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["bogus"]) == 1

    def test_bad_config_key_is_data_error(self, work):
        (work / "bad.json").write_text('{"task": "node", "mystery": 1}')
        g = planted_two_block(20, seed=0)
        (work / "e.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in g.edges))
        np.savetxt(work / "f.csv", g.features, delimiter=",", fmt="%.4f")
        np.savetxt(work / "l.csv", g.labels, fmt="%d")
        code = run(["train", "--edges", str(work / "e.tsv"), "--features", str(work / "f.csv"),
                    "--labels", str(work / "l.csv"), "--config", str(work / "bad.json")])
        assert code == 2

    def test_empty_seeds_is_data_error_naming_the_config(self, work, capsys):
        argv = node_train_argv(work, json.dumps({"task": "node", "seeds": []}))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(work / "cfg.json") in err and "seed" in err

    def test_non_finite_output_is_numeric_error(self, work, capsys):
        argv = node_train_argv(
            work, '{"task": "node", "epochs": 5, "hidden": 4, "lr": 1e154}')
        out = work / "nan.json"
        assert run(argv + ["--out", str(out)]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "NaN" in captured.err

    def test_non_finite_output_leaves_no_checkpoint(self, work, capsys):
        argv = node_train_argv(
            work, '{"task": "node", "epochs": 5, "hidden": 4, "lr": 1e154}')
        out, model = work / "nan.json", work / "nan.ck"
        assert run(argv + ["--out", str(out), "--save-model", str(model)]) == 3
        assert not out.exists() and not model.exists()

    @pytest.mark.parametrize("entry", ['"seeds": 5', '"P": "x"', '"epochs": "x"',
                                       '"decay_gamma": 1', '"hidden": true',
                                       '"epochs": 0', '"P": 0', '"K": -1', '"hidden": 0',
                                       '"patience": -1', '"theta_depth": 3',
                                       '"seeds": [0, -1]', '"seeds": [0, 0]', '"lr": NaN', '"alpha": Infinity',
                                       '"weight_decay": -Infinity', '"lr": 0', '"lr": -1',
                                       '"weight_decay": -1', '"alpha": 0', '"alpha": 1.5',
                                       '"known_fraction": 0', '"known_fraction": 1',
                                       '"split_ratios": [0.5, 0.5, 0.5]',
                                       '"split_ratios": [1, 0, 0]', '"split_ratios": [NaN, 0.5, 0.5]'])
    def test_config_value_of_wrong_type_is_data_error(self, work, capsys, entry):
        key = entry.split(":")[0].strip('"')
        argv = node_train_argv(work, '{"task": "node", %s}' % entry)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(work / "cfg.json") in err and key in err
        write_graph_dataset(work / "gs.jsonl")
        (work / "gcfg.json").write_text('{"task": "graphclass", %s}' % entry)
        assert run(["graphclass", "--dataset", str(work / "gs.jsonl"),
                    "--config", str(work / "gcfg.json")]) == 2
        err = capsys.readouterr().err
        assert str(work / "gcfg.json") in err and key in err

    def test_graphclass_config_with_more_than_one_seed_is_data_error(self, work, capsys):
        # graphclass runs only its first seed, so a list of seeds is refused
        write_graph_dataset(work / "gs.jsonl")
        (work / "gcfg.json").write_text('{"task": "graphclass", "seeds": [0, 1]}')
        assert run(["graphclass", "--dataset", str(work / "gs.jsonl"),
                    "--config", str(work / "gcfg.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {work / 'gcfg.json'}: seeds must name one seed for graphclass, got [0, 1]\n")
        assert run(["graphclass", "--dataset", str(work / "gs.jsonl"),
                    "--config", str(work / "gcfg.json"), "--seed", "1"]) == 2

    @pytest.mark.parametrize("command", ["train", "impute", "graphclass", "rewire"])
    def test_negative_seed_option_is_data_error_naming_it(self, work, capsys, command):
        argvs = {
            "impute": ["impute", "--simplices", str(work / "cc.tsv")],
            "graphclass": ["graphclass", "--dataset", str(work / "gs.jsonl")],
            "rewire": ["rewire", "--edges", str(work / "k4.tsv"), "--target-rho2", "0.5"],
        }
        if command == "train":
            argvs["train"] = node_train_argv(work, '{"task": "node"}')
        write_coauthorship(work / "cc.tsv")
        write_graph_dataset(work / "gs.jsonl")
        assert run(argvs[command] + ["--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --seed must be non-negative, got -3\n")

    @pytest.mark.parametrize("command", ["lift", "spectra", "shwl", "strength"])
    def test_seed_on_a_command_that_draws_no_random_numbers_is_usage_error(self, work, capsys,
                                                                          command):
        argvs = {
            "lift": ["lift", "--edges", str(work / "k4.tsv")],
            "spectra": ["spectra", "--edges", str(work / "k4.tsv")],
            "shwl": ["shwl", "--a", str(work / "k4.tsv"), "--b", str(work / "c6.tsv")],
            "strength": ["strength", "--model", str(work / "m.ck")],
        }
        save_checkpoint(init_params(2, 3, 4, 5, 2, 0.5, seed=0), work / "m.ck")
        assert run(argvs[command] + ["--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: flowerpetals")
        assert captured.err.endswith("flowerpetals: error: unrecognized arguments: --seed 1\n")

    @pytest.mark.parametrize("argv, message", [
        (["lift", "--edges"], "argument --edges: expected one argument"),
        (["lift"], "the following arguments are required: --edges"),
    ])
    def test_usage_error_names_the_option(self, capsys, argv, message):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: flowerpetals lift")
        assert captured.err.endswith(f"flowerpetals lift: error: {message}\n")

    def test_bad_coauthorship_header_names_path_and_line(self, work, capsys):
        path = work / "cc.tsv"
        path.write_text("#n=x\n0\t0\t5\n")
        assert run(["impute", "--simplices", str(path)]) == 2
        assert f"{path}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lift", "spectra"])
    def test_node_count_header_past_int64_names_path_and_line(self, work, capsys, command):
        path = work / "e.tsv"
        path.write_text(f"#n={2**70}\n0\t1\n")
        assert run([command, "--edges", str(path)]) == 2
        assert f"{path}:1:" in capsys.readouterr().err

    # 10**17 nodes need exabytes: past any machine's address space, so the
    # allocation fails at once however the host overcommits memory
    @pytest.mark.parametrize("command", ["lift", "spectra", "graphclass"])
    def test_node_count_too_large_for_memory_is_data_error(self, work, capsys, command):
        n = 10**17
        if command == "graphclass":
            path = work / "gs.jsonl"
            write_graph_dataset(path)
            lines = path.read_text().splitlines()
            lines[3] = json.dumps({"n": n, "edges": [[0, 1]], "label": 0})
            path.write_text("\n".join(lines) + "\n")
            argv = ["graphclass", "--dataset", str(path)]
        else:
            (work / "e.tsv").write_text(f"#n={n}\n0\t1\n")
            argv = [command, "--edges", str(work / "e.tsv")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "memory" in err and err.count("\n") == 1

    def test_graph_record_without_nodes_is_data_error(self, work, capsys):
        path = work / "gs.jsonl"
        write_graph_dataset(path)
        lines = path.read_text().splitlines()
        lines[3] = json.dumps({"n": 0, "edges": [], "label": 0})
        path.write_text("\n".join(lines) + "\n")
        assert run(["graphclass", "--dataset", str(path)]) == 2
        assert f"{path}:4:" in capsys.readouterr().err

    @pytest.mark.parametrize("given, record", [
        (True, {"n": 3, "edges": [[0, 1]], "label": 0}),
        (False, {"n": 3, "edges": [[0, 1]], "label": 0, "features": [[1.0]] * 3}),
        (True, {"n": 3, "edges": [[0, 1]], "label": 0, "features": [[1.0, 2.0]] * 3}),
        (True, {"n": 3, "edges": [[0, 1]], "label": -1, "features": [[1.0]] * 3}),
    ], ids=["featureless-among-featured", "featured-among-featureless", "wider-features",
            "negative-label"])
    def test_inconsistent_graph_record_names_path_and_line(self, work, capsys, given, record):
        path = work / "gs.jsonl"
        write_graph_dataset(path, degree_features=given)
        lines = path.read_text().splitlines()
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        assert run(["graphclass", "--dataset", str(path)]) == 2
        assert f"{path}:4:" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "label": 1.7},
        {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "label": True},
        {"n": 6.0, "edges": [[0, 1], [0, 2], [1, 2]], "label": 0},
        {"n": 3, "edges": [[0, 0.5], [0, 2], [1, 2]], "label": 0},
        {"n": 3, "edges": [[0.0, 1], [0, 2], [1, 2]], "label": 0},
        {"n": 3, "edges": [[0, True], [0, 2], [1, 2]], "label": 0},
        {"n": 3, "edges": [[0, 1]], "label": 0, "features": [[1.0], [float("nan")], [1.0]]},
        {"n": 2**70, "edges": [[0, 1]], "label": 0},
        {"n": 3, "edges": [[0, 2**63]], "label": 0},
        {"n": 3, "edges": [[0, 1]], "label": 2**70},
    ], ids=["float-label", "bool-label", "float-n", "fractional-endpoint", "float-endpoint",
            "bool-endpoint", "nan-feature", "n-past-int64", "endpoint-past-int64",
            "label-past-int64"])
    def test_graph_record_numbers_must_be_integers_and_finite(self, work, capsys, record):
        path = work / "gs.jsonl"
        write_graph_dataset(path, degree_features="features" in record)
        lines = path.read_text().splitlines()
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        assert run(["graphclass", "--dataset", str(path)]) == 2
        assert f"{path}:4:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_path_and_line(self, work, capsys, value):
        argv = node_train_argv(work, json.dumps({"task": "node", "epochs": 2}))
        lines = (work / "f.csv").read_text().splitlines()
        lines[4] = f"{value},1.0"
        (work / "f.csv").write_text("\n".join(lines) + "\n")
        assert run(argv) == 2
        assert f"{work / 'f.csv'}:5:" in capsys.readouterr().err

    def test_non_finite_coauthorship_signal_names_path_and_line(self, work, capsys):
        path = work / "cc.tsv"
        path.write_text("#n=3\n0\t0\t5\n0\t1\tnan\n0\t2\t1\n1\t0,1\t4\n")
        assert run(["impute", "--simplices", str(path)]) == 2
        assert f"{path}:3:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow, as outside pytest
    def test_non_finite_imputed_signals_are_numeric_error(self, work, capsys):
        # an lr of 1e154 sends the 4-node path's predictions to [nan, inf, nan, -inf],
        # which used to score tau = 1.0 and exit 0
        path = work / "cc.tsv"
        path.write_text("0\t0\t1\n0\t1\t2\n0\t2\t3\n0\t3\t4\n"
                        "1\t0,1\t5\n1\t1,2\t5\n1\t2,3\t5\n")
        (work / "icfg.json").write_text(json.dumps({"lr": 1e154, "epochs": 1}))
        out = work / "imp.json"
        assert run(["impute", "--simplices", str(path), "--config", str(work / "icfg.json"),
                    "--out", str(out)]) == 3
        assert not out.exists()
        assert "not all finite" in capsys.readouterr().err

    def test_overflow_prints_only_the_error_line(self, work, capsys):
        # the run above, without silencing numpy's warnings: none reaches stderr
        path = work / "cc.tsv"
        path.write_text("0\t0\t1\n0\t1\t2\n0\t2\t3\n0\t3\t4\n"
                        "1\t0,1\t5\n1\t1,2\t5\n1\t2,3\t5\n")
        (work / "icfg.json").write_text(json.dumps({"lr": 1e154, "epochs": 1}))
        assert run(["impute", "--simplices", str(path), "--config", str(work / "icfg.json"),
                    "--out", str(work / "imp.json")]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: seed 0: the imputed signals are not all finite"]

    @pytest.mark.parametrize("command", ["train", "rewire"])
    def test_unwritable_out_leaves_no_side_file(self, work, capsys, command):
        side = work / "side"
        if command == "train":
            argv = node_train_argv(work, json.dumps({"epochs": 2, "hidden": 4}))
            argv += ["--save-model", str(side)]
        else:
            g = planted_two_block(40, p_in=0.35, p_out=0.1, seed=0)
            (work / "er.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in g.edges))
            argv = ["rewire", "--edges", str(work / "er.tsv"), "--target-rho2", "0.1",
                    "--out-edges", str(side)]
        assert run(argv + ["--out", str(work / "missing" / "out.json")]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not side.exists()

    def test_truncated_checkpoint_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "short.ck"
        save_checkpoint(init_params(2, 3, 4, 5, 2, 0.5, seed=0), path)
        path.write_bytes(path.read_bytes()[:-8])
        assert run(["strength", "--model", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("header, detail", [
        (b'{"magic": "flowerpetals-checkpoint-v1"}\n', "p_max"),
        (b"\xff" * 32, "UTF-8"),
    ])
    def test_bad_checkpoint_header_is_data_error(self, tmp_path, capsys, header, detail):
        path = tmp_path / "bad.ck"
        path.write_bytes(header)
        assert run(["strength", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and detail in err

    @pytest.mark.parametrize("fields, detail", [
        ({"d": 10**7, "h": 10**7}, "size mismatch"),
        ({"p_max": 10**12}, "size mismatch"),
        ({"seed": True}, "seed"),
        ({"p_max": True}, "p_max"),
        ({"alpha": True}, "alpha"),
        ({"k_max": 2.0}, "k_max"),
    ], ids=["huge-dims", "huge-p_max", "bool-seed", "bool-p_max", "bool-alpha", "float-k_max"])
    def test_checkpoint_header_is_checked_before_the_block(self, tmp_path, capsys, fields,
                                                           detail):
        # the header is judged on its own, before any parameter array exists
        header = {"magic": "flowerpetals-checkpoint-v1", "p_max": 1, "k_max": 0, "d": 1,
                  "h": 1, "c": 1, "alpha": 0.5, "seed": 0, "depth": 1, **fields}
        path = tmp_path / "bad.ck"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 8)
        assert run(["strength", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and detail in err

    @pytest.mark.parametrize("node", [10**15, 10**20])
    def test_huge_coauthorship_node_id_is_data_error(self, work, capsys, node):
        path = work / "cc.tsv"
        path.write_text(f"0\t0\t5\n0\t1\t3\n1\t0,{node}\t4\n")
        assert run(["impute", "--simplices", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_negative_coauthorship_node_id_names_path_and_line(self, work, capsys):
        path = work / "cc.tsv"
        path.write_text("0\t0\t5\n0\t-1\t3\n1\t0,1\t4\n")
        assert run(["impute", "--simplices", str(path)]) == 2
        assert f"{path}:2:" in capsys.readouterr().err


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, work):
        a, b = work / "a.json", work / "b.json"
        for out in (a, b):
            run(["spectra", "--edges", str(work / "k3.tsv"), "-p", "2", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()
