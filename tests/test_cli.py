"""CLI contracts: help, JSON shapes, exit codes, byte determinism."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flowerpetals.cli
import flowerpetals.model
import flowerpetals.nullmodel
import flowerpetals.tasks
from flowerpetals.cli import run
from flowerpetals.complexes import Graph, load_graph
from flowerpetals.nullmodel import _adjacency_sets, triangle_count
from flowerpetals.model import init_params, save_checkpoint
from flowerpetals.tasks import TrainConfig, fit_node_params
from flowerpetals.synthetic import (
    coauthorship_complex,
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
    @pytest.mark.parametrize(
        "command",
        ["lift", "spectra", "train", "impute", "graphclass", "shwl", "rewire", "strength"],
    )
    def test_every_subcommand_has_help(self, command, capsys):
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "usage:" in out and command in out


class TestLift:
    def test_k4_counts(self, work, capsys):
        assert run(["lift", "--edges", str(work / "k4.tsv"), "--max-order", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 4, "n_1": 6, "n_2": 4, "n_3": 1, "seed": 0}


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
        base = triangle_count(_adjacency_sets(load_graph(str(edges))))
        rewired = triangle_count(_adjacency_sets(load_graph(str(out_edges))))
        assert payload["achieved_rho2"] == rewired / base - 1.0

    def test_saturation_exit_code(self, work):
        assert run(["rewire", "--edges", str(work / "k4.tsv"), "--target-rho2", "0.5"]) == 3


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
        _, params = fit_node_params(g_read, replace(cfg, seeds=(0,)))
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
        step is both that epoch's validation read and the next epoch's tape."""
        forwards = count_calls(monkeypatch, flowerpetals.model, "forward_embedding")
        argv = node_train_argv(work, json.dumps(
            {"task": "node", "epochs": 60, "patience": 3, "seeds": [0, 1], "hidden": 4}))
        assert run(argv + ["--out", str(work / "t.json"),
                           "--save-model", str(work / "m.ck")]) == 0
        epochs_run = [len(r["train_loss_curve"]) for r in read_json(work / "t.json")["runs"]]
        assert min(epochs_run) < 60  # early stopping cut at least one seed short
        assert len(forwards) == sum(e + 1 for e in epochs_run)

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


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run(["lift", "--edges", str(tmp_path / "nope.tsv")]) == 2

    def test_directory_as_input_is_data_error(self, tmp_path, capsys):
        assert run(["lift", "--edges", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unexpected_exception_is_internal_error(self, work, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(flowerpetals.cli._COMMANDS, "lift", broken)
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
            work, '{"task": "node", "epochs": 5, "hidden": 4, "lr": NaN}')
        out = work / "nan.json"
        assert run(argv + ["--out", str(out)]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "NaN" in captured.err

    def test_non_finite_output_leaves_no_checkpoint(self, work, capsys):
        argv = node_train_argv(
            work, '{"task": "node", "epochs": 5, "hidden": 4, "lr": NaN}')
        out, model = work / "nan.json", work / "nan.ck"
        assert run(argv + ["--out", str(out), "--save-model", str(model)]) == 3
        assert not out.exists() and not model.exists()

    @pytest.mark.parametrize("entry", ['"seeds": 5', '"P": "x"', '"epochs": "x"',
                                       '"decay_gamma": 1', '"hidden": true',
                                       '"epochs": 0', '"P": 0', '"K": -1', '"hidden": 0',
                                       '"patience": -1', '"theta_depth": 3'])
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
            run(["spectra", "--edges", str(work / "k3.tsv"), "-p", "2",
                 "--seed", "3", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()
