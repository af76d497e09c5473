"""The benchmark workloads: seeded inputs, CLI runs, set-up step and checks.

Each builder writes its inputs into a work directory and returns a Case.
The package sees only those files, through ``flowerpetals.cli.run``. The
exact fields an output must carry (node counts, simplex counts, PSD flags,
the isomorphism verdict, the rewired degree sequence, the graphclass fold
and epoch counts) are derived here from the generator, not from the
package, so they hold for any seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import flowerpetals as fp
import flowerpetals.tasks
import gen


@dataclass
class Case:
    """One workload instance.

    ``runs`` are CLI argument lists run back to back as one pipeline run;
    ``outputs`` are the files they write, hashed in this order; ``setup``
    calls the public ingest and precompute functions once; ``check`` reads
    the outputs and returns (failure reasons, score or None).
    """

    runs: list[list[str]]
    outputs: list[Path]
    setup: Callable[[], object]
    check: Callable[[], tuple[list[str], float | None]]
    sizes: dict


def strict_json(path: Path):
    """Parse a JSON output, rejecting NaN, infinities and overflowing numbers."""

    def finite(token):
        value = float(token)
        if not math.isfinite(value):
            raise ValueError(f"{path.name}: non-finite number {token}")
        return value

    def reject(token):
        raise ValueError(f"{path.name}: non-finite number {token}")

    return json.loads(path.read_text(), parse_float=finite, parse_constant=reject)


def _graph_sizes(n: int, keys: np.ndarray, max_order: int, files: list[Path]) -> dict:
    return {
        "n": n,
        "edges": len(keys),
        "simplices": gen.clique_counts(n, keys, max_order),
        "file_bytes": sum(p.stat().st_size for p in files),
    }


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, round(value * scale))


# ---------------------------------------------------------------------------
# node classification


def node_case(work: Path, rng, *, n, avg_degree, d, P, K, epochs, save_model) -> Case:
    """CLI ``train`` with two seeds on a planted two-block graph.

    ``patience`` equals the epoch count, so every run does the same number
    of epochs.
    """
    m = n * avg_degree // 2
    keys, labels = gen.planted_keys(rng, n, m, clique_share=0.4, cross_share=0.1)
    x = gen.node_features(rng, labels, d, shift=0.3)
    edges, feats, labs = work / "edges.tsv", work / "features.csv", work / "labels.csv"
    config, out, model = work / "config.json", work / "out.json", work / "model.ck"
    gen.write_edges(edges, n, keys)
    gen.write_features(feats, x)
    gen.write_labels(labs, labels)
    config.write_text(json.dumps(
        {"P": P, "K": K, "epochs": epochs, "patience": epochs, "seeds": [0, 1], "hidden": 32}
    ))
    sizes = _graph_sizes(n, keys, P, [edges, feats, labs])
    want_counts = {str(p): c for p, c in sizes["simplices"].items()}

    argv = ["train", "--edges", str(edges), "--features", str(feats),
            "--labels", str(labs), "--config", str(config), "--out", str(out)]
    outputs = [out]
    if save_model:
        argv += ["--save-model", str(model)]
        outputs.append(model)

    def setup():
        g = fp.load_graph(edges, feats, labs)
        return fp.tasks.petal_features(fp.clique_lift(g, P), g.features, P, K)

    def check():
        payload = strict_json(out)
        errors = []
        if payload["extras"]["n"] != n:
            errors.append(f"n {payload['extras']['n']} != {n}")
        if payload["extras"]["counts"] != want_counts:
            errors.append(f"simplex counts {payload['extras']['counts']} != {want_counts}")
        if len(payload["runs"]) != 2:
            errors.append(f"{len(payload['runs'])} seed runs, want 2")
        return errors, payload["mean"]

    return Case([argv], outputs, setup, check, sizes)


def node_setup(work: Path, seed: int, scale: float) -> Case:
    rng = np.random.default_rng((seed, 1))
    return node_case(work, rng, n=_scaled(2400, scale, 60), avg_degree=20, d=64,
                     P=3, K=10, epochs=5, save_model=False)


def node_train(work: Path, seed: int, scale: float) -> Case:
    rng = np.random.default_rng((seed, 2))
    return node_case(work, rng, n=_scaled(1200, scale, 60), avg_degree=8, d=32,
                     P=2, K=10, epochs=_scaled(150, scale, 5), save_model=True)


# ---------------------------------------------------------------------------
# graph classification


def graphclass(work: Path, seed: int, scale: float) -> Case:
    """CLI ``graphclass``: 10-fold CV on featureless graphs of 20-40 nodes.

    Class 1 graphs take most of their edges from planted triangles, class 0
    graphs are uniform with the same edge count, so only triangle density
    tells them apart; the degree one-hot path is used.
    """
    rng = np.random.default_rng((seed, 3))
    P, K = 2, 5
    n_graphs = _scaled(50, scale, 10)
    graphs = []
    for label in rng.permutation(np.arange(n_graphs) % 2).tolist():
        n = int(rng.integers(20, 41))
        graphs.append((n, gen.triangle_keys(rng, n, 2 * n, 0.9 if label else 0.0), label))
    dataset, config, out = work / "graphs.jsonl", work / "config.json", work / "out.json"
    gen.write_graph_dataset(dataset, graphs)
    epochs = _scaled(14, scale, 2)
    config.write_text(json.dumps(
        {"task": "graphclass", "P": P, "K": K, "epochs": epochs, "seeds": [0]}
    ))
    # validation fold sizes of a 10-way split of the graphs
    fold_sizes = [len(f) for f in np.array_split(np.arange(n_graphs), 10)]
    simplices: dict[int, int] = {}
    for n, keys, _ in graphs:
        for p, c in gen.clique_counts(n, keys, P).items():
            simplices[p] = simplices.get(p, 0) + c
    sizes = {
        "graphs": n_graphs,
        "n": sum(g[0] for g in graphs),
        "edges": sum(len(g[1]) for g in graphs),
        "simplices": simplices,
        "file_bytes": dataset.stat().st_size,
    }

    def setup():
        records = [json.loads(line) for line in dataset.read_text().splitlines()]
        gs = [fp.Graph.from_edge_list(r["n"], [tuple(e) for e in r["edges"]]) for r in records]
        deg = [g.degrees() for g in gs]
        cap = max(int(dg.max()) for dg in deg)
        feats = []
        for g, dg in zip(gs, deg):
            x = np.zeros((g.n, cap + 1))
            x[np.arange(g.n), dg] = 1.0
            feats.append(fp.tasks.petal_features(fp.clique_lift(g, P), x, P, K))
        return feats

    def check():
        payload = strict_json(out)
        extras, runs = payload["extras"], payload["runs"]
        errors = []
        if extras["seed"] != 0:
            errors.append(f"seed {extras['seed']} != 0")
        if len(runs) != 10:
            return errors + [f"{len(runs)} folds, want 10"], None
        curves = [r["val_curve"] for r in runs]
        if any(len(c) != epochs for c in curves):
            lengths = [len(c) for c in curves]
            return errors + [f"validation curves of {lengths} epochs, want {epochs}"], None
        for i, (run, size) in enumerate(zip(runs, fold_sizes)):
            # an accuracy on a fold of `size` graphs is a whole number of graphs over size
            if run["fold"] != i or any(
                not math.isclose(a * size, round(a * size), abs_tol=1e-9) or not 0 <= a <= 1
                for a in run["val_curve"]
            ):
                errors.append(f"fold {i} curve is not accuracies on {size} graphs")
        mean_curve = np.mean(curves, axis=0)
        best = int(np.argmax(mean_curve))
        score = extras["max_mean_val_accuracy"]
        if extras["best_epoch"] != best or not math.isclose(score, mean_curve[best]):
            errors.append(f"best epoch {extras['best_epoch']} at {score}, "
                          f"curves give {best} at {mean_curve[best]}")
        if any(r["accuracy"] != r["val_curve"][best] for r in runs):
            errors.append("fold accuracies are not taken at the best epoch")
        return errors, score

    argv = ["graphclass", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
    return Case([argv], [out], setup, check, sizes)


# ---------------------------------------------------------------------------
# analysis commands


def analysis(work: Path, seed: int, scale: float) -> Case:
    """CLI ``spectra``, ``rewire`` and ``shwl`` back to back.

    ``spectra`` runs four Jacobi eigendecompositions, ``rewire`` raises the
    triangle count of a G(n, m) graph, and ``shwl`` refines an isomorphic
    pair (a graph and a random relabelling), which must stay inconclusive.
    """
    rng = np.random.default_rng((seed, 4))
    P = 2
    ns, nr, ni = _scaled(100, scale, 12), _scaled(2000, scale, 60), _scaled(1500, scale, 40)
    spec_keys, _ = gen.planted_keys(rng, ns, 4 * ns, clique_share=0.5, cross_share=0.1)
    rew_keys = gen.er_keys(rng, nr, 10 * nr)  # G(2000, 0.01) at full scale
    iso_keys, _ = gen.planted_keys(rng, ni, 5 * ni, clique_share=0.3, cross_share=0.5)
    iso_twin = gen.relabel(rng, ni, iso_keys)

    spec, rew, iso_a, iso_b = (work / f for f in ("spectra.tsv", "rewire.tsv", "a.tsv", "b.tsv"))
    gen.write_edges(spec, ns, spec_keys)
    gen.write_edges(rew, nr, rew_keys)
    gen.write_edges(iso_a, ni, iso_keys)
    gen.write_edges(iso_b, ni, iso_twin)
    out_spec, out_rew, out_iso = (work / f for f in ("spectra.json", "rewire.json", "shwl.json"))
    rewired = work / "rewired.tsv"
    sizes = {
        "spectra": _graph_sizes(ns, spec_keys, P, [spec]),
        "rewire": _graph_sizes(nr, rew_keys, P, [rew]),
        "shwl": _graph_sizes(ni, iso_keys, P, [iso_a, iso_b]),
    }
    runs = [
        ["spectra", "--edges", str(spec), "-p", str(P), "--out", str(out_spec)],
        ["rewire", "--edges", str(rew), "--target-rho2", "0.05", "--seed", "0",
         "--out-edges", str(rewired), "--out", str(out_rew)],
        ["shwl", "--a", str(iso_a), "--b", str(iso_b), "--method", "shwl",
         "-p", str(P), "--out", str(out_iso)],
    ]

    def setup():
        complexes = [fp.clique_lift(fp.load_graph(p), P) for p in (spec, iso_a, iso_b)]
        return complexes, fp.load_graph(rew)

    def check():
        errors = []
        spectra = strict_json(out_spec)
        if spectra["n"] != ns:
            errors.append(f"spectra n {spectra['n']} != {ns}")
        for p in range(1, P + 1):
            if spectra["orders"][str(p)]["psd"] is not True:
                errors.append(f"order-{p} operators not PSD in [0, 1]")
        strict_json(out_rew)
        n_out, keys_out = gen.read_edge_keys(rewired)
        if n_out != nr or not np.array_equal(gen.degrees(n_out, keys_out), gen.degrees(nr, rew_keys)):
            errors.append("rewired graph does not preserve the degree sequence")
        verdict = strict_json(out_iso)["verdict"]
        if verdict != "inconclusive":
            errors.append(f"isomorphic pair judged {verdict!r}")
        return errors, None

    return Case(runs, [out_spec, out_rew, rewired, out_iso], setup, check, sizes)


WORKLOADS = {
    "node-setup": node_setup,
    "node-train": node_train,
    "graphclass": graphclass,
    "analysis": analysis,
}
