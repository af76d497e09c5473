"""Command-line surface: every pipeline behind one reproducible entry point.

All subcommands emit deterministic JSON (sorted keys, seeds surfaced in the
output) so a rerun with the same inputs and seed is byte-identical. Exit
codes: 0 success, 1 usage error, 2 data error (including an input that
cannot be read or is too large to hold in memory), 3 numerical or
saturation error, 4 internal error (a bug: one line on stderr, the
traceback at FP_LOG=debug).

Run it as ``flowerpetals <command> ...`` or ``python -m flowerpetals.cli
<command> ...``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .complexes import _INT64, DataError, Graph, _lines, clique_lift, incidence_matrix, load_graph
from .isomorphism import distinguish
from .linalg import ConvergenceError, dense_sym_eig
from .model import load_checkpoint, save_checkpoint, strength
from .nullmodel import SaturationError, rewire_to_target
from .operators import build_fp_adjacency, build_fp_laplacian
from .tasks import (
    TrainConfig,
    fit_node_params,
    graph_classify,
    impute_signals,
    load_coauthorship,
    train_node_classification,  # not called here; perfbench/spans.py wraps this binding
)

__all__ = ["run", "main"]

USAGE_ERROR, DATA_ERROR, NUMERIC_ERROR, INTERNAL_ERROR = 1, 2, 3, 4

logger = logging.getLogger("flowerpetals")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _to_json(payload: dict) -> str:
    """As ``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\\n"``."""
    try:
        return _indented(payload, "\n") + "\n"
    except ValueError:
        raise FloatingPointError("output holds a NaN or infinite value") from None


def _indented(obj, pad: str) -> str:
    """``obj`` as the indented dump writes it after ``pad``. A flat container
    goes to the C encoder whole, which ``json.dumps`` skips once ``indent`` is set."""
    inner, nests = pad + "  ", (dict, list, tuple)
    values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, nests) else ()
    if not any(isinstance(v, nests) for v in values):
        flat = json.dumps(obj, sort_keys=True, allow_nan=False, separators=("," + inner, ": "))
        return f"{flat[0]}{inner}{flat[1:-1]}{pad}{flat[-1]}" if values else flat
    if isinstance(obj, dict):  # a key is written as the dump writes it: {key: 0} -> "key"
        items = [f"{json.dumps({k: 0}, allow_nan=False)[1:-4]}: {_indented(v, inner)}"
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return "[" + inner + ("," + inner).join(_indented(v, inner) for v in obj) + pad + "]"


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(args) -> TrainConfig:
    cfg = TrainConfig.from_json(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    return cfg


def _seeded_payload(report, cfg: TrainConfig) -> dict:
    payload = report.to_dict()
    payload["seeds"] = list(cfg.seeds)
    payload["config"] = cfg.to_dict()
    return payload


def _cmd_lift(args) -> dict:
    g = load_graph(args.edges)
    complex_ = clique_lift(g, args.max_order)
    payload = {"n": g.n, "seed": args.seed or 0}
    for p, count in complex_.counts().items():
        payload[f"n_{p}"] = count
    return payload


def _cmd_spectra(args) -> dict:
    g = load_graph(args.edges)
    complex_ = clique_lift(g, args.max_order)
    orders, ops = {}, {}
    for p in range(1, args.max_order + 1):
        op = ops[p] = build_fp_adjacency(incidence_matrix(complex_, p))
        lap = build_fp_laplacian(op)
        adj_eigs, _ = dense_sym_eig(op.a_tilde.to_dense())
        lap_eigs, _ = dense_sym_eig(lap.to_dense())
        lo = float(min(adj_eigs.min(initial=0.0), lap_eigs.min(initial=0.0)))
        hi = float(max(adj_eigs.max(initial=0.0), lap_eigs.max(initial=0.0)))
        orders[str(p)] = {
            "min_eig": lo,
            "max_eig": hi,
            "psd": bool(lo >= -1e-10 and hi <= 1.0 + 1e-10),
            "isolated_nodes": int(op.isolated.sum()),
        }
    # order-1 closed form: adjacency must equal (norm-adjacency + I) / 2
    op1 = ops[1]
    deg = op1.node_degrees.astype(np.float64)
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    dense_a = np.zeros((g.n, g.n))
    u, v = g.edges.T
    dense_a[u, v] = dense_a[v, u] = 1.0
    reference = 0.5 * (inv_sqrt[:, None] * dense_a * inv_sqrt[None, :] + np.eye(g.n))
    if op1.isolated.any():
        reference[op1.isolated, :] = 0.0
        reference[:, op1.isolated] = 0.0
        reference[op1.isolated, op1.isolated] = 0.0
    residual = float(np.max(np.abs(op1.a_tilde.to_dense() - reference)))
    return {
        "n": g.n,
        "orders": orders,
        "p1_closed_form_residual": residual,
        "seed": args.seed or 0,
    }


def _cmd_train(args) -> dict:
    cfg = _load_config(args)
    g = load_graph(args.edges, args.features, args.labels)
    report, params = fit_node_params(g, cfg)
    payload = _seeded_payload(report, cfg)
    if args.save_model:
        _to_json(payload)  # a non-finite output exits here, before the checkpoint exists
        save_checkpoint(params[0], args.save_model)
    return payload


def _cmd_impute(args) -> dict:
    cfg = _load_config(args)
    cc = load_coauthorship(args.simplices)
    return _seeded_payload(impute_signals(cc, cfg.known_fraction, cfg), cfg)


def _cmd_graphclass(args) -> dict:
    cfg = _load_config(args)
    graphs, labels = _load_graph_dataset(args.dataset)
    report = graph_classify(graphs, labels, cfg)
    payload = report.to_dict()
    payload["config"] = cfg.to_dict()
    return payload


def _feature_columns(g: Graph) -> str:
    return "no features" if g.features is None else f"{g.features.shape[1]} feature columns"


def _load_graph_dataset(path) -> tuple[list[Graph], np.ndarray]:
    """JSON-lines dataset: one object per graph with an integer n, integer
    edge endpoints, a non-negative integer label, and optional finite
    features, which every record gives at one width or none gives."""
    graphs, labels = [], []
    for lineno, text in _lines(Path(path)):
        try:
            obj = json.loads(text)
            n, edges, label = obj["n"], obj["edges"], obj["label"]
            # not float, and not bool: JSON true/false load as a subclass of int
            if any(type(x) is not int or x not in _INT64
                   for x in (n, label, *(x for e in edges for x in e))):
                raise DataError("n, label and every edge endpoint must be int64 integers")
            if n < 1:
                raise DataError("a graph needs at least one node")
            g = Graph.from_edge_list(n, edges, features=obj.get("features"))
            if graphs and _feature_columns(g) != _feature_columns(graphs[0]):
                raise DataError(
                    f"{_feature_columns(g)}, but the first record has "
                    f"{_feature_columns(graphs[0])}"
                )
            if label < 0:
                raise DataError(f"negative label {label}")
            graphs.append(g)
            labels.append(label)
        except (KeyError, ValueError, TypeError) as exc:
            raise DataError(f"{path}:{lineno}: bad graph record ({exc})") from None
    return graphs, np.asarray(labels, dtype=np.int64)


def _histogram_payload(rounds) -> list:
    out = []
    for entry in rounds:
        out.append(
            {
                "round": entry["round"],
                "a": {str(p): dict(sorted(c.items())) for p, c in entry["a"].items()},
                "b": {str(p): dict(sorted(c.items())) for p, c in entry["b"].items()},
            }
        )
    return out


def _cmd_shwl(args) -> dict:
    ga = load_graph(args.a)
    gb = load_graph(args.b)
    verdict, rounds = distinguish(ga, gb, args.method, args.max_order)
    return {
        "method": args.method,
        "max_order": args.max_order,
        "verdict": verdict,
        "rounds": _histogram_payload(rounds),
        "seed": args.seed or 0,
    }


def _cmd_rewire(args) -> dict:
    g = load_graph(args.edges)
    seed = args.seed or 0
    graph, log = rewire_to_target(g, args.target_rho2, seed)
    if args.out_edges:
        with open(args.out_edges, "w") as fh:
            fh.write(f"#n={graph.n}\n" + "".join(f"{u}\t{v}\n" for u, v in graph.edges.tolist()))
    return {
        "seed": seed,
        "target_rho2": args.target_rho2,
        "achieved_rho2": log.achieved_rho2,
        "accepted": len(log.accepted),
        "attempts": log.attempts,
        "chains": [list(c) for c in log.accepted],
    }


def _cmd_strength(args) -> dict:
    params = load_checkpoint(args.model)
    return {
        "p_max": params.p_max,
        "k_max": params.k_max,
        "seed": params.seed,
        "strength": [float(s) for s in strength(params)],
    }


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowerpetals", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=None):
        p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("lift", help="clique-lift a graph and report simplex counts")
    p.add_argument("--edges", required=True)
    p.add_argument("--max-order", "-p", type=int, default=2)
    common(p)

    p = sub.add_parser("spectra", help="spectral summary of the petal operators")
    p.add_argument("--edges", required=True)
    p.add_argument("--max-order", "-p", type=int, default=2)
    common(p)

    p = sub.add_parser("train", help="node classification pipeline")
    p.add_argument("--edges", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--config")
    p.add_argument("--save-model")
    common(p)

    p = sub.add_parser("impute", help="simplicial signal imputation pipeline")
    p.add_argument("--simplices", required=True)
    p.add_argument("--config")
    common(p)

    p = sub.add_parser("graphclass", help="graph classification pipeline")
    p.add_argument("--dataset", required=True, help="JSON-lines graph records")
    p.add_argument("--config")
    common(p)

    p = sub.add_parser("shwl", help="pairwise isomorphism refinement verdict")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--method", choices=("wl", "hwl", "shwl"), default="shwl")
    p.add_argument("--max-order", "-p", type=int, default=2)
    common(p)

    p = sub.add_parser("rewire", help="triangle-raising degree-preserving rewiring")
    p.add_argument("--edges", required=True)
    p.add_argument("--target-rho2", type=float, required=True)
    p.add_argument("--out-edges")
    common(p, seed_default=0)

    p = sub.add_parser("strength", help="per-order interaction strength of a checkpoint")
    p.add_argument("--model", required=True)
    common(p)

    return parser


_COMMANDS = {
    "lift": _cmd_lift,
    "spectra": _cmd_spectra,
    "train": _cmd_train,
    "impute": _cmd_impute,
    "graphclass": _cmd_graphclass,
    "shwl": _cmd_shwl,
    "rewire": _cmd_rewire,
    "strength": _cmd_strength,
}


def run(argv) -> int:
    level = os.environ.get("FP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _write(_to_json(_COMMANDS[args.command](args)), args.out)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except MemoryError as exc:  # such as the arrays of a declared node count
        print(f"error: input too large to hold in memory ({exc})", file=sys.stderr)
        return DATA_ERROR
    except (SaturationError, ConvergenceError, FloatingPointError) as exc:
        extra = {}
        if isinstance(exc, SaturationError) and exc.achieved_rho2 is not None:
            extra = {"achieved_rho2": exc.achieved_rho2}
        print(f"error: {exc} {json.dumps(extra) if extra else ''}".rstrip(), file=sys.stderr)
        return NUMERIC_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception as exc:
        logger.debug("internal error", exc_info=True)
        print(f"error: internal error ({type(exc).__name__}: {exc})", file=sys.stderr)
        return INTERNAL_ERROR
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
