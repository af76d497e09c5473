"""Command-line surface: every pipeline behind one reproducible entry point.

All subcommands emit deterministic JSON (sorted keys; seeded commands report
their seeds) so a rerun with the same inputs and seed is byte-identical. Exit
codes: 0 success, 1 usage error, 2 data error (including an input that
cannot be read or is too large to hold in memory), 3 numerical or
saturation error, 4 internal error (a bug: one line on stderr, the
traceback at FP_LOG=debug).

Run it as ``flowerpetals <command> ...`` or ``python -m flowerpetals.cli
<command> ...``.

Each subcommand is declared once, in ``_COMMANDS``: its handler, its help
line and its flags. The parser is built from that table once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .complexes import (
    DataError,
    clique_lift,
    incidence_matrix,
    load_coauthorship,
    load_graph,
    load_graph_dataset,
)
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
    train_node_classification,  # not called here; perfbench/spans.py wraps this binding
)

__all__ = ["run", "main"]

USAGE_ERROR, DATA_ERROR, NUMERIC_ERROR, INTERNAL_ERROR = 1, 2, 3, 4
_SCALARS = frozenset({int, float, str, bool, type(None)})  # the exact types of JSON scalars

logger = logging.getLogger("flowerpetals")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _to_json(payload: dict) -> str:
    """As ``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\\n"``."""
    try:
        return _indented(payload, "\n") + "\n"
    except ValueError:
        raise FloatingPointError("output holds a NaN or infinite value") from None


def _indented(obj, pad: str) -> str:
    """``obj`` as the indented dump writes it after ``pad``. A flat container (each
    value's exact type a JSON scalar's, tested in C) goes to the C encoder whole, which
    ``json.dumps`` skips once ``indent`` is set; any other container goes value by value."""
    inner, nests = pad + "  ", (dict, list, tuple)
    values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, nests) else ()
    if _SCALARS.issuperset(map(type, values)):
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


def _load_config(args, task: str) -> TrainConfig:
    cfg = TrainConfig.from_json(args.config, task) if args.config else TrainConfig(task=task)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    return cfg


def _training_payload(report, cfg: TrainConfig) -> dict:
    return {**report.to_dict(), "config": cfg.to_dict()}


def _cmd_lift(args) -> dict:
    g = load_graph(args.edges)
    complex_ = clique_lift(g, args.max_order)
    payload = {"n": g.n}
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
    # order-1 closed form on A_1's own entries: (norm-adjacency + I) / 2; an
    # isolated node holds no entries, so every degree read here is positive
    a1, deg = ops[1].a_tilde, ops[1].node_degrees.astype(np.float64)
    r, c = a1._row_ids(), a1.col_indices
    diag = r == c
    reference = 0.5 * ((1.0 / np.sqrt(deg[r]) * ~diag) * (1.0 / np.sqrt(deg[c])) + diag)
    residual = float(np.max(np.abs(a1.values - reference), initial=0.0))
    return {
        "n": g.n,
        "orders": orders,
        "p1_closed_form_residual": residual,
    }


def _cmd_train(args):
    cfg = _load_config(args, "node")
    g = load_graph(args.edges, args.features, args.labels)
    report, params = fit_node_params(g, cfg)
    payload = _training_payload(report, cfg)
    if args.save_model:
        return payload, lambda: save_checkpoint(params[0], args.save_model)
    return payload


def _cmd_impute(args) -> dict:
    cfg = _load_config(args, "impute")
    cc = load_coauthorship(args.simplices)
    return _training_payload(impute_signals(cc, cfg), cfg)


def _cmd_graphclass(args) -> dict:
    cfg = _load_config(args, "graphclass")
    graphs, labels = load_graph_dataset(args.dataset)
    return _training_payload(graph_classify(graphs, labels, cfg), cfg)


def _cmd_shwl(args) -> dict:
    ga = load_graph(args.a)
    gb = load_graph(args.b)
    verdict, rounds = distinguish(ga, gb, args.method, args.max_order)
    return {
        "method": args.method,
        "max_order": args.max_order,
        "verdict": verdict,
        "rounds": rounds,
    }


def _cmd_rewire(args):
    g = load_graph(args.edges)
    graph, log = rewire_to_target(g, args.target_rho2, args.seed)
    payload = {
        "seed": args.seed,
        "target_rho2": args.target_rho2,
        "achieved_rho2": log.achieved_rho2,
        "accepted": len(log.accepted),
        "attempts": log.attempts,
        "chains": log.accepted,
    }
    if args.out_edges:
        ids = tuple(graph.edges.ravel().tolist())  # u, v of each row in turn
        edges = f"#n={graph.n}\n" + "%d\t%d\n" * graph.num_edges % ids
        return payload, lambda: _write(edges, args.out_edges)
    return payload


def _cmd_strength(args) -> dict:
    params = load_checkpoint(args.model)
    return {
        "p_max": params.p_max,
        "k_max": params.k_max,
        "seed": params.seed,
        "strength": strength(params).tolist(),
    }


def _flag(*names: str, **options) -> tuple:
    return names, options


# the flags that several commands take, each declared once
_EDGES = _flag("--edges", required=True)
_MAX_ORDER = _flag("--max-order", "-p", type=int, default=2)
_CONFIG = _flag("--config")
_SEED = _flag("--seed", type=int)  # only the commands that draw random numbers take a seed


# each command's handler, help line and flags (names, options), but --out, which all take
_COMMANDS = {
    "lift": (_cmd_lift, "clique-lift a graph and report simplex counts", (_EDGES, _MAX_ORDER)),
    "spectra": (_cmd_spectra, "spectral summary of the petal operators", (_EDGES, _MAX_ORDER)),
    "train": (_cmd_train, "node classification pipeline",
              (_EDGES, _flag("--features", required=True),
               _flag("--labels", required=True), _CONFIG, _flag("--save-model"), _SEED)),
    "impute": (_cmd_impute, "simplicial signal imputation pipeline",
               (_flag("--simplices", required=True), _CONFIG, _SEED)),
    "graphclass": (_cmd_graphclass, "graph classification pipeline",
                   (_flag("--dataset", required=True, help="JSON-lines graph records"),
                    _CONFIG, _SEED)),
    "shwl": (_cmd_shwl, "pairwise isomorphism refinement verdict",
             (_flag("--a", required=True), _flag("--b", required=True),
              _flag("--method", choices=("wl", "hwl", "shwl"), default="shwl"),
              _MAX_ORDER)),
    "rewire": (_cmd_rewire, "triangle-raising degree-preserving rewiring",
               (_EDGES, _flag("--target-rho2", type=float, required=True),
                _flag("--out-edges"), _flag("--seed", type=int, default=0))),
    "strength": (_cmd_strength, "per-order interaction strength of a checkpoint",
                 (_flag("--model", required=True),)),
}


@functools.cache
def _parser() -> _Parser:
    # the docstring's last paragraph is for readers of this file, not of --help
    parser = _Parser(prog="flowerpetals", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for names, options in flags:
            p.add_argument(*names, **options)
        p.add_argument("--out", help="write JSON here instead of stdout")
    return parser


def run(argv) -> int:
    level = os.environ.get("FP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise DataError(f"--seed must be non-negative, got {seed}")
        # a non-finite result is caught by the checks below, not warned about
        with np.errstate(all="ignore"):
            result = _COMMANDS[args.command][0](args)
        # a side output (checkpoint, edge file) is written only after the JSON
        payload, write_side = result if isinstance(result, tuple) else (result, None)
        _write(_to_json(payload), args.out)
        if write_side is not None:
            write_side()
    except (ValueError, OSError) as exc:  # DataError is a ValueError
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
    except Exception as exc:
        logger.debug("internal error", exc_info=True)
        print(f"error: internal error ({type(exc).__name__}: {exc})", file=sys.stderr)
        return INTERNAL_ERROR
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
