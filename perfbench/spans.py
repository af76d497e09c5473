"""Per-layer spans recorded from outside the package.

The tracer wraps the package's public functions at the module attributes
their callers look them up through (``flowerpetals.cli.clique_lift``,
``flowerpetals.operators.spmm_dense``, ...), records the time and call
count of each span plus counts taken from arguments and results, and puts
the original attributes back when the traced run ends. A span's layer is
the package module that defines the function; a layer's self time is the
time inside its spans minus the time of the spans they call.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import flowerpetals
from flowerpetals import cli, isomorphism, model, nullmodel, operators, tasks

LAYERS = ("complexes", "operators", "linalg", "model", "tasks", "nullmodel", "isomorphism", "cli")


def _lift(counts, args, result):
    counts["simplices"] += sum(result.counts().values())


def _adjacency(counts, args, result):
    counts["nnz"] += result.a_tilde.nnz


def _propagate(counts, args, result):
    size = sum(b.nbytes for petal in result.blocks.values() for b in petal)
    counts["feature_bytes"] = max(counts["feature_bytes"], size)


def _spmm(counts, args, result):
    m, x = args[0], args[1]
    counts["spmm_flop"] += 2 * m.nnz * x.shape[1]
    counts["spmm_bytes"] += (
        m.row_starts.nbytes + m.col_indices.nbytes + m.values.nbytes + x.nbytes + result.nbytes
    )


def _rewire(counts, args, result):
    log = result[1]
    counts["accepted"] += len(log.accepted)
    counts["attempts"] += log.attempts


def _distinguish(counts, args, result):
    rounds = result[1]
    counts["rounds"] += len(rounds)
    first = rounds[0]
    counts["items"] += sum(sum(c.values()) for side in ("a", "b") for c in first[side].values())


# (module, attribute, span name, observer of (counts, args, result))
BINDINGS = [
    (cli, "load_graph", "complexes.load_graph", None),
    (cli, "clique_lift", "complexes.clique_lift", _lift),
    (tasks, "clique_lift", "complexes.clique_lift", _lift),
    (isomorphism, "clique_lift", "complexes.clique_lift", _lift),
    (cli, "incidence_matrix", "complexes.incidence_matrix", None),
    (tasks, "incidence_matrix", "complexes.incidence_matrix", None),
    (cli, "build_fp_adjacency", "operators.build_fp_adjacency", _adjacency),
    (tasks, "build_fp_adjacency", "operators.build_fp_adjacency", _adjacency),
    (cli, "build_fp_laplacian", "operators.build_fp_laplacian", None),
    (tasks, "propagate_features", "operators.propagate_features", _propagate),
    (operators, "spmm_dense", "linalg.spmm_dense", _spmm),
    (cli, "dense_sym_eig", "linalg.dense_sym_eig", None),
    (tasks, "loss_and_grad", "model.loss_and_grad", None),
    (tasks, "forward", "model.forward", None),
    (model, "forward", "model.forward", None),
    (tasks, "adam_step", "model.adam_step", None),
    (tasks, "readout_loss_and_grad", "model.readout_loss_and_grad", None),
    (tasks, "predict_graph_labels", "model.predict_graph_labels", None),
    (cli, "save_checkpoint", "model.save_checkpoint", None),
    (cli, "train_node_classification", "tasks.train_node_classification", None),
    (cli, "fit_node_params", "tasks.fit_node_params", None),
    (cli, "graph_classify", "tasks.graph_classify", None),
    (cli, "rewire_to_target", "nullmodel.rewire_to_target", _rewire),
    (nullmodel, "triangle_count", "nullmodel.triangle_count", None),
    (cli, "distinguish", "isomorphism.distinguish", _distinguish),
]
# the classmethod flowerpetals.Graph.from_edge_list is wrapped on its own
FROM_EDGE_LIST = "complexes.from_edge_list"
SPANS = sorted({name for _, _, name, _ in BINDINGS} | {FROM_EDGE_LIST})


class Tracer:
    """Span times, call counts, layer self times and observed counts."""

    def __init__(self):
        self.time = defaultdict(float)
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._children = []  # one accumulator of child time per open span

    def wrap(self, name: str, fn, observe=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.time[name] += elapsed
                self.calls[name] += 1
                self.self_time[layer] += elapsed - child
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding for the duration of the block, then restore it."""
    graph = flowerpetals.Graph
    saved = [(mod, attr, vars(mod)[attr]) for mod, attr, _, _ in BINDINGS]
    saved.append((graph, "from_edge_list", vars(graph)["from_edge_list"]))
    try:
        for mod, attr, name, observe in BINDINGS:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), observe))
        from_edges = vars(graph)["from_edge_list"].__func__
        graph.from_edge_list = classmethod(tracer.wrap(FROM_EDGE_LIST, from_edges))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def current_bindings() -> list:
    """The objects currently bound at every wrapped attribute."""
    graph = flowerpetals.Graph
    return [vars(mod)[attr] for mod, attr, _, _ in BINDINGS] + [vars(graph)["from_edge_list"]]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run.

    Every span gets a time and a call count; BENCHMARK.json's per_layer
    list picks the ones that are reported.
    """
    t, calls, counts = tracer.time, tracer.calls, tracer.counts
    out = {f"{layer}.self_s": tracer.self_time[layer] for layer in LAYERS}
    out.update({f"{name}_s": t[name] for name in SPANS})
    out.update({f"{name}_calls": calls[name] for name in SPANS})
    gflop = counts["spmm_flop"] / 1e9
    out.update({
        "complexes.simplices": counts["simplices"],
        "operators.nnz": counts["nnz"],
        "operators.feature_mb": counts["feature_bytes"] / 1e6,
        "linalg.spmm_dense_gflop": gflop,
        "linalg.spmm_dense_gb": counts["spmm_bytes"] / 1e9,
        "linalg.spmm_dense_gflops": gflop / t["linalg.spmm_dense"] if gflop else 0.0,
        "model.epoch_ms": (
            1e3 * tracer.self_time["model"] / calls["model.adam_step"]
            if calls["model.adam_step"] else 0.0
        ),
        "nullmodel.accepted": counts["accepted"],
        "nullmodel.attempts": counts["attempts"],
        "nullmodel.accept_ratio": (
            counts["accepted"] / counts["attempts"] if counts["attempts"] else 0.0
        ),
        "isomorphism.rounds": counts["rounds"],
        "isomorphism.items": counts["items"],
    })
    return out
