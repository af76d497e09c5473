"""End-to-end pipelines: node classification, signal imputation on
coauthorship complexes, graph classification, plus splits and metrics."""

from __future__ import annotations

import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .complexes import (
    _INT64,
    DataError,
    Graph,
    IncidenceMatrix,
    SimplicialComplex,
    _close_downward,
    _lines,
    clique_lift,
    incidence_matrix,
    node_count_header,
)
from .model import (
    AdamState,
    HigcnParams,
    adam_step,
    forward,
    init_params,
    l1_grad,
    nll,
    nll_grad,
    readout_forward,
    readout_grad,
    signal_forward,
)
# not called here; perfbench/spans.py wraps these bindings
from .model import loss_and_grad, predict_graph_labels, readout_loss_and_grad  # noqa: F401
from .operators import FpOperator, PropagatedFeatures, build_fp_adjacency, propagate_features

__all__ = [
    "ConstantSignalError",
    "SplitSpec",
    "TrainConfig",
    "MetricsReport",
    "CoauthorshipComplex",
    "load_coauthorship",
    "make_splits",
    "kendall_tau",
    "petal_operators",
    "petal_features",
    "disjoint_union",
    "fit_node_params",
    "train_node_classification",
    "impute_signals",
    "graph_classify",
]


class ConstantSignalError(ValueError):
    """Rank correlation is undefined when a vector has zero variance."""


# ---------------------------------------------------------------------------
# splits, metrics, config


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/val/test index sets covering 0..n-1."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        parts = [np.array(p, dtype=np.int64) for p in (self.train, self.val, self.test)]
        allidx = np.concatenate(parts)
        if len(np.unique(allidx)) != len(allidx):
            raise ValueError("split parts must be disjoint")
        if len(allidx) == 0 or not np.array_equal(np.sort(allidx), np.arange(len(allidx))):
            raise ValueError("split parts must cover 0..n-1")
        for name, p in zip(("train", "val", "test"), parts):
            p.flags.writeable = False
            object.__setattr__(self, name, p)


def make_splits(n: int, ratios=(0.6, 0.2, 0.2), seed: int = 0) -> SplitSpec:
    """Seeded shuffle, then floor-then-distribute-remainder slicing.

    Remainder goes to the largest fractional parts (ties by position).
    Raises if any part would be empty.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be three positive numbers summing to 1")
    raw = [n * r for r in ratios]
    sizes = [int(np.floor(x)) for x in raw]
    fracs = [x - s for x, s in zip(raw, sizes)]
    for i in sorted(range(3), key=lambda i: (-fracs[i], i))[: n - sum(sizes)]:
        sizes[i] += 1
    if min(sizes) < 1:
        raise ValueError(f"n={n} too small for non-empty parts at ratios {ratios}")
    perm = np.random.default_rng(seed).permutation(n)
    a, b = sizes[0], sizes[0] + sizes[1]
    return SplitSpec(np.sort(perm[:a]), np.sort(perm[a:b]), np.sort(perm[b:]))


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_sequence(value) -> bool:
    return isinstance(value, (list, tuple))


# TrainConfig field annotation -> (type check, what the check wants)
_FIELD_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "tuple[int, ...]": (
        lambda v: _is_sequence(v) and all(map(_is_int, v)), "a list of integers"
    ),
    "tuple[float, float, float]": (
        lambda v: _is_sequence(v) and len(v) == 3 and all(map(_is_number, v)),
        "a list of three numbers",
    ),
}


@dataclass(frozen=True)
class TrainConfig:
    """Pipeline hyperparameters, JSON-round-trippable.

    ``epochs`` is resolved per task when left unset: 1000 for node
    classification, 500 for imputation, 200 for graph classification.
    """

    task: str = "node"
    P: int = 2
    K: int = 10
    alpha: float = 0.5
    lr: float = 0.05
    weight_decay: float = 5e-4
    hidden: int = 32
    epochs: int | None = None
    patience: int = 200
    seeds: tuple[int, ...] = (0,)
    readout: str = "mean"
    known_fraction: float = 0.5
    theta_depth: int = 2
    decay_gamma: bool = False
    split_ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)

    _EPOCH_DEFAULTS = {"node": 1000, "impute": 500, "graphclass": 200}
    _LOWER_BOUNDS = {"P": 1, "K": 0, "hidden": 1, "epochs": 1, "patience": 0}

    def __post_init__(self):
        for f in fields(self):
            check, kind = _FIELD_TYPES[f.type]
            if not check(getattr(self, f.name)):
                raise DataError(f"{f.name} must be {kind}, got {getattr(self, f.name)!r}")
        for key, low in self._LOWER_BOUNDS.items():
            value = getattr(self, key)
            if value is not None and value < low:
                raise DataError(f"{key} must be at least {low}, got {value}")
        if self.theta_depth not in (1, 2):
            raise DataError(f"theta_depth must be 1 or 2, got {self.theta_depth}")
        if self.task not in self._EPOCH_DEFAULTS:
            raise DataError(f"unknown task {self.task!r}")
        if self.readout not in ("mean", "sum"):
            raise DataError(f"unknown readout {self.readout!r}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "split_ratios", tuple(self.split_ratios))
        if not self.seeds:
            raise DataError("seeds must name at least one seed")

    @property
    def resolved_epochs(self) -> int:
        return self.epochs if self.epochs is not None else self._EPOCH_DEFAULTS[self.task]

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls) if not f.name.startswith("_")}
        for key in data:
            if key not in known:
                raise DataError(f"unknown config key {key!r}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise DataError(f"{path}: config must be a JSON object")
        try:
            return cls.from_dict(data)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name.startswith("_"):
                continue
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class MetricsReport:
    """Per-run scalar metrics with their mean and 95% confidence half-width."""

    task: str
    metric: str
    runs: tuple[dict, ...]
    mean: float
    ci95: float
    flags: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_runs(cls, task, metric, runs, flags=(), extras=None) -> "MetricsReport":
        scores = np.array([r[metric] for r in runs], dtype=np.float64)
        mean = float(scores.mean())
        ci = 0.0
        if len(scores) >= 2:
            ci = float(1.96 * scores.std(ddof=1) / np.sqrt(len(scores)))
        return cls(task, metric, tuple(runs), mean, ci, tuple(flags), extras or {})

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "metric": self.metric,
            "mean": self.mean,
            "ci95": self.ci95,
            "runs": list(self.runs),
            "flags": list(self.flags),
            "extras": self.extras,
        }


# ---------------------------------------------------------------------------
# scalar metrics


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for ranks in 0..n-1, by a
    bottom-up merge: at width w, each right block's entries count the larger
    entries of the sorted left block beside it, and one sort merges the two."""
    n, count, w = len(ranks), 0, 1
    while w < n:
        block = np.arange(n) // (2 * w)
        keys = block * n + ranks  # ascending within each sorted block of width w
        right = np.arange(n) % (2 * w) >= w
        at_most = np.searchsorted(keys[~right], keys[right], "right") - block[right] * w
        count += int((w - at_most).sum())
        ranks = np.sort(keys) - block * n
        w *= 2
    return count


def _tied_pairs(values: np.ndarray) -> int:
    """Pairs of equal entries."""
    counts = np.unique(values, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


def kendall_tau(a, b) -> float:
    """Tie-corrected rank correlation (tau-b) by merge counting of the
    discordant pairs.

    Equals the O(n^2) pairwise definition exactly. Zero variance in either
    input raises ConstantSignalError rather than returning NaN, and a NaN or
    infinite input raises ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("inputs must be finite")
    a_rank = np.unique(a, return_inverse=True)[1]
    b_rank = np.unique(b, return_inverse=True)[1]
    pairs = a_rank * n + b_rank  # sorts as the (a, b) pairs in lexicographic order
    n0, n1, n2, n3 = n * (n - 1) // 2, _tied_pairs(a), _tied_pairs(b), _tied_pairs(pairs)
    if n1 == n0 or n2 == n0:
        raise ConstantSignalError("zero variance: rank correlation undefined")
    swaps = _inversions(np.sort(pairs) % n)  # the ranks of b, in (a, b) order
    return (n0 - n1 - n2 + n3 - 2 * swaps) / math.sqrt((n0 - n1) * (n0 - n2))


def accuracy(log_probs: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    pred = np.argmax(log_probs[mask], axis=1)
    return float(np.mean(pred == labels[mask]))


# ---------------------------------------------------------------------------
# shared pipeline pieces


def petal_operators(k: SimplicialComplex, p_max: int) -> list[FpOperator]:
    """Flower-petals operators for orders 1..p_max; missing orders are empty."""
    return [
        build_fp_adjacency(
            incidence_matrix(k, p) if p in k.simplices else IncidenceMatrix(p, k.n, ())
        )
        for p in range(1, p_max + 1)
    ]


def petal_features(
    k: SimplicialComplex, x: np.ndarray, p_max: int, k_max: int
) -> PropagatedFeatures:
    return propagate_features(petal_operators(k, p_max), x, k_max)


# what _adam_fit keeps: a parameter set, its epoch and forward output, and the curves
_Fit = namedtuple("_Fit", "params epoch out train_curve val_curve")


def _adam_fit(params, cfg: TrainConfig, run_forward, gradient, validate=None, patience=None):
    """Adam from ``params`` for ``cfg.resolved_epochs`` epochs, running the
    model forward once per parameter set.

    ``run_forward(params)`` returns a tape and its output, and
    ``gradient(params, tape, out)`` the training loss and gradients from
    them. The forward after each Adam step is both that epoch's validation
    read ``validate(out)`` and the tape of the next epoch's gradient. With
    ``patience``, lower reads are better: the fit keeps the parameters of
    the first best read and stops after the read that leaves it more than
    ``patience`` epochs old. Otherwise it keeps the last parameters.
    """
    state = AdamState.zeros_like(params)
    tape, out = run_forward(params)
    kept, best, stale = (params, 0, out), np.inf, 0
    train_curve, val_curve = [], []
    for epoch in range(cfg.resolved_epochs):
        loss, grads = gradient(params, tape, out)
        del tape, out  # one tape at a time: release it before the next forward
        params, state = adam_step(params, grads, state, cfg.lr)
        tape, out = run_forward(params)
        train_curve.append(loss)
        if validate is not None:
            val_curve.append(validate(out))
        if patience is None:
            kept = (params, epoch, out)
        elif val_curve[-1] < best:
            kept, best, stale = (params, epoch, out), val_curve[-1], 0
        else:
            stale += 1
            if stale > patience:
                break
    return _Fit(*kept, train_curve, val_curve)


def _fit_node_model(feats, labels, split: SplitSpec, cfg: TrainConfig, seed: int) -> _Fit:
    """Adam with early stopping on validation loss; keeps the best-epoch
    parameters and their log-probabilities."""
    n_classes = int(labels.max()) + 1
    params = init_params(
        cfg.P, cfg.K, feats.d, cfg.hidden, n_classes, cfg.alpha, seed, cfg.theta_depth
    )
    return _adam_fit(
        params, cfg, lambda p: forward(p, feats),
        lambda p, tape, log_probs: nll_grad(
            p, feats, tape, log_probs, labels, split.train, cfg.weight_decay, cfg.decay_gamma
        ),
        validate=lambda log_probs: nll(log_probs, labels, split.val), patience=cfg.patience,
    )


def fit_node_params(
    g: Graph, cfg: TrainConfig
) -> tuple[MetricsReport, list[HigcnParams]]:
    """Lift, build operators and propagate once, then train every seed with
    early stopping. Returns the report of test accuracy at each seed's
    best-validation epoch and that epoch's parameters, in seed order."""
    if g.features is None or g.labels is None:
        raise DataError("node classification needs features and labels")
    complex_ = clique_lift(g, cfg.P)
    feats = petal_features(complex_, g.features, cfg.P, cfg.K)
    runs, fitted = [], []
    for seed in cfg.seeds:
        split = make_splits(g.n, cfg.split_ratios, seed)
        fit = _fit_node_model(feats, g.labels, split, cfg, seed)
        acc = accuracy(fit.out, g.labels, split.test)
        runs.append(
            {
                "seed": seed,
                "accuracy": acc,
                "micro_f1": acc,
                "best_epoch": fit.epoch,
                "train_loss_curve": fit.train_curve,
                "val_loss_curve": fit.val_curve,
            }
        )
        fitted.append(fit.params)
    return MetricsReport.from_runs(
        "node", "accuracy", runs, extras={"n": g.n, "counts": complex_.counts()}
    ), fitted


def train_node_classification(g: Graph, cfg: TrainConfig) -> MetricsReport:
    """The report of :func:`fit_node_params` without the parameters."""
    return fit_node_params(g, cfg)[0]


# ---------------------------------------------------------------------------
# simplicial signal imputation


@dataclass(frozen=True)
class CoauthorshipComplex:
    """Simplicial complex with an integer signal on every simplex.

    ``signals[0]`` is the node-signal vector (length n); ``signals[p]``
    aligns with ``complex.simplices[p]``. Signals are non-negative.
    """

    complex: SimplicialComplex
    signals: dict[int, np.ndarray]

    def __post_init__(self):
        sig = {p: np.array(v, dtype=np.float64) for p, v in self.signals.items()}
        if 0 not in sig or sig[0].shape != (self.complex.n,):
            raise DataError("node signals (order 0) of length n are required")
        for p, v in sig.items():
            if p == 0:
                continue
            if v.shape != (self.complex.count(p),):
                raise DataError(f"order-{p} signals misaligned with simplices")
        if any(len(v) and v.min() < 0 for v in sig.values()):
            raise DataError("signals must be non-negative")
        for v in sig.values():
            v.flags.writeable = False
        object.__setattr__(self, "signals", sig)

    @property
    def n(self) -> int:
        return self.complex.n

    @property
    def node_signals(self) -> np.ndarray:
        return self.signals[0]


def load_coauthorship(path) -> CoauthorshipComplex:
    """Parse "order<TAB>node,node,...<TAB>signal" lines into a closed complex.

    Order-0 lines carry node signals. Higher-order lines with signal <= 2
    are dropped (occasional collaborations are treated as noise), though
    their nodes still count towards n; faces implied by downward closure,
    down to order 1 whatever orders the file skips, get signal 0. An
    optional "#n=<count>" header fixes the node count.
    """
    path = Path(path)
    rows: dict[int, list] = {}
    signals: dict[int, list] = {}
    declared_n, max_node = None, -1
    for lineno, text in _lines(path):
        if text.startswith("#"):
            if lineno == 1:
                declared_n = node_count_header(path, text)
            continue
        parts = text.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'order<TAB>nodes<TAB>signal'")
        try:
            order = int(parts[0])
            nodes = sorted(int(tok) for tok in parts[1].split(","))
            signal = float(parts[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed line {text!r}") from None
        if not math.isfinite(signal) or signal < 0:
            raise DataError(f"{path}:{lineno}: signal must be finite and non-negative")
        if len(nodes) != order + 1 or len(set(nodes)) != len(nodes):
            raise DataError(f"{path}:{lineno}: a {order}-simplex needs {order + 1} distinct nodes")
        if nodes[0] < 0:
            raise DataError(f"{path}:{lineno}: negative node id in {text!r}")
        if nodes[-1] not in _INT64:
            raise DataError(f"{path}:{lineno}: node id past the int64 range in {text!r}")
        max_node = max(max_node, nodes[-1])
        if order == 0 or signal > 2:
            rows.setdefault(order, []).append(nodes)
            signals.setdefault(order, []).append(signal)
    n = declared_n if declared_n is not None else max_node + 1
    if n < max_node + 1:
        raise DataError(f"{path}: header n={n} smaller than max node id {max_node}")
    node_ids = np.array(rows.pop(0, []), dtype=np.int64).ravel()
    try:
        node_vector = np.bincount(node_ids, signals.pop(0, []), minlength=n)
    except (MemoryError, ValueError, OverflowError):
        raise DataError(f"{path}: the signals of {n} nodes do not fit in memory") from None
    orders, sums = _close_downward(rows, signals)
    return CoauthorshipComplex(SimplicialComplex(n, orders), {0: node_vector, **sums})


def impute_signals(
    cc: CoauthorshipComplex, known_fraction: float, cfg: TrainConfig
) -> MetricsReport:
    """Mask node signals, median-fill, regress with an L1 objective on the
    known entries, and score Kendall tau over all nodes."""
    n = cc.n
    n_known = int(round(known_fraction * n))
    if not 0.0 < known_fraction < 1.0 or n_known == 0 or n_known == n:
        raise ValueError(f"degenerate known fraction {known_fraction} for n={n}")
    truth = cc.node_signals
    ops = petal_operators(cc.complex, cfg.P)
    runs = []
    flags = set()
    for seed in cfg.seeds:
        rng = np.random.default_rng(seed)
        known = np.sort(rng.permutation(n)[:n_known])
        filled = truth.copy()
        missing = np.setdiff1d(np.arange(n), known)
        filled[missing] = np.median(truth[known])
        # standardize by known-entry statistics; ranks are scale-free
        center = float(np.median(truth[known]))
        scale = float(np.std(truth[known]))
        scale = scale if scale > 1e-12 else 1.0
        x = ((filled - center) / scale)[:, None]
        targets = (truth - center) / scale

        feats = propagate_features(ops, x, cfg.K)
        params = init_params(cfg.P, cfg.K, 1, cfg.hidden, 1, cfg.alpha, seed, cfg.theta_depth)
        fit = _adam_fit(
            params, cfg, lambda p: signal_forward(p, feats),
            lambda p, tape, pred: l1_grad(p, feats, tape, pred, targets, known, cfg.weight_decay),
        )
        if not np.isfinite(fit.out).all():
            raise FloatingPointError(f"seed {seed}: the imputed signals are not all finite")
        try:
            tau = kendall_tau(truth, fit.out)
        except ConstantSignalError:
            tau = 0.0
            flags.add("constant-signal")
        runs.append(
            {
                "seed": seed,
                "kendall_tau": float(tau),
                "known_fraction": known_fraction,
                "train_loss_curve": fit.train_curve,
            }
        )
    return MetricsReport.from_runs(
        "impute", "kendall_tau", runs, flags=sorted(flags), extras={"n": n}
    )


# ---------------------------------------------------------------------------
# graph classification


def disjoint_union(graphs: list[Graph]) -> tuple[Graph, np.ndarray]:
    """Stack graphs into one: node ids shift by the sizes of the graphs
    before, and given features stack, so every graph must have features of
    one width, or none may have them. Returns the union and each graph's
    node count."""
    sizes = np.array([g.n for g in graphs], dtype=np.int64)
    offsets = np.repeat(np.cumsum(sizes) - sizes, [g.num_edges for g in graphs])
    edges = np.concatenate([g.edges for g in graphs]) + offsets[:, None]
    widths = {None if g.features is None else g.features.shape[1] for g in graphs}
    if len(widths) > 1:
        raise DataError("every graph needs features of one width, or none may have them")
    features = None if None in widths else np.vstack([g.features for g in graphs])
    return Graph(int(sizes.sum()), edges, features), sizes


def graph_classify(
    graphs: list[Graph], labels, cfg: TrainConfig
) -> MetricsReport:
    """10-fold cross-validation; reports the maximum over epochs of the mean
    validation accuracy across folds, per the usual kernel-benchmark protocol.

    The graphs train as one disjoint union, lifted once; FP operators are
    local, so its operators are the block diagonals of the per-graph ones.
    Given features propagate once per run. Graphs without features get
    degree one-hots whose dimension is capped by the training fold's maximum
    degree (larger degrees clamp to the cap), propagated once per distinct cap.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != len(graphs):
        raise DataError("one label per graph is required")
    if len(graphs) < 10:
        raise ValueError("10-fold cross-validation needs at least 10 graphs")
    n_classes = int(labels.max()) + 1
    seed0 = cfg.seeds[0]
    perm = np.random.default_rng(seed0).permutation(len(graphs))
    folds = np.array_split(perm, 10)
    union, sizes = disjoint_union(graphs)
    ops = petal_operators(clique_lift(union, cfg.P), cfg.P)
    graph_of = np.repeat(np.arange(len(graphs)), sizes)
    degrees = union.degrees()
    feats_by_cap: dict[int | None, PropagatedFeatures] = {}  # None: given features

    fold_curves = []
    for fold_idx, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(perm, val_idx)
        cap = None
        if union.features is None:
            cap = int(degrees[np.isin(graph_of, train_idx)].max())
        if cap not in feats_by_cap:
            x = union.features
            if cap is not None:
                x = np.zeros((union.n, cap + 1))
                x[np.arange(union.n), np.minimum(degrees, cap)] = 1.0
            feats_by_cap[cap] = propagate_features(ops, x, cfg.K)
        feats = feats_by_cap[cap]
        params = init_params(
            cfg.P, cfg.K, feats.d, cfg.hidden, n_classes, cfg.alpha,
            seed0 * 1000 + fold_idx, cfg.theta_depth,
        )
        fit = _adam_fit(
            params, cfg, lambda p: readout_forward(p, feats, sizes, cfg.readout),
            lambda p, tape, pooled: readout_grad(
                p, feats, tape, pooled, sizes, labels, train_idx, cfg.readout, cfg.weight_decay
            ),
            validate=lambda pooled: accuracy(pooled, labels, val_idx),
        )
        fold_curves.append(fit.val_curve)

    per_epoch = np.array(fold_curves).mean(axis=0)
    best_epoch = int(np.argmax(per_epoch))
    runs = [
        {
            "fold": i,
            "accuracy": curves[best_epoch],
            "micro_f1": curves[best_epoch],
            "val_curve": curves,
        }
        for i, curves in enumerate(fold_curves)
    ]
    return MetricsReport.from_runs(
        "graphclass",
        "accuracy",
        runs,
        extras={
            "best_epoch": best_epoch,
            "max_mean_val_accuracy": float(per_epoch[best_epoch]),
            "seed": seed0,
        },
    )
