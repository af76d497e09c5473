"""Graphs, clique-complex lifting, and higher-order incidence matrices."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import _fields_equal

__all__ = [
    "DataError",
    "Graph",
    "SimplicialComplex",
    "IncidenceMatrix",
    "load_graph",
    "node_count_header",
    "clique_lift",
    "incidence_matrix",
]

logger = logging.getLogger("flowerpetals")


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def _simplex_rows(rows, width: int, n: int, what: str) -> np.ndarray:
    """The one check of simplex rows: ``rows`` as a read-only (m, width)
    int64 array of integer (not float or bool) nodes in 0..n-1, each row
    strictly ascending, the rows strictly ascending in lexicographic order.
    A read-only int64 array is taken as is, anything else copied."""
    try:
        arr = np.asarray(rows)
    except ValueError:
        raise DataError(f"every {what} must have {width} nodes") from None
    if arr.size == 0:
        arr = np.zeros((0, width), dtype=np.int64)
    elif arr.dtype.kind not in "iu":
        raise DataError(f"{what} nodes must be integers, got {arr.dtype} entries")
    if arr.ndim != 2 or arr.shape[1] != width:
        raise DataError(f"every {what} must have {width} nodes, got shape {arr.shape}")
    if arr is rows and rows.flags.writeable:
        arr = arr.copy()  # never freeze the caller's own array
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    bad = (arr[:, 0] < 0) | (arr[:, -1] >= n) | (arr[:, 1:] <= arr[:, :-1]).any(axis=1)
    if bad.any():
        row = arr[bad.argmax()].tolist()
        raise DataError(f"{what} {row} must list distinct ascending nodes in 0..{n - 1}")
    keys = _row_keys(arr)
    bad = keys[1:] <= keys[:-1]
    if bad.any():
        j = bad.argmax()
        raise DataError(f"{what} {arr[j + 1].tolist()} follows {arr[j].tolist()}: rows must "
                        "be sorted and duplicate-free")
    arr.flags.writeable = False
    return arr


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One bytes key per row of non-negative integers: big-endian bytes of
    one length compare, sort and ``searchsorted`` as the rows would."""
    big = np.ascontiguousarray(rows, dtype=">i8")
    return big.view(f"S{8 * rows.shape[1]}").ravel()


def _in_sorted(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each query occurs in the ascending ``keys``."""
    return np.searchsorted(keys, queries, "right") > np.searchsorted(keys, queries)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with optional node features and labels.

    Edges are (u, v) pairs with u < v, deduplicated and lexicographically
    sorted; no self-loops. ``edge_rows`` holds them as the read-only (m, 2)
    array that the lift reads.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    edge_rows: np.ndarray = field(init=False, repr=False, compare=False)

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "edge_rows", _simplex_rows(self.edges, 2, self.n, "edge"))
        if self.features is not None:
            feats = np.array(self.features, dtype=np.float64, order="C")
            if feats.ndim != 2 or feats.shape[0] != self.n:
                raise DataError(f"features must be n x d, got {feats.shape}")
            if not np.isfinite(feats).all():
                raise DataError("features must be finite")
            feats.flags.writeable = False
            object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64)
            if labels.shape != (self.n,):
                raise DataError(f"labels must have length n, got {labels.shape}")
            if len(labels) and labels.min() < 0:
                raise DataError("labels must be non-negative")
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

    @classmethod
    def from_edge_list(cls, n, edges, features=None, labels=None) -> "Graph":
        """Canonicalize an iterable of (u, v) pairs: orient, dedup, sort."""
        rows = np.sort(np.asarray(list(edges)), axis=-1)
        if rows.ndim == 2 and rows.shape[1] == 2:
            rows = rows[np.lexsort(rows.T[::-1])]
            rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
        return cls(n, tuple(zip(*rows.T.tolist())), features, labels)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        both = np.concatenate([self.edge_rows, self.edge_rows[:, ::-1]])
        both = both[np.argsort(both[:, 0], kind="stable")]
        ends = np.cumsum(self.degrees())
        return tuple(frozenset(s.tolist()) for s in np.split(both[:, 1], ends)[: self.n])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_rows.ravel(), minlength=self.n)


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Per-order simplex rows: ``simplices[p]`` is the read-only (n_p, p+1)
    int64 array of the p-simplices of each stored order p >= 1, each row its
    ascending nodes and the rows in lexicographic order. Any sequence of
    rows (tuples included) is accepted and stored as such an array.

    Downward closure is required: every (p-1)-face of a stored p-simplex
    with p - 1 >= 1 must itself be stored.
    """

    n: int
    simplices: dict[int, np.ndarray] = field(default_factory=dict)

    __eq__ = _fields_equal

    def __post_init__(self):
        stored = {}
        for p, rows in self.simplices.items():
            if p < 1:
                raise DataError(f"order {p} is not allowed")
            stored[p] = _simplex_rows(rows, p + 1, self.n, f"{p}-simplex")
        for p, rows in stored.items():
            if p == 1:
                continue
            cols = np.arange(p)  # face i of a row drops its column i
            faces = rows[:, cols + (cols >= np.arange(p + 1)[:, None])].reshape(-1, p)
            found = _in_sorted(_row_keys(stored.get(p - 1, rows[:0, 1:])), _row_keys(faces))
            if not found.all():
                j = found.argmin()
                face, row = faces[j].tolist(), rows[j // (p + 1)].tolist()
                raise DataError(f"missing face {face} of {row}: closure violated")
        object.__setattr__(self, "simplices", stored)

    def count(self, p: int) -> int:
        return len(self.simplices.get(p, ()))

    def counts(self) -> dict[int, int]:
        return {p: len(s) for p, s in sorted(self.simplices.items())}


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Node-by-simplex 0/1 incidence H_p for one petal order, stored as the
    member rows of its p-simplices.

    ``members`` is an (n_p, p+1) array whose row j holds the ascending nodes
    of the j-th p-simplex (in the complex's lexicographic order), so
    H_p[v, j] = 1 iff v is in row j. Node degrees d_p(u) in the core-petal
    bipartite graph are the counts of each node across the rows.
    """

    p: int
    n: int
    members: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        if self.p < 1:
            raise DataError("incidence order must be >= 1")
        members = _simplex_rows(self.members, self.p + 1, self.n, f"{self.p}-simplex")
        object.__setattr__(self, "members", members)

    @property
    def n_p(self) -> int:
        return len(self.members)

    def node_degrees(self) -> np.ndarray:
        """d_p(u): number of p-simplices containing each node."""
        return np.bincount(self.members.ravel(), minlength=self.n)


def node_count_header(path, text: str) -> int | None:
    """The count of a first-line "#n=<count>" header; None for any other
    comment. A count that is not a non-negative integer is a DataError."""
    if not text[1:].replace(" ", "").startswith("n="):
        return None
    bad = DataError(f"{path}:1: bad node-count header {text!r}")
    try:
        count = int(text.split("=", 1)[1])
    except ValueError:
        raise bad from None
    if count < 0:
        raise bad
    return count


def load_graph(
    edge_path, feature_path=None, label_path=None
) -> Graph:
    """Read a graph from an edge TSV plus optional feature/label CSVs.

    Edge rows are "u<TAB>v" (any whitespace accepted); an optional first
    line "#n=<count>" fixes the node count, otherwise n = 1 + max id.
    Self-loops are dropped (logged), duplicates collapsed.
    """
    edge_path = Path(edge_path)
    declared_n = None
    raw_edges: list[tuple[int, int]] = []
    dropped = 0
    with edge_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                if lineno == 1:
                    declared_n = node_count_header(edge_path, text)
                continue
            parts = text.split()
            if len(parts) != 2:
                raise DataError(f"{edge_path}:{lineno}: expected 'u<TAB>v', got {text!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(
                    f"{edge_path}:{lineno}: non-integer endpoint in {text!r}"
                ) from None
            if u < 0 or v < 0:
                raise DataError(f"{edge_path}:{lineno}: negative node id in {text!r}")
            if u == v:
                dropped += 1
                continue
            raw_edges.append((min(u, v), max(u, v)))
    if dropped:
        logger.warning("%s: dropped %d self-loop(s)", edge_path, dropped)
    max_id = max((v for _, v in raw_edges), default=-1)
    n = declared_n if declared_n is not None else max_id + 1
    if n < max_id + 1:
        raise DataError(f"{edge_path}: header n={n} smaller than max node id {max_id}")

    features = _load_feature_csv(feature_path, n) if feature_path else None
    labels = _load_label_csv(label_path, n) if label_path else None
    return Graph.from_edge_list(n, raw_edges, features, labels)


def _load_feature_csv(path, n: int) -> np.ndarray:
    path = Path(path)
    rows = []
    width = None
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                row = [float(tok) for tok in text.split(",")]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric feature value") from None
            if not all(map(math.isfinite, row)):
                raise DataError(f"{path}:{lineno}: non-finite feature value")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataError(f"{path}:{lineno}: ragged feature row")
            rows.append(row)
    if len(rows) != n:
        raise DataError(f"{path}: {len(rows)} feature rows for {n} nodes")
    return np.asarray(rows, dtype=np.float64)


def _load_label_csv(path, n: int) -> np.ndarray:
    path = Path(path)
    labels = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                labels.append(int(text))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer label") from None
    if len(labels) != n:
        raise DataError(f"{path}: {len(labels)} labels for {n} nodes")
    arr = np.asarray(labels, dtype=np.int64)
    if len(arr) and arr.min() < 0:
        raise DataError(f"{path}: negative label")
    return arr


def clique_lift(g: Graph, max_order: int = 2) -> SimplicialComplex:
    """Lift a graph to its clique complex up to the given order.

    ``simplices[p]`` holds every (p+1)-clique. Built by incremental
    extension on arrays: each p-clique row is grown by every forward
    neighbour (higher id) of its last node, and a candidate is kept when
    each earlier member forms an edge with it. This enumerates every clique
    once, and rows come out in lexicographic order.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    edges = g.edge_rows
    keys = edges[:, 0] * g.n + edges[:, 1]  # ascending, as the edges are sorted
    starts = np.searchsorted(edges[:, 0], np.arange(g.n + 1))  # forward-neighbour CSR
    simplices = {1: edges}
    rows = edges
    for p in range(2, max_order + 1):
        first = starts[rows[:, -1]]
        count = starts[rows[:, -1] + 1] - first
        parent = np.repeat(np.arange(len(rows)), count)
        shift = np.repeat(first - (np.cumsum(count) - count), count)
        grown = edges[np.arange(len(parent)) + shift, 1]
        keep = np.ones(len(grown), dtype=bool)
        for col in range(p - 1):  # the last member is adjacent by construction
            keep &= _in_sorted(keys, rows[parent, col] * g.n + grown)
        rows = np.concatenate([rows[parent[keep]], grown[keep, None]], axis=1)
        simplices[p] = rows
    return SimplicialComplex(g.n, simplices)


def incidence_matrix(k: SimplicialComplex, p: int) -> IncidenceMatrix:
    """Build H_p for a complex: entry (v, j) is 1 iff node v is in simplex j."""
    if p < 1 or p > max(k.simplices, default=0):
        raise ValueError(f"order {p} outside the complex's stored orders")
    return IncidenceMatrix(p, k.n, k.simplices.get(p, ()))
