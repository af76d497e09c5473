"""Graphs, clique-complex lifting, and higher-order incidence matrices."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

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


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with optional node features and labels.

    Edges are (u, v) pairs with u < v, deduplicated and lexicographically
    sorted; no self-loops.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise DataError(f"self-loop at node {u}")
            if not (0 <= u < v < self.n):
                raise DataError(f"edge ({u}, {v}) out of range for n={self.n}")
            if (u, v) in seen:
                raise DataError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if tuple(sorted(self.edges)) != self.edges:
            raise DataError("edges must be lexicographically sorted")
        if self.features is not None:
            feats = np.array(self.features, dtype=np.float64, order="C")
            if feats.ndim != 2 or feats.shape[0] != self.n:
                raise DataError(f"features must be n x d, got {feats.shape}")
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
        canon = {(min(u, v), max(u, v)) for u, v in edges}
        return cls(n, tuple(sorted(canon)), features, labels)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        neigh = [set() for _ in range(self.n)]
        for u, v in self.edges:
            neigh[u].add(v)
            neigh[v].add(u)
        return tuple(frozenset(s) for s in neigh)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.array([len(s) for s in self.adjacency], dtype=np.int64)


@dataclass(frozen=True)
class SimplicialComplex:
    """Per-order simplex lists: ``simplices[p]`` are the p-simplices as
    sorted node tuples in lexicographic order, for p = 1..max_order.

    Downward closure is required: every (p-1)-face of a stored p-simplex
    with p - 1 >= 1 must itself be stored.
    """

    n: int
    simplices: dict[int, tuple[tuple[int, ...], ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "simplices", dict(self.simplices))
        for p, simps in self.simplices.items():
            if p < 1:
                raise DataError(f"order {p} is not allowed")
            prev = None
            for s in simps:
                if len(s) != p + 1 or tuple(sorted(set(s))) != s:
                    raise DataError(f"{s} is not a sorted {p}-simplex")
                if not (0 <= s[0] and s[-1] < self.n):
                    raise DataError(f"simplex {s} out of range for n={self.n}")
                if prev is not None and s <= prev:
                    raise DataError("simplices must be sorted and duplicate-free")
                prev = s
        for p in sorted(self.simplices):
            if p == 1:
                continue
            faces = set(self.simplices.get(p - 1, ()))
            for s in self.simplices[p]:
                for i in range(p + 1):
                    if s[:i] + s[i + 1 :] not in faces:
                        raise DataError(f"missing face of {s}: closure violated")

    @property
    def max_order(self) -> int:
        return max((p for p, s in self.simplices.items() if s), default=0)

    def count(self, p: int) -> int:
        return len(self.simplices.get(p, ()))

    def counts(self) -> dict[int, int]:
        return {p: len(s) for p, s in sorted(self.simplices.items())}


@dataclass(frozen=True)
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

    def __post_init__(self):
        if self.p < 1:
            raise DataError("incidence order must be >= 1")
        members = np.array(self.members, dtype=np.int64)
        if members.ndim != 2 or members.shape[1] != self.p + 1:
            raise DataError(f"every simplex must have exactly {self.p + 1} nodes")
        if members.size and (members.min() < 0 or members.max() >= self.n):
            raise DataError(f"simplex node out of range for n={self.n}")
        if np.any(members[:, 1:] <= members[:, :-1]):
            raise DataError("simplex nodes must be strictly ascending")
        members.flags.writeable = False
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
    return Graph(n, tuple(sorted(set(raw_edges))), features, labels)


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
    extension: each p-clique is grown by a node adjacent to all members
    with id above the clique's max, which enumerates every clique once.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    adj = g.adjacency
    simplices: dict[int, tuple[tuple[int, ...], ...]] = {1: g.edges}
    current = g.edges
    for p in range(2, max_order + 1):
        grown = []
        for clique in current:
            candidates = set(adj[clique[0]])
            for member in clique[1:]:
                candidates &= adj[member]
            for w in sorted(candidates):
                if w > clique[-1]:
                    grown.append(clique + (w,))
        simplices[p] = tuple(grown)
        current = simplices[p]
    return SimplicialComplex(g.n, simplices)


def incidence_matrix(k: SimplicialComplex, p: int) -> IncidenceMatrix:
    """Build H_p for a complex: entry (v, j) is 1 iff node v is in simplex j."""
    if p < 1 or p > max(k.simplices, default=0):
        raise ValueError(f"order {p} outside the complex's stored orders")
    members = np.array(k.simplices.get(p, ()), dtype=np.int64).reshape(-1, p + 1)
    return IncidenceMatrix(p, k.n, members)
