"""Graphs, clique-complex lifting, and higher-order incidence matrices."""

from __future__ import annotations

import logging
import math
import warnings
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


_INT64 = range(-(2**63), 2**63)
_MAX_KEY_WIDTH = math.isqrt(_INT64.stop - 1)  # w * w stays within int64


def _in_sorted(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each query occurs in the ascending ``keys``."""
    return np.searchsorted(keys, queries, "right") > np.searchsorted(keys, queries)


def _faces(rows: np.ndarray) -> np.ndarray:
    """The p+1 faces of each row of p+1 nodes, row by row: face i drops
    column i, so an ascending row gives ascending faces."""
    p = rows.shape[1] - 1
    cols = np.arange(p)
    return rows[:, cols + (cols >= np.arange(p + 1)[:, None])].reshape(-1, p)


def _close_downward(rows: dict[int, list], signals: dict[int, list]) -> tuple[dict, dict]:
    """Merge and close signed simplices: ``rows[p]`` holds at least one row
    of p+1 ascending int64 nodes, duplicates allowed, and ``signals[p]`` one
    value per row. Every order from the top one down to 1 gets the faces of
    the order above with signal 0, and its duplicates merged with their
    signals summed in row order. Returns each order's rows, in
    lexicographic order, and their signals."""
    top, closed, sums = max(rows, default=0), {}, {}
    faces = np.zeros((0, top + 1), dtype=np.int64)
    for p in range(top, 0, -1):
        stacked = np.concatenate([rows.get(p, faces[:0]), faces])
        weights = np.concatenate([signals.get(p, ()), np.zeros(len(faces))])
        _, first, slot = np.unique(_row_keys(stacked), return_index=True, return_inverse=True)
        closed[p] = stacked[first]
        sums[p] = np.bincount(slot, weights)
        faces = _faces(closed[p])
    return dict(sorted(closed.items())), dict(sorted(sums.items()))


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with optional node features and labels.

    ``edges`` is the read-only (m, 2) int64 array of the pairs u < v, with
    no duplicates or self-loops, in lexicographic order. Any sequence of
    pairs is accepted and stored as such an array.
    """

    n: int
    edges: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "edges", _simplex_rows(self.edges, 2, self.n, "edge"))
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
        """Canonicalize an (m, 2) array or iterable of (u, v) pairs: orient, then
        dedup and sort by one ``np.unique`` of int64 keys u * w + v, w = 1 + max id."""
        rows = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if rows.dtype.kind in "iu" and rows.shape[1:] == (2,) and rows.min(initial=0) >= 0:
            width = int(rows.max(initial=-1)) + 1
            if width > _MAX_KEY_WIDTH:
                raise DataError(f"node id {width - 1} is too large for int64 edge keys")
            lo, hi = rows.min(axis=1).astype(np.int64), rows.max(axis=1).astype(np.int64)
            _, first = np.unique(lo * width + hi, return_index=True)
            rows = np.stack([lo[first], hi[first]], axis=1)
        return cls(n, rows, features, labels)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        both = np.concatenate([self.edges, self.edges[:, ::-1]])
        both = both[np.argsort(both[:, 0], kind="stable")]
        ends = np.cumsum(self.degrees())
        return tuple(frozenset(s.tolist()) for s in np.split(both[:, 1], ends)[: self.n])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


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
            faces = _faces(rows)
            found = _in_sorted(_row_keys(stored.get(p - 1, rows[:0, 1:])), _row_keys(faces))
            if not found.all():
                j = found.argmin()
                face, row = faces[j].tolist(), rows[j // (p + 1)].tolist()
                raise DataError(f"missing face {face} of {row}: closure violated")
        object.__setattr__(self, "simplices", stored)

    @classmethod
    def _unchecked(cls, n: int, simplices: dict) -> "SimplicialComplex":
        """A complex of stored-form, closed rows, as ``clique_lift`` builds: no re-check."""
        k = object.__new__(cls)
        k.__dict__.update(n=n, simplices=simplices)
        return k

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
    comment. A count that is not an integer in 0..2**63-1 is a DataError."""
    if not text[1:].replace(" ", "").startswith("n="):
        return None
    bad = DataError(f"{path}:1: bad node-count header {text!r}")
    try:
        count = int(text.split("=", 1)[1])
    except ValueError:
        raise bad from None
    if count not in range(_INT64.stop):
        raise bad
    return count


def load_graph(
    edge_path, feature_path=None, label_path=None
) -> Graph:
    """Read a graph from an edge TSV plus optional feature/label CSVs.

    Edge rows are "u<TAB>v" (any whitespace accepted); an optional first
    line "#n=<count>" fixes the node count, otherwise n = 1 + max id.
    Self-loops are dropped (logged), duplicates collapsed. numpy parses each
    file whole; a per-line scan reads what it refuses (such as "#" comments
    below line 1, or "1_0") and names the line of any error.
    """
    edge_path = Path(edge_path)
    with edge_path.open() as fh:
        first = fh.readline().strip()
    declared_n = node_count_header(edge_path, first) if first.startswith("#") else None
    rows = _read_table(edge_path, np.int64, skiprows=int(first.startswith("#")))
    if rows is None or rows.shape[1] != 2 or rows.min() < 0:
        rows = _scan_edges(edge_path)
    loops = rows[:, 0] == rows[:, 1]
    if loops.any():
        logger.warning("%s: dropped %d self-loop(s)", edge_path, loops.sum())
        rows = rows[~loops]
    max_id = int(rows.max(initial=-1))
    n = declared_n if declared_n is not None else max_id + 1
    if n < max_id + 1:
        raise DataError(f"{edge_path}: header n={n} smaller than max node id {max_id}")

    features = _load_feature_csv(feature_path, n) if feature_path else None
    labels = _load_label_csv(label_path, n) if label_path else None
    return Graph.from_edge_list(n, rows, features, labels)


def _read_table(path, dtype, **loadtxt_args) -> np.ndarray | None:
    """A file as one (rows, fields) array from one numpy pass; None when numpy
    refuses a line or finds no rows, for the caller's per-line scan to judge.
    With no comment character a stray "#" is refused, not cut off, and "3.7"
    in an int column is refused where numpy releases that warn would truncate it."""
    with path.open() as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's "input contained no data"
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        try:
            table = np.loadtxt(fh, dtype, comments=None, ndmin=2, **loadtxt_args)
        except ValueError:
            return None
    return table if table.size else None


def _lines(path):
    """(line number, stripped text) of each non-blank line."""
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if text := line.strip():
                yield lineno, text


def _scan_edges(path) -> np.ndarray:
    rows = []
    for lineno, text in _lines(path):
        if text.startswith("#"):  # the header, checked by load_graph, or a comment
            continue
        parts = text.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'u<TAB>v', got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer endpoint in {text!r}") from None
        if u < 0 or v < 0:
            raise DataError(f"{path}:{lineno}: negative node id in {text!r}")
        if u not in _INT64 or v not in _INT64:
            raise DataError(f"{path}:{lineno}: node id past the int64 range in {text!r}")
        rows.append((u, v))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _load_feature_csv(path, n: int) -> np.ndarray:
    path = Path(path)
    feats = _read_table(path, np.float64, delimiter=",")
    if feats is None or not np.isfinite(feats).all():
        feats = []
        for lineno, text in _lines(path):
            try:
                row = [float(tok) for tok in text.split(",")]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric feature value") from None
            if not all(map(math.isfinite, row)):
                raise DataError(f"{path}:{lineno}: non-finite feature value")
            if feats and len(row) != len(feats[0]):
                raise DataError(f"{path}:{lineno}: ragged feature row")
            feats.append(row)
        feats = np.asarray(feats, dtype=np.float64)
    if len(feats) != n:
        raise DataError(f"{path}: {len(feats)} feature rows for {n} nodes")
    return feats


def _load_label_csv(path, n: int) -> np.ndarray:
    path = Path(path)
    labels = _read_table(path, np.int64)
    if labels is not None and labels.shape[1] == 1:
        labels = labels[:, 0]
    else:
        labels = []
        for lineno, text in _lines(path):
            try:
                labels.append(int(text))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer label") from None
            if labels[-1] not in _INT64:
                raise DataError(f"{path}:{lineno}: label past the int64 range")
        labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != n:
        raise DataError(f"{path}: {len(labels)} labels for {n} nodes")
    if len(labels) and labels.min() < 0:
        raise DataError(f"{path}: negative label")
    return labels


def clique_lift(g: Graph, max_order: int = 2) -> SimplicialComplex:
    """Lift a graph to its clique complex up to the given order.

    ``simplices[p]`` holds every (p+1)-clique. Built by incremental
    extension on arrays: each p-clique row is grown by every forward
    neighbour (higher id) of its last node, and a candidate is kept when
    each earlier member forms an edge with it. This enumerates every clique
    once, and rows come out in lexicographic order, so the complex skips
    the re-check of outside rows (a property test holds the lift to it).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    edges = g.edges
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
        rows.flags.writeable = False
        simplices[p] = rows
    return SimplicialComplex._unchecked(g.n, simplices)


def incidence_matrix(k: SimplicialComplex, p: int) -> IncidenceMatrix:
    """Build H_p for a complex: entry (v, j) is 1 iff node v is in simplex j."""
    if p < 1 or p > max(k.simplices, default=0):
        raise ValueError(f"order {p} outside the complex's stored orders")
    return IncidenceMatrix(p, k.n, k.simplices.get(p, ()))
