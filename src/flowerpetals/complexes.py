"""Graphs, clique-complex lifting, and higher-order incidence matrices."""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import _fields_equal

__all__ = [
    "DataError",
    "Graph",
    "SimplicialComplex",
    "IncidenceMatrix",
    "CoauthorshipComplex",
    "load_graph",
    "load_coauthorship",
    "load_graph_dataset",
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
    at = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)  # past the end: the last key
    return keys[at] == queries if len(keys) else np.zeros(len(queries), dtype=bool)


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


@dataclass(frozen=True, eq=False)
class CoauthorshipComplex:
    """Simplicial complex with an integer signal on every simplex.

    ``signals[0]`` is the node-signal vector (length n); ``signals[p]``
    aligns with ``complex.simplices[p]``. Signals are finite and non-negative.
    """

    complex: SimplicialComplex
    signals: dict[int, np.ndarray]

    __eq__ = _fields_equal

    def __post_init__(self):
        sig = {p: np.array(v, dtype=np.float64) for p, v in self.signals.items()}
        if 0 not in sig or sig[0].shape != (self.complex.n,):
            raise DataError("node signals (order 0) of length n are required")
        for p, v in sig.items():
            if p == 0:
                continue
            if v.shape != (self.complex.count(p),):
                raise DataError(f"order-{p} signals misaligned with simplices")
        if not all(np.isfinite(v).all() and (v >= 0).all() for v in sig.values()):
            raise DataError("signals must be finite and non-negative")
        for v in sig.values():
            v.flags.writeable = False
        object.__setattr__(self, "signals", sig)

    @property
    def n(self) -> int:
        return self.complex.n

    @property
    def node_signals(self) -> np.ndarray:
        return self.signals[0]


def node_count_header(path, text: str) -> int | None:
    """The count of a "#n=<count>" header line; None for any other line. A
    count that is not an integer in 0..2**63-1 is a DataError."""
    if not text.startswith("#") or not text[1:].replace(" ", "").startswith("n="):
        return None
    bad = DataError(f"{path}:1: bad node-count header {text!r}")
    try:
        count = int(text.split("=", 1)[1])
    except ValueError:
        raise bad from None
    if count not in range(_INT64.stop):
        raise bad
    return count


@contextlib.contextmanager
def _open_text(path: Path):
    """``path`` open as UTF-8 text. A byte that does not decode is a DataError
    at ``path:line``; a forgiving second read finds the line, since the decoder
    reads ahead in chunks and fails before the lines in front are handed out."""
    try:
        with path.open(encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with path.open(encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
        raise


def _first_line(path: Path) -> str:
    with _open_text(path) as fh:
        return fh.readline().strip()


def _node_count(path, declared_n: int | None, max_id: int) -> int:
    """The header's node count, or 1 + the largest node id without one."""
    n = declared_n if declared_n is not None else max_id + 1
    if n < max_id + 1:
        raise DataError(f"{path}: header n={n} smaller than max node id {max_id}")
    return n


def _lines(path, comments: bool = False):
    """(line number, stripped text) of each non-blank line; with
    ``comments``, lines starting with "#" are skipped too."""
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if (text := line.strip()) and not (comments and text.startswith("#")):
                yield lineno, text


def load_graph(edge_path, feature_path=None, label_path=None) -> Graph:
    """Read a graph from an edge TSV plus optional feature/label CSVs.

    Edge rows are "u<TAB>v" (any whitespace accepted); an optional first
    line "#n=<count>" fixes the node count, otherwise n = 1 + max id, and
    "#" lines are skipped. Self-loops are dropped (logged), duplicates
    collapsed. Each file is one table in numpy's grammar (:func:`_read_table`).
    """
    edge_path = Path(edge_path)
    first = _first_line(edge_path)
    declared_n = node_count_header(edge_path, first)
    rows = _read_table(edge_path, np.int64, _edge_fault, width=2, comments=True,
                       skiprows=int(first.startswith("#"))).reshape(-1, 2)
    if rows.max(initial=-1) >= _MAX_KEY_WIDTH:  # past Graph.from_edge_list's int64 keys
        row = (rows >= _MAX_KEY_WIDTH).any(axis=1).argmax()  # row i is the i-th data line
        lineno, text = next(itertools.islice(_lines(edge_path, True), row, None))
        raise DataError(f"{edge_path}:{lineno}: node id too large for int64 edge keys in {text!r}")
    loops = rows[:, 0] == rows[:, 1]
    if loops.any():
        logger.warning("%s: dropped %d self-loop(s)", edge_path, loops.sum())
        rows = rows[~loops]
    n = _node_count(edge_path, declared_n, int(rows.max(initial=-1)))

    features = _load_feature_csv(Path(feature_path), n) if feature_path else None
    labels = _load_label_csv(Path(label_path), n) if label_path else None
    return Graph.from_edge_list(n, rows, features, labels)


def _loadtxt(source, dtype, delimiter=None, skiprows=0) -> np.ndarray | None:
    """numpy's parse of ``source`` as one (rows, fields) table; None if numpy
    refuses it. With no comment character a stray "#" is refused, not cut off,
    and "3.7" in an int column is refused where older numpy would truncate it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's "input contained no data"
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        try:
            return np.loadtxt(source, dtype, comments=None, delimiter=delimiter,
                              skiprows=skiprows, ndmin=2)
        except ValueError:
            return None


def _first_bad_row(table: np.ndarray, width: int) -> int | None:
    """The index of the first row of the wrong width, with a negative
    integer, or with a non-finite float; None if every row is good."""
    if len(table) and table.shape[1] != width:
        return 0
    bad = table < 0 if table.dtype.kind == "i" else ~np.isfinite(table)
    # whole-array reductions: a row-wise any() of a two-column table takes 20x as long
    return bad.argmax() // width if bad.any() else None


def _read_table(path, dtype, fault, width=None, delimiter=None, comments=False,
                skiprows=0) -> np.ndarray:
    """The data lines of a table file (blank lines skipped, and "#" lines with
    ``comments``) as one array of rows ``width`` fields wide (by default the
    first row's), of non-negative integers or finite floats. numpy reads the
    file directly, skipping ``skiprows`` lines, and only if it refuses, again
    from the data lines. The first bad row, or the first line numpy refuses
    alone, is a DataError at ``path:line`` saying ``fault(text, row)``, where
    ``row`` is numpy's parse of that line alone (None if refused)."""
    with _open_text(path) as fh:
        table = _loadtxt(fh, dtype, delimiter, skiprows)
    if table is None:
        table = _loadtxt([text for _, text in _lines(path, comments)], dtype, delimiter)
    start = 0
    if table is not None:
        width = width or table.shape[1]
        start = _first_bad_row(table, width)  # row i is the i-th data line
        if start is None:
            return table
    for lineno, text in itertools.islice(_lines(path, comments), start, None):
        row = _loadtxt([text], dtype, delimiter)
        if row is None or _first_bad_row(row, width or row.shape[1]) is not None:
            raise DataError(f"{path}:{lineno}: {fault(text, row)}")
        width = width or row.shape[1]


_INTEGER = re.compile("[+-]?[0-9]+")  # numpy's int64 grammar, whatever the range


def _edge_fault(text, row) -> str:
    # the line's own whitespace fields, which numpy splits the same way; a
    # numpy str parse would drop a trailing NUL
    cells = text.split()
    if len(cells) != 2:
        return f"expected 'u<TAB>v', got {text!r}"
    if not all(map(_INTEGER.fullmatch, cells)):
        return f"non-integer endpoint in {text!r}"
    if any(cell[0] == "-" and cell.strip("-0") for cell in cells):
        return f"negative node id in {text!r}"
    return f"node id past the int64 range in {text!r}"


def _load_feature_csv(path: Path, n: int) -> np.ndarray:
    feats = _read_table(path, np.float64, _feature_fault, delimiter=",")
    if len(feats) != n:
        raise DataError(f"{path}: {len(feats)} feature rows for {n} nodes")
    return feats


def _feature_fault(text, row) -> str:
    if row is None:
        return "non-numeric feature value"
    return "ragged feature row" if np.isfinite(row).all() else "non-finite feature value"


def _load_label_csv(path: Path, n: int) -> np.ndarray:
    labels = _read_table(path, np.int64, _label_fault, width=1)[:, 0]
    if len(labels) != n:
        raise DataError(f"{path}: {len(labels)} labels for {n} nodes")
    return labels


def _label_fault(text, row) -> str:
    if row is not None and row.shape[1] == 1:
        return f"negative label {row[0, 0]}"
    if row is None and _INTEGER.fullmatch(text):
        return "label past the int64 range"
    return "non-integer label"


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
    declared_n = node_count_header(path, _first_line(path))
    max_node = -1
    for lineno, text in _lines(path, comments=True):
        parts = text.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'order<TAB>nodes<TAB>signal'")
        try:
            # as in the tables, no "_" digit separator and no non-ASCII digit, anywhere
            if "_" in text or not "".join(text.split()).isascii():
                raise ValueError(f"not a number in {text!r}")
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
    n = _node_count(path, declared_n, max_node)
    node_ids = np.array(rows.pop(0, []), dtype=np.int64).ravel()
    try:
        node_vector = np.bincount(node_ids, signals.pop(0, []), minlength=n)
    except (MemoryError, ValueError, OverflowError):
        raise DataError(f"{path}: the signals of {n} nodes do not fit in memory") from None
    orders, sums = _close_downward(rows, signals)
    return CoauthorshipComplex(SimplicialComplex(n, orders), {0: node_vector, **sums})


def _feature_columns(g: Graph) -> str:
    return "no features" if g.features is None else f"{g.features.shape[1]} feature columns"


def load_graph_dataset(path) -> tuple[list[Graph], np.ndarray]:
    """JSON-lines dataset: one object per graph with an integer n, integer
    edge endpoints, a non-negative integer label, and optional finite
    features, which every record gives at one width or none gives.
    Returns the graphs and their int64 labels."""
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
        if len(rows):
            first = starts[rows[:, -1]]
            count = starts[rows[:, -1] + 1] - first
            parent = np.repeat(np.arange(len(rows)), count)
            shift = np.repeat(first - (np.cumsum(count) - count), count)
            grown = edges[np.arange(len(parent)) + shift, 1]
            keep = np.ones(len(grown), dtype=bool)
            for col in range(p - 1):  # the last member is adjacent by construction
                keep &= _in_sorted(keys, rows[parent, col] * g.n + grown)
            rows = np.concatenate([rows[parent[keep]], grown[keep, None]], axis=1)
        else:  # no (p+1)-clique without a p-clique
            rows = np.zeros((0, p + 1), dtype=np.int64)
        rows.flags.writeable = False
        simplices[p] = rows
    return SimplicialComplex._unchecked(g.n, simplices)


def incidence_matrix(k: SimplicialComplex, p: int) -> IncidenceMatrix:
    """Build H_p for a complex: entry (v, j) is 1 iff node v is in simplex j."""
    if p < 1 or p > max(k.simplices, default=0):
        raise ValueError(f"order {p} outside the complex's stored orders")
    return IncidenceMatrix(p, k.n, k.simplices.get(p, ()))
