"""The per-line readers of edge TSVs, feature and label CSVs and
coauthorship TSVs that ``complexes.load_graph`` and
``tasks.load_coauthorship`` must agree with.

Each reader walks its file line by line with Python's ``int`` and
``float``, so it states the file formats: blank lines skipped, ``#`` lines
skipped as comments in an edge or coauthorship file (a first-line
``#n=<count>`` header fixes the node count), and every other line parsed or
rejected with a ``DataError`` naming ``path:line``. ``load_graph`` parses
whole files with numpy, and ``load_coauthorship`` closes its complex on
arrays; each must return an equal value or raise the same error.
``outcome`` puts either result in one comparable value.
"""

import math
from pathlib import Path

import numpy as np

from flowerpetals.complexes import DataError, Graph, SimplicialComplex, node_count_header
from flowerpetals.tasks import CoauthorshipComplex


def canonical_graph(n, edges, features=None, labels=None) -> Graph:
    """``Graph.from_edge_list`` by a row sort: orient, ``lexsort``, dedup."""
    rows = np.sort(np.asarray(list(edges)), axis=-1)
    if rows.ndim == 2 and rows.shape[1] == 2:
        rows = rows[np.lexsort(rows.T[::-1])]
        rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    return Graph(n, tuple(zip(*rows.T.tolist())), features, labels)


def load_graph(edge_path, feature_path=None, label_path=None) -> Graph:
    edge_path = Path(edge_path)
    declared_n = None
    raw_edges: list[tuple[int, int]] = []
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
                continue
            raw_edges.append((min(u, v), max(u, v)))
    max_id = max((v for _, v in raw_edges), default=-1)
    n = declared_n if declared_n is not None else max_id + 1
    if n < max_id + 1:
        raise DataError(f"{edge_path}: header n={n} smaller than max node id {max_id}")

    features = load_feature_csv(feature_path, n) if feature_path else None
    labels = load_label_csv(label_path, n) if label_path else None
    return canonical_graph(n, raw_edges, features, labels)


def load_feature_csv(path, n: int) -> np.ndarray:
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


def load_label_csv(path, n: int) -> np.ndarray:
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


def close_downward(simplices: dict[int, dict[tuple, float]]) -> tuple[dict, dict]:
    """Add every missing face, down to order 1, with signal 0; return each
    order's simplices in lexicographic order and their signals."""
    for p in range(max(simplices, default=0), 1, -1):
        for s in list(simplices.get(p, ())):
            for i in range(p + 1):
                simplices.setdefault(p - 1, {}).setdefault(s[:i] + s[i + 1 :], 0.0)
    orders = {p: sorted(table) for p, table in sorted(simplices.items())}
    signals = {p: np.array([simplices[p][s] for s in rows]) for p, rows in orders.items()}
    return orders, signals


def load_coauthorship(path) -> CoauthorshipComplex:
    path = Path(path)
    node_signals: dict[int, float] = {}
    raw: dict[int, dict[tuple, float]] = {}
    declared_n = None
    max_node = -1
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                if lineno == 1:
                    declared_n = node_count_header(path, text)
                continue
            parts = text.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 'order<TAB>nodes<TAB>signal'")
            try:
                order = int(parts[0])
                nodes = tuple(sorted(int(tok) for tok in parts[1].split(",")))
                signal = float(parts[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed line {text!r}") from None
            if not math.isfinite(signal) or signal < 0:
                raise DataError(f"{path}:{lineno}: signal must be finite and non-negative")
            if len(nodes) != order + 1 or len(set(nodes)) != len(nodes):
                raise DataError(
                    f"{path}:{lineno}: a {order}-simplex needs {order + 1} distinct nodes"
                )
            if nodes[0] < 0:
                raise DataError(f"{path}:{lineno}: negative node id in {text!r}")
            if nodes[-1] >= 2**63:
                raise DataError(f"{path}:{lineno}: node id past the int64 range in {text!r}")
            max_node = max(max_node, nodes[-1])
            if order == 0:
                node_signals[nodes[0]] = node_signals.get(nodes[0], 0.0) + signal
            elif signal > 2:  # occasional collaborations are dropped as noise
                table = raw.setdefault(order, {})
                table[nodes] = table.get(nodes, 0.0) + signal
    n = declared_n if declared_n is not None else max_node + 1
    if n < max_node + 1:
        raise DataError(f"{path}: header n={n} smaller than max node id {max_node}")
    node_vector = np.zeros(n)
    node_vector[list(node_signals)] = list(node_signals.values())
    orders, signals = close_downward(raw)
    signals[0] = node_vector
    return CoauthorshipComplex(SimplicialComplex(n, orders), signals)


EDGES_FOR_TABLES = "0 1\n1 2\n"


def outcome(load, *paths):
    """The graph a loader returns, or the text of the DataError it raises."""
    try:
        return load(*paths)
    except DataError as exc:
        return f"DataError: {exc}"


def write(path, text):
    path.write_text(text, newline="")
    return path


def table_files(tmp_path, kind, text) -> list:
    """The files one load reads: an edge file with ``text`` alone, or a
    feature or label file with ``text`` next to good ones (n = 3)."""
    files = {"edges": EDGES_FOR_TABLES, "features": "1,2\n0,0\n1,1\n", "labels": "0\n1\n1\n"}
    files[kind] = text
    keys = ["edges"] if kind == "edges" else ["edges", "features", "labels"]
    return [write(tmp_path / key, files[key]) for key in keys]
