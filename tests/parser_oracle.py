"""The per-line readers of edge TSVs and feature and label CSVs that
``complexes.load_graph`` must agree with.

Each reader walks its file line by line with Python's ``int`` and
``float``, so it states the file formats: blank lines skipped, ``#`` lines
skipped as comments in an edge file (a first-line ``#n=<count>`` header
fixes the node count), and every other line parsed or rejected with a
``DataError`` naming ``path:line``. ``load_graph`` parses whole files with
numpy and must return an equal ``Graph`` or raise the same error;
``outcome`` puts either result in one comparable value.
"""

import math
from pathlib import Path

import numpy as np

from flowerpetals.complexes import DataError, Graph, node_count_header


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
