"""Seeded input generators for the benchmark workloads, numpy only.

Nothing here imports flowerpetals, so a change to the package cannot change
the inputs it is measured on. Every generator draws a fixed number of
distinct edges, so the work a pipeline does varies little from seed to seed.
The module also derives the exact fields that outputs are checked against
(clique counts, degree sequences) with its own code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def pair_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Undirected pair keys lo * n + hi, self-loops dropped."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    return lo[keep] * n + hi[keep]


def _first_distinct(keys: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` distinct keys in draw order."""
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return keys[first[:m]]


def _fill(m: int, planted: np.ndarray, draw) -> np.ndarray:
    """Planted keys first, then keys from ``draw(k)`` until ``m`` are distinct."""
    keys = _first_distinct(planted, m)
    while len(keys) < m:
        more = draw(2 * (m - len(keys)) + 16)
        keys = _first_distinct(np.concatenate([keys, more]), m)
    return np.sort(keys)


def _clique_keys(rng, n: int, groups, n_cliques: int, size: int) -> np.ndarray:
    """Keys of ``n_cliques`` planted cliques, each inside one random group."""
    iu, ju = np.triu_indices(size, k=1)
    keys = [np.zeros(0, dtype=np.int64)]
    for g in rng.integers(len(groups), size=n_cliques):
        members = rng.choice(groups[g], size=size, replace=False)
        keys.append(pair_keys(n, members[iu], members[ju]))
    return np.concatenate(keys)


def er_keys(rng, n: int, m: int) -> np.ndarray:
    """G(n, m): ``m`` distinct uniform pairs."""
    return _fill(m, np.zeros(0, dtype=np.int64),
                 lambda k: pair_keys(n, rng.integers(n, size=k), rng.integers(n, size=k)))


def planted_keys(rng, n: int, m: int, clique_share: float, cross_share: float):
    """Two-block graph whose blocks hold planted 5-cliques.

    About ``clique_share`` of the ``m`` edges come from the cliques, which
    populate the higher petals; of the uniform rest, ``cross_share`` join
    the two blocks. Returns sorted pair keys and the 0/1 block labels.
    """
    labels = rng.permutation(np.arange(n) % 2)
    blocks = [np.flatnonzero(labels == c) for c in (0, 1)]
    planted = _clique_keys(rng, n, blocks, int(clique_share * m / 10), 5)

    def draw(k):
        u = rng.integers(n, size=k)
        target = np.where(rng.random(k) < cross_share, 1 - labels[u], labels[u])
        v = np.where(
            target == 0,
            blocks[0][rng.integers(len(blocks[0]), size=k)],
            blocks[1][rng.integers(len(blocks[1]), size=k)],
        )
        return pair_keys(n, u, v)

    return _fill(m, planted, draw), labels


def triangle_keys(rng, n: int, m: int, triangle_share: float) -> np.ndarray:
    """``m`` edges, about ``triangle_share`` of them from planted triangles."""
    planted = _clique_keys(rng, n, [np.arange(n)], int(triangle_share * m / 3), 3)
    return _fill(m, planted,
                 lambda k: pair_keys(n, rng.integers(n, size=k), rng.integers(n, size=k)))


def relabel(rng, n: int, keys: np.ndarray) -> np.ndarray:
    """The same graph under a random node permutation (an isomorphic twin)."""
    perm = rng.permutation(n)
    u, v = np.divmod(keys, n)
    return np.sort(pair_keys(n, perm[u], perm[v]))


def node_features(rng, labels: np.ndarray, d: int, shift: float) -> np.ndarray:
    """Gaussian features whose first quarter of columns is shifted by class."""
    x = rng.normal(size=(len(labels), d))
    x[:, : max(1, d // 4)] += shift * (2.0 * labels[:, None] - 1.0)
    return x


# ---------------------------------------------------------------------------
# files


def write_edges(path: Path, n: int, keys: np.ndarray) -> None:
    u, v = np.divmod(keys, n)
    body = "".join(f"{a}\t{b}\n" for a, b in zip(u.tolist(), v.tolist()))
    path.write_text(f"#n={n}\n{body}")


def write_features(path: Path, x: np.ndarray) -> None:
    np.savetxt(path, x, fmt="%.6f", delimiter=",")


def write_labels(path: Path, labels: np.ndarray) -> None:
    path.write_text("".join(f"{int(y)}\n" for y in labels))


def write_graph_dataset(path: Path, graphs: list[tuple[int, np.ndarray, int]]) -> None:
    """JSON lines of {"n", "edges", "label"}; no features."""
    with path.open("w") as fh:
        for n, keys, label in graphs:
            u, v = np.divmod(keys, n)
            edges = [[a, b] for a, b in zip(u.tolist(), v.tolist())]
            fh.write(json.dumps({"n": n, "edges": edges, "label": label}) + "\n")


def read_edge_keys(path: Path) -> tuple[int, np.ndarray]:
    """Node count and sorted keys of an edge TSV with a ``#n=`` header."""
    lines = path.read_text().split("\n")
    n = int(lines[0].split("=", 1)[1])
    pairs = np.array([line.split() for line in lines[1:] if line.strip()], dtype=np.int64)
    pairs = pairs.reshape(-1, 2)
    return n, np.sort(pair_keys(n, pairs[:, 0], pairs[:, 1]))


# ---------------------------------------------------------------------------
# exact reference fields


def degrees(n: int, keys: np.ndarray) -> np.ndarray:
    u, v = np.divmod(keys, n)
    return np.bincount(u, minlength=n) + np.bincount(v, minlength=n)


def clique_counts(n: int, keys: np.ndarray, max_order: int) -> dict[int, int]:
    """Number of (p+1)-cliques for p = 1..max_order.

    Grows each clique by common neighbours above its largest node, working
    on sorted neighbour arrays.
    """
    u, v = np.divmod(keys, n)
    starts = np.searchsorted(u, np.arange(n + 1))
    # keys are sorted, so v is ascending inside each u-run: the "up" lists
    up = [v[starts[i] : starts[i + 1]] for i in range(n)]
    # one entry per (p-1)-clique: its common neighbours above its largest node
    frontier = up
    counts = {}
    for p in range(1, max_order + 1):
        counts[p] = sum(len(cand) for cand in frontier)
        if p < max_order:
            frontier = [
                np.intersect1d(cand, up[w], assume_unique=True)
                for cand in frontier
                for w in cand.tolist()
            ]
    return counts
