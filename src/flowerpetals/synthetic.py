"""Seeded generators for desk-scale experiments and tests."""

from __future__ import annotations

import numpy as np

from .complexes import CoauthorshipComplex, Graph, SimplicialComplex, _close_downward

# distinct stream tags so a generator never replays the byte stream of a
# downstream consumer (splits, inits) seeded with the same bare seed
_STREAM_ER = 101
_STREAM_BLOCK = 102
_STREAM_TRIANGLE = 103
_STREAM_GRAPHSET = 104
_STREAM_COAUTHOR = 105

__all__ = [
    "er_graph",
    "planted_two_block",
    "triangle_task",
    "triangles_vs_hexagons",
    "coauthorship_complex",
]


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p)."""
    rng = np.random.default_rng((seed, _STREAM_ER))
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    edges = tuple(zip(iu[keep].tolist(), ju[keep].tolist()))
    return Graph(n, edges)


def planted_two_block(
    n: int, p_in: float = 0.3, p_out: float = 0.02, seed: int = 0
) -> Graph:
    """Two equal communities with block-indicator features and block labels."""
    rng = np.random.default_rng((seed, _STREAM_BLOCK))
    half = n // 2
    labels = np.array([0] * half + [1] * (n - half), dtype=np.int64)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(len(iu)) < prob
    edges = tuple(zip(iu[keep].tolist(), ju[keep].tolist()))
    features = np.zeros((n, 2))
    features[np.arange(n), labels] = 1.0
    return Graph(n, edges, features, labels)


def _cycle(k: int) -> list[tuple[int, int]]:
    return [(min(i, (i + 1) % k), max(i, (i + 1) % k)) for i in range(k)]


def triangle_task(noise_dims: int = 3, seed: int = 0) -> Graph:
    """Node task where only order-2 structure carries the label.

    Disjoint components of fixed counts: 20 triangles (label 1), 23 hexagons
    and one single edge (label 0), so n = 200 with a 0.30/0.70 class split.
    Features are one all-ones column plus ``noise_dims`` per-component
    constant noise columns. Because every petal operator is
    row-stochastic on its support, component-constant columns pass through
    order-1 filtering unchanged, so the order-1 view of a node carries no
    label information beyond what the noise fingerprint leaks through a
    transductive split; with ``noise_dims=0`` the order-1 view is the same
    constant for every node and carries none at all. The order-2 petal
    turns the all-ones column into an exact triangle-membership indicator.
    """
    rng = np.random.default_rng((seed, _STREAM_TRIANGLE))
    components = [(3, _cycle(3), 1)] * 20 + [(6, _cycle(6), 0)] * 23 + [(2, [(0, 1)], 0)]
    edges = []
    labels = []
    component_id = []
    offset = 0
    for cid, (size, pattern, label) in enumerate(components):
        edges.extend((offset + u, offset + v) for u, v in pattern)
        labels.extend([label] * size)
        component_id.extend([cid] * size)
        offset += size
    n = offset
    labels = np.asarray(labels, dtype=np.int64)
    component_id = np.asarray(component_id, dtype=np.int64)

    if noise_dims:
        eta = rng.normal(size=(len(components), noise_dims))
        features = np.hstack([np.ones((n, 1)), eta[component_id]])
    else:
        features = np.ones((n, 1))

    perm = rng.permutation(n)
    inv = np.argsort(perm)
    edges = perm[np.array(edges, dtype=np.int64)]
    return Graph.from_edge_list(n, edges, features[inv], labels[inv])


def triangles_vs_hexagons(
    per_class: int = 20, seed: int = 0
) -> tuple[list[Graph], np.ndarray]:
    """Graph classification toy set: K3 components vs C6 components."""
    rng = np.random.default_rng((seed, _STREAM_GRAPHSET))
    graphs = []
    labels = []
    for _ in range(per_class):
        graphs.append(Graph(3, ((0, 1), (0, 2), (1, 2))))
        labels.append(0)
        graphs.append(Graph.from_edge_list(6, _cycle(6)))
        labels.append(1)
    order = rng.permutation(len(graphs))
    return [graphs[i] for i in order], np.asarray(labels, dtype=np.int64)[order]


def coauthorship_complex(
    n_authors: int = 600,
    community_size: int = 30,
    papers_per_community: int = 45,
    seed: int = 0,
) -> CoauthorshipComplex:
    """Synthetic coauthorship complex with structure-correlated node signals.

    Papers are small author groups drawn within communities (sizes 2-4,
    repeat collaborations boost the paper's count); an author's node signal
    is a community productivity base plus their total collaboration count
    plus Poisson noise of fixed mean 6. Coauthors share the community base,
    so the signal is smooth over the flower-petals structure without being a
    deterministic function of it.
    """
    if n_authors % community_size:
        raise ValueError("n_authors must be a multiple of community_size")
    rng = np.random.default_rng((seed, _STREAM_COAUTHOR))
    rows: dict[int, list] = {}
    counts: dict[int, list] = {}
    totals = np.zeros(n_authors)
    for start in range(0, n_authors, community_size):
        community = np.arange(start, start + community_size)
        totals[community] += rng.uniform(5.0, 45.0)
        # heavier authors collaborate more often
        weight = rng.exponential(1.0, size=community_size)
        weight /= weight.sum()
        for _ in range(papers_per_community):
            size = int(rng.choice([2, 3, 4], p=[0.55, 0.3, 0.15]))
            members = np.sort(rng.choice(community, size=size, replace=False, p=weight))
            count = float(rng.integers(1, 5))
            rows.setdefault(size - 1, []).append(members)
            counts.setdefault(size - 1, []).append(count)
            for m in members:
                totals[m] += count

    orders, signals = _close_downward(rows, counts)
    node_signals = np.floor(totals + rng.poisson(6.0, size=n_authors))
    signals[0] = node_signals.astype(np.float64)
    return CoauthorshipComplex(SimplicialComplex(n_authors, orders), signals)
