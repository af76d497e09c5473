"""Degree-preserving 1k null-model rewiring that steers triangle density.

One accepted rewire finds a chain D-B-A-C-E (B, C non-adjacent neighbors
of A; D and E neighbors of B and C respectively, outside A's neighborhood
and non-adjacent to each other), breaks [B,D] and [C,E], and adds [B,C]
and [D,E]. Node count, edge count, and the full degree sequence are
invariant. A candidate chain is accepted only when the move strictly
raises the triangle count (the new triangle [A,B,C] always appears, but
removed edges may have carried triangles of their own, so the net gain is
checked explicitly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import Graph, SimplicialComplex, clique_lift

__all__ = [
    "SaturationError",
    "RewireLog",
    "rewire_add_triangle",
    "relative_density",
    "rewire_to_target",
    "triangle_count",
]


class SaturationError(RuntimeError):
    """No valid rewiring chain found within the attempt budget.

    Carries whatever was achieved before saturation: ``graph``, ``log``,
    and (for targeted runs) ``achieved_rho2``.
    """

    def __init__(self, message, graph=None, log=None, achieved_rho2=None):
        super().__init__(message)
        self.graph = graph
        self.log = log
        self.achieved_rho2 = achieved_rho2


@dataclass
class RewireLog:
    """Accepted chains as (A, B, C, D, E) tuples, the attempt counter, and
    the triangle density gain rho_2 reached after the last accepted chain."""

    accepted: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    attempts: int = 0
    achieved_rho2: float = 0.0


def triangle_count(g: Graph) -> int:
    """The number of triangles (2-simplices) of ``g``."""
    return clique_lift(g, 2).count(2)


def _adjacency_sets(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges.tolist():
        adj[u].add(v), adj[v].add(u)
    return adj


def _graph_from_sets(g: Graph, adj: list[set[int]]) -> Graph:
    edges = [(u, v) for u in range(g.n) for v in adj[u] if u < v]
    return Graph.from_edge_list(g.n, edges, g.features, g.labels)


def _choice(rng: np.random.Generator, candidates):
    return candidates[int(rng.integers(len(candidates)))]


def _centres(adj) -> list[int]:
    """The nodes of degree at least 2, the possible chain centres A. A move
    keeps every degree, so the list holds for a whole run."""
    return [v for v, nbrs in enumerate(adj) if len(nbrs) >= 2]


def _try_add_chain(adj, eligible, rng) -> tuple[int, int, int, int, int] | None:
    """One staged uniform draw of a valid chain around a centre from
    ``eligible``; None if any stage is empty."""
    if not eligible:
        return None
    a = _choice(rng, eligible)
    neighbors = sorted(adj[a])
    b = _choice(rng, neighbors)
    c_candidates = [c for c in neighbors if c != b and c not in adj[b]]
    if not c_candidates:
        return None
    c = _choice(rng, c_candidates)
    d_candidates = [d for d in sorted(adj[b]) if d != a and d not in adj[a]]
    if not d_candidates:
        return None
    d = _choice(rng, d_candidates)
    e_candidates = [
        e
        for e in sorted(adj[c])
        if e != a and e != d and e not in adj[a] and e not in adj[d]
    ]
    if not e_candidates:
        return None
    e = _choice(rng, e_candidates)
    return a, b, c, d, e


def _apply_chain(adj, chain) -> None:
    a, b, c, d, e = chain
    adj[b].discard(d), adj[d].discard(b)
    adj[c].discard(e), adj[e].discard(c)
    adj[b].add(c), adj[c].add(b)
    adj[d].add(e), adj[e].add(d)


def _triangle_gain(adj, chain) -> int:
    """Net triangle change of applying the chain to ``adj``.

    The two removed and two added edges are node-disjoint pairs, so no
    triangle contains two of them and local common-neighbor counts add up.
    """
    _, b, c, d, e = chain
    destroyed = len(adj[b] & adj[d]) + len(adj[c] & adj[e])
    _apply_chain(adj, chain)
    created = len(adj[b] & adj[c]) + len(adj[d] & adj[e])
    return created - destroyed


def _rewire_once(adj, eligible, rng, budget) -> tuple[tuple[int, int, int, int, int], int, int]:
    """Mutates adj in place; returns (chain, attempts used, triangle gain)
    or raises."""
    for attempt in range(1, budget + 1):
        chain = _try_add_chain(adj, eligible, rng)
        if chain is None:
            continue
        gain = _triangle_gain(adj, chain)
        if gain > 0:
            return chain, attempt, gain
        # revert: the move is an involution up to renaming
        a, b, c, d, e = chain
        _apply_chain(adj, (a, b, d, c, e))
    raise SaturationError(f"no valid rewiring chain in {budget} attempts")


def rewire_add_triangle(
    g: Graph, seed: int | np.random.Generator, max_attempts: int | None = None
) -> tuple[Graph, tuple[int, int, int, int, int]]:
    """Apply one triangle-creating rewire; raises SaturationError if none fits."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    budget = max_attempts if max_attempts is not None else 10 * max(g.n, 1)
    adj = _adjacency_sets(g)
    try:
        chain, _, _ = _rewire_once(adj, _centres(adj), rng, budget)
    except SaturationError as exc:
        raise SaturationError(str(exc), graph=g) from None
    return _graph_from_sets(g, adj), chain


def relative_density(
    original: SimplicialComplex, modified: SimplicialComplex, p: int
) -> float:
    """rho_p: fractional change in the order-p simplex count."""
    base = original.count(p)
    if base < 1:
        raise ValueError(f"relative density undefined: original has no {p}-simplices")
    return modified.count(p) / base - 1.0


def rewire_to_target(
    g: Graph, target_rho2: float, seed: int
) -> tuple[Graph, RewireLog]:
    """Rewire until the triangle density gain reaches the target.

    Stops at the first accepted rewire meeting or exceeding ``target_rho2``
    (one-rewire overshoot possible); ``log.achieved_rho2`` holds the density
    reached, counted from the running triangle total. Saturation before the
    target raises, carrying the partial graph, log, and achieved density.
    """
    if not math.isfinite(target_rho2):
        raise ValueError(f"target_rho2 must be finite, got {target_rho2}")
    base = total = triangle_count(g)
    if base < 1:
        raise ValueError("target density undefined: graph has no triangles")
    adj = _adjacency_sets(g)
    rng = np.random.default_rng(seed)
    log = RewireLog()
    budget = 10 * max(g.n, 1)
    eligible = _centres(adj)
    while log.achieved_rho2 < target_rho2:
        try:
            chain, used, gain = _rewire_once(adj, eligible, rng, budget)
        except SaturationError:
            log.attempts += budget
            raise SaturationError(
                f"saturated at rho_2={log.achieved_rho2:.4f} before target {target_rho2}",
                graph=_graph_from_sets(g, adj),
                log=log,
                achieved_rho2=log.achieved_rho2,
            ) from None
        log.accepted.append(chain)
        log.attempts += used
        total += gain
        log.achieved_rho2 = total / base - 1.0
    return _graph_from_sets(g, adj), log
