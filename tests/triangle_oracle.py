"""Triangle counts on Python sets: the reference that the clique lift's
count (``nullmodel.triangle_count``) and the rewiring's running triangle
total are held to.

``adjacency_sets`` builds one neighbour set per node from (u, v) pairs,
``triangle_count`` finds each triangle u < v < w once by a double loop over
those sets, and ``apply_chain`` replays an accepted rewiring chain on them.
"""


def adjacency_sets(n: int, edges) -> list[set[int]]:
    """One neighbour set per node 0..n-1 of the graph with the pairs ``edges``."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def triangle_count(adj: list[set[int]]) -> int:
    total = 0
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if v > u:
                total += sum(1 for w in adj[u] & adj[v] if w > v)
    return total


def triangles(g) -> int:
    """The triangle count of a ``Graph``."""
    return triangle_count(adjacency_sets(g.n, g.edges.tolist()))


def apply_chain(adj: list[set[int]], chain) -> None:
    """Break [B,D] and [C,E], add [B,C] and [D,E], for the chain (A, B, C, D, E)."""
    _, b, c, d, e = chain
    adj[b].discard(d), adj[d].discard(b)
    adj[c].discard(e), adj[e].discard(c)
    adj[b].add(c), adj[c].add(b)
    adj[d].add(e), adj[e].add(d)
