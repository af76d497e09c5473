"""WL, HWL, and SHWL color refinement with a pairwise distinguishing harness.

All three tests refine a coloring of items (nodes, or nodes plus
simplices) until the partition stops changing. WL hashes neighbor color
multisets on the pairwise graph; HWL hashes over flower-petals bipartite
neighborhoods for every simplex; SHWL keeps the hash rule for nodes but
updates higher simplices by plain coefficient-1 summation of integer
color codes.

Refinement runs on integer arrays, as label compression by sorting in the
WL subtree kernel. Every item's neighborhood is a CSR row. A hash-rule row
is sorted each round by the key row * classes + color, which needs
total**2 < 2**63 (total items), and named by its dense rank among the
distinct (row length, own color, sorted neighbor colors), shortest rows
first, built in passes over neighbor positions on the rows kept longest
first. A pass ranks the rows still that long, a prefix, by one int64 key:
the last rank, then q colors + 1 as base-(classes + 1) digits, 0 past a
row's end, with q the most that keep count * base**q < 2**62. Colors are
re-densified each round as ranks of (previous color, rule, value), one key
below 2*(p+2)*total**2 for top order p, so the partition only refines.
SHWL's simplex sums add these colors, so the rule alone sets its partition.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .complexes import Graph, SimplicialComplex, clique_lift

__all__ = ["refine", "distinguish"]

METHODS = ("wl", "hwl", "shwl")
Structure = Graph | SimplicialComplex


def _blocks(s: Structure) -> list[tuple[int, int]]:
    """(order, count) of a structure's items in item order: its nodes, then
    the p-simplices of every stored order p ascending."""
    stored = () if isinstance(s, Graph) else sorted(s.simplices)
    return [(0, s.n)] + [(p, s.count(p)) for p in stored]


def _pairs(s: Structure) -> np.ndarray:
    """Directed (item, neighbor) pairs, as columns, in the structure's own ids.

    A graph node's neighbors are its adjacent nodes; in a complex a node's
    neighbors are the simplices containing it and a simplex's are its nodes.
    """
    if isinstance(s, Graph):
        return np.concatenate([s.edges, s.edges[:, ::-1]]).T
    pairs, base = [np.zeros((2, 0), dtype=np.int64)], s.n
    for p, members in sorted(s.simplices.items()):
        simplex = np.repeat(np.arange(base, base + len(members)), p + 1)
        pairs += [(simplex, members.ravel()), (members.ravel(), simplex)]
        base += len(members)
    return np.concatenate(pairs, axis=1)


def _rank(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense rank of every key among the distinct keys, and their number."""
    distinct, rank = np.unique(key, return_inverse=True)
    return rank, len(distinct)


def refine(structures: Sequence[Structure], method: str) -> Iterator[np.ndarray]:
    """Refine structures in one shared color namespace, one round at a time.

    WL refines graphs; HWL and SHWL refine simplicial complexes. Yields the
    color of every item for round 0 (all zero), 1, ..., and stops after the
    first round whose joint partition no longer refines the previous one.
    Items are laid out structure by structure, each as its nodes followed
    by its p-simplices for every stored order p ascending.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    kind = Graph if method == "wl" else SimplicialComplex
    if not all(isinstance(s, kind) for s in structures):
        raise TypeError(f"{method} refines {kind.__name__} structures")
    orders = [np.repeat(*zip(*_blocks(s))) for s in structures]
    order = np.concatenate([np.zeros(0, dtype=np.int64), *orders])
    total = len(order)
    colors = np.zeros(total, dtype=np.int64)
    yield colors

    # neighborhoods are built only once a round past 0 is asked for
    bases = np.cumsum([0] + [len(o) for o in orders])
    pairs = [_pairs(s) + base for s, base in zip(structures, bases)]
    pairs = np.concatenate([np.zeros((2, 0), dtype=np.int64), *pairs], axis=1)
    row, idx = pairs[:, np.argsort(pairs[0])]
    length = np.bincount(row, minlength=total)
    summed = (order > 0) if method == "shwl" else np.zeros(total, dtype=bool)
    sums = []  # the sum-rule rows of each length and their neighbors
    for r in np.unique(length[summed]).tolist():
        rows = np.flatnonzero(summed & (length == r))
        sums.append((rows, idx[np.searchsorted(row, rows)[:, None] + np.arange(r)]))
    row, idx = row[~summed[row]], idx[~summed[row]]  # the hash-rule rows' entries
    # the hash-rule rows, longest first: those longer than j are the first longer[j]
    hashed = np.flatnonzero(~summed)[np.argsort(-length[~summed], kind="stable")]
    size, first = length[hashed], np.searchsorted(row, hashed)
    longer = np.append(np.cumsum(np.bincount(size)[::-1])[-2::-1], 0)

    classes = 1
    for _ in range(total + 1):
        shift = row * classes
        nbrs = np.sort(shift + colors[idx]) - shift  # ascending within each row
        value = np.empty(total, dtype=np.int64)
        for rows, nbr in sums:  # nonvanishing linear rule: all coefficients 1
            value[rows] = colors[rows] + colors[nbr].sum(axis=1)
        rank, count = _rank(size * classes + colors[hashed])
        base, offset, j, m = classes + 1, 0, 0, len(hashed)
        while True:
            # rows past their end, or already apart, hold the lowest ranks: done
            kept = longer[j] if count < m else 0
            value[hashed[kept:m]] = offset + rank[kept:]
            if not kept:
                break
            done = int(rank[kept:].max(initial=-1)) + 1
            rank, offset, count, m = rank[:kept] - done, offset + done, count - done, kept
            q = 1  # as many positions as keep the key below 2**62
            while longer[j + q] and count * base ** (q + 1) < 2**62:
                q += 1
            key = rank * base**q  # a row ending inside the pass adds 0 past its end
            for t in range(q):
                n = longer[j + t]
                key[:n] += (nbrs[first[:n] + j + t] + 1) * base ** (q - 1 - t)
            rank, count = _rank(key)
            j += q
        colors, joint = _rank((2 * colors + summed) * (int(value.max(initial=0)) + 1) + value)
        yield colors
        if joint == classes:
            return
        classes = joint


def _histograms(colors: np.ndarray, structures: Sequence[Structure]) -> list[dict]:
    """Per structure, the color multiset of every order that has items."""
    out, start = [], 0
    for s in structures:
        hist = {}
        for p, count in _blocks(s):
            if count:
                counts = np.bincount(colors[start : start + count])
                present = np.flatnonzero(counts)
                hist[p] = dict(zip(present.tolist(), counts[present].tolist()))
            start += count
        out.append(hist)
    return out


def distinguish(
    a: Graph, b: Graph, method: str, p_max: int = 2
) -> tuple[str, list[dict]]:
    """Run two graphs through one refinement in lockstep.

    Returns ("distinguished", rounds) at the first histogram mismatch, or
    ("inconclusive", rounds) once the joint coloring stabilizes. Each round
    is {"round": r, "a": {order: {color: count}}, "b": ...}. HWL and SHWL
    lift both graphs to clique complexes of order ``p_max`` first; WL
    ignores ``p_max``, which must still be at least 1.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if p_max < 1:
        raise ValueError("max_order must be >= 1")
    pair = [a, b] if method == "wl" else [clique_lift(a, p_max), clique_lift(b, p_max)]
    rounds = []
    for rnd, colors in enumerate(refine(pair, method)):
        ha, hb = _histograms(colors, pair)
        rounds.append({"round": rnd, "a": ha, "b": hb})
        if ha != hb:
            return "distinguished", rounds
    return "inconclusive", rounds
