"""WL, HWL, and SHWL color refinement with a pairwise distinguishing harness.

All three tests refine a coloring of items (nodes, or nodes plus
simplices) until the partition stops changing. WL hashes neighbor color
multisets on the pairwise graph; HWL hashes over flower-petals bipartite
neighborhoods for every simplex; SHWL keeps the hash rule for nodes but
updates higher simplices by plain coefficient-1 summation of integer
color codes.

Refinement runs on integer arrays, as label compression by sorting in the
WL subtree kernel: every item's neighborhood is a CSR row, each round
sorts the neighbor colors within every row, deduplicates the (own color,
sorted neighbor colors) signatures, and digests each distinct signature
once. Digests are 64-bit with an explicit collision table; codes are
re-densified each round as ranks of (previous color, rule, value), so the
partition can only refine, never merge.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence

import numpy as np

from .complexes import Graph, SimplicialComplex, clique_lift

__all__ = ["refine", "distinguish"]

METHODS = ("wl", "hwl", "shwl")
Structure = Graph | SimplicialComplex


def _blocks(s: Structure) -> list[tuple[int, int]]:
    """(order, count) of a structure's items in item order: its nodes, then
    the p-simplices of every stored order p ascending."""
    if isinstance(s, Graph):
        return [(0, s.n)]
    return [(0, s.n)] + [(p, s.count(p)) for p in sorted(s.simplices)]


def _pairs(s: Structure) -> tuple[np.ndarray, np.ndarray]:
    """Directed (item, neighbor) pairs in the structure's own item ids.

    A graph node's neighbors are its adjacent nodes; in a complex a node's
    neighbors are the simplices containing it and a simplex's are its nodes.
    """
    if isinstance(s, Graph):
        u, v = s.edges.T
        return _cat([u, v]), _cat([v, u])
    src, dst, base = [], [], s.n
    for p, members in sorted(s.simplices.items()):
        simplex = np.repeat(np.arange(base, base + len(members)), p + 1)
        src += [simplex, members.ravel()]
        dst += [members.ravel(), simplex]
        base += len(members)
    return _cat(src), _cat(dst)


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=np.int64), *parts])


def _dense_ranks(keys: list[np.ndarray]) -> np.ndarray:
    """Rank of every position among the distinct key tuples, the first key
    most significant; equal tuples share a rank."""
    ranked = np.lexsort(keys[::-1])
    step = np.zeros(len(ranked), dtype=np.int64)
    for key in keys:
        key = key[ranked]
        step[1:] |= key[1:] != key[:-1]
    ranks = np.empty(len(ranked), dtype=np.int64)
    ranks[ranked] = np.cumsum(step)
    return ranks


def _digest(payload: tuple, table: dict[int, tuple]) -> int:
    """Stable 64-bit digest with an explicit collision check."""
    raw = hashlib.blake2b(repr(payload).encode("ascii"), digest_size=8).digest()
    code = int.from_bytes(raw, "big")
    seen = table.setdefault(code, payload)
    if seen != payload:
        raise RuntimeError(f"64-bit hash collision between {seen} and {payload}")
    return code


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
    blocks = [_blocks(s) for s in structures]
    order = _cat([np.repeat([p for p, _ in b], [c for _, c in b]) for b in blocks])
    total = len(order)
    colors = np.zeros(total, dtype=np.int64)
    yield colors

    # neighborhoods are built only once a round past 0 is asked for
    src, dst, base = [], [], 0
    for s, b in zip(structures, blocks):
        a, c = _pairs(s)
        src.append(a + base)
        dst.append(c + base)
        base += sum(count for _, count in b)
    src = _cat(src)
    by_row = np.argsort(src, kind="stable")
    row, idx = src[by_row], _cat(dst)[by_row]
    length = np.bincount(row, minlength=total)
    starts = np.cumsum(length) - length
    summed = (order > 0) if method == "shwl" else np.zeros(total, dtype=bool)
    # one group per (row length, rule): its rows and the positions of their entries
    rule = 2 * length + summed
    groups = []
    for r in np.unique(rule).tolist():
        rows = np.flatnonzero(rule == r)
        groups.append((rows, starts[rows, None] + np.arange(r // 2), r % 2))

    table: dict[int, tuple] = {}
    classes = 1
    for _ in range(total + 1):
        shift = row * classes
        nbrs = np.sort(shift + colors[idx]) - shift  # ascending within each row
        value = np.empty(total, dtype=np.uint64)
        for rows, pos, is_sum in groups:
            own, nbr = colors[rows], nbrs[pos]
            if is_sum:  # nonvanishing linear rule: all coefficients 1
                value[rows] = own + nbr.sum(axis=1)
                continue
            sig = _dense_ranks([own, *nbr.T])
            rep = np.empty(sig.max() + 1, dtype=np.int64)  # one row per distinct signature
            rep[sig] = np.arange(len(rows))
            payloads = np.column_stack([own, nbr])[rep].tolist()
            codes = [_digest((p[0], tuple(p[1:])), table) for p in payloads]
            value[rows] = np.array(codes, dtype=np.uint64)[sig]
        colors = _dense_ranks([2 * colors + summed, value])
        yield colors
        joint = int(colors.max(initial=-1)) + 1
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
    lift both graphs to clique complexes of order ``p_max`` first.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    pair = [a, b] if method == "wl" else [clique_lift(a, p_max), clique_lift(b, p_max)]
    rounds = []
    for rnd, colors in enumerate(refine(pair, method)):
        ha, hb = _histograms(colors, pair)
        rounds.append({"round": rnd, "a": ha, "b": hb})
        if ha != hb:
            return "distinguished", rounds
    return "inconclusive", rounds
