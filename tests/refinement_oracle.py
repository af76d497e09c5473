"""Reference colour refinement on dicts of (order, index) items.

A direct transcription of the WL/HWL/SHWL update rules, one item at a
time. A hash-rule item's code is its signature itself, (row length,
sorted neighbour colours), and an SHWL simplex's code is the sum of its
own and its neighbours' colours. The dense colour ids are the ranks of
the sorted (own, rule, code) keys. The array implementation in
``flowerpetals.isomorphism`` must give the same colour ids, verdicts and
histograms.
"""

from collections import Counter

from flowerpetals.complexes import clique_lift

Item = tuple[int, int]  # (simplex order, index); nodes are order 0


def graph_neighbors(g) -> dict[Item, list[Item]]:
    neighbors: dict[Item, list[Item]] = {(0, v): [] for v in range(g.n)}
    for u, v in g.edges.tolist():
        neighbors[(0, u)].append((0, v))
        neighbors[(0, v)].append((0, u))
    return {item: sorted(items) for item, items in neighbors.items()}


def complex_neighbors(k) -> dict[Item, list[Item]]:
    neighbors: dict[Item, list[Item]] = {(0, v): [] for v in range(k.n)}
    for p in sorted(k.simplices):
        for j, simplex in enumerate(k.simplices[p]):
            neighbors[(p, j)] = [(0, v) for v in simplex]
            for v in simplex:
                neighbors[(0, v)].append((p, j))
    return neighbors


def reference_rounds(structures: list[dict[Item, list[Item]]], method: str) -> list[list[dict]]:
    """Per round, one {item: colour} dict per structure, until stable."""
    colorings = [{item: 0 for item in s} for s in structures]
    history = [colorings]
    total = sum(len(s) for s in structures)
    joint_classes = 1
    for _ in range(1, total + 2):
        raw = []
        for s, colors in zip(structures, colorings):
            codes = {}
            for item, nbrs in s.items():
                own = colors[item]
                nbr_colors = [colors[o] for o in nbrs]
                if method == "shwl" and item[0] > 0:
                    codes[item] = (own, 1, own + sum(nbr_colors))
                else:
                    codes[item] = (own, 0, (len(nbrs), tuple(sorted(nbr_colors))))
            raw.append(codes)
        dense = {key: i for i, key in enumerate(sorted({k for c in raw for k in c.values()}))}
        colorings = [{item: dense[code] for item, code in codes.items()} for codes in raw]
        history.append(colorings)
        if len(dense) == joint_classes:
            break
        joint_classes = len(dense)
    return history


def histogram(colors: dict[Item, int]) -> dict[int, dict[int, int]]:
    """Per order, the count of each color, in ascending color order."""
    out: dict[int, Counter] = {}
    for (order, _), color in colors.items():
        out.setdefault(order, Counter())[color] += 1
    return {order: dict(sorted(counts.items())) for order, counts in out.items()}


def reference_distinguish(a, b, method: str, p_max: int = 2) -> tuple[str, list[dict]]:
    if method == "wl":
        structures = [graph_neighbors(a), graph_neighbors(b)]
    else:
        structures = [complex_neighbors(clique_lift(a, p_max)), complex_neighbors(clique_lift(b, p_max))]
    rounds = []
    for rnd, (ca, cb) in enumerate(reference_rounds(structures, method)):
        ha, hb = histogram(ca), histogram(cb)
        rounds.append({"round": rnd, "a": ha, "b": hb})
        if ha != hb:
            return "distinguished", rounds
    return "inconclusive", rounds
