"""Degree-preserving rewiring sweeps triangle density upward.

Each accepted rewire breaks two edges and relinks them so a new triangle
closes while every node keeps its degree; a target relative density is
reached within one rewire of overshoot.
"""

import numpy as np

from flowerpetals import Graph, clique_lift, relative_density, rewire_to_target
from flowerpetals.nullmodel import rewire_add_triangle
from flowerpetals.synthetic import er_graph

g = er_graph(96, 0.08, seed=11)
base = clique_lift(g, 2)
print(f"start: {g.num_edges} edges, {base.count(2)} triangles")

for target in (0.1, 0.2, 0.3, 0.5):
    rewired, log = rewire_to_target(g, target, seed=7)
    rho = relative_density(base, clique_lift(rewired, 2), 2)
    same_degrees = np.array_equal(np.sort(rewired.degrees()), np.sort(g.degrees()))
    print(
        f"target rho_2 >= {target:.1f}: achieved {rho:.3f} "
        f"in {len(log.accepted)} rewires ({log.attempts} attempts), "
        f"degrees preserved: {same_degrees}"
    )

# a single rewire, spelled out
p5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
rewired, chain = rewire_add_triangle(p5, seed=0)
a, b, c, d, e = chain
print(f"\npath 0-1-2-3-4, chain D-B-A-C-E = {d}-{b}-{a}-{c}-{e}")
print(f"removed [{b},{d}] and [{c},{e}], added [{b},{c}] and [{d},{e}]")
print("edges now:", tuple(map(tuple, rewired.edges.tolist())))
