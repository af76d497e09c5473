"""Higher-order benefit on a node task only triangles can solve.

The synthetic task labels nodes by triangle membership while every
order-1 view is identical across classes; a model restricted to the first
petal is stuck at the majority rate, the two-petal model separates the
classes through the order-2 filtered constant channel. Learned filter
magnitudes expose that split: the order-2 interaction strength stays
substantial only when the petal carries signal.
"""

import numpy as np

from flowerpetals import TrainConfig, strength
from flowerpetals.synthetic import triangle_task
from flowerpetals.tasks import fit_node_params

for p_max in (1, 2):
    scores = []
    for seed in range(5):
        g = triangle_task(noise_dims=0, seed=seed)
        cfg = TrainConfig(task="node", P=p_max, seeds=(seed,), epochs=400, patience=120)
        report, params = fit_node_params(g, cfg)
        scores.append(report.mean)
        if seed == 0:
            seed0_params = params[0]
    print(f"{p_max}-petal model: mean test accuracy {np.mean(scores):.3f} over 5 seeds")

# the last loop trained the two-petal model, so these are its seed-0 parameters
s = strength(seed0_params)
print(f"learned interaction strengths: S_1={s[0]:.3f}, S_2={s[1]:.3f}")
print("(the order-2 petal keeps substantial weight: it carries the labels)")
