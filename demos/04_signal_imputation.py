"""Impute masked node signals on a coauthorship complex.

Author productivity signals are masked down to a known fraction,
median-filled, and regressed with an L1 objective through the petal
filters; ranking quality (Kendall tau over all nodes) grows with the
known fraction.
"""

from dataclasses import replace

from flowerpetals import TrainConfig, impute_signals
from flowerpetals.synthetic import coauthorship_complex

cc = coauthorship_complex(n_authors=300, community_size=30, papers_per_community=45, seed=1)
print(f"complex: {cc.n} authors, counts {cc.complex.counts()}")
print(f"node signals: min {cc.node_signals.min():.0f}, max {cc.node_signals.max():.0f}")

cfg = TrainConfig(
    task="impute", P=2, seeds=(0, 1, 2), alpha=0.1, lr=0.02, hidden=16, weight_decay=0.0
)
for fraction in (0.1, 0.3, 0.5, 0.7):
    report = impute_signals(cc, replace(cfg, known_fraction=fraction))
    print(f"known fraction {fraction:.0%}: kendall tau {report.mean:.3f} +- {report.ci95:.3f}")
