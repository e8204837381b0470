"""Coordinate descent over the trained super-network, step by step.

Every iteration must shave a scheduled amount of latency off the previous
best sample (3% of the initial latency, decaying by 0.98).  A single-layer
step (SCD) can never cut more than the cheapest layer's own latency in one
iteration; the multi-layer step (MCD) can cut up to the total of L layers,
which is why it needs fewer iterations on deep nets.
"""
import numpy as np

from netshrink.config import TrainingConfig
from netshrink.cost import synthetic_latency_table, total_resource
from netshrink.data import synth_classification, three_way_split
from netshrink.search import (
    SearchConfig,
    mcd_max_reduction,
    run_search,
    scd_max_reduction,
    train_supernetwork,
)
from netshrink.supernet import LayerSpec, SuperNetwork

specs = [
    LayerSpec(index=0, c=3, t=8, k_max=5, stride=1),
    LayerSpec(index=1, c=8, t=8, k_max=3, stride=1),
    LayerSpec(index=2, c=8, t=8, k_max=3, stride=2),
    LayerSpec(index=3, c=8, t=8, k_max=3, stride=1),
    LayerSpec(index=4, c=8, t=8, k_max=3, stride=1),
]
net = SuperNetwork(specs, (8, 8), 4, rng=np.random.default_rng(0))
table = synthetic_latency_table(specs, (8, 8), seed=1)

data = synth_classification(4, 120, 8, 8, seed=2, noise=1.0)
train, holdout, test = three_way_split(data, 0.1, 0.15, seed=2)
training = TrainingConfig(epochs=50, batch_size=32, learning_rate=0.08)
train_supernetwork(net, train, training, np.random.default_rng(3))

full = net.full_choice()
r0 = total_resource(full, table)
print(f"initial latency {r0:.3f} ms")
print(f"largest one-iteration cut, single layer : {scd_max_reduction(specs, table, full):.3f} ms")
print(f"largest one-iteration cut, L=3 layers   : {mcd_max_reduction(specs, table, full, 3):.3f} ms")

cfg = SearchConfig(
    samples_per_iteration=20, layers_per_sample=3, init_reduction=0.03, decay=0.98,
    target_resource=0.45 * r0, seed=4,
)
result = run_search(net, table, cfg, holdout)

print(f"\ntrajectory to the {cfg.target_resource:.3f} ms target:")
print("  iter   latency_ms  holdout_acc  per-layer (M,k)")
for rec in result.trajectory:
    tag = "init" if rec.iteration < 0 else f"{rec.iteration:4d}"
    pairs = " ".join(f"({m},{k})" for m, k in rec.choice.pairs)
    print(f"  {tag}   {rec.resource:9.3f}  {rec.holdout_accuracy:10.3f}  {pairs}")

final = result.trajectory[-1]
sub = net.extract(final.choice)
print(f"\nextracted discovered net, test accuracy before fine-tuning: "
      f"{sub.evaluate(test.images, test.labels):.3f}")
print(f"samples evaluated: {len(result.log_rows)} "
      f"({len({r.iteration for r in result.log_rows})} iterations x {cfg.samples_per_iteration})")
