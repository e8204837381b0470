"""Recorded experiment: trajectory-replay fine-tuning vs training from scratch.

Replay walks the per-iteration best architectures, reusing the overlapping
weight slices at each shrink and training briefly, then finishes on the final
architecture.  Scratch trains the final architecture from a fresh He init over
its own fan-in for the same total epoch budget.  Paired over five seeds;
results are printed and recorded, not asserted, since tiny tasks leave both
methods near ceiling.
"""
import numpy as np

from netshrink.config import DiscoveredConfig, TrainingConfig
from netshrink.cost import synthetic_latency_table, total_resource
from netshrink.data import synth_classification, three_way_split
from netshrink.search import (
    SearchConfig,
    run_search,
    train_subnetwork,
    train_supernetwork,
    trajectory_replay_finetune,
)
from netshrink.supernet import LayerSpec, SuperNetwork


def one_seed(seed):
    specs = [
        LayerSpec(index=0, c=3, t=8, k_max=5, stride=1),
        LayerSpec(index=1, c=8, t=8, k_max=3, stride=1),
        LayerSpec(index=2, c=8, t=8, k_max=3, stride=1),
    ]
    net = SuperNetwork(specs, (8, 8), 4, rng=np.random.default_rng(seed))
    table = synthetic_latency_table(specs, (8, 8), seed=seed)
    data = synth_classification(4, 140, 8, 8, seed=seed, noise=1.6)
    train, holdout, test = three_way_split(data, 0.1, 0.15, seed=seed)
    training = TrainingConfig(epochs=35, batch_size=32, learning_rate=0.08)
    train_supernetwork(net, train, training, np.random.default_rng(seed + 1))

    r0 = total_resource(net.full_choice(), table)
    cfg = SearchConfig(samples_per_iteration=15, layers_per_sample=2, init_reduction=0.03,
                       decay=0.98, target_resource=0.5 * r0, seed=seed + 2)
    result = run_search(net, table, cfg, holdout)
    choices = [rec.choice for rec in result.trajectory]

    steps = len(choices) - 1
    discovered = DiscoveredConfig(epochs=14, replay_epochs_per_step=2)
    replayed = trajectory_replay_finetune(
        net, choices, train, np.random.default_rng(seed + 3), training, discovered
    )
    # same total budget for scratch: shrink-step epochs + final epochs
    scratch = net.extract(choices[-1], rng=np.random.default_rng(seed + 4))
    train_subnetwork(scratch, train, steps * discovered.replay_epochs_per_step + discovered.epochs,
                     np.random.default_rng(seed + 3), training)
    return (
        replayed.evaluate(test.images, test.labels),
        scratch.evaluate(test.images, test.labels),
        steps,
    )


wins = 0
print("seed  replay_acc  scratch_acc  shrink_steps")
for seed in range(5):
    replay_acc, scratch_acc, steps = one_seed(seed)
    wins += replay_acc >= scratch_acc
    print(f"{seed:4d}  {replay_acc:10.3f}  {scratch_acc:11.3f}  {steps:12d}")
print(f"\nreplay matched or beat scratch on {wins}/5 seeds at the same epoch budget")
