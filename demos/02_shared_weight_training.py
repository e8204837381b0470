"""Training every sub-network at once with per-image prefix masks.

Each image in a batch gets its own width per layer (near-uniformly spread
over the grid), so one forward-backward pass trains many sub-networks of the
shared weights.  Because the mask always zeroes the LAST channels, evaluating
a sub-network afterwards is plain prefix slicing: no sorting, no retraining,
and the masked and sliced paths compute the same function.
"""
import numpy as np

from netshrink.config import TrainingConfig
from netshrink.data import synth_classification, three_way_split
from netshrink.search import train_supernetwork
from netshrink.supernet import LayerSpec, SuperNetwork, sample_width_assignments

rng = np.random.default_rng(0)

print("width assignments for a batch of 10 over grid {2,4,6,8}:")
for _ in range(3):
    print("  ", sample_width_assignments(10, [2, 4, 6, 8], rng))

specs = [
    LayerSpec(index=0, c=3, t=8, k_max=5, stride=1),
    LayerSpec(index=1, c=8, t=8, k_max=3, stride=2),
    LayerSpec(index=2, c=8, t=8, k_max=3, stride=1),
]
net = SuperNetwork(specs, (8, 8), 4, rng=np.random.default_rng(1))

data = synth_classification(4, 120, 8, 8, seed=2, noise=1.0)
train, holdout, test = three_way_split(data, 0.1, 0.15, seed=2)

print("\ntraining the super-network (every batch mixes widths and kernels) ...")
history = train_supernetwork(
    net, train, TrainingConfig(epochs=50, batch_size=32, learning_rate=0.08),
    np.random.default_rng(3), holdout=holdout,
)
print(f"final epoch: loss {history[-1]['loss']:.3f}, "
      f"full-width holdout accuracy {history[-1]['holdout_accuracy']:.3f}")

print("\nshared weights now rank sub-networks without any further training:")
full = net.full_choice()
for m in (8, 6, 4, 2):
    choice = full.replace(0, m, 5).replace(1, m, 3).replace(2, m, 3)
    acc = net.evaluate(test.images, test.labels, choice)
    print(f"  all layers at width {m}: test accuracy {acc:.3f}")

# masked training tensors and sliced evaluation agree at every grid point
x = test.images[:4]
choice = full.replace(1, 4, 3)
widths = np.tile(choice.widths, (4, 1))
masked = net.forward_train(x, widths, choice.kernels)
net._cache = None
sliced = net.forward_eval(x, choice)
print("\nmask-vs-slice max deviation:", float(np.abs(masked - sliced).max()))
