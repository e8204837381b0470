"""Channel-level bypass arithmetic: how removing filters never disconnects a net.

A layer starts with C input channels and T filters.  Shrinking keeps the
first M filters; every removed filter i hands its output slot to input
channel i when that channel exists.  The output channel count is therefore
Z = max(min(C, T), M) and a fully removed layer (M = 0) degenerates to a
pass-through of its first min(C, T) inputs.
"""
import numpy as np

from netshrink import bypass_channel_map, cbc_output_channels
from netshrink.supernet import LayerSpec, SubNetChoice, SuperNetwork, sliced_layer


def show(c, t, label):
    print(f"\n{label}  (C={c}, T={t})")
    for m in range(t, -1, -1):
        z = cbc_output_channels(c, t, m)
        srcs = " ".join(
            f"F{s.index}" if s.origin == "filter" else f"I{s.index}"
            for s in bypass_channel_map(c, t, m)
        )
        print(f"  M={m}: Z={z}  [{srcs}]")


show(4, 4, "case 1 — as many filters as inputs: width never drops below C")
show(4, 6, "case 2 — more filters than inputs: no bypass until M < C")
show(4, 2, "case 3 — more inputs than filters: only T inputs may bypass")

# Capping T below C is what makes bottlenecks reachable: with C=4, T=2 the
# output width can shrink to 2, which case 1 could never do.
print("\nbottleneck cap: C=4, T=2 ->", [cbc_output_channels(4, 2, m) for m in (2, 1, 0)])

# A removed layer really is the identity: feed a random image through a
# stride-1 layer at M=0 and nothing changes, so extraction drops the layer.
spec = LayerSpec(index=0, c=5, t=5, k_max=3, stride=1)
net = SuperNetwork([spec], (6, 6), 2, rng=np.random.default_rng(0))
x = np.random.default_rng(1).standard_normal((1, 5, 6, 6)).astype(np.float32)
out, _ = sliced_layer(spec, x, 0, None, None)
print("\nM=0 pass-through, max |out - in|:", float(np.abs(out - x).max()))
print("conv layers left in the extracted M=0 network:", len(net.extract(SubNetChoice(((0, 3),))).layers))
