"""The searchable network: shared full-size weights plus per-layer shrink choices.

A layer starts with T filters over C input channels.  Shrinking keeps the
first M filters; for stride-1 layers, every removed filter i whose input
channel i exists is replaced by that input channel routed straight through
(channel-level bypass), so the output channel count is Z = max(min(C, T), M)
and never reaches zero.  A sub-network slices the first M filters, the first
C_in inputs and the centered k x k window (`prefix_slice`) into `sliced_layer`.
Training runs that layer at full width T on the sampled kernel's window under
per-image ordered-dropout masks plus their bypass complement, so training and
evaluation compute the same function; one layer builder, forward and backward
serve both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, NamedTuple, Sequence

import numpy as np

from . import tensor as T
from .errors import GridError, ParseError, ShapeError, StateError, json_int, json_list, json_object


# ---------------------------------------------------------------------------
# channel arithmetic
# ---------------------------------------------------------------------------

class ChannelSource(NamedTuple):
    """Where an output channel comes from: a kept filter or a bypassed input."""

    origin: Literal["filter", "input"]
    index: int


def cbc_output_channels(c: int, t: int, m: int) -> int:
    """Output channel count Z = max(min(C, T), M) of a bypass-connected layer."""
    if c < 1 or t < 1:
        raise GridError(f"C and T must be >= 1, got C={c}, T={t}")
    if not 0 <= m <= t:
        raise GridError(f"M must lie in [0, T={t}], got M={m}")
    return max(min(c, t), m)


def bypass_channel_map(c: int, t: int, m: int) -> list[ChannelSource]:
    """Source of each of the Z output channels after removing filters M..T-1.

    Channels below M are kept filters; removed filter i is replaced by input
    channel i when that input exists (i < C), so bypassed inputs occupy
    indices M..min(C, T).
    """
    z = cbc_output_channels(c, t, m)
    sources = [ChannelSource("filter", j) for j in range(m)]
    sources += [ChannelSource("input", j) for j in range(m, min(c, t))]
    assert len(sources) == z
    return sources


def ordered_dropout_mask(widths, total: int) -> np.ndarray:
    """Per-image prefix masks [N, total]: row n keeps the first widths[n] channels."""
    widths = np.asarray(widths)
    if widths.ndim != 1 or (widths.size and (widths.min() < 0 or widths.max() > total)):
        raise GridError(f"widths must be a vector in [0, {total}], got {widths}")
    return np.arange(total)[None, :] < widths[:, None]


def sample_width_assignments(n: int, width_grid: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Assign one grid width to each of n images, each width near-equally often.

    Counts across the grid differ by at most one; which widths get the
    remainder, and the assignment order, are randomized.
    """
    grid = np.asarray(width_grid)
    if n < 1 or grid.size == 0:
        raise GridError(f"need n >= 1 and a nonempty grid, got n={n}, grid={width_grid}")
    base, rem = divmod(n, grid.size)
    counts = np.full(grid.size, base)
    if rem:
        counts[rng.choice(grid.size, size=rem, replace=False)] += 1
    widths = np.repeat(grid, counts)
    rng.shuffle(widths)
    return widths


# ---------------------------------------------------------------------------
# superkernel
# ---------------------------------------------------------------------------

def kernel_window(full: int, k: int) -> slice:
    """Slice selecting the centered k x k window of a full x full kernel."""
    if k % 2 == 0 or not 3 <= k <= full:
        raise GridError(f"kernel size must be odd and in [3, {full}], got {k}")
    off = (full - k) // 2
    return slice(off, off + k)


def prefix_slice(weights: np.ndarray, m: int, z_in: int, k: int) -> np.ndarray:
    """View of the first m filters, first z_in inputs and centered k x k taps.

    A centered window of a centered window is a centered window of the full
    kernel, so this slices super-network and sub-network weights alike.
    """
    win = kernel_window(weights.shape[-1], k)
    return weights[:m, :z_in, win, win]


# ---------------------------------------------------------------------------
# layer specs and choices
# ---------------------------------------------------------------------------

def default_width_grid(t: int, stride: int) -> tuple[int, ...]:
    """Nine uniformly spaced widths from 0 to T, rounded, de-duplicated.

    Stride > 1 layers cannot bypass their inputs, so 0 is dropped there.
    """
    grid = sorted({int(round(v)) for v in np.linspace(0.0, t, 9)})
    if stride > 1 and grid[0] == 0:
        grid = grid[1:]
    return tuple(grid)


def default_kernel_grid(k_max: int) -> tuple[int, ...]:
    return tuple(range(3, k_max + 1, 2))


@dataclass(frozen=True)
class LayerSpec:
    """Static description of one searchable layer."""

    index: int
    c: int
    t: int
    k_max: int
    stride: int = 1
    width_grid: tuple[int, ...] = ()
    kernel_grid: tuple[int, ...] = ()

    def __post_init__(self):
        if self.c < 1 or self.t < 1:
            raise GridError(f"layer {self.index}: C and T must be >= 1, got C={self.c}, T={self.t}")
        if self.k_max % 2 == 0 or self.k_max < 3:
            raise GridError(f"layer {self.index}: max kernel must be odd and >= 3, got {self.k_max}")
        if self.stride not in (1, 2):
            raise GridError(f"layer {self.index}: stride must be 1 or 2, got {self.stride}")
        if not self.width_grid:
            object.__setattr__(self, "width_grid", default_width_grid(self.t, self.stride))
        if not self.kernel_grid:
            object.__setattr__(self, "kernel_grid", default_kernel_grid(self.k_max))
        wg, kg = self.width_grid, self.kernel_grid
        if tuple(sorted(set(wg))) != tuple(wg):
            raise GridError(f"layer {self.index}: width grid must be sorted and unique, got {wg}")
        if any(not 0 <= m <= self.t for m in wg):
            raise GridError(f"layer {self.index}: width grid {wg} outside [0, T={self.t}]")
        if self.t not in wg:
            raise GridError(f"layer {self.index}: width grid {wg} must contain T={self.t}")
        if 0 in wg and self.stride != 1:
            raise GridError(f"layer {self.index}: width 0 (layer removal) needs stride 1")
        if tuple(sorted(set(kg))) != tuple(kg):
            raise GridError(f"layer {self.index}: kernel grid must be sorted and unique, got {kg}")
        if any(k % 2 == 0 or not 3 <= k <= self.k_max for k in kg):
            raise GridError(f"layer {self.index}: kernel grid {kg} outside odd [3, {self.k_max}]")
        if self.k_max not in kg:
            raise GridError(f"layer {self.index}: kernel grid {kg} must contain K={self.k_max}")

    def bypass_end(self, z_in: int) -> int:
        """End of the inputs routed straight through when z_in channels arrive.

        Under width M the layer's output is its M filters followed by inputs
        M..bypass_end(z_in) - 1 (none when M is past the end).
        """
        return min(z_in, self.c, self.t) if self.stride == 1 else 0

    def validate_choice(self, m: int, k: int) -> None:
        if m not in self.width_grid:
            raise GridError(f"layer {self.index}: width {m} not in grid {self.width_grid}")
        if m > 0 and k not in self.kernel_grid:
            raise GridError(f"layer {self.index}: kernel {k} not in grid {self.kernel_grid}")


@dataclass(frozen=True)
class SubNetChoice:
    """Per-layer (filters kept, kernel size) pairs; the search's decision variable."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.pairs)

    @property
    def kernels(self) -> tuple[int, ...]:
        return tuple(k for _, k in self.pairs)

    def replace(self, index: int, m: int, k: int) -> "SubNetChoice":
        pairs = list(self.pairs)
        pairs[index] = (m, k)
        return SubNetChoice(tuple(pairs))

    def key(self) -> tuple:
        # layers with width 0 ignore the kernel; canonicalize so hashing agrees
        return tuple((m, k if m > 0 else 0) for m, k in self.pairs)


def first_growing_layer(before: SubNetChoice, after: SubNetChoice) -> int | None:
    """Index of the first layer `after` does not weakly shrink from `before`, else None.

    A layer shrinks weakly when M does not grow and, while M > 0, k does not grow.
    """
    for i, ((m0, k0), (m1, k1)) in enumerate(zip(before.pairs, after.pairs)):
        if m1 > m0 or (m1 > 0 and k1 > k0):
            return i
    return None


def first_changed_layer(before: SubNetChoice, after: SubNetChoice) -> int:
    """Index of the first layer whose (M, k) differs between the choices, else their length.

    Every layer below it receives the same input under both choices.
    """
    return next(
        (i for i, (a, b) in enumerate(zip(before.pairs, after.pairs)) if a != b), len(before.pairs)
    )


def full_width_choice(specs: Sequence[LayerSpec]) -> SubNetChoice:
    return SubNetChoice(tuple((s.t, s.k_max) for s in specs))


def check_choice(specs: Sequence[LayerSpec], choice: SubNetChoice) -> None:
    """Raise GridError unless `choice` has one grid point per layer of `specs`."""
    if len(choice.pairs) != len(specs):
        raise GridError(f"choice has {len(choice.pairs)} layers, network has {len(specs)}")
    for spec, (m, k) in zip(specs, choice.pairs):
        spec.validate_choice(m, k)


def channel_flow(specs: Sequence[LayerSpec], choice: SubNetChoice) -> list[int]:
    """Real channel counts along the network under `choice`.

    Entry i is what layer i actually receives at evaluation time.  This can
    sit below the per-layer Z = max(min(C, T), M) once an upstream layer both
    expands (T > C) and is shrunk below T: the channels Z counts beyond the
    real ones are identically zero in the masked training tensors, form a
    suffix, and are simply never materialized on the sliced path.
    """
    flow = [specs[0].c]
    r = specs[0].c
    for spec, (m, _) in zip(specs, choice.pairs):
        r = max(m, spec.bypass_end(r))
        flow.append(r)
    return flow


def spatial_flow(specs: Sequence[LayerSpec], input_hw: tuple[int, int]) -> list[tuple[int, int]]:
    """Spatial extents entering each layer, plus the final output extent."""
    h, w = input_hw
    sizes = [(h, w)]
    for spec in specs:
        h = -(-h // spec.stride)
        w = -(-w // spec.stride)
        sizes.append((h, w))
    return sizes


def sliced_layer(
    spec: LayerSpec,
    x: np.ndarray,
    m: int,
    weight: np.ndarray | None,
    bias: np.ndarray | None,
    cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One layer of a sliced sub-network: conv on m filters, then the bypassed inputs.

    `weight` is [m, x.shape[1], k, k] and `bias` is [m] (both None when
    m == 0); `cols`, if given, is ``T.im2col(x, k, stride)``.  Returns
    (out, pre_activation); pre_activation is None when m == 0.
    """
    parts, y = [], None
    if m > 0:
        y = T.conv2d_forward(x, weight, spec.stride, cols=cols) + bias[None, :, None, None]
        parts.append(T.relu(y))
    hi = spec.bypass_end(x.shape[1])
    if m < hi:
        parts.append(x[:, m:hi])
    return (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)), y


@dataclass
class Layer:
    """One conv layer as both networks run it: width M and kernel k over z_in inputs.

    `weight` and `bias` hold at least the layer's `prefix_slice`: the
    super-network's full tensors in training and evaluation, an extracted
    network's own copies otherwise.  At M = 0 they are None and the layer
    passes inputs on.
    """

    spec: LayerSpec
    m: int
    k: int
    z_in: int
    weight: T.Parameter | None
    bias: T.Parameter | None


def _layers(specs: Sequence[LayerSpec], choice: SubNetChoice, weights, biases) -> list[Layer]:
    """The one layer builder: `choice` laid out along `channel_flow`.

    Layer i runs on Parameters ``weights[i]`` and ``biases[i]``, which hold at
    least its `prefix_slice`; a layer with M = 0 gets none, and kernel 0.
    """
    layers, flow = [], channel_flow(specs, choice)
    for spec, (m, k), z_in, w, b in zip(specs, choice.pairs, flow, weights, biases):
        if m == 0:
            k, w, b = 0, None, None
        layers.append(Layer(spec, m, k, z_in, w, b))
    return layers


def _layer_forward(
    layer: Layer, x: np.ndarray, record: bool, keep: np.ndarray | None = None
) -> tuple[np.ndarray, dict | None]:
    """`sliced_layer` on the layer's prefix slices; returns (out, cache or None).

    With `record`, the cache holds what `_layer_backward` reads.  `keep`, a
    bool ordered-dropout mask [N, M, 1, 1] at full width, masks the output in
    place and, at stride 1, routes the inputs it drops through: multiplying by
    a bool is multiplying by 1.0 or 0.0, so this is ``relu(y)*mask + x*(1 - mask)``.
    """
    spec, m = layer.spec, layer.m
    if x.shape[1] != layer.z_in:
        raise ShapeError(
            f"layer {spec.index}: expected {layer.z_in} input channels, "
            f"got {x.shape[1]} on axis 1"
        )
    weight = bias = cols = None
    if m > 0:
        if record:
            cols = T.im2col(x, layer.k, spec.stride)
        weight = prefix_slice(layer.weight.value, m, layer.z_in, layer.k)
        bias = layer.bias.value[:m]
    out, y = sliced_layer(spec, x, m, weight, bias, cols)
    dropped = None
    if keep is not None:
        out *= keep  # at full width `out` is relu(y), a fresh array
        end = spec.bypass_end(layer.z_in)
        if end:  # at stride 2 even an empty slice of x fails to broadcast against out
            dropped = ~keep[:, :end]
            out[:, :end] += x[:, :end] * dropped
    if not record:
        return out, None
    gate = None
    if y is not None:  # keep & (y > 0): the one product the backward lets dout through
        gate = y > 0 if keep is None else keep & (y > 0)
    return out, {"x": x, "cols": cols, "gate": gate, "dropped": dropped}


def _layer_backward(layer: Layer, dout: np.ndarray, cache: dict, need_dx: bool) -> np.ndarray | None:
    """Accumulate the layer's gradients; returns dx, or None when `need_dx` is False.

    dW accumulates into the `prefix_slice` view of ``weight.grad``, so taps
    and channels outside the layer's window get exactly zero.
    """
    spec, m, x = layer.spec, layer.m, cache["x"]
    dx = None
    if m > 0:
        dy = dout[:, :m] * cache["gate"]
        w = prefix_slice(layer.weight.value, m, layer.z_in, layer.k)
        dx, dw = T.conv2d_backward(dy, x, w, spec.stride, cols=cache["cols"], need_dx=need_dx)
        grad = prefix_slice(layer.weight.grad, m, layer.z_in, layer.k)
        grad += dw
        layer.bias.grad[:m] += dy.sum(axis=(0, 2, 3))
    if not need_dx:
        return None
    hi = spec.bypass_end(layer.z_in)
    if cache["dropped"] is not None:  # the mask's bypass; M = T here, so nothing is sliced
        dx[:, :hi] += dout[:, :hi] * cache["dropped"]
        return dx
    if dx is None:
        if hi == layer.z_in:
            return dout  # a pass-through layer
        dx = np.zeros_like(x)
    if m < hi:
        dx[:, m:hi] += dout[:, m:hi]
    return dx


# ---------------------------------------------------------------------------
# the super-network
# ---------------------------------------------------------------------------

def _he(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    """He init of a conv [F, C, k, k] or dense [O, D] weight over its fan-in, all but axis 0."""
    return (rng.standard_normal(shape) * np.sqrt(2.0 / math.prod(shape[1:]))).astype(dtype)


class _Network:
    """What the super-network and extracted networks share: the layer loops and the head."""

    head_w: T.Parameter
    head_b: T.Parameter

    def parameters(self) -> list[T.Parameter]:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {p.name: p.value for p in self.parameters()}

    def _forward(
        self, layers: Sequence[Layer], x: np.ndarray, record: bool,
        keeps: Sequence[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Logits of `layers` on `x` in one pass, as a training step and `SubNetwork.forward` run.

        Evaluation runs `_predict` instead.  `keeps`, one ordered-dropout mask
        per layer, is `_layer_forward`'s `keep`.  With `record`, keeps what
        `backward` reads.
        """
        caches = []
        for i, layer in enumerate(layers):
            x, cache = _layer_forward(layer, x, record, None if keeps is None else keeps[i])
            caches.append(cache)
        logits, head = self._head_forward(x)
        if record:
            self._cache = {"layers": layers, "caches": caches, "head": head}
        return logits

    def _predict(
        self, layers: Sequence[Layer], x: np.ndarray, start: int = 0, capture: list | None = None
    ) -> np.ndarray:
        """Logits of `layers` from layer `start` on `x`, the input of layer `start`.

        Each layer, then the head, runs over all of `x` in batches of
        EVAL_BATCH_SIZE images (`_batched`) before the next one starts, so
        every layer sees the images in the same batches whatever `start` is.
        `capture`, a list indexed by layer, receives the input of every layer
        from `start` up to its length: the array the loop holds there.
        """
        for i, layer in enumerate(layers[start:], start):
            if capture is not None and i < len(capture):
                capture[i] = x
            x = _batched(lambda batch: _layer_forward(layer, batch, False)[0], x)
        return _batched(lambda batch: self._head_forward(batch)[0], x)

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients for the last recorded forward pass."""
        if self._cache is None:
            raise StateError("backward called before a recorded forward pass")
        cache, self._cache = self._cache, None
        dout = self._head_backward(dlogits, cache["head"])
        layers = cache["layers"]
        for i in reversed(range(len(layers))):
            need_dx = any(l.m > 0 for l in layers[:i])  # some layer below has weights
            dout = _layer_backward(layers[i], dout, cache["caches"][i], need_dx)

    def _head_forward(self, out: np.ndarray) -> tuple[np.ndarray, dict]:
        """Logits of the last feature map, plus the head's part of the backward cache.

        The head reads the first ``out.shape[1]`` columns of its weight: all of
        them at full width and in an extracted network.
        """
        feat = T.global_avg_pool(out)
        logits = T.dense_forward(feat, self.head_w.value[:, : out.shape[1]]) + self.head_b.value
        return logits, {"feat": feat, "conv_shape": out.shape}

    def _head_backward(self, dlogits: np.ndarray, cache: dict) -> np.ndarray:
        """Accumulate head gradients; returns the gradient of the last feature map."""
        dfeat, dw = T.dense_backward(dlogits, cache["feat"], self.head_w.value)
        self.head_w.grad += dw
        self.head_b.grad += dlogits.sum(axis=0)
        return T.global_avg_pool_backward(dfeat, cache["conv_shape"])


# Evaluation batch: bounds the im2col columns each search thread holds at once;
# evaluating a whole holdout split as one batch raised the search's peak RSS.
EVAL_BATCH_SIZE = 64


def _batched(step, x: np.ndarray) -> np.ndarray:
    """`step` over `x`, EVAL_BATCH_SIZE images at a time, its outputs joined along axis 0."""
    batches = range(0, len(x), EVAL_BATCH_SIZE)
    return np.concatenate([step(x[lo : lo + EVAL_BATCH_SIZE]) for lo in batches])


def _score(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Top-1 accuracy and mean cross-entropy of `logits`, the loss averaged per evaluation batch."""
    n = len(labels)
    loss_sum = 0.0
    for lo in range(0, n, EVAL_BATCH_SIZE):
        hi = min(lo + EVAL_BATCH_SIZE, n)
        loss_sum += T.softmax_cross_entropy(logits[lo:hi], labels[lo:hi])[0] * (hi - lo)
    return int((logits.argmax(axis=1) == labels).sum()) / n, loss_sum / n


class SuperNetwork(_Network):
    """Shared full-size weights; every sub-network is a prefix slice of them."""

    def __init__(
        self,
        specs: Sequence[LayerSpec],
        input_hw: tuple[int, int],
        classes: int,
        rng: np.random.Generator | None = None,
        dtype=T.DEFAULT_DTYPE,
    ):
        if not specs:
            raise GridError("a super-network needs at least one layer")
        if [s.index for s in specs] != list(range(len(specs))):
            raise GridError(
                f"layer indices must run 0..{len(specs) - 1} in order, "
                f"got {[s.index for s in specs]}"
            )
        for prev, cur in zip(specs, specs[1:]):
            if cur.c != prev.t:
                raise GridError(
                    f"layer {cur.index}: expects C={cur.c} input channels but "
                    f"layer {prev.index} emits T={prev.t} at full width"
                )
        for spec, (h, w) in zip(specs, spatial_flow(specs, input_hw)[:-1]):
            if min(h, w) < spec.k_max:
                raise GridError(
                    f"layer {spec.index}: spatial extent {h}x{w} smaller than "
                    f"max kernel {spec.k_max}"
                )
        if classes < 2:
            raise GridError(f"need >= 2 classes, got {classes}")
        rng = rng or np.random.default_rng(0)
        self.specs = list(specs)
        self.input_hw = tuple(input_hw)
        self.classes = classes
        self.weights: list[T.Parameter] = []
        self.biases: list[T.Parameter] = []
        for s in specs:
            self.weights.append(
                T.Parameter(_he(rng, (s.t, s.c, s.k_max, s.k_max), dtype), f"layer{s.index}.weight")
            )
            self.biases.append(T.Parameter(np.zeros(s.t, dtype=dtype), f"layer{s.index}.bias"))
        self.head_w = T.Parameter(_he(rng, (classes, specs[-1].t), dtype), "head.weight")
        self.head_b = T.Parameter(np.zeros(classes, dtype=dtype), "head.bias")
        self._cache: dict | None = None

    # -- basics -------------------------------------------------------------

    def parameters(self) -> list[T.Parameter]:
        return [*self.weights, *self.biases, self.head_w, self.head_b]

    def full_choice(self) -> SubNetChoice:
        return full_width_choice(self.specs)

    # -- training: full-size tensors under per-image prefix masks --------------

    def forward_train(self, x: np.ndarray, widths: np.ndarray, kernels: Sequence[int]) -> np.ndarray:
        """Full-size forward with per-image widths [N, L] and per-layer kernels [L].

        Each layer runs at full width T on its kernel's window under its
        column of `widths` as an ordered-dropout mask.
        """
        widths = np.asarray(widths)
        if widths.shape != (x.shape[0], len(self.specs)):
            raise ShapeError(
                f"widths must be [batch={x.shape[0]}, layers={len(self.specs)}], "
                f"got {widths.shape}"
            )
        if len(kernels) != len(self.specs):
            raise ShapeError(f"kernels must be [layers={len(self.specs)}], got {len(kernels)} entries")
        full = SubNetChoice(tuple((s.t, k) for s, k in zip(self.specs, kernels)))
        layers = _layers(self.specs, full, self.weights, self.biases)
        keeps = [ordered_dropout_mask(w, s.t)[:, :, None, None] for s, w in zip(self.specs, widths.T)]
        return self._forward(layers, x, True, keeps=keeps)

    # bench/bench_trace.py traces the training backward through this class's own namespace
    backward = _Network.backward

    # -- evaluation: the sub-network on the shared tensors -----------------------

    def forward_eval(
        self, x: np.ndarray, choice: SubNetChoice, start: int = 0, capture: list | None = None
    ) -> np.ndarray:
        """Logits of the chosen sub-network on the shared tensors; copies no weight.

        `x` is the input of layer `start`; the layers below it do not run.
        Each layer runs over all of `x` in batches before the next, and
        `capture` receives the arrays the loop holds (`_Network._predict`).
        """
        check_choice(self.specs, choice)
        return self._predict(_layers(self.specs, choice, self.weights, self.biases), x, start, capture)

    def evaluate(self, images: np.ndarray, labels: np.ndarray, choice: SubNetChoice) -> float:
        """Deterministic top-1 accuracy of the sliced sub-network; read-only."""
        return _score(self.forward_eval(images, choice), labels)[0]

    # -- export ----------------------------------------------------------------

    def architecture_json(self, choice: SubNetChoice) -> list[dict]:
        """One `_ROW_FIELDS` dict per layer, in order, plus the dense head row."""
        check_choice(self.specs, choice)
        rows = [
            (spec.index, "conv", spec.c, spec.t, m, k if m > 0 else 0, spec.stride)
            for spec, (m, k) in zip(self.specs, choice.pairs)
        ]
        rows.append((len(self.specs), "dense", self.specs[-1].t, self.classes, self.classes, 1, 1))
        return [dict(zip(_ROW_FIELDS, row)) for row in rows]

    def fingerprint(self) -> dict:
        return {
            "input_hw": list(self.input_hw),
            "classes": self.classes,
            "layers": [
                {
                    "index": s.index,
                    "C": s.c,
                    "T": s.t,
                    "K": s.k_max,
                    "stride": s.stride,
                    "width_grid": list(s.width_grid),
                    "kernel_grid": list(s.kernel_grid),
                }
                for s in self.specs
            ],
        }

    def save(self, path: str | Path) -> None:
        T.save_checkpoint(path, self.state_dict(), meta={"network": self.fingerprint()})

    def load(self, path: str | Path) -> None:
        tensors, meta = T.load_checkpoint(path)
        if meta.get("network") != self.fingerprint():
            raise ShapeError(
                "checkpoint network fingerprint does not match this network spec"
            )
        for p in self.parameters():
            if p.name not in tensors:
                raise ShapeError(f"checkpoint is missing tensor {p.name!r}")
            if tensors[p.name].shape != p.value.shape:
                raise ShapeError(
                    f"tensor {p.name!r}: checkpoint shape {tensors[p.name].shape} "
                    f"!= network shape {p.value.shape}"
                )
            p.value = tensors[p.name].astype(p.value.dtype)
            p.grad = np.zeros_like(p.value)

    # -- extraction --------------------------------------------------------------

    def extract(
        self, choice: SubNetChoice, rng: np.random.Generator | None = None
    ) -> "SubNetwork":
        """Materialize the chosen sub-network as a standalone network.

        With rng None its weights are copies of the shared slices; with a
        Generator they are a fresh He init over the sub-network's own fan-in.
        """
        check_choice(self.specs, choice)
        return _copied(self.specs, choice, self.weights, self.biases, self.head_w, self.head_b, rng)


# ---------------------------------------------------------------------------
# standalone extracted networks
# ---------------------------------------------------------------------------

class SubNetwork(_Network):
    """A discovered architecture with its own weights; ``layers[i]`` is spec layer i."""

    def __init__(self, layers: list[Layer], head_w: T.Parameter, head_b: T.Parameter):
        self.layers = layers
        self.head_w = head_w
        self.head_b = head_b
        self._cache: dict | None = None

    @property
    def choice(self) -> SubNetChoice:
        return SubNetChoice(tuple((l.m, l.k) for l in self.layers))

    def parameters(self) -> list[T.Parameter]:
        ps = []
        for l in self.layers:
            if l.weight is not None:
                ps += [l.weight, l.bias]
        return ps + [self.head_w, self.head_b]

    def forward(self, x: np.ndarray, record: bool = False) -> np.ndarray:
        """Logits; with `record`, keeps each layer's input, ReLU gate and im2col columns."""
        return self._forward(self.layers, x, record)

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> float:
        return _score(self._predict(self.layers, images), labels)[0]

    def shrink_to(self, choice: SubNetChoice) -> "SubNetwork":
        """New sub-network for a weakly smaller choice, reusing overlapping weights."""
        specs = [l.spec for l in self.layers]
        check_choice(specs, choice)
        i = first_growing_layer(self.choice, choice)
        if i is not None:
            (m0, k0), (m1, k1) = self.choice.pairs[i], choice.pairs[i]
            raise GridError(f"layer {specs[i].index}: ({m1},{k1}) does not shrink ({m0},{k0})")
        weights, biases = [l.weight for l in self.layers], [l.bias for l in self.layers]
        return _copied(specs, choice, weights, biases, self.head_w, self.head_b)


def _copied(specs, choice, weights, biases, head_w, head_b, rng=None) -> SubNetwork:
    """`_layers(specs, choice, weights, biases)` and the head, with Parameters of their own.

    Each layer with M > 0 copies its `prefix_slice`, and the head the first z
    columns of `head_w` for the final z channels.  With a Generator the
    weights are instead a fresh He init of those shapes, drawn layers first
    and then the head, and the biases are zero.
    """
    def own(w: np.ndarray, b: np.ndarray, name: str) -> tuple[T.Parameter, T.Parameter]:
        w, b = (w.copy(), b.copy()) if rng is None else (_he(rng, w.shape, w.dtype), np.zeros_like(b))
        return T.Parameter(w, f"{name}.weight"), T.Parameter(b, f"{name}.bias")

    owned = [
        own(prefix_slice(l.weight.value, l.m, l.z_in, l.k), l.bias.value[: l.m], f"layer{l.spec.index}")
        if l.m > 0 else (None, None)
        for l in _layers(specs, choice, weights, biases)
    ]
    z = channel_flow(specs, choice)[-1]
    layers = _layers(specs, choice, *zip(*owned))
    return SubNetwork(layers, *own(head_w.value[:, :z], head_b.value, "head"))


# ---------------------------------------------------------------------------
# architecture files
# ---------------------------------------------------------------------------

# the fields of an architecture row, in the order `architecture_json` writes them
_ROW_FIELDS = ("index", "kind", "C", "T", "M", "k", "stride")


def choice_from_rows(rows, net: SuperNetwork, where: str) -> SubNetChoice:
    """The validated choice that rows as `net.architecture_json` writes them describe.

    The first L rows are conv rows, row i layer i: each gives its `kind`, `M`
    and, when M > 0, `k` (at M = 0 `k` is not read).  At most one head row
    may follow.  Every other field a row gives must equal, in JSON type and
    value, the one `net.architecture_json` writes in that row for this
    choice; a key it does not write is unknown.  A malformed row raises
    ParseError naming `where`, the row (a grid error names its layer) and the
    field.
    """
    pairs, rows = [], json_list(rows, where)
    for r, (spec, row) in enumerate(zip(net.specs, rows)):
        at = f"{where} row {r}"
        kind = json_object(row, at).get("kind")
        if kind != "conv":
            raise ParseError(f"{at}: field 'kind' must be 'conv', got {kind!r}")
        m = json_int(row.get("M"), f"{at}: field 'M'")
        k = json_int(row.get("k"), f"{at}: field 'k'") if m > 0 else spec.kernel_grid[0]
        pairs.append((m, k))
    choice = SubNetChoice(tuple(pairs))
    try:
        written = net.architecture_json(choice)
    except GridError as e:
        raise ParseError(f"{where}: {e}") from None
    for r, row in enumerate(rows):
        at = f"{where} row {r}"
        if r == len(written):
            raise ParseError(f"{at}: the network has {len(pairs)} conv rows and one head row")
        read = ("kind", "M", "k") if r < len(pairs) else ()
        for key, value in json_object(row, at).items():
            if key not in written[r]:
                raise ParseError(f"{at}: unknown field {key!r}")
            want = written[r][key]
            if key not in read and (type(value) is not type(want) or value != want):
                raise ParseError(
                    f"{at}: field {key!r} must be {want!r} for this network, got {value!r}"
                )
    return choice
