"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (nested loops, step-by-step simulation)
and shares no code with the package under test.
"""
import struct
from pathlib import Path

import numpy as np


def loop_conv2d(x, w, stride=1):
    """Six-nested-loop same-padding convolution, NCHW."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    pad = (k - 1) // 2
    h_out = -(-h // stride)
    w_out = -(-wd // stride)
    out = np.zeros((n, f, h_out, w_out), dtype=np.float64)
    for b in range(n):
        for o in range(f):
            for i in range(h_out):
                for j in range(w_out):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(k):
                            for v in range(k):
                                r = i * stride - pad + u
                                s = j * stride - pad + v
                                if 0 <= r < h and 0 <= s < wd:
                                    acc += float(x[b, ci, r, s]) * float(w[o, ci, u, v])
                    out[b, o, i, j] = acc
    return out


def loop_dense(x, w):
    """Triple-loop matrix product for x: [N, D], w: [O, D]."""
    n, d = x.shape
    o = w.shape[0]
    out = np.zeros((n, o), dtype=np.float64)
    for i in range(n):
        for j in range(o):
            for m in range(d):
                out[i, j] += float(x[i, m]) * float(w[j, m])
    return out


def count_conv_taps(c, m, k, h_out, w_out):
    """Count multiply ops of a conv layer by literally iterating every tap."""
    count = 0
    for _ in range(m):
        for _ in range(c):
            for _ in range(k):
                for _ in range(k):
                    count += h_out * w_out
    return count


def simulate_bypass(c, t, m):
    """Step-by-step filter removal with per-filter input bypass.

    Start from T filters; remove the last remaining filter one at a time until
    M remain.  Each time filter i is removed, input channel i takes its output
    slot if that input channel exists, otherwise the slot disappears.  Returns
    the ordered output channel sources.
    """
    slots = [("filter", j) for j in range(t)]
    for i in range(t - 1, m - 1, -1):
        assert slots[i] == ("filter", i)  # filters above i are already gone
        if i < c:
            slots[i] = ("input", i)
        else:
            del slots[i]
    return slots


def finite_difference_grads(loss_fn, params, h=1e-3):
    """Central finite differences of loss_fn() w.r.t. each Parameter value."""
    grads = []
    for p in params:
        g = np.zeros_like(p.value, dtype=np.float64)
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            g.reshape(-1)[i] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def relative_error(a, b, floor=1e-8):
    """Element-wise relative error (for gradient checks, run in float64)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


def normalized_max_error(a, b):
    """Max absolute difference divided by the tensors' magnitude scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max(), np.finfo(np.float64).tiny)
    return np.abs(a - b).max() / scale


def save_raster(path, dataset):
    """Write a raster container as README's file formats specify it.

    Magic, five little-endian u32 header fields (N, C, H, W, classes), u8
    pixels, u16 labels.  No command writes a raster, so tests make them here.
    """
    images = dataset.images
    if images.min() < 0.0 or images.max() > 1.0:
        raise ValueError("raster container stores u8 pixels; images must lie in [0, 1]")
    header = struct.pack("<5I", *images.shape, dataset.classes)
    pixels = np.rint(images * 255.0).astype(np.uint8)
    labels = dataset.labels.astype("<u2")
    Path(path).write_bytes(b"NSRAST1\0" + header + pixels.tobytes() + labels.tobytes())
