"""Minimal dense-array engine: the forward/backward ops a searchable conv net needs.

Arrays are plain numpy ndarrays, NCHW for images, float32 by default.  Every
forward op has a matching backward that returns input/weight gradients; ops
preserve the dtype they are given so tests can run the same math in float64.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError, read_json, write_atomic

DEFAULT_DTYPE = np.float32

CHECKPOINT_FORMAT = "netshrink-checkpoint-v1"


class Parameter:
    """A trainable array paired with a gradient of the same shape.

    The gradient accumulates additively across backward passes until
    ``zero_grad`` is called.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.ascontiguousarray(value)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name or 'unnamed'}, shape={self.value.shape})"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeError(message)


def _conv_shapes(x: np.ndarray, w: np.ndarray, stride: int) -> tuple[int, int]:
    """Validate a same-padding conv of x by w; return the output extents (H_out, W_out)."""
    # runs on every training call, so a passing check formats no message
    if x.ndim != 4:
        raise ShapeError(f"conv input must be 4-D NCHW, got rank {x.ndim}")
    if w.ndim != 4:
        raise ShapeError(f"conv weights must be 4-D [F,C,k,k], got rank {w.ndim}")
    _, c, h, wd = x.shape
    _, wc, kh, kw = w.shape
    if kh != kw:
        raise ShapeError(f"kernel must be square, got {kh}x{kw} on axes (2,3)")
    if kh % 2 != 1:
        raise ShapeError(f"kernel size must be odd, got {kh}")
    if wc != c:
        raise ShapeError(
            f"channel axis mismatch: input axis 1 has {c} channels, weight axis 1 expects {wc}"
        )
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if h < kh or wd < kw:
        raise ShapeError(f"spatial extents ({h}x{wd}) must be >= kernel ({kh}) on axes (2,3)")
    return -(-h // stride), -(-wd // stride)


def _row_width(wd: int, k: int, stride: int) -> int:
    """Columns per output row in the im2col layout: the padded width at stride 1, else W_out."""
    return wd + k - 1 if stride == 1 else -(-wd // stride)


def _taps(xp: np.ndarray, k: int, stride: int, h_out: int, wq: int) -> np.ndarray:
    """[C, k, k, N, H_out, Wq] view of a C-contiguous padded [N, C, Hp + 1, Wp] buffer.

    Entry (c, u, v, n, i, j) is the flat element ``(stride*i + u) * Wp +
    stride*j + v`` of plane (n, c).  At stride 1 ``Wq == Wp``, so each tap of
    each plane is one contiguous run of ``H_out * Wp`` elements; its last
    ``k - 1`` columns per row wrap into the next row (the spare row keeps the
    last tap in bounds) and are cropped by the callers.
    """
    n, c, _, _ = xp.shape
    sn, sc, sh, sw = xp.strides
    # np.ndarray over xp's buffer checks the strides stay in bounds, at a
    # fifth of as_strided's Python-level cost
    return np.ndarray(
        (c, k, k, n, h_out, wq), xp.dtype, xp, 0, (sc, sh, sw, sn, stride * sh, stride * sw)
    )


def _require_cols(cols: np.ndarray, x: np.ndarray, k: int, h_out: int, wq: int) -> None:
    n, c = x.shape[:2]
    want = (c * k * k, n * h_out * wq)
    if cols.shape == want:
        return
    _require(cols.ndim == 2, f"cols must be 2-D [C*k*k, N*H_out*Wq], got rank {cols.ndim}")
    for axis, (got, expect) in enumerate(zip(cols.shape, want)):
        _require(
            got == expect,
            f"cols axis {axis} has {got}, im2col of input {x.shape} with k={k} needs {expect}",
        )


def im2col(x: np.ndarray, k: int, stride: int = 1) -> np.ndarray:
    """Same-padding k x k patches of x: [N, C, H, W] -> [C*k*k, N*H_out*Wq].

    Row (c, u, v) holds tap (u, v) of channel c for every output pixel, in
    the order of ``w.reshape(F, -1)``'s columns.  Column (n, i, j) is output
    pixel (i, j) of image n; at stride 1 a row has ``Wq = W + k - 1`` columns,
    of which the last ``k - 1`` are padding the convolution crops, and at
    stride > 1 ``Wq = W_out``.  Training computes it once per layer and hands
    it to both ``conv2d_forward`` and ``conv2d_backward``.
    """
    n, c, h, wd = x.shape
    h_out, wq = -(-h // stride), _row_width(wd, k, stride)
    pad = (k - 1) // 2
    xp = np.zeros((n, c, h + k, wd + k - 1), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    cols = np.ascontiguousarray(_taps(xp, k, stride, h_out, wq))
    return cols.reshape(c * k * k, n * h_out * wq)


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, stride: int = 1, cols: np.ndarray | None = None
) -> np.ndarray:
    """Same-padding 2-D convolution (cross-correlation), NCHW in, NCHW out.

    x: [N, C, H, W], w: [F, C, k, k] with k odd.  Output spatial extents are
    ceil(H/stride) x ceil(W/stride); padding value is 0.  `cols`, if given,
    must be ``im2col(x, k, stride)``.
    """
    h_out, w_out = _conv_shapes(x, w, stride)
    n, _, _, wd = x.shape
    f, _, k, _ = w.shape
    wq = _row_width(wd, k, stride)
    if cols is None:
        cols = im2col(x, k, stride)
    else:
        _require_cols(cols, x, k, h_out, wq)
    y = (w.reshape(f, -1) @ cols).reshape(f, n, h_out, wq)[..., :w_out]
    return np.ascontiguousarray(y.transpose(1, 0, 2, 3))


def conv2d_backward(
    dy: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    stride: int = 1,
    cols: np.ndarray | None = None,
    need_dx: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of conv2d_forward: returns (dx, dw) for upstream gradient dy.

    `cols`, if given, must be ``im2col(x, k, stride)``.  With
    ``need_dx=False`` (the network's input layer) dx is not computed and
    None is returned in its place.
    """
    h_out, w_out = _conv_shapes(x, w, stride)
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    if dy.shape != (n, f, h_out, w_out):
        _require(dy.ndim == 4, f"conv output gradient must be 4-D NCHW, got rank {dy.ndim}")
        for axis, (got, expect) in enumerate(zip(dy.shape, (n, f, h_out, w_out))):
            _require(
                got == expect,
                f"dy axis {axis} has {got}, the forward output of input {x.shape} "
                f"and weights {w.shape} at stride {stride} has {expect}",
            )
    wq = _row_width(wd, k, stride)
    if cols is None:
        cols = im2col(x, k, stride)
    else:
        _require_cols(cols, x, k, h_out, wq)
    # dy on the columns' [F, N*H_out*Wq] grid, zero in the cropped columns
    dyq = np.zeros((f, n, h_out, wq), dtype=dy.dtype)
    dyq[..., :w_out] = dy.transpose(1, 0, 2, 3)
    dyq = dyq.reshape(f, -1)
    # dW = dyq @ cols.T; OpenBLAS runs the [C*k*k, F] product about twice as fast
    dw = (cols @ dyq.T).T.reshape(w.shape)
    if not need_dx:
        return None, dw
    # dx is the transposed convolution of dy (arXiv 1603.07285) split into
    # stride**2 sub-pixel phases (arXiv 1609.05158).  Per axis, dx[s*p + r] =
    # sum over e of dy[p + e] * w[r + pad - s*e]: each phase r is a stride-1
    # correlation of a window of d dy values, e = lo .. lo + d - 1, with taps
    # that leave [0, k) weighing zero.  In the flipped kernel, zero-padded by
    # `a` in front to s*d taps, phase r's taps are every s-th from s - 1 - r.
    s, pad = stride, (k - 1) // 2
    lo = -(pad // s)
    d = (s - 1 + pad) // s - lo + 1
    if s == 1:  # one phase: the flipped kernel itself (d == k, a == 0)
        wph = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(c, -1)
    else:
        a = s - 1 - pad % s
        wz = np.zeros((f, c, s * d, s * d), dtype=w.dtype)
        wz[:, :, a : a + k, a : a + k] = w[:, :, ::-1, ::-1]
        wph = wz.reshape(f, c, d, s, d, s)[:, :, :, ::-1, :, ::-1]
        wph = wph.transpose(3, 5, 1, 0, 2, 4).reshape(s * s * c, f * d * d)
    # the windows need -lo zero taps before dy; im2col pads (d - 1) // 2 in front,
    # and as d - 1 = ceil(pad / s) + floor(pad / s), that is floor(pad / s) = -lo
    dycols = im2col(dy, d)
    phases = (wph @ dycols).reshape(s, s, c, n, h_out, w_out + d - 1)
    # interleave the phases into NCHW; at odd extents the last phases run one short
    dx = np.empty(x.shape, dtype=x.dtype)
    for r in range(s):
        for t in range(s):
            dst = dx[:, :, r::s, t::s]
            dst[...] = phases[r, t, :, :, : dst.shape[2], : dst.shape[3]].transpose(1, 0, 2, 3)
    return dx, dw


def dense_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x: [N, D], w: [O, D] -> [N, O]."""
    _require(x.ndim == 2, f"dense input must be 2-D [N,D], got rank {x.ndim}")
    _require(w.ndim == 2, f"dense weights must be 2-D [O,D], got rank {w.ndim}")
    _require(
        x.shape[1] == w.shape[1],
        f"inner axis mismatch: input axis 1 has {x.shape[1]}, weight axis 1 has {w.shape[1]}",
    )
    return x @ w.T


def dense_backward(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    dx = dy @ w
    dw = dy.T @ x
    return dx, dw


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """[N, C, H, W] -> [N, C] channel means."""
    _require(x.ndim == 4, f"pool input must be 4-D NCHW, got rank {x.ndim}")
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(dy: np.ndarray, input_shape: tuple[int, ...]) -> np.ndarray:
    n, c, h, w = input_shape
    dx = np.empty(input_shape, dtype=dy.dtype)
    dx[...] = (dy / (h * w))[:, :, None, None]
    return dx


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    _require(logits.ndim == 2, f"logits must be 2-D [N,classes], got rank {logits.ndim}")
    n, classes = logits.shape
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ShapeError(
            f"labels must lie in [0, {classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, np.finfo(probs.dtype).tiny)).mean())
    dlogits = probs  # nothing reads probs after this
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def sgd_step(params: list[Parameter], lr: float, weight_decay: float = 0.0) -> None:
    """p <- p - lr * (grad + weight_decay * p), in place."""
    if lr <= 0:
        raise ValueError(f"learning rate must be > 0, got {lr}")
    for p in params:
        # the same float operations as lr * (grad + weight_decay * value), one temporary
        step = weight_decay * p.value
        step += p.grad
        step *= lr
        p.value -= step


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named arrays as a versioned, compact JSON map: name -> {shape, flat data}."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "meta": meta or {},
        "tensors": {
            name: {"shape": list(arr.shape), "data": np.ravel(arr).tolist()}
            for name, arr in tensors.items()
        },
    }
    # no indent: json.dumps then runs its C encoder, not the pure-Python one
    write_atomic(path, json.dumps(payload, separators=(",", ":")))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by save_checkpoint. Returns (tensors, meta)."""
    payload = read_json(path, "checkpoint")
    if not isinstance(payload, dict):
        raise ParseError(
            f"checkpoint {path}: top level must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(
            f"checkpoint {path}: unknown format {payload.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    entries, meta = payload.get("tensors"), payload.get("meta", {})
    if not isinstance(entries, dict):
        raise ParseError(f"checkpoint {path}: field 'tensors' must be an object of named tensors")
    if not isinstance(meta, dict):
        raise ParseError(f"checkpoint {path}: field 'meta' must be an object")
    tensors = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
            raise ParseError(f"checkpoint {path}: tensor {name} needs fields 'shape' and 'data'")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(isinstance(d, int) and d >= 0 for d in shape):
            raise ParseError(
                f"checkpoint {path}: tensor {name} field 'shape' must be a list of "
                f"non-negative integers, got {shape!r}"
            )
        try:
            data = np.asarray(entry["data"], dtype=DEFAULT_DTYPE)
        except (TypeError, ValueError) as e:
            raise ParseError(
                f"checkpoint {path}: tensor {name} field 'data' is not a list of numbers: {e}"
            ) from e
        if data.size != int(np.prod(shape)):
            raise ParseError(
                f"checkpoint {path}: tensor {name} has {data.size} values, "
                f"shape {tuple(shape)} needs {int(np.prod(shape))}"
            )
        tensors[name] = data.reshape(shape)
    return tensors, meta
