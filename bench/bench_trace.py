"""Span tracing of netshrink from outside: wrap the calls into each module.

Nothing in ``src/`` knows about this file.  ``install`` replaces each public
function under the name its caller looks it up by (a module attribute, a
name imported into another module, or a class attribute) with a wrapper that
records a span: name, parent span, thread, start, end and an optional count
derived from the call's arguments or result.  ``summarize`` turns the spans
of one traced pipeline into the per-layer metrics.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int  # 0: no parent
    name: str
    thread: int
    start: float
    end: float
    count: float  # work done, from the span's count function (0 if none)


class Tracer:
    """Thread-safe in-memory span recorder.

    Each thread keeps its own stack of open spans.  A span opened on a thread
    with an empty stack (a pool thread running ``evaluate_sample``) takes as
    parent the innermost open span of the thread that created the tracer, which
    is the call that handed the work to the pool.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._next = 1
        self.spans: list[Span] = []

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
                if stack:
                    parent = stack[-1]
                else:
                    home = self._stacks.get(self._home)
                    parent = home[-1] if home else 0
                sid = self._next
                self._next += 1
                stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                work = float(count(args, kwargs, result)) if count and result is not None else 0.0
                with self._lock:
                    stack.pop()
                    self.spans.append(Span(sid, parent, name, tid, start, end, work))

        return traced


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def _conv_fwd_macs(args, kwargs, y):
    x, w = args[0], args[1]
    f, c, k, _ = w.shape
    return x.shape[0] * f * c * k * k * y.shape[2] * y.shape[3]


def _conv_bwd_macs(args, kwargs, result):
    dy, _, w = args[0], args[1], args[2]
    n, f, h_out, w_out = dy.shape
    _, c, k, _ = w.shape
    return 2 * n * f * c * k * k * h_out * w_out  # the dW and dX products


def _eval_images(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["holdout"])


def _train_images(args, kwargs, result):
    train = args[1] if len(args) > 1 else kwargs["train"]
    epochs = args[2] if len(args) > 2 else kwargs["epochs"]
    return len(train) * epochs


def _one(args, kwargs, result):
    return 1


def _many(args, kwargs, result):
    return len(result)


def patch_table():
    """(owner, attribute, span name, count function) for every traced call.

    The owner is where the caller looks the name up: ``supernet.py`` calls
    ``T.conv2d_forward`` through the module, ``cli.py`` imports ``run_search``,
    ``train_subnetwork``, ``trajectory_replay_finetune`` and
    ``total_resource`` by name, and ``search.py`` imports ``total_resource``
    by name.
    """
    from netshrink import cli, cost, search, supernet, tensor

    return [
        (tensor, "conv2d_forward", "tensor.conv2d_forward", _conv_fwd_macs),
        (tensor, "conv2d_backward", "tensor.conv2d_backward", _conv_bwd_macs),
        (tensor, "sgd_step", "tensor.sgd_step", None),
        (tensor, "save_checkpoint", "tensor.save_checkpoint", None),
        (tensor, "load_checkpoint", "tensor.load_checkpoint", None),
        (supernet.SuperNetwork, "__init__", "supernet.init", None),
        (supernet.SuperNetwork, "forward_train", "supernet.forward_train", None),
        (supernet.SuperNetwork, "backward", "supernet.backward", None),
        (supernet.SuperNetwork, "forward_eval", "supernet.forward_eval", None),
        (supernet.SuperNetwork, "extract", "supernet.extract", None),
        (supernet.SuperNetwork, "save", "supernet.save", None),
        (supernet.SuperNetwork, "load", "supernet.load", None),
        (supernet.SubNetwork, "shrink_to", "supernet.shrink_to", None),
        (search, "train_supernetwork", "search.train_supernetwork", None),
        (cli, "run_search", "search.run_search", None),
        (search, "generate_mcd_sample", "search.generate_mcd_sample", _one),
        (search, "generate_scd_samples", "search.generate_scd_samples", _many),
        (search, "evaluate_sample", "search.evaluate_sample", _eval_images),
        (cli, "train_subnetwork", "search.train_subnetwork", _train_images),
        (search, "train_subnetwork", "search.train_subnetwork", _train_images),
        (cli, "trajectory_replay_finetune", "search.trajectory_replay_finetune", None),
        (search, "total_resource", "cost.total_resource", None),
        (cli, "total_resource", "cost.total_resource", None),
        (cli, "synthetic_latency_table", "cost.synthetic_latency_table", None),
        (cost.LatencyTable, "validate_against", "cost.validate_against", None),
        (cli, "synth_classification", "data.synth_classification", None),
        (cli, "load_raster", "data.load_raster", None),
        (cli, "three_way_split", "data.three_way_split", None),
        (cli, "load_config", "config.load_config", None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every call in `patch_table`; returns a function that undoes it."""
    undo = []
    for owner, attr, name, count in patch_table():
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, count))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.sid, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.sid] = (s.end - s.start) - covered
    return out


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def summarize(spans: list[Span]) -> dict:
    """Per-layer figures of one traced pipeline (one call of each stage).

    Returns the scalar metrics plus the raw train-step and sample-evaluation
    durations, which the caller pools across pipelines for percentiles.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    self_of = self_times(spans)
    parent_of = {s.sid: s.parent for s in spans}
    names = {s.sid: s.name for s in spans}

    def calls(name):
        return len(by_name[name])

    def total(*names_):
        return sum(s.end - s.start for n in names_ for s in by_name[n])

    def self_s(*names_):
        return sum(self_of[s.sid] for n in names_ for s in by_name[n])

    def work(*names_):
        return sum(s.count for n in names_ for s in by_name[n])

    def under(span: Span, ancestor: str) -> bool:
        p = span.parent
        while p:
            if names[p] == ancestor:
                return True
            p = parent_of.get(p, 0)
        return False

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    # a train step runs from forward_train to the sgd_step that follows it
    steps = []
    for run in by_name["search.train_supernetwork"]:
        fwd = sorted(s.start for s in by_name["supernet.forward_train"] if s.parent == run.sid)
        sgd = sorted(s.end for s in by_name["tensor.sgd_step"] if s.parent == run.sid)
        steps += [1e3 * (b - a) for a, b in zip(fwd, sgd)]
    evals = by_name["search.evaluate_sample"]
    samples = work("search.generate_mcd_sample", "search.generate_scd_samples")
    search_resource_calls = sum(
        1 for s in by_name["cost.total_resource"] if under(s, "search.run_search")
    )
    metrics = {
        "tensor.conv2d_forward.calls": calls("tensor.conv2d_forward"),
        "tensor.conv2d_forward.self_s": self_s("tensor.conv2d_forward"),
        "tensor.conv2d_backward.calls": calls("tensor.conv2d_backward"),
        "tensor.conv2d_backward.self_s": self_s("tensor.conv2d_backward"),
        "tensor.conv_fwd.gmac_per_s": ratio(work("tensor.conv2d_forward"), 1e9 * total("tensor.conv2d_forward")),
        "tensor.conv_bwd.gmac_per_s": ratio(work("tensor.conv2d_backward"), 1e9 * total("tensor.conv2d_backward")),
        "tensor.sgd_step.self_s": self_s("tensor.sgd_step"),
        "supernet.forward_train.self_s": self_s("supernet.forward_train"),
        "supernet.backward.self_s": self_s("supernet.backward"),
        "supernet.forward_eval.calls": calls("supernet.forward_eval"),
        "supernet.forward_eval.self_s": self_s("supernet.forward_eval"),
        "search.eval_images_per_s": ratio(work("search.evaluate_sample"), total("search.evaluate_sample")),
        "search.samples_per_s": ratio(samples, total("search.run_search")),
        "search.generate.self_s": self_s("search.generate_mcd_sample", "search.generate_scd_samples"),
        "cost.total_resource.calls": calls("cost.total_resource"),
        "cost.total_resource.self_s": self_s("cost.total_resource"),
        "cost.calls_per_sample": ratio(search_resource_calls, samples),
        "search.eval_parallelism": ratio(
            total("search.evaluate_sample"), union_length((s.start, s.end) for s in evals)
        ),
        "search.train_subnetwork.self_s": self_s("search.train_subnetwork"),
        "search.subnet_train_images_per_s": ratio(
            work("search.train_subnetwork"), total("search.train_subnetwork")
        ),
        "search.replay.s": total("search.trajectory_replay_finetune"),
        "supernet.extract.s": total("supernet.extract"),
        "supernet.checkpoint_save_s": ratio(total("supernet.save"), calls("supernet.save")),
        "supernet.checkpoint_load_s": ratio(total("supernet.load"), calls("supernet.load")),
    }
    return {
        "metrics": metrics,
        "calls": {name: len(group) for name, group in sorted(by_name.items())},
        "train_step_ms": steps,
        "eval_ms": [1e3 * (s.end - s.start) for s in evals],
    }
