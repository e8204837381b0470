"""Coordinate-descent architecture search over a trained super-network.

Each iteration must cut the best sample's resource by a scheduled amount
(geometric decay).  The multi-layer optimizer (MCD) draws J candidates by
randomly shrinking L layers at once; the single-layer baseline (SCD) proposes
one candidate per layer.  Candidates are ranked by holdout accuracy using the
shared weights directly, no per-sample training; equal accuracies fall to the
lower holdout cross-entropy, then to the lower resource.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .config import DiscoveredConfig, SearchConfig, TrainingConfig
from .cost import total_resource
from .data import Dataset
from .errors import (
    FeasibilityError, GridError, InfeasibleTargetError, ParseError, json_list, read_json, tagged_csv,
    write_json,
)
from .supernet import (
    LayerSpec,
    SubNetChoice,
    SubNetwork,
    SuperNetwork,
    _score,
    choice_from_rows,
    first_changed_layer,
    first_growing_layer,
    sample_width_assignments,
)

SEARCH_LOG_FORMAT = "netshrink-search-log-v2"

_MAX_ITERATIONS = 100_000

# full-width holdout evaluations per super-network training run, at evenly
# spaced epochs from the first to the last; only the last value is read
# downstream.  Scoring epoch 0 also spares the training steps' heap: on
# desk-mcd, glibc's malloc returned and refaulted it every step (9.7k minor
# faults per epoch) until the first evaluation's larger arrays raised its
# dynamic trim threshold.
HOLDOUT_POINTS = 4


def _tol(x: float) -> float:
    return 1e-9 * max(1.0, abs(x))


@dataclass(frozen=True)
class SampleRecord:
    """One evaluated sample: a search-log row, and a trajectory entry when chosen."""

    iteration: int  # -1 marks the initial network
    sample_id: int
    choice: SubNetChoice
    resource: float
    holdout_accuracy: float
    loss: float  # mean holdout cross-entropy, from the same logits as the accuracy
    chosen: int = 0
    duplicate_of: int | None = None  # id of the earlier sample with the same key


@dataclass
class SearchResult:
    trajectory: list[SampleRecord]  # initial network, then each iteration's chosen row
    log_rows: list[SampleRecord]  # every generated sample


def reduction_schedule(initial_resource: float, config: SearchConfig, iteration: int) -> float:
    """Resource cut required at `iteration`: r0 * init_reduction * decay^iteration."""
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    return initial_resource * config.init_reduction * config.decay**iteration


def iteration_budget(
    prev_resource: float, initial_resource: float, config: SearchConfig, iteration: int,
    min_resource: float,
) -> float:
    """Resource bound samples of `iteration` must meet.

    The scheduled cut applies relative to the previous best; near the floor
    the budget is clamped to the global minimum so a reachable target stays
    reachable.
    """
    return max(prev_resource - reduction_schedule(initial_resource, config, iteration), min_resource)


# ---------------------------------------------------------------------------
# shrink moves
# ---------------------------------------------------------------------------

def shrink_options(spec: LayerSpec, m: int, k: int) -> list[tuple[int, int]]:
    """All strict single-layer shrinks of (m, k): smaller M, smaller k, or both."""
    if m == 0:
        return []
    options: list[tuple[int, int]] = []
    for m2 in spec.width_grid:
        if m2 > m:
            continue
        if m2 == 0:
            options.append((0, spec.kernel_grid[0]))
            continue
        for k2 in spec.kernel_grid:
            if k2 <= k and (m2, k2) != (m, k):
                options.append((m2, k2))
    return options


def min_resource_choice(specs: Sequence[LayerSpec]) -> SubNetChoice:
    return SubNetChoice(tuple((s.width_grid[0], s.kernel_grid[0]) for s in specs))


def layer_max_reduction(specs: Sequence[LayerSpec], model, choice: SubNetChoice, index: int) -> float:
    """Largest resource cut achievable by shrinking layer `index` alone, to its minimum."""
    floor = choice.replace(index, *min_resource_choice(specs).pairs[index])
    return total_resource(choice, model) - total_resource(floor, model)


def scd_max_reduction(specs: Sequence[LayerSpec], model, choice: SubNetChoice) -> float:
    """Best per-iteration cut a single-layer step can achieve from `choice`."""
    return max(layer_max_reduction(specs, model, choice, i) for i in range(len(specs)))


def mcd_max_reduction(specs: Sequence[LayerSpec], model, choice: SubNetChoice, l_layers: int) -> float:
    """Best per-iteration cut an L-layer step can achieve (sum of the L largest)."""
    cuts = sorted(
        (layer_max_reduction(specs, model, choice, i) for i in range(len(specs))), reverse=True
    )
    return float(sum(cuts[: l_layers]))


def generate_mcd_sample(
    specs: Sequence[LayerSpec],
    model,
    best_prev: SubNetChoice,
    l_layers: int,
    required_reduction: float,
    rng: np.random.Generator,
    max_attempts: int = 200,
) -> SubNetChoice:
    """One candidate: L randomly chosen layers, each randomly shrunk, meeting the cut.

    Rejection-samples up to `max_attempts` proposals; afterwards escalates by
    forcing minimum grid values one layer at a time (largest cut first).
    """
    budget = total_resource(best_prev, model) - required_reduction
    options = [shrink_options(spec, *pair) for spec, pair in zip(specs, best_prev.pairs)]
    shrinkable = [i for i, layer_options in enumerate(options) if layer_options]
    if not shrinkable:
        raise FeasibilityError("no layer can shrink any further", attempts=0)
    l_eff = min(l_layers, len(shrinkable))
    for _ in range(max_attempts):
        picked = rng.choice(len(shrinkable), size=l_eff, replace=False)
        candidate = best_prev
        for si in sorted(picked):
            i = shrinkable[si]
            candidate = candidate.replace(i, *options[i][rng.integers(len(options[i]))])
        if total_resource(candidate, model) <= budget + _tol(budget):
            return candidate
    by_cut = sorted(
        shrinkable, key=lambda i: (-layer_max_reduction(specs, model, best_prev, i), i)
    )
    floor = min_resource_choice(specs)
    candidate = best_prev
    forced = 0
    for i in by_cut[:l_eff]:
        candidate = candidate.replace(i, *floor.pairs[i])
        forced += 1
        if total_resource(candidate, model) <= budget + _tol(budget):
            return candidate
    raise FeasibilityError(
        f"no {l_eff}-layer shrink reaches the required reduction "
        f"{required_reduction:.6g}",
        attempts=max_attempts + forced,
    )


def generate_scd_samples(
    specs: Sequence[LayerSpec],
    model,
    best_prev: SubNetChoice,
    required_reduction: float,
) -> list[SubNetChoice]:
    """One candidate per layer, shrinking only that layer just enough to meet the cut.

    Layers whose full removal still misses the cut yield no candidate.
    """
    budget = total_resource(best_prev, model) - required_reduction
    samples = []
    for i, spec in enumerate(specs):
        best_option = None
        for option in shrink_options(spec, *best_prev.pairs[i]):
            candidate = best_prev.replace(i, *option)
            r = total_resource(candidate, model)
            if r <= budget + _tol(budget):
                key = (r, option[0], option[1])  # least shrink, prefer keeping filters
                if best_option is None or key > best_option[0]:
                    best_option = (key, candidate)
        if best_option is not None:
            samples.append(best_option[1])
    return samples


# ---------------------------------------------------------------------------
# evaluation and selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoldoutPrefix:
    """The holdout input of each spec layer under `choice`, one array per layer.

    A sample that first differs from `choice` at layer f computes the same
    inputs below f, so it runs from f on ``inputs[f]``: the same operations
    on the same arrays, hence the same bits as a run from layer 0.  `inputs`
    may stop short of the last layer; it then serves samples whose f lies
    within it.
    """

    choice: SubNetChoice
    inputs: list[np.ndarray]

    def moved_to(self, supernet: SuperNetwork, choice: SubNetChoice) -> "HoldoutPrefix":
        """The prefix under `choice`, recomputed from its first changed layer on."""
        f = first_changed_layer(self.choice, choice)
        inputs = self.inputs[:f] + [None] * (len(self.inputs) - f)
        supernet.forward_eval(self.inputs[f], choice, f, capture=inputs)
        return HoldoutPrefix(choice, inputs)


def evaluate_sample(
    supernet: SuperNetwork, choice: SubNetChoice, holdout: Dataset,
    prefix: HoldoutPrefix | None = None, capture: list | None = None,
) -> tuple[float, float]:
    """Holdout (top-1 accuracy, mean cross-entropy) of the sliced sub-network; read-only.

    With `prefix`, runs only from the first layer where `choice` differs
    from ``prefix.choice``, or from the last layer ``prefix.inputs`` holds if
    that comes first.  `capture` receives the holdout input of each layer
    that runs (see `SuperNetwork.forward_eval`).
    """
    start = 0 if prefix is None else min(
        first_changed_layer(prefix.choice, choice), len(prefix.inputs) - 1
    )
    x = holdout.images if start == 0 else prefix.inputs[start]
    return _score(supernet.forward_eval(x, choice, start, capture), holdout.labels)


def evaluate_run(
    supernet: SuperNetwork, run: Sequence[SubNetChoice], holdout: Dataset, prefix: HoldoutPrefix,
) -> list[tuple[float, float]]:
    """`evaluate_sample` of each choice of `run`, sharing the layers they share.

    Each choice runs from where it first differs from the one before it, on
    the holdout inputs that one captured up to that layer; the first runs on
    `prefix`.  Any order gives the same scores; sorted by pairs, each choice
    shares the longest prefix with the one before it.
    """
    scores = []
    for choice, after in zip(run, run[1:]):
        stop = min(first_changed_layer(choice, after), len(choice.pairs) - 1) + 1
        capture = prefix.inputs[:stop]
        capture += [None] * (stop - len(capture))
        scores.append(evaluate_sample(supernet, choice, holdout, prefix, capture))
        prefix = HoldoutPrefix(choice, capture)
    return scores + [evaluate_sample(supernet, run[-1], holdout, prefix)]


def select_best(records: Sequence[SampleRecord]) -> SampleRecord:
    """Highest accuracy; ties broken by lower loss, then lower resource, then the earlier record.

    A NaN loss ranks below every number.
    """
    if not records:
        raise ValueError("select_best needs at least one record")
    return max(
        records,
        key=lambda r: (r.holdout_accuracy, -np.inf if np.isnan(r.loss) else -r.loss, -r.resource),
    )


# ---------------------------------------------------------------------------
# the search loop
# ---------------------------------------------------------------------------

def run_search(
    supernet: SuperNetwork,
    model,
    config: SearchConfig,
    holdout: Dataset,
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
) -> SearchResult:
    """Shrink from the full network until its resource meets ``config.target``.

    Returns one log row per generated sample and the trajectory: the initial
    network (iteration -1), then each iteration's chosen log row.  Evaluates
    an iteration's unique samples on `jobs` threads; deterministic for a
    fixed config seed whatever `jobs` is.
    """
    if jobs < 1:
        raise GridError(f"jobs must be >= 1, got {jobs}")
    specs = supernet.specs
    rng = np.random.default_rng(config.seed)
    full = supernet.full_choice()
    initial_resource = total_resource(full, model)
    target = config.target(initial_resource)
    min_resource = total_resource(min_resource_choice(specs), model)
    if min_resource > target + _tol(target):
        raise InfeasibleTargetError(
            f"target {target:.6g} is below the minimum achievable resource {min_resource:.6g}"
        )
    if config.decay < 1.0:
        total_schedulable = initial_resource * config.init_reduction / (1.0 - config.decay)
        needed = initial_resource - target
        if total_schedulable < needed:
            raise InfeasibleTargetError(
                f"the geometric schedule tops out at {total_schedulable:.6g} total "
                f"reduction, but reaching the target needs {needed:.6g}"
            )

    inputs = [None] * len(specs)
    best = SampleRecord(
        -1, 0, full, initial_resource, *evaluate_sample(supernet, full, holdout, capture=inputs),
        chosen=1,
    )
    prefix = HoldoutPrefix(full, inputs)
    trajectory = [best]
    log_rows: list[SampleRecord] = []
    iteration = 0
    while best.resource > target + _tol(target):
        if iteration >= _MAX_ITERATIONS:
            raise FeasibilityError(f"no convergence after {iteration} iterations")
        if prefix.choice != best.choice:
            prefix = prefix.moved_to(supernet, best.choice)
        budget = iteration_budget(
            best.resource, initial_resource, config, iteration, min_resource
        )
        required = best.resource - budget
        if config.optimizer == "mcd":
            choices = [
                generate_mcd_sample(specs, model, best.choice, config.layers_per_sample, required, rng)
                for _ in range(config.samples_per_iteration)
            ]
        else:
            choices = generate_scd_samples(specs, model, best.choice, required)
            if not choices:
                raise FeasibilityError(
                    f"iteration {iteration}: no single layer can cut {required:.6g} alone"
                )

        keys = [choice.key() for choice in choices]
        first_id: dict[tuple, int] = {}
        for j, key in enumerate(keys):
            first_id.setdefault(key, j)
        # a run: the samples that share their first changed layer and its (M, k)
        runs = [
            [choices[j] for j in run] for _, run in groupby(
                sorted(first_id.values(), key=lambda j: choices[j].pairs),
                key=lambda j: choices[j].pairs[: first_changed_layer(prefix.choice, choices[j]) + 1],
            )
        ]
        # the threads share `prefix` read-only
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            run_scores = pool.map(lambda run: evaluate_run(supernet, run, holdout, prefix), runs)
        # read after the pool has drained, so this thread does not wake once per run
        score = {
            choice.key(): s for run, scores in zip(runs, run_scores) for choice, s in zip(run, scores)
        }
        rows = [
            SampleRecord(
                iteration, j, choice, total_resource(choice, model), *score[key],
                duplicate_of=None if first_id[key] == j else first_id[key],
            )
            for j, (choice, key) in enumerate(zip(choices, keys))
        ]
        # a duplicate ties with the earlier row it repeats, so it never wins
        best = replace(select_best(rows), chosen=1)
        rows[best.sample_id] = best
        log_rows.extend(rows)
        trajectory.append(best)
        if progress is not None:
            layers_run = sum(
                len(specs) - first_changed_layer(before, choice)
                for run in runs for before, choice in zip([prefix.choice, *run], run)
            )
            progress(
                f"iteration {iteration}: {len(first_id)}/{len(choices)} unique samples, "
                f"layers run {layers_run}/{len(first_id) * len(specs)}, "
                f"best resource {best.resource:.4g}, accuracy {best.holdout_accuracy:.4f}, "
                f"loss {best.loss:.4f}"
            )
        iteration += 1
    return SearchResult(trajectory=trajectory, log_rows=log_rows)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def search_log_csv(rows: Sequence[SampleRecord]) -> str:
    header = ("iteration", "sample_id", "resource", "accuracy", "loss", "chosen", "duplicate_of")
    return tagged_csv(SEARCH_LOG_FORMAT, header, (
        (r.iteration, r.sample_id, r.resource, r.holdout_accuracy, r.loss, r.chosen, r.duplicate_of)
        for r in rows
    ))


def write_trajectory(path: str | Path, supernet: SuperNetwork, trajectory: Sequence[SampleRecord]) -> None:
    """JSON list of architecture JSONs, initial network first."""
    write_json(path, [supernet.architecture_json(rec.choice) for rec in trajectory])


def load_trajectory_choices(path: str | Path, supernet: SuperNetwork) -> list[SubNetChoice]:
    """Parse a trajectory file back into validated per-layer choices.

    Each entry must weakly shrink every layer of the entry before it, as a
    search writes them; replay walks the entries in that order.
    """
    raw = json_list(read_json(path, "trajectory"), f"trajectory {path}")
    if not raw:
        raise ParseError(f"trajectory {path}: must be a non-empty list of architectures")
    choices = [
        choice_from_rows(rows, supernet, f"trajectory {path} entry {e}")
        for e, rows in enumerate(raw)
    ]
    for e, (before, after) in enumerate(zip(choices, choices[1:]), start=1):
        i = first_growing_layer(before, after)
        if i is not None:
            (m0, k0), (m1, k1) = before.pairs[i], after.pairs[i]
            raise ParseError(
                f"trajectory {path} entry {e}: layer {supernet.specs[i].index}: "
                f"({m1},{k1}) does not shrink entry {e - 1}'s ({m0},{k0})"
            )
    return choices


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo : lo + batch_size]


def _sgd_epoch(net: SuperNetwork | SubNetwork, train: Dataset, rng: np.random.Generator,
               config: TrainingConfig, lr: float,
               forward: Callable[[np.ndarray], np.ndarray]) -> float:
    """One epoch of minibatch SGD on `net` at rate `lr`; returns the mean batch loss.

    ``forward(x)`` returns the batch's logits and records the pass that
    ``net.backward`` differentiates.
    """
    losses = []
    for idx in _batches(len(train), config.batch_size, rng):
        net.zero_grad()
        loss, dlogits = T.softmax_cross_entropy(forward(train.images[idx]), train.labels[idx])
        net.backward(dlogits)
        T.sgd_step(net.parameters(), lr, config.weight_decay)
        losses.append(loss)
    return float(np.mean(losses))


def train_supernetwork(
    supernet: SuperNetwork,
    train: Dataset,
    config: TrainingConfig,
    rng: np.random.Generator,
    holdout: Dataset | None = None,
) -> list[dict]:
    """Joint training of all sub-networks: one forward-backward pass per batch.

    Every batch assigns each image one width per layer (near-uniform over the
    grid, independent across layers) and each layer one kernel size drawn
    uniformly from its grid.  Returns one history row per epoch.  With a
    `holdout` split, the rows of `HOLDOUT_POINTS` evenly spaced epochs, the
    first and the last among them, carry the full-width network's
    `holdout_accuracy`; the evaluation draws nothing from `rng` and writes no
    weight.
    """
    specs = supernet.specs
    scored = {round(i * (config.epochs - 1) / (HOLDOUT_POINTS - 1)) for i in range(HOLDOUT_POINTS)}

    def forward(x: np.ndarray) -> np.ndarray:
        widths = np.column_stack(
            [sample_width_assignments(len(x), s.width_grid, rng) for s in specs]
        )
        # draws what rng.choice(grid) draws, without its argument handling
        kernels = [s.kernel_grid[rng.integers(len(s.kernel_grid))] for s in specs]
        return supernet.forward_train(x, widths, kernels)

    history = []
    lr = config.learning_rate
    for epoch in range(config.epochs):
        row = {"epoch": epoch, "loss": _sgd_epoch(supernet, train, rng, config, lr, forward)}
        if holdout is not None and epoch in scored:
            row["holdout_accuracy"] = supernet.evaluate(
                holdout.images, holdout.labels, supernet.full_choice()
            )
        history.append(row)
        lr *= config.lr_decay
    return history


def train_subnetwork(
    net: SubNetwork, train: Dataset, epochs: int, rng: np.random.Generator, config: TrainingConfig
) -> list[dict]:
    """Plain SGD training of a standalone (extracted or rebuilt) network."""
    return [
        {"epoch": epoch, "loss": _sgd_epoch(net, train, rng, config, config.learning_rate,
                                            lambda x: net.forward(x, record=True))}
        for epoch in range(epochs)
    ]


def trajectory_replay_finetune(
    supernet: SuperNetwork,
    choices: Sequence[SubNetChoice],
    train: Dataset,
    rng: np.random.Generator,
    config: TrainingConfig,
    discovered: DiscoveredConfig,
) -> SubNetwork:
    """Walk the per-iteration best architectures, reusing overlapping weights.

    Starts from the initial architecture with the super-network's (pretrained)
    weights; at every shrink step the surviving slices carry over and the new
    network trains for `discovered.replay_epochs_per_step`; the final
    architecture then trains for `discovered.epochs`.
    """
    if not choices:
        raise ValueError("trajectory must contain at least the initial network")
    net = supernet.extract(choices[0])
    for choice in choices[1:]:
        net = net.shrink_to(choice)
        train_subnetwork(net, train, discovered.replay_epochs_per_step, rng, config)
    train_subnetwork(net, train, discovered.epochs, rng, config)
    return net
