"""Operator commands: train-supernet, search, train-discovered, report.

One config file drives a run directory; each command writes only its own
stage subdirectory plus a provenance copy of the effective config, so
commands never clobber each other's outputs.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import search as searchmod
from .config import ExperimentConfig, load_config
from .cost import LatencyTable, MacModel, co2_estimate, synthetic_latency_table, total_resource
from .data import Dataset, load_raster, synth_classification, three_way_split
from .errors import (
    ConfigError, NetshrinkError, ParseError, StateError, json_number, json_object, read_json,
    tagged_csv, write_atomic, write_json,
)
from .search import run_search, train_subnetwork, trajectory_replay_finetune
from .supernet import SuperNetwork, choice_from_rows
from . import tensor as T

STAGE_FORMAT = "netshrink-stage-v1"
METRICS_FORMAT = "netshrink-metrics-v1"
CURVE_FORMAT = "netshrink-training-curve-v1"


def _lock_holder(lock: Path) -> str:
    """Why an existing `lock` blocks a command: the pid it holds, and whether that pid runs.

    The lock is never removed here: a pid can be reused, or come from another
    pid namespace, so only the operator can tell that a lock is stale.
    """
    try:
        pid = int(lock.read_text())
    except (OSError, ValueError):
        pid = 0
    if pid <= 0:
        return (
            f"locked ({lock} holds no pid): another command may be writing here; "
            f"if none is, remove the stale lock {lock}"
        )
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return f"locked by pid {pid}, which is not running: remove the stale lock {lock}"
    except PermissionError:
        pass  # the process exists under another user
    return (
        f"locked by pid {pid}, which is running: another command may be writing here; "
        f"if pid {pid} is not a netshrink command, remove the stale lock {lock}"
    )


_STAGE_DIRS = {"train-supernet": "supernet", "search": "search", "train-discovered": "discovered"}


@contextmanager
def _stage(args):
    """Run one command's stage under the run directory's lock; yields (config, stage directory).

    On a clean exit it writes the stage's `config.json` and `stage.json`, last. On any
    exit it removes the lock, then each directory made here and still empty.
    """
    cfg = load_config(args.config, seed_override=args.seed)
    run_dir = Path(args.out)
    stage_dir = run_dir / _STAGE_DIRS[args.command]
    made = [d for d in (stage_dir, *stage_dir.parents) if not d.exists()]  # deepest first
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out: cannot make run directory {run_dir}: {e.strerror}") from None
    lock = run_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise StateError(f"run directory is {_lock_holder(lock)}") from None
    os.write(fd, f"{os.getpid()}\n".encode())
    os.close(fd)
    try:
        stage_dir.mkdir(exist_ok=True)
        started = time.perf_counter()
        yield cfg, stage_dir
        seconds = time.perf_counter() - started
        provenance = {"format": cfgmod.CONFIG_FORMAT, "effective_seed": cfg.seed, "source": cfg.raw}
        write_json(stage_dir / "config.json", provenance)
        record = {"format": STAGE_FORMAT, "stage": args.command, "seconds": seconds, "seed": cfg.seed}
        write_json(stage_dir / "stage.json", record)
    finally:
        lock.unlink(missing_ok=True)
        with suppress(OSError):  # not empty: it holds what the command wrote, and so do its parents
            for d in made:
                d.rmdir()


def _input(given: str | None, default: Path, missing: str) -> str:
    """The input file a flag names, else the run's own `default`; `missing` formats its absence."""
    path = given or str(default)
    if not Path(path).exists():
        raise ConfigError(missing.format(path))
    return path


def _load_dataset(cfg: ExperimentConfig) -> Dataset:
    d = cfg.dataset
    if d.kind == "synthetic":
        return synth_classification(
            d.classes, d.per_class, d.height, d.width,
            seed=cfg.seed + cfgmod.SEED_DATA, channels=d.channels, noise=d.noise,
        )
    return load_raster(d.path)


def _splits(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset]:
    return three_way_split(
        _load_dataset(cfg), cfg.dataset.holdout_fraction, cfg.dataset.test_fraction,
        seed=cfg.seed + cfgmod.SEED_DATA,
    )


def _build_supernet(cfg: ExperimentConfig) -> SuperNetwork:
    return SuperNetwork(
        cfg.layers, cfg.input_hw, cfg.classes,
        rng=np.random.default_rng(cfg.seed + cfgmod.SEED_INIT),
    )


def _build_cost_model(cfg: ExperimentConfig) -> LatencyTable:
    """The MAC, file or synthetic table the config's metric names, validated against its grid."""
    if cfg.search.metric == "macs":
        table = MacModel(cfg.layers, cfg.input_hw)
    elif cfg.cost.kind == "file":
        table = LatencyTable.load(cfg.cost.path)
        table.interpolate = table.interpolate or cfg.cost.interpolate
    else:
        table = synthetic_latency_table(
            cfg.layers, cfg.input_hw, seed=cfg.seed + cfgmod.SEED_COST,
            interpolate=cfg.cost.interpolate,
        )
    table.validate_against(cfg.layers)
    return table


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train_supernet(args) -> int:
    with _stage(args) as (cfg, stage_dir):
        train, holdout, _ = _splits(cfg)
        net = _build_supernet(cfg)
        history = searchmod.train_supernetwork(
            net, train, cfg.training, np.random.default_rng(cfg.seed + cfgmod.SEED_TRAIN), holdout
        )
        net.save(stage_dir / "checkpoint.json")
        write_atomic(stage_dir / "training_curve.csv", tagged_csv(
            CURVE_FORMAT, ("epoch", "loss", "holdout_accuracy"),
            ((row["epoch"], row["loss"], row.get("holdout_accuracy")) for row in history),
        ))
    final = history[-1]
    print(
        f"trained super-network for {cfg.training.epochs} epochs: "
        f"loss {final['loss']:.4f}, full-width holdout accuracy "
        f"{final['holdout_accuracy']:.4f}"
    )
    print(f"checkpoint: {stage_dir / 'checkpoint.json'}")
    return 0


def cmd_search(args) -> int:
    with _stage(args) as (cfg, stage_dir):
        checkpoint = _input(
            args.checkpoint, stage_dir.parent / "supernet" / "checkpoint.json",
            "checkpoint not found: {}",
        )
        _, holdout, _ = _splits(cfg)
        net = _build_supernet(cfg)
        net.load(checkpoint)
        result = run_search(
            net, _build_cost_model(cfg), replace(cfg.search, seed=cfg.seed + cfgmod.SEED_SEARCH),
            holdout, jobs=args.jobs, progress=print,
        )
        searchmod.write_trajectory(stage_dir / "trajectory.json", net, result.trajectory)
        write_atomic(stage_dir / "search_log.csv", searchmod.search_log_csv(result.log_rows))
        write_json(
            stage_dir / "discovered_architecture.json",
            net.architecture_json(result.trajectory[-1].choice),
        )
    initial, final = result.trajectory[0], result.trajectory[-1]
    print(
        f"search met target {cfg.search.target(initial.resource):.6g} ({cfg.search.metric}): "
        f"final resource {final.resource:.6g}, holdout accuracy "
        f"{final.holdout_accuracy:.4f}, {len(result.trajectory) - 1} iterations"
    )
    print(f"trajectory: {stage_dir / 'trajectory.json'}")
    return 0


def cmd_train_discovered(args) -> int:
    with _stage(args) as (cfg, stage_dir):
        run_dir = stage_dir.parent
        net = _build_supernet(cfg)
        mode = cfg.discovered.mode
        # parse the input before the data and cost-model set-up, so a bad file fails fast
        if args.architecture is not None:
            rows = read_json(args.architecture, "architecture")
            choices = [choice_from_rows(rows, net, f"architecture {args.architecture}")]
            mode = "scratch"  # a bare architecture has no trajectory to replay
        else:
            trajectory = _input(
                args.trajectory, run_dir / "search" / "trajectory.json",
                "no architecture input: neither --architecture given nor {} present",
            )
            choices = searchmod.load_trajectory_choices(trajectory, net)
        final_choice = choices[-1]
        train, holdout, test = _splits(cfg)
        model = _build_cost_model(cfg)
        mac_model = MacModel(cfg.layers, cfg.input_hw)
        rng = np.random.default_rng(cfg.seed + cfgmod.SEED_DISCOVERED)

        if mode == "replay":
            net.load(_input(
                args.checkpoint, run_dir / "supernet" / "checkpoint.json",
                "replay mode needs the super-network checkpoint: {}",
            ))
            discovered = trajectory_replay_finetune(
                net, choices, train, rng, cfg.training, cfg.discovered
            )
        else:
            discovered = net.extract(final_choice, rng=rng)
            train_subnetwork(discovered, train, cfg.discovered.epochs, rng, cfg.training)

        metrics = {
            "format": METRICS_FORMAT,
            "mode": mode,
            "test_accuracy": discovered.evaluate(test.images, test.labels),
            "holdout_accuracy": discovered.evaluate(holdout.images, holdout.labels),
            "resource": total_resource(final_choice, model),
            "resource_metric": cfg.search.metric,
            "macs": total_resource(final_choice, mac_model),
            "epochs": cfg.discovered.epochs,
        }
        T.save_checkpoint(
            stage_dir / "checkpoint.json",
            discovered.state_dict(),
            meta={"choice": [list(p) for p in discovered.choice.pairs]},
        )
        write_json(stage_dir / "architecture.json", net.architecture_json(final_choice))
        write_json(stage_dir / "metrics.json", metrics)
    print(
        f"trained discovered network ({mode}): test accuracy "
        f"{metrics['test_accuracy']:.4f}, {cfg.search.metric} {metrics['resource']:.6g}, "
        f"MACs {metrics['macs']:.0f}"
    )
    print(f"metrics: {stage_dir / 'metrics.json'}")
    return 0


def _run_record(path: Path, what: str, numbers: tuple, strings: tuple = ()) -> dict:
    """A JSON object `report` reads, with finite numbers >= 0 and strings in the named fields."""
    if not path.exists():
        raise ConfigError(f"missing run artifact: {path}")
    record = json_object(read_json(path, what), f"{what} {path}")
    for field in numbers:
        json_number(record.get(field), f"{what} {path} field {field!r}", lo=0)
    for field in strings:
        if type(record.get(field)) is not str:
            raise ParseError(f"{what} {path} field {field!r}: must be a string, got {record.get(field)!r}")
    return record


def cmd_report(args) -> int:
    if args.gpu_hours is not None and not 0 <= args.gpu_hours <= sys.float_info.max:
        raise ConfigError(f"--gpu-hours must be a finite number >= 0, got {args.gpu_hours!r}")
    run_dir = Path(args.out)
    t_super, t_search, t_disc = (
        _run_record(run_dir / stage / "stage.json", "stage record", ("seconds",))["seconds"]
        for stage in _STAGE_DIRS.values()
    )
    metrics = _run_record(
        run_dir / "discovered" / "metrics.json", "metrics",
        ("test_accuracy", "resource", "macs"), ("resource_metric",),
    )
    total = json_number(
        t_super + t_search + t_disc, f"stage records {run_dir}/*/stage.json field 'seconds', summed"
    )
    gpu_hours = args.gpu_hours if args.gpu_hours is not None else total / 3600.0

    print(f"run report: {run_dir}")
    print(f"  test accuracy          {metrics['test_accuracy']:.4f}")
    print(f"  {metrics['resource_metric']:<22} {metrics['resource']:.6g}")
    print(f"  MACs                   {metrics['macs']:.0f}")
    print(
        "  wall-clock (train super-network, train+eval samples, train discovered): "
        f"({t_super:.1f} s, {t_search:.1f} s, {t_disc:.1f} s)"
    )
    print(f"  total                  {total:.1f} s")
    print(f"  CO2 estimate           {co2_estimate(gpu_hours)} lbs ({gpu_hours:.4f} GPU-hours)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netshrink",
        description="Train a weight-sharing super-network, search it under a "
        "resource target, and train the discovered network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, trajectory=False):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="run directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if checkpoint:
            p.add_argument("--checkpoint", default=None, help="super-network checkpoint")
        if trajectory:
            p.add_argument("--trajectory", default=None, help="search trajectory JSON")
            p.add_argument("--architecture", default=None, help="architecture JSON (scratch mode)")

    common(sub.add_parser("train-supernet", help="train the shared-weight super-network"))
    search = sub.add_parser("search", help="run coordinate-descent search")
    common(search, checkpoint=True)
    search.add_argument("--jobs", type=int, default=1, help="parallel sample evaluations")
    common(
        sub.add_parser("train-discovered", help="train the discovered network"),
        checkpoint=True,
        trajectory=True,
    )
    report = sub.add_parser("report", help="summarize a finished run")
    report.add_argument("--out", required=True, help="run directory to summarize")
    report.add_argument("--gpu-hours", type=float, default=None, help="GPU-hours for the CO2 line")
    return parser


_COMMANDS = {
    "train-supernet": cmd_train_supernet,
    "search": cmd_search,
    "train-discovered": cmd_train_discovered,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NetshrinkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
