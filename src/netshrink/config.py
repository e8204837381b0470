"""Experiment configs: one JSON file drives every command.

Validation is strict and runs before any compute: unknown keys are hard
errors, every diagnostic names the offending field, and file references are
checked for existence up front.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, read_json
from .data import raster_header
from .supernet import LayerSpec

CONFIG_FORMAT = "netshrink-config-v1"

# deterministic per-purpose seed offsets from the experiment seed
SEED_DATA = 0
SEED_INIT = 1000
SEED_TRAIN = 2000
SEED_SEARCH = 3000
SEED_DISCOVERED = 4000
SEED_COST = 5000


def _section(raw: dict, name: str, allowed: set[str], required: set[str]) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: must be an object, got {type(raw).__name__}")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"{name}: missing required key(s) {sorted(missing)}")
    return raw


def _number(raw: dict, section: str, key: str, default=None, lo=None, hi=None, integer=False):
    if key not in raw:
        return default
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{section}.{key}: must be a number, got {v!r}")
    if integer and int(v) != v:
        raise ConfigError(f"{section}.{key}: must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{section}.{key}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{section}.{key}: must be <= {hi}, got {v}")
    return int(v) if integer else float(v)


def _string(raw: dict, section: str, key: str, default=None, choices=None):
    if key not in raw:
        return default
    v = raw[key]
    if not isinstance(v, str):
        raise ConfigError(f"{section}.{key}: must be a string, got {v!r}")
    if choices and v not in choices:
        raise ConfigError(f"{section}.{key}: must be one of {sorted(choices)}, got {v!r}")
    return v


@dataclass(frozen=True)
class DatasetConfig:
    kind: str  # synthetic | raster
    classes: int = 0
    per_class: int = 0
    height: int = 0
    width: int = 0
    channels: int = 0
    noise: float = 0.25
    path: str = ""
    holdout_fraction: float = 0.1
    test_fraction: float = 0.15


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 0.05
    weight_decay: float = 1e-4
    lr_decay: float = 1.0


@dataclass(frozen=True)
class SearchSection:
    samples_per_iteration: int = 20
    layers_per_sample: int = 3
    init_reduction: float = 0.03
    decay: float = 0.98
    target_fraction: float | None = None
    target_resource: float | None = None
    metric: str = "latency"
    optimizer: str = "mcd"


@dataclass(frozen=True)
class CostConfig:
    kind: str = "synthetic"  # synthetic | file (latency); macs needs no source
    path: str = ""
    interpolate: bool = False


@dataclass(frozen=True)
class DiscoveredConfig:
    mode: str = "replay"  # replay | scratch
    epochs: int = 30
    replay_epochs_per_step: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    dataset: DatasetConfig
    layers: tuple[LayerSpec, ...]
    input_hw: tuple[int, int]
    channels: int
    classes: int
    training: TrainingConfig
    search: SearchSection
    cost: CostConfig
    discovered: DiscoveredConfig
    raw: dict = field(repr=False, default_factory=dict)


def _parse_dataset(raw: dict) -> DatasetConfig:
    kind = _string(raw, "dataset", "kind", choices={"synthetic", "raster"})
    if kind is None:
        raise ConfigError("dataset.kind: missing (synthetic or raster)")
    common = {"kind", "holdout_fraction", "test_fraction"}
    if kind == "synthetic":
        allowed = common | {"classes", "per_class", "height", "width", "channels", "noise"}
        _section(raw, "dataset", allowed, {"kind", "classes", "per_class", "height", "width"})
        return DatasetConfig(
            kind=kind,
            classes=_number(raw, "dataset", "classes", lo=2, integer=True),
            per_class=_number(raw, "dataset", "per_class", lo=2, integer=True),
            height=_number(raw, "dataset", "height", lo=1, integer=True),
            width=_number(raw, "dataset", "width", lo=1, integer=True),
            channels=_number(raw, "dataset", "channels", default=3, lo=1, integer=True),
            noise=_number(raw, "dataset", "noise", default=0.25, lo=0.0),
            holdout_fraction=_number(raw, "dataset", "holdout_fraction", default=0.1, lo=1e-9, hi=0.5),
            test_fraction=_number(raw, "dataset", "test_fraction", default=0.15, lo=1e-9, hi=0.5),
        )
    _section(raw, "dataset", common | {"path"}, {"kind", "path"})
    path = Path(_string(raw, "dataset", "path"))
    if not path.exists():
        raise ConfigError(f"dataset.path: file not found: {path}")
    n, c, h, w, classes = raster_header(path)
    return DatasetConfig(
        kind=kind,
        classes=classes,
        per_class=0,
        height=h,
        width=w,
        channels=c,
        path=str(path),
        holdout_fraction=_number(raw, "dataset", "holdout_fraction", default=0.1, lo=1e-9, hi=0.5),
        test_fraction=_number(raw, "dataset", "test_fraction", default=0.15, lo=1e-9, hi=0.5),
    )


def _parse_layers(raw_net: dict, channels: int) -> tuple[LayerSpec, ...]:
    _section(raw_net, "network", {"layers"}, {"layers"})
    rows = raw_net["layers"]
    if not isinstance(rows, list) or not rows:
        raise ConfigError("network.layers: must be a nonempty list")
    specs = []
    c_in = channels
    for i, row in enumerate(rows):
        name = f"network.layers[{i}]"
        allowed = {"filters", "kernel", "stride", "width_grid", "kernel_grid"}
        _section(row, name, allowed, set())
        filters = _number(row, name, "filters", default=c_in, lo=1, integer=True)
        kernel = _number(row, name, "kernel", default=3, lo=3, integer=True)
        stride = _number(row, name, "stride", default=1, lo=1, hi=2, integer=True)
        width_grid = row.get("width_grid", ())
        kernel_grid = row.get("kernel_grid", ())
        for gname, grid in (("width_grid", width_grid), ("kernel_grid", kernel_grid)):
            if grid and (
                not isinstance(grid, list) or any(not isinstance(v, int) for v in grid)
            ):
                raise ConfigError(f"{name}.{gname}: must be a list of integers")
        try:
            specs.append(
                LayerSpec(
                    index=i,
                    c=c_in,
                    t=filters,
                    k_max=kernel,
                    stride=stride,
                    width_grid=tuple(width_grid),
                    kernel_grid=tuple(kernel_grid),
                )
            )
        except Exception as e:
            raise ConfigError(f"{name}: {e}") from e
        c_in = filters
    return tuple(specs)


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and fully validate an experiment config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = read_json(path, "config")
    top_allowed = {"seed", "dataset", "network", "training", "search", "cost", "discovered"}
    _section(raw, "config", top_allowed, {"seed", "dataset", "network", "search"})

    seed = _number(raw, "config", "seed", lo=0, integer=True)
    if seed_override is not None:
        seed = seed_override
    dataset = _parse_dataset(raw["dataset"])
    layers = _parse_layers(raw["network"], dataset.channels)

    t_raw = raw.get("training", {})
    _section(t_raw, "training", {"epochs", "batch_size", "learning_rate", "weight_decay", "lr_decay"}, set())
    training = TrainingConfig(
        epochs=_number(t_raw, "training", "epochs", default=40, lo=1, integer=True),
        batch_size=_number(t_raw, "training", "batch_size", default=64, lo=1, integer=True),
        learning_rate=_number(t_raw, "training", "learning_rate", default=0.05, lo=1e-9),
        weight_decay=_number(t_raw, "training", "weight_decay", default=1e-4, lo=0.0),
        lr_decay=_number(t_raw, "training", "lr_decay", default=1.0, lo=1e-9, hi=1.0),
    )

    s_raw = raw["search"]
    _section(
        s_raw,
        "search",
        {
            "samples_per_iteration", "layers_per_sample", "init_reduction", "decay",
            "target_fraction", "target_resource", "metric", "optimizer",
        },
        set(),
    )
    search = SearchSection(
        samples_per_iteration=_number(s_raw, "search", "samples_per_iteration", default=20, lo=1, integer=True),
        layers_per_sample=_number(s_raw, "search", "layers_per_sample", default=3, lo=1, integer=True),
        init_reduction=_number(s_raw, "search", "init_reduction", default=0.03, lo=1e-9, hi=0.999),
        decay=_number(s_raw, "search", "decay", default=0.98, lo=1e-9, hi=1.0),
        target_fraction=_number(s_raw, "search", "target_fraction", default=None, lo=1e-9, hi=1.0),
        target_resource=_number(s_raw, "search", "target_resource", default=None, lo=1e-12),
        metric=_string(s_raw, "search", "metric", default="latency", choices={"latency", "macs"}),
        optimizer=_string(s_raw, "search", "optimizer", default="mcd", choices={"mcd", "scd"}),
    )
    if (search.target_fraction is None) == (search.target_resource is None):
        raise ConfigError("search: give exactly one of target_fraction or target_resource")
    if search.layers_per_sample > len(layers):
        raise ConfigError(
            f"search.layers_per_sample: {search.layers_per_sample} exceeds the "
            f"{len(layers)} network layers"
        )

    c_raw = raw.get("cost", {})
    _section(c_raw, "cost", {"kind", "path", "interpolate"}, set())
    interpolate = c_raw.get("interpolate", False)
    if not isinstance(interpolate, bool):
        raise ConfigError(f"cost.interpolate: must be true or false, got {interpolate!r}")
    cost = CostConfig(
        kind=_string(c_raw, "cost", "kind", default="synthetic", choices={"synthetic", "file"}),
        path=_string(c_raw, "cost", "path", default=""),
        interpolate=interpolate,
    )
    if cost.kind == "file":
        if not cost.path:
            raise ConfigError("cost.path: required when cost.kind is 'file'")
        if not Path(cost.path).exists():
            raise ConfigError(f"cost.path: file not found: {cost.path}")
    if search.metric == "macs" and cost.kind == "file":
        raise ConfigError("cost: the macs metric needs no table file; remove cost.kind='file'")

    d_raw = raw.get("discovered", {})
    _section(d_raw, "discovered", {"mode", "epochs", "replay_epochs_per_step"}, set())
    discovered = DiscoveredConfig(
        mode=_string(d_raw, "discovered", "mode", default="replay", choices={"replay", "scratch"}),
        epochs=_number(d_raw, "discovered", "epochs", default=30, lo=1, integer=True),
        replay_epochs_per_step=_number(d_raw, "discovered", "replay_epochs_per_step", default=2, lo=1, integer=True),
    )

    return ExperimentConfig(
        seed=seed,
        dataset=dataset,
        layers=layers,
        input_hw=(dataset.height, dataset.width),
        channels=dataset.channels,
        classes=dataset.classes,
        training=training,
        search=search,
        cost=cost,
        discovered=discovered,
        raw=raw,
    )
