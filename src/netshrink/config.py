"""Experiment configs: one JSON file drives every command.

Validation is strict and runs before any compute: unknown keys are hard
errors, every diagnostic names the offending field, and file references are
checked for existence up front.  Each section key is declared once, as a
`_key` field of its section's dataclass; the section checks it when built,
in code or by `_parse` from a file.
"""
from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError, read_json
from .data import raster_header
from .supernet import LayerSpec, strided_extent

CONFIG_FORMAT = "netshrink-config-v1"

# deterministic per-purpose seed offsets from the experiment seed
SEED_DATA = 0
SEED_INIT = 1000
SEED_TRAIN = 2000
SEED_SEARCH = 3000
SEED_DISCOVERED = 4000
SEED_COST = 5000


# a key's type, by its field annotation (a string under `from __future__ import annotations`)
_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def _key(default=MISSING, *, lo=None, hi=None, choices=(), required=False, kinds=()):
    """A config key, declared as a section dataclass field.

    The field's annotation is the key's type; `lo`/`hi` bound a number and
    `choices` lists the strings a key takes.  A `required` key has no usable
    default; a key with `kinds` belongs only to sections of those kinds.
    """
    meta = {"lo": lo, "hi": hi, "choices": choices, "required": required, "kinds": kinds}
    return field(default=default, metadata=meta)


def _section(raw: dict, name: str, allowed: set[str], required: set[str]) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: must be an object, got {type(raw).__name__}")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"{name}: missing required key(s) {sorted(missing)}")


def _value(where: str, v, kind: type, lo=None, hi=None, choices=()):
    """`v` checked as a `kind` value within the bounds or choices; numbers must be finite."""
    if choices and v not in choices:
        raise ConfigError(f"{where}: must be one of {sorted(choices)}, got {v!r}")
    if kind is str or kind is bool:
        if not isinstance(v, kind):
            what = "a string" if kind is str else "true or false"
            raise ConfigError(f"{where}: must be {what}, got {v!r}")
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: must be a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # NaN, +-Infinity, or an int past float range
        raise ConfigError(f"{where}: must be a finite number, got {v!r}")
    if kind is int and int(v) != v:
        raise ConfigError(f"{where}: must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{where}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{where}: must be <= {hi}, got {v}")
    return kind(v)


def _field_value(section: str, f, v):
    m = f.metadata
    kind = _TYPES[f.type.removesuffix(" | None")]
    return _value(f"{section}.{f.name}", v, kind, m["lo"], m["hi"], m["choices"])


class _Section:
    """A config section: its `_key` fields are its keys, checked when it is built.

    A library caller's values meet the same bounds as a config file's, with
    the same messages.  When some fields belong to certain kinds only, the
    section's `kind` is checked first, and only the keys of its kind after it.
    """

    _name = ""  # the section's name in a config file and in its messages

    def __post_init__(self):
        kind = getattr(self, "kind", None)
        for f in fields(self):
            v = getattr(self, f.name)
            if f.metadata and kind in (f.metadata["kinds"] or (kind,)) and not (
                v is None and f.type.endswith(" | None")
            ):
                object.__setattr__(self, f.name, _field_value(self._name, f, v))


def _parse(cls, raw: dict):
    """Build config section `cls` from its JSON object; its `_key` fields are the keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{cls._name}: must be an object, got {type(raw).__name__}")
    keys = {f.name: f for f in fields(cls) if f.metadata}
    if any(f.metadata["kinds"] for f in keys.values()):
        kind = _field_value(cls._name, keys["kind"], raw.get("kind"))
        keys = {n: f for n, f in keys.items() if kind in (f.metadata["kinds"] or (kind,))}
    _section(raw, cls._name, set(keys), {n for n, f in keys.items() if f.metadata["required"]})
    return cls(**raw)


# a desk-scale cap on a layer's filters: a 1024 x 1024 layer of 3 x 3 kernels
# holds 36 MiB of float32 weights, and as many again of gradients
MAX_FILTERS = 1024

# a desk-scale cap on a synthetic dataset's float32 pixels: CIFAR-10's 60,000 3x32x32
# images (737 MB) fit, and building a set at the cap peaks near four times its bytes
MAX_DATASET_BYTES = 2**30


@dataclass(frozen=True)
class DatasetConfig(_Section):
    _name = "dataset"
    kind: str = _key(choices=("synthetic", "raster"), required=True)
    classes: int = _key(0, lo=2, hi=65536, required=True, kinds=("synthetic",))  # a raster label is a u16
    per_class: int = _key(0, lo=2, hi=10**7, required=True, kinds=("synthetic",))
    height: int = _key(0, lo=1, hi=4096, required=True, kinds=("synthetic",))
    width: int = _key(0, lo=1, hi=4096, required=True, kinds=("synthetic",))
    channels: int = _key(3, lo=1, hi=MAX_FILTERS, kinds=("synthetic",))  # layer 0's C
    # a float32 standard-normal draw lies within +-8.3, so every noisy pixel
    # stays below 1e31, far inside float32's 3.4e38
    noise: float = _key(0.25, lo=0.0, hi=1e30, kinds=("synthetic",))
    path: str = _key("", required=True, kinds=("raster",))
    holdout_fraction: float = _key(0.1, lo=1e-9, hi=0.5)
    test_fraction: float = _key(0.15, lo=1e-9, hi=0.5)

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "synthetic":
            size = 4 * self.classes * self.per_class * self.channels * self.height * self.width
            if size > MAX_DATASET_BYTES:
                raise ConfigError(
                    f"dataset: classes * per_class * channels * height * width = {size // 4} "
                    f"float32 pixels take {size} bytes, past the cap of {MAX_DATASET_BYTES}"
                )


@dataclass(frozen=True)
class TrainingConfig(_Section):
    _name = "training"
    # a desk-scale cap, far past the few hundred epochs an ImageNet super-network
    # trains for; it bounds the products `epoch_rates` takes when a config is built
    epochs: int = _key(40, lo=1, hi=10_000)
    batch_size: int = _key(64, lo=1)
    learning_rate: float = _key(0.05, lo=1e-9)
    weight_decay: float = _key(1e-4, lo=0.0)
    lr_decay: float = _key(1.0, lo=1e-9, hi=1.0)

    def __post_init__(self):
        super().__post_init__()
        if min(self.epoch_rates()) == 0.0:
            raise ConfigError(
                f"training.lr_decay: {self.lr_decay} takes training.learning_rate "
                f"{self.learning_rate} to 0.0 within {self.epochs} epochs"
            )

    def epoch_rates(self):
        """The learning rate of each epoch: `learning_rate`, times `lr_decay` once per epoch."""
        lr = self.learning_rate
        for _ in range(self.epochs):
            yield lr
            lr *= self.lr_decay


@dataclass(frozen=True)
class SearchConfig(_Section):
    """One search run: the `search` section's keys, and the seed of its rng.

    `seed` is not a config key.
    """

    _name = "search"

    samples_per_iteration: int = _key(20, lo=1)  # J
    layers_per_sample: int = _key(3, lo=1)  # L
    init_reduction: float = _key(0.03, lo=1e-9, hi=0.999)  # fraction of the initial resource
    decay: float = _key(0.98, lo=1e-9, hi=1.0)  # per-iteration multiplier on the reduction
    target_fraction: float | None = _key(None, lo=1e-9, hi=1.0)
    target_resource: float | None = _key(None, lo=1e-12)
    metric: str = _key("latency", choices=("latency", "macs"))
    optimizer: str = _key("mcd", choices=("mcd", "scd"))
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "seed", _value("search.seed", self.seed, int, lo=0))
        if (self.target_fraction is None) == (self.target_resource is None):
            raise ConfigError("search: give exactly one of target_fraction or target_resource")

    def target(self, initial_resource: float) -> float:
        """The resource the search stops at, for a full network of `initial_resource`."""
        if self.target_resource is not None:
            return self.target_resource
        return self.target_fraction * initial_resource


@dataclass(frozen=True)
class CostConfig(_Section):
    _name = "cost"
    # the latency table's source; the macs metric needs none
    kind: str = _key("synthetic", choices=("synthetic", "file"))
    path: str = _key("")
    interpolate: bool = _key(False)


@dataclass(frozen=True)
class DiscoveredConfig(_Section):
    _name = "discovered"
    mode: str = _key("replay", choices=("replay", "scratch"))
    epochs: int = _key(30, lo=1)
    replay_epochs_per_step: int = _key(2, lo=1)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    dataset: DatasetConfig
    layers: tuple[LayerSpec, ...]
    input_hw: tuple[int, int]
    classes: int
    training: TrainingConfig
    search: SearchConfig
    cost: CostConfig
    discovered: DiscoveredConfig
    raw: dict = field(repr=False, default_factory=dict)


def _parse_layers(raw_net: dict, channels: int, input_hw: tuple[int, int]) -> tuple[LayerSpec, ...]:
    """The layer specs of the `network` section, for inputs of `channels` x `input_hw`.

    A layer's kernel may not exceed the smaller extent of its input, the rule
    `SuperNetwork` enforces, checked here before any kernel grid is built.
    """
    _section(raw_net, "network", {"layers"}, {"layers"})
    rows = raw_net["layers"]
    if not isinstance(rows, list) or not rows:
        raise ConfigError("network.layers: must be a nonempty list")
    specs = []
    c_in, (h, w) = channels, input_hw
    for i, row in enumerate(rows):
        name = f"network.layers[{i}]"
        _section(row, name, {"filters", "kernel", "stride", "width_grid", "kernel_grid"}, set())
        filters = _value(f"{name}.filters", row.get("filters", c_in), int, lo=1, hi=MAX_FILTERS)
        kernel = _value(f"{name}.kernel", row.get("kernel", 3), int, lo=3)
        if kernel > min(h, w):
            raise ConfigError(
                f"{name}.kernel: must be <= {min(h, w)}, the smaller extent of the layer's "
                f"{h}x{w} input, got {kernel}"
            )
        stride = _value(f"{name}.stride", row.get("stride", 1), int, lo=1, hi=2)
        grids = {g: row.get(g, []) for g in ("width_grid", "kernel_grid")}
        for g, grid in grids.items():
            if not isinstance(grid, list) or any(type(v) is not int for v in grid):
                raise ConfigError(f"{name}.{g}: must be a list of integers, got {grid!r}")
        try:
            specs.append(
                LayerSpec(
                    index=i,
                    c=c_in,
                    t=filters,
                    k_max=kernel,
                    stride=stride,
                    width_grid=tuple(grids["width_grid"]),
                    kernel_grid=tuple(grids["kernel_grid"]),
                )
            )
        except Exception as e:
            raise ConfigError(f"{name}: {str(e) or type(e).__name__}") from e
        c_in, (h, w) = filters, strided_extent((h, w), stride)
    return tuple(specs)


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and fully validate an experiment config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = read_json(path, "config")
    top_allowed = {"seed", "dataset", "network", "training", "search", "cost", "discovered"}
    _section(raw, "config", top_allowed, {"seed", "dataset", "network", "search"})

    seed = _value("config.seed", raw["seed"], int, lo=0)
    if seed_override is not None:
        seed = _value("--seed", seed_override, int, lo=0)
    dataset = _parse(DatasetConfig, raw["dataset"])
    if dataset.kind == "raster":
        data_path = Path(dataset.path)
        if not data_path.exists():
            raise ConfigError(f"dataset.path: file not found: {data_path}")
        _, c, h, w, classes = raster_header(data_path)
        header = {"classes": classes, "channels": c, "height": h, "width": w}
        for f in fields(DatasetConfig):  # the header meets the synthetic keys' bounds
            if f.name in header:
                at = f"dataset.path: {data_path} header field {f.name!r}"
                _value(at, header[f.name], int, f.metadata["lo"], f.metadata["hi"])
        dataset = replace(dataset, path=str(data_path), **header)
    layers = _parse_layers(raw["network"], dataset.channels, (dataset.height, dataset.width))
    training = _parse(TrainingConfig, raw.get("training", {}))

    search = _parse(SearchConfig, raw["search"])
    if search.layers_per_sample > len(layers):
        raise ConfigError(
            f"search.layers_per_sample: {search.layers_per_sample} exceeds the "
            f"{len(layers)} network layers"
        )

    cost = _parse(CostConfig, raw.get("cost", {}))
    if cost.kind == "file":
        if not cost.path:
            raise ConfigError("cost.path: required when cost.kind is 'file'")
        if not Path(cost.path).exists():
            raise ConfigError(f"cost.path: file not found: {cost.path}")
    if search.metric == "macs" and cost.kind == "file":
        raise ConfigError("cost: the macs metric needs no table file; remove cost.kind='file'")

    return ExperimentConfig(
        seed=seed,
        dataset=dataset,
        layers=layers,
        input_hw=(dataset.height, dataset.width),
        classes=dataset.classes,
        training=training,
        search=search,
        cost=cost,
        discovered=_parse(DiscoveredConfig, raw.get("discovered", {})),
        raw=raw,
    )
