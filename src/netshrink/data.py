"""Desk-scale datasets: synthetic Gaussian-blob classification and a raster container.

All generators and splitters take explicit seeds and own their RNGs; nothing
touches numpy's global state.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError

RASTER_MAGIC = b"NSRAST1\0"
_HEADER = struct.Struct("<5I")  # N, C, H, W, classes; little-endian after the magic


@dataclass
class Dataset:
    """Images [N, C, H, W] float32 with integer labels [N] in [0, classes)."""

    images: np.ndarray
    labels: np.ndarray
    classes: int

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"images ({self.images.shape[0]}) and labels ({self.labels.shape[0]}) disagree on N"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.classes):
            raise ValueError(f"labels must lie in [0, {self.classes})")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.images[idx], self.labels[idx], self.classes)


def synth_classification(
    classes: int,
    per_class: int,
    h: int,
    w: int,
    seed: int,
    channels: int = 3,
    noise: float = 0.25,
) -> Dataset:
    """Class-balanced images: one Gaussian prototype per class plus additive noise.

    At low noise the classes are linearly separable by construction; the same
    seed always yields identical tensors.
    """
    if classes < 2:
        raise ValueError(f"need >= 2 classes, got {classes}")
    rng = np.random.default_rng(seed)
    prototypes = rng.standard_normal((classes, channels, h, w)).astype(np.float32)
    labels = np.repeat(np.arange(classes), per_class)
    rng.shuffle(labels)
    images = prototypes[labels]
    if noise > 0:
        images = images + noise * rng.standard_normal(images.shape).astype(np.float32)
    return Dataset(images.astype(np.float32), labels.astype(np.int64), classes)


def _class_ids(labels: np.ndarray) -> np.ndarray:
    """The sorted ids of the classes present in `labels`.

    These are np.unique's, without the numpy.ma import that its first call
    costs every process.
    """
    return np.flatnonzero(np.bincount(labels))


def split(dataset: Dataset, holdout_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive, label-stratified split into (rest, holdout).

    The holdout gets round(fraction * N) items; per-class counts differ from
    proportional by at most one (largest-remainder apportionment).  A
    fraction outside (0, 1), or one that leaves a part empty, raises ConfigError.
    """
    if not 0 < holdout_fraction < 1:
        raise ConfigError(f"fraction must lie in (0, 1), got {holdout_fraction}")
    n = len(dataset)
    target = int(round(holdout_fraction * n))
    if target == 0 or target == n:
        raise ConfigError(f"fraction {holdout_fraction} yields an empty split for {n} items")
    rng = np.random.default_rng(seed)
    class_ids = _class_ids(dataset.labels)
    quotas = {}
    remainders = []
    for c in class_ids:
        exact = holdout_fraction * int((dataset.labels == c).sum())
        quotas[int(c)] = int(np.floor(exact))
        remainders.append((exact - np.floor(exact), int(c)))
    short = target - sum(quotas.values())
    for _, c in sorted(remainders, key=lambda rc: (-rc[0], rc[1]))[:short]:
        quotas[c] += 1
    holdout_idx = []
    for c in class_ids:
        members = np.flatnonzero(dataset.labels == c)
        rng.shuffle(members)
        holdout_idx.append(members[: quotas[int(c)]])
    holdout_idx = np.sort(np.concatenate(holdout_idx))
    mask = np.zeros(n, dtype=bool)
    mask[holdout_idx] = True
    return dataset.take(np.flatnonzero(~mask)), dataset.take(holdout_idx)


def three_way_split(
    dataset: Dataset, holdout_fraction: float, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """(train, holdout, test): test first, then holdout carved from the rest.

    A ConfigError from `split` names the config key of the fraction at fault.
    """
    key = "dataset.test_fraction"
    try:
        rest, test = split(dataset, test_fraction, seed)
        key = "dataset.holdout_fraction"
        train, holdout = split(rest, holdout_fraction, seed + 1)
    except ConfigError as e:
        raise ConfigError(f"{key}: {e}") from None
    return train, holdout, test


def raster_header(path: str | Path) -> tuple[int, int, int, int, int]:
    """(N, C, H, W, classes) of a raster container; reads only the header bytes."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read(len(RASTER_MAGIC) + _HEADER.size)
    except OSError as e:
        raise ParseError(f"{path}: cannot be read: {e}") from None
    if blob[: len(RASTER_MAGIC)] != RASTER_MAGIC:
        raise ParseError(
            f"{path}: bad magic at byte 0, expected {RASTER_MAGIC!r}, "
            f"got {blob[:len(RASTER_MAGIC)]!r}"
        )
    if len(blob) < len(RASTER_MAGIC) + _HEADER.size:
        raise ParseError(f"{path}: truncated header at byte {len(blob)}")
    return _HEADER.unpack_from(blob, len(RASTER_MAGIC))


def load_raster(path: str | Path) -> Dataset:
    """Read the container format; pixels come back scaled to [0, 1]."""
    n, c, h, w, classes = raster_header(path)
    blob = Path(path).read_bytes()
    off = len(RASTER_MAGIC) + _HEADER.size
    n_pixels = n * c * h * w
    if len(blob) < off + n_pixels:
        raise ParseError(
            f"{path}: truncated pixel body at byte {len(blob)}, need {off + n_pixels}"
        )
    pixels = np.frombuffer(blob, dtype=np.uint8, count=n_pixels, offset=off)
    off += n_pixels
    if len(blob) < off + 2 * n:
        raise ParseError(
            f"{path}: truncated label block at byte {len(blob)}, need {off + 2 * n}"
        )
    labels = np.frombuffer(blob, dtype="<u2", count=n, offset=off).astype(np.int64)
    bad = np.flatnonzero(labels >= classes)
    if bad.size:
        raise ParseError(
            f"{path}: label block at byte {off}: image {bad[0]} has label "
            f"{labels[bad[0]]}, outside [0, {classes})"
        )
    images = (pixels.reshape(n, c, h, w).astype(np.float32)) / 255.0
    return Dataset(images, labels, classes)
