"""Non-differentiable resource metrics over sub-network choices.

Latency comes from per-layer lookup tables keyed by (width M, kernel k);
MACs are computed in closed form.  Either way the total for a choice is the
sum of per-layer values, so the search can budget reductions additively.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import LookupMissError, ParseError, TableError, read_json, write_atomic
from .supernet import LayerSpec, SubNetChoice, spatial_flow

LATENCY_TABLE_FORMAT = "netshrink-latency-table-v1"

# BERT-base on 64 V100s for 79 hours emits 1438 lbs of CO2 (Strubell et al.),
# giving the lbs-per-GPU-hour ratio used for search-cost reporting.
CO2_LBS_PER_GPU_HOUR = 1438.0 / (64 * 79)


def layer_macs(c: int, m: int, k: int, h_out: int, w_out: int) -> int:
    """Multiply-accumulate count of one conv layer: k*k*C*M*H_out*W_out."""
    if min(c, m, k, h_out, w_out) < 0:
        raise ValueError("layer_macs arguments must be >= 0")
    return k * k * c * m * h_out * w_out


def co2_estimate(gpu_hours: float) -> int:
    """Estimated CO2 emission in lbs for a search budget, to the nearest lb."""
    if not math.isfinite(gpu_hours) or gpu_hours < 0:
        raise ValueError(f"GPU-hours must be finite and >= 0, got {gpu_hours}")
    return int(round(gpu_hours * CO2_LBS_PER_GPU_HOUR))


def interpolate_latency(layer_table: dict[int, dict[int, float]], m: int | float, k: int) -> float:
    """Latency at (m, k): exact at table grid points, linear in m between them.

    k is always an exact match (kernel grids are tiny); m may fall between
    measured widths.
    """
    if k not in layer_table:
        raise LookupMissError(f"no kernel {k} in table (have {sorted(layer_table)})")
    by_m = layer_table[k]
    if m in by_m:
        return by_m[m]
    ms = sorted(by_m)
    if not ms or m < ms[0] or m > ms[-1]:
        raise LookupMissError(
            f"width {m} outside the measured range [{ms[0] if ms else '-'}, "
            f"{ms[-1] if ms else '-'}] for kernel {k}"
        )
    hi_idx = int(np.searchsorted(ms, m))
    lo, hi = ms[hi_idx - 1], ms[hi_idx]
    frac = (m - lo) / (hi - lo)
    return by_m[lo] + frac * (by_m[hi] - by_m[lo])


class LatencyTable:
    """Per-layer map (M, k) -> milliseconds, with optional linear-in-M interpolation."""

    def __init__(
        self,
        layers: dict[int, dict[int, dict[int, float]]],
        device: str = "synthetic",
        note: str = "",
        interpolate: bool = False,
    ):
        self.layers = layers
        self.device = device
        self.note = note
        self.interpolate = interpolate

    def layer_cost(self, layer_index: int, m: int, k: int) -> float:
        if layer_index not in self.layers:
            raise LookupMissError(f"no table for layer {layer_index}")
        table = self.layers[layer_index]
        if m == 0:
            # a removed layer costs nothing; stored entries agree when present
            k = min(table) if k not in table else k
            return table[k].get(0, 0.0)
        if self.interpolate:
            return interpolate_latency(table, m, k)
        if k not in table or m not in table[k]:
            raise LookupMissError(f"layer {layer_index}: no entry for (M={m}, k={k})")
        return table[k][m]

    def validate_against(self, specs: Sequence[LayerSpec]) -> None:
        """Check coverage of every grid point, monotonicity, and free removal."""
        for spec in specs:
            if spec.index not in self.layers:
                raise LookupMissError(f"no table for layer {spec.index}")
            table = self.layers[spec.index]
            for k in spec.kernel_grid:
                if k not in table:
                    raise LookupMissError(f"layer {spec.index}: kernel {k} not measured")
                covered = set(table[k])
                need = set(spec.width_grid)
                if not self.interpolate and not need <= covered:
                    raise LookupMissError(
                        f"layer {spec.index}, kernel {k}: widths {sorted(need - covered)} "
                        "not measured and interpolation is off"
                    )
                if 0 in table[k] and table[k][0] != 0.0 and spec.stride == 1:
                    raise TableError(
                        f"layer {spec.index}: latency at M=0 must be 0, got {table[k][0]}"
                    )
                ms = sorted(table[k])
                vals = [table[k][m] for m in ms]
                if any(b < a for a, b in zip(vals, vals[1:])):
                    raise TableError(
                        f"layer {spec.index}, kernel {k}: latency not non-decreasing in M"
                    )
            for m in spec.width_grid:
                line = [
                    self.layer_cost(spec.index, m, k)
                    for k in spec.kernel_grid
                    if k in table and (m in table[k] or m == 0)
                ]
                if any(b < a for a, b in zip(line, line[1:])):
                    raise TableError(
                        f"layer {spec.index}, width {m}: latency not non-decreasing in k"
                    )

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "meta": {
                "format": LATENCY_TABLE_FORMAT,
                "device": self.device,
                "note": self.note,
                "interpolate": self.interpolate,
            },
            **{
                str(layer): {
                    str(k): {str(m): ms for m, ms in sorted(by_m.items())}
                    for k, by_m in sorted(by_k.items())
                }
                for layer, by_k in sorted(self.layers.items())
            },
        }

    def save(self, path: str | Path) -> None:
        write_atomic(path, json.dumps(self.to_json(), indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "LatencyTable":
        """Read a table written by `save`; a ParseError names the path and the bad field."""
        raw = _object(read_json(path, "latency table"), f"latency table {path}")
        meta = _object(raw.pop("meta", {}), f"latency table {path} field 'meta'")
        if meta.get("format") != LATENCY_TABLE_FORMAT:
            raise ParseError(
                f"latency table {path}: field 'meta.format' must be "
                f"{LATENCY_TABLE_FORMAT!r}, got {meta.get('format')!r}"
            )
        layers: dict[int, dict[int, dict[int, float]]] = {}
        for layer_key, by_k in raw.items():
            at = f"latency table {path} layer {layer_key!r}"
            layers[_int_key(layer_key, at)] = by_kernel = {}
            for k_key, by_m in _object(by_k, at).items():
                at_k = f"{at} kernel {k_key!r}"
                by_kernel[_int_key(k_key, at_k)] = row = {}
                for m_key, ms in _object(by_m, at_k).items():
                    row[_int_key(m_key, at_k)] = _latency(ms, f"{at_k} width {m_key!r}")
        interpolate = meta.get("interpolate", False)
        if not isinstance(interpolate, bool):
            raise ParseError(
                f"latency table {path}: field 'meta.interpolate' must be true or false, "
                f"got {interpolate!r}"
            )
        return cls(
            layers,
            device=meta.get("device", "unknown"),
            note=meta.get("note", ""),
            interpolate=interpolate,
        )


def _object(value, at: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{at}: must be a JSON object, got {type(value).__name__}")
    return value


def _latency(ms, at: str) -> float:
    try:
        value = float(ms) if type(ms) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{at}: latency must be a finite number, got {ms!r}")
    return value


def _int_key(key: str, at: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ParseError(f"{at}: key {key!r} is not an integer") from None


def synthetic_latency_table(
    specs: Sequence[LayerSpec],
    input_hw: tuple[int, int],
    seed: int = 0,
    interpolate: bool = False,
) -> LatencyTable:
    """Plausible measured-looking table: a*k^2*C*M*H*W + b per layer, 0 at M=0.

    Monotone in M and k by construction; drop-in replaceable by a real table
    through the same file format.
    """
    rng = np.random.default_rng(seed)
    spatial = spatial_flow(specs, input_hw)
    layers: dict[int, dict[int, dict[int, float]]] = {}
    for spec, (h_in, w_in), (h_out, w_out) in zip(specs, spatial[:-1], spatial[1:]):
        a = float(rng.uniform(2e-5, 6e-5))
        b = float(rng.uniform(0.05, 0.25))
        layers[spec.index] = {
            k: {
                m: 0.0 if m == 0 else a * k * k * spec.c * m * h_out * w_out + b
                for m in spec.width_grid
            }
            for k in spec.kernel_grid
        }
    return LatencyTable(layers, device="synthetic", note=f"a*k^2*C*M*H*W+b, seed={seed}",
                        interpolate=interpolate)


class MacModel:
    """Closed-form MAC counts per layer; needs no measurement file."""

    def __init__(self, specs: Sequence[LayerSpec], input_hw: tuple[int, int]):
        spatial = spatial_flow(specs, input_hw)
        self._static = {
            spec.index: (spec.c, h_out, w_out)
            for spec, (h_out, w_out) in zip(specs, spatial[1:])
        }

    def layer_cost(self, layer_index: int, m: int, k: int) -> float:
        c, h_out, w_out = self._static[layer_index]
        return float(layer_macs(c, m, k if m > 0 else 0, h_out, w_out))


def total_resource(choice: SubNetChoice, model) -> float:
    """Sum of per-layer costs under `model` (a LatencyTable or MacModel)."""
    return float(sum(model.layer_cost(i, m, k) for i, (m, k) in enumerate(choice.pairs)))
