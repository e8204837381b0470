"""Non-differentiable resource metrics over sub-network choices.

Every metric is a per-layer lookup table keyed by (width M, kernel k): latency
tables are loaded or synthesized, and MAC counts fill a table in closed form
(`MacModel`).  The total for a choice is the sum of per-layer values, so the
search can budget reductions additively; `LatencyTable.layer_cost` is the one
place that reads a per-layer value.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    LookupMissError, ParseError, TableError, json_key, json_number, json_object, read_json,
    write_json,
)
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
    """Per-layer map (M, k) -> cost, with optional linear-in-M interpolation.

    The cost is milliseconds for a latency table and MACs for a `MacModel`.
    `layer_cost` prices (M, k): 0 at M=0, else the stored entry or, with
    interpolation, the linear value within kernel k's measured widths; any
    other (M, k) is a LookupMissError naming the layer.  A valid table prices
    every grid point, rising in M and k; its stored widths rise in M from an
    entry >= 0, and without interpolation it lists M=0 where the grid has it.
    A stored M=0 is 0 at stride 1.
    """

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
        if m == 0:
            return 0.0
        table = self.layers[layer_index]
        if k in table and m in table[k]:
            return table[k][m]
        if not self.interpolate:
            raise LookupMissError(f"layer {layer_index}: no entry for (M={m}, k={k})")
        try:
            return interpolate_latency(table, m, k)
        except LookupMissError as miss:
            raise LookupMissError(f"layer {layer_index}: {miss}") from None

    def validate_against(self, specs: Sequence[LayerSpec]) -> None:
        """Check the class docstring's rules on every grid point of `specs`."""
        for spec in specs:
            costs = [[self.layer_cost(spec.index, m, k) for m in spec.width_grid]
                     for k in spec.kernel_grid]
            for k, row in zip(spec.kernel_grid, costs):
                stored = self.layers[spec.index][k]  # present: width T > 0 priced above
                if not self.interpolate and 0 in spec.width_grid and 0 not in stored:
                    raise LookupMissError(f"layer {spec.index}: no entry for (M=0, k={k})")
                if stored.get(0, 0.0) != 0.0 and spec.stride == 1:
                    raise TableError(
                        f"layer {spec.index}: latency at M=0 must be 0, got {stored[0]}"
                    )
                vals = [stored[m] for m in sorted(stored)]
                if any(b < a for line in (vals, row) for a, b in zip(line, line[1:])):
                    raise TableError(
                        f"layer {spec.index}, kernel {k}: latency not non-decreasing in M"
                    )
                low = min(stored)  # the cheapest entry, as the widths rise in M
                if stored[low] < 0:
                    raise TableError(
                        f"layer {spec.index}: latency at (M={low}, k={k}) must be >= 0, "
                        f"got {stored[low]}"
                    )
            for m, line in zip(spec.width_grid, zip(*costs)):
                if any(b < a for a, b in zip(line, line[1:])):
                    raise TableError(
                        f"layer {spec.index}, width {m}: latency not non-decreasing in k"
                    )

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        write_json(path, {
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
        })

    @staticmethod
    def load(path: str | Path) -> "LatencyTable":
        """Read a table written by `save`; a ParseError names the path and the bad field."""
        raw = json_object(read_json(path, "latency table"), f"latency table {path}")
        meta = json_object(raw.pop("meta", {}), f"latency table {path} field 'meta'")
        if meta.get("format") != LATENCY_TABLE_FORMAT:
            raise ParseError(
                f"latency table {path}: field 'meta.format' must be "
                f"{LATENCY_TABLE_FORMAT!r}, got {meta.get('format')!r}"
            )
        layers: dict[int, dict[int, dict[int, float]]] = {}
        for layer_key, by_k in raw.items():
            at = f"latency table {path} layer {layer_key!r}"
            layers[json_key(layer_key, at)] = by_kernel = {}
            for k_key, by_m in json_object(by_k, at).items():
                at_k = f"{at} kernel {k_key!r}"
                by_kernel[json_key(k_key, at_k)] = row = {}
                for m_key, ms in json_object(by_m, at_k).items():
                    row[json_key(m_key, at_k)] = json_number(ms, f"{at_k} width {m_key!r}", lo=0.0)
        fields = {}
        for field, default in (("device", "unknown"), ("note", ""), ("interpolate", False)):
            value = fields[field] = meta.get(field, default)
            if type(value) is not type(default):
                what = "a string" if type(default) is str else "true or false"
                raise ParseError(
                    f"latency table {path}: field 'meta.{field}' must be {what}, got {value!r}"
                )
        return LatencyTable(layers, **fields)


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


class MacModel(LatencyTable):
    """MAC counts as a v1 table (`device: "macs"`): k*k*C*M*H_out*W_out at every grid point."""

    def __init__(self, specs: Sequence[LayerSpec], input_hw: tuple[int, int]):
        super().__init__({
            spec.index: {
                k: {m: float(layer_macs(spec.c, m, k, h_out, w_out)) for m in spec.width_grid}
                for k in spec.kernel_grid
            }
            for spec, (h_out, w_out) in zip(specs, spatial_flow(specs, input_hw)[1:])
        }, device="macs", note="k*k*C*M*H_out*W_out")


def total_resource(choice: SubNetChoice, model: LatencyTable) -> float:
    """Sum of per-layer costs under `model`, a latency table or a `MacModel`'s MAC table."""
    return float(sum(model.layer_cost(i, m, k) for i, (m, k) in enumerate(choice.pairs)))
