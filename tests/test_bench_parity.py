"""The benchmark's copy of the CLI's set-up builds what the CLI builds.

`bench/bench_child.py` restates `cli._build_cost_model` and `cli._splits` so
that it needs only the public API, and its correctness gate prices the search
trajectory with that copy.  These tests load it by path and check that both
copies price every grid point alike and split the data into equal arrays.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from netshrink import cli
from netshrink.config import load_config
from netshrink.cost import synthetic_latency_table

ROOT = Path(__file__).resolve().parents[1]
SMOKE = ROOT / "demos" / "smoke_config.json"


def load_bench_child():
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "bench" / "bench_child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def interpolated_smoke_config(tmp_path: Path) -> Path:
    """Smoke with a cost file that measures every other inner width, read with interpolation."""
    cfg = load_config(SMOKE)
    table = synthetic_latency_table(cfg.layers, cfg.input_hw, seed=5)
    for spec in cfg.layers:
        for by_m in table.layers[spec.index].values():
            for m in spec.width_grid[1:-1:2]:
                del by_m[m]
    table.save(tmp_path / "latency.json")
    raw = json.loads(SMOKE.read_text())
    raw["cost"] = {"kind": "file", "path": str(tmp_path / "latency.json"), "interpolate": True}
    (tmp_path / "smoke_file.json").write_text(json.dumps(raw))
    return tmp_path / "smoke_file.json"


@pytest.fixture(params=["smoke", "desk-mcd", "smoke-file-interpolated"])
def config(request, tmp_path):
    if request.param == "smoke-file-interpolated":
        return load_config(interpolated_smoke_config(tmp_path))
    return load_config(SMOKE if request.param == "smoke" else ROOT / "bench/configs/desk-mcd.json")


def test_cost_models_price_every_grid_point_alike(config):
    ours, theirs = cli._build_cost_model(config), load_bench_child().cost_model(config)
    assert type(ours) is type(theirs)
    assert getattr(ours, "interpolate", False) == getattr(theirs, "interpolate", False)
    for spec in config.layers:
        for m in spec.width_grid:
            for k in spec.kernel_grid:
                assert ours.layer_cost(spec.index, m, k) == theirs.layer_cost(spec.index, m, k)


def test_splits_are_equal_arrays(config):
    for ours, theirs in zip(cli._splits(config), load_bench_child().splits(config), strict=True):
        assert ours.classes == theirs.classes
        np.testing.assert_array_equal(ours.images, theirs.images, strict=True)
        np.testing.assert_array_equal(ours.labels, theirs.labels, strict=True)
