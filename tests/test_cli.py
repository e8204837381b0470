import ast
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netshrink import cli
from netshrink import tensor as T
from netshrink.cli import main
from netshrink import config as cfgmod
from netshrink.config import load_config
from netshrink.cost import LatencyTable, MacModel, synthetic_latency_table, total_resource
from netshrink.data import RASTER_MAGIC, Dataset
from netshrink.errors import ConfigError, NetshrinkError, ParseError
from netshrink.search import SearchConfig
from netshrink.supernet import SubNetChoice

from reference import save_raster


def conv_row(m: int, k: int) -> dict:
    return {"kind": "conv", "M": m, "k": k}


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "seed": 3,
        "dataset": {
            "kind": "synthetic",
            "classes": 3,
            "per_class": 30,
            "height": 6,
            "width": 6,
            "channels": 3,
            "noise": 1.0,
            "holdout_fraction": 0.15,
            "test_fraction": 0.15,
        },
        "network": {
            "layers": [
                {"filters": 6, "kernel": 3, "stride": 1},
                {"filters": 6, "kernel": 3, "stride": 1},
            ]
        },
        "training": {"epochs": 4, "batch_size": 16, "learning_rate": 0.08},
        "search": {
            "samples_per_iteration": 6,
            "layers_per_sample": 2,
            "init_reduction": 0.03,
            "decay": 0.98,
            "target_fraction": 0.6,
            "metric": "latency",
        },
        "discovered": {"mode": "replay", "epochs": 3, "replay_epochs_per_step": 1},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg, indent=1))
    return path


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfigValidation:
    def test_unknown_key_names_field(self, tmp_path):
        path = write_config(tmp_path / "c.json", training={"epochs": 2, "momentum": 0.9})
        with pytest.raises(ConfigError, match="momentum"):
            load_config(path)
        # SearchConfig.seed is no config key: the search's seed derives from config.seed
        path = write_config(tmp_path / "c.json", search={"seed": 1})
        with pytest.raises(ConfigError, match=re.escape("search: unknown key(s) ['seed']")):
            load_config(path)

    def test_missing_dataset_file_fails_before_any_compute(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        raw = json.loads(path.read_text())
        raw["dataset"] = {"kind": "raster", "path": str(tmp_path / "nope.raster")}
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="not found"):
            load_config(path)

    def test_directory_as_dataset_path_fails_cleanly(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json")
        raw = json.loads(path.read_text())
        raw["dataset"] = {"kind": "raster", "path": str(tmp_path)}
        path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match="cannot be read"):
            load_config(path)
        assert main(["train-supernet", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, header",
        [("classes", (4, 2, 6, 6, 1)), ("channels", (4, 0, 6, 6, 3)), ("height", (4, 2, 0, 6, 3))],
    )
    def test_raster_header_meets_the_dataset_key_bounds(self, tmp_path, field, header):
        raster = tmp_path / "data.raster"
        raster.write_bytes(RASTER_MAGIC + struct.pack("<5I", *header))  # N, C, H, W, classes
        path = write_config(tmp_path / "c.json")
        raw = json.loads(path.read_text())
        raw["dataset"] = {"kind": "raster", "path": str(raster)}
        path.write_text(json.dumps(raw))
        where = f"dataset.path: {raster} header field {field!r}: must be >="
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_config(path)

    def test_both_targets_rejected(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            search={
                "samples_per_iteration": 6,
                "layers_per_sample": 2,
                "init_reduction": 0.03,
                "decay": 0.98,
                "target_fraction": 0.6,
                "target_resource": 5.0,
                "metric": "latency",
            },
        )
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    @pytest.mark.parametrize(
        "name, cls, section",
        [
            pytest.param("search", SearchConfig, {"init_reduction": 0.9995, "target_fraction": 0.5},
                         id="init-reduction"),
            pytest.param("search", SearchConfig, {"target_resource": 1e-13}, id="tiny-target"),
            pytest.param("search", SearchConfig, {"target_resource": math.nan}, id="nan-target"),
            pytest.param("search", SearchConfig,
                         {"samples_per_iteration": 1.5, "target_fraction": 0.5}, id="fractional-j"),
            pytest.param("search", SearchConfig, {"optimizer": "sgd", "target_fraction": 0.5},
                         id="optimizer"),
            pytest.param("search", SearchConfig, {"target_fraction": 0.5, "target_resource": 5.0},
                         id="both-targets"),
            pytest.param("search", SearchConfig, {}, id="no-target"),
            pytest.param("training", cfgmod.TrainingConfig, {"batch_size": 0}, id="batch-size"),
            pytest.param("training", cfgmod.TrainingConfig, {"learning_rate": math.nan},
                         id="nan-learning-rate"),
            pytest.param("training", cfgmod.TrainingConfig, {"lr_decay": 0}, id="lr-decay"),
            pytest.param("training", cfgmod.TrainingConfig, {"epochs": 40, "lr_decay": 1e-9},
                         id="lr-decays-to-zero"),
            pytest.param("training", cfgmod.TrainingConfig, {"epochs": 10_001, "lr_decay": 0.9999999},
                         id="epochs-past-the-cap"),
            pytest.param("training", cfgmod.TrainingConfig, {"weight_decay": -1},
                         id="weight-decay"),
            pytest.param("training", cfgmod.TrainingConfig, {"epochs": 1.5},
                         id="fractional-epochs"),
            pytest.param("discovered", cfgmod.DiscoveredConfig, {"mode": "finetune"},
                         id="discovered-mode"),
            pytest.param("discovered", cfgmod.DiscoveredConfig, {"epochs": 0},
                         id="discovered-epochs"),
            pytest.param("cost", cfgmod.CostConfig, {"interpolate": 1}, id="interpolate"),
            pytest.param("dataset", cfgmod.DatasetConfig,
                         {"kind": "synthetic", "classes": 1, "per_class": 30, "height": 6,
                          "width": 6}, id="one-class"),
            pytest.param("dataset", cfgmod.DatasetConfig,
                         {"kind": "synthetic", "classes": 4096, "per_class": 4096, "height": 8,
                          "width": 8}, id="dataset-past-the-byte-cap"),
        ],
    )
    def test_search_config_and_file_share_one_bound(self, tmp_path, name, cls, section):
        """Every section, built in code or read from a file, meets one bound and one message."""
        path = write_config(tmp_path / "c.json")
        raw = json.loads(path.read_text())
        raw[name] = section
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as from_file:
            load_config(path)
        with pytest.raises(ConfigError) as from_library:
            cls(**section)
        assert str(from_library.value) == str(from_file.value)
        assert str(from_file.value).startswith(name)

    def test_noise_is_bounded_so_images_stay_finite(self, tmp_path):
        path = write_config(tmp_path / "c.json", dataset={"noise": 1e308})
        with pytest.raises(ConfigError, match=r"^dataset\.noise: must be <= 1e\+30, got 1e\+308$"):
            load_config(path)
        images = cli._load_dataset(load_config(write_config(path, dataset={"noise": 1e30}))).images
        assert images.dtype == np.float32 and np.isfinite(images).all()

    @pytest.mark.parametrize(
        "dataset, message",
        [
            ({"classes": 1e308}, r"^dataset\.classes: must be <= 65536, got 1e\+308$"),
            ({"height": 1e308}, r"^dataset\.height: must be <= 4096, got 1e\+308$"),
            ({"width": 4097}, r"^dataset\.width: must be <= 4096, got 4097$"),
            ({"channels": 1e308}, r"^dataset\.channels: must be <= 1024, got 1e\+308$"),
            ({"per_class": 10**12}, r"^dataset\.per_class: must be <= 10000000, got 1000000000000$"),
            # 64 * 16385 images of 1x16x16 float32 pixels: one image past the cap
            (
                {"classes": 64, "per_class": 16385, "channels": 1, "height": 16, "width": 16},
                r"^dataset: classes \* per_class \* channels \* height \* width = 268451840 "
                r"float32 pixels take 1073807360 bytes, past the cap of 1073741824$",
            ),
        ],
    )
    def test_synthetic_dataset_is_sized_before_it_is_built(self, tmp_path, dataset, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path / "c.json", dataset=dataset))

    def test_a_synthetic_dataset_at_the_byte_cap_loads(self, tmp_path):
        at_cap = {"classes": 64, "per_class": 16384, "channels": 1, "height": 16, "width": 16}
        d = load_config(write_config(tmp_path / "c.json", dataset=at_cap)).dataset
        assert 4 * d.classes * d.per_class * d.channels * d.height * d.width == cfgmod.MAX_DATASET_BYTES

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_search_seed_is_checked(self, seed):
        with pytest.raises(ConfigError, match=r"^search\.seed: "):
            SearchConfig(target_fraction=0.5, seed=seed)

    def test_layers_per_sample_bounded_by_layer_count(self, tmp_path):
        path = write_config(tmp_path / "c.json", search={"layers_per_sample": 5})
        with pytest.raises(ConfigError, match="layers_per_sample"):
            load_config(path)

    @pytest.mark.parametrize(
        "grid, value, where",
        [
            pytest.param("width_grid", [0, 3], "network.layers[0]", id="width-without-t"),
            pytest.param("width_grid", {}, "network.layers[0].width_grid", id="width-object"),
            pytest.param("width_grid", [True, 6], "network.layers[0].width_grid", id="width-bool"),
            pytest.param("kernel_grid", False, "network.layers[0].kernel_grid", id="kernel-false"),
        ],
    )
    def test_bad_grid_names_layer(self, tmp_path, grid, value, where):
        path = write_config(
            tmp_path / "c.json",
            network={"layers": [{"filters": 6, "kernel": 3, grid: value}]},
        )
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_config(path)

    def test_kernel_is_bounded_by_the_extent_after_each_stride(self, tmp_path):
        # 6x6 inputs: a stride-2 layer leaves its successor 3x3, so kernel 5 is too big there
        layers = [{"filters": 6, "kernel": 5, "stride": 2}, {"filters": 6, "kernel": 5}]
        path = write_config(tmp_path / "c.json", network={"layers": layers})
        with pytest.raises(
            ConfigError, match=re.escape("network.layers[1].kernel: must be <= 3") + ".*3x3 input"
        ):
            load_config(path)
        layers[1]["kernel"] = 3
        path = write_config(tmp_path / "c.json", network={"layers": layers})
        assert [s.k_max for s in load_config(path).layers] == [5, 3]

    def test_a_wrapped_layer_error_is_never_empty(self, tmp_path, monkeypatch):
        def no_memory(**kwargs):
            raise MemoryError()

        monkeypatch.setattr(cfgmod, "LayerSpec", no_memory)
        with pytest.raises(ConfigError, match=re.escape("network.layers[0]: MemoryError")):
            load_config(write_config(tmp_path / "c.json"))

    @pytest.mark.parametrize("value", ["no", 0, [1]])
    def test_interpolate_must_be_a_json_boolean(self, tmp_path, value):
        path = write_config(tmp_path / "c.json", cost={"interpolate": value})
        with pytest.raises(ConfigError, match="cost.interpolate"):
            load_config(path)

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        assert load_config(path).seed == 3
        assert load_config(path, seed_override=99).seed == 99

    @pytest.mark.parametrize(
        "overrides, where",
        [
            pytest.param({"training": {"epochs": math.inf}}, "training.epochs", id="int-key"),
            pytest.param(
                {"training": {"learning_rate": math.nan}}, "training.learning_rate", id="float-key"
            ),
            pytest.param(
                {"search": {"target_fraction": math.nan}}, "search.target_fraction", id="target"
            ),
            pytest.param({"seed": -math.inf}, "config.seed", id="seed"),
            pytest.param(
                {"network": {"layers": [{"filters": math.nan}]}},
                "network.layers[0].filters",
                id="layer-row",
            ),
        ],
    )
    def test_non_finite_numbers_name_the_field(self, tmp_path, overrides, where):
        path = write_config(tmp_path / "c.json", **overrides)
        with pytest.raises(ConfigError, match=re.escape(where) + ": must be a finite number"):
            load_config(path)

    @pytest.mark.parametrize("seed", [-1, math.nan])
    def test_seed_override_is_checked(self, tmp_path, seed):
        with pytest.raises(ConfigError, match="--seed"):
            load_config(write_config(tmp_path / "c.json"), seed_override=seed)

    def test_negative_seed_flag_fails_cleanly(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json")
        argv = ["train-supernet", "--config", str(path), "--out", str(tmp_path / "run")]
        assert main(argv + ["--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "--seed: must be >= 0" in err and "Traceback" not in err

    def test_required_keys_alone_give_the_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 0,
            "dataset": {"kind": "synthetic", "classes": 2, "per_class": 2, "height": 4, "width": 4},
            "network": {"layers": [{}, {}, {}]},
            "search": {"target_fraction": 0.5},
        }))
        cfg = load_config(path)
        assert dataclasses.asdict(cfg.dataset) == {
            "kind": "synthetic", "classes": 2, "per_class": 2, "height": 4, "width": 4,
            "channels": 3, "noise": 0.25, "path": "", "holdout_fraction": 0.1,
            "test_fraction": 0.15,
        }
        assert [(s.c, s.t, s.k_max, s.stride) for s in cfg.layers] == [(3, 3, 3, 1)] * 3
        assert dataclasses.asdict(cfg.training) == {
            "epochs": 40, "batch_size": 64, "learning_rate": 0.05, "weight_decay": 1e-4,
            "lr_decay": 1.0,
        }
        assert dataclasses.asdict(cfg.search) == {
            "samples_per_iteration": 20, "layers_per_sample": 3, "init_reduction": 0.03,
            "decay": 0.98, "target_fraction": 0.5, "target_resource": None,
            "metric": "latency", "optimizer": "mcd", "seed": 0,
        }
        assert dataclasses.asdict(cfg.cost) == {"kind": "synthetic", "path": "", "interpolate": False}
        assert dataclasses.asdict(cfg.discovered) == {
            "mode": "replay", "epochs": 30, "replay_epochs_per_step": 2,
        }

    def test_readme_table_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sections = {
            "dataset": cfgmod.DatasetConfig,
            "training": cfgmod.TrainingConfig,
            "search": cfgmod.SearchConfig,
            "cost": cfgmod.CostConfig,
            "discovered": cfgmod.DiscoveredConfig,
        }
        rows = re.findall(
            rf"^\| `((?:{'|'.join(sections)})\.\w+)` \| ([^|]+) \| ([^|]+) \|", readme, re.M
        )
        documented = {key: (kind, default) for key, kind, default in rows}
        declared = {
            f"{name}.{f.name}": f
            for name, cls in sections.items() for f in dataclasses.fields(cls) if f.metadata
        }
        assert documented.keys() == declared.keys()

        for key, (kind, default) in documented.items():
            f = declared[key]
            assert kind == f.type.removesuffix(" | None"), key
            suffix = "".join(f" ({k})" for k in f.metadata["kinds"])
            assert default.endswith(suffix), key
            default = default.removesuffix(suffix)
            if f.metadata["required"]:
                want = "required"
            elif f.default is None:
                want = "none"
            elif isinstance(f.default, bool):
                want = f"`{str(f.default).lower()}`"
            elif isinstance(f.default, str):
                want = f"`{f.default}`" if f.default else '`""`'
            else:
                want, default = f.default, float(default)
            assert default == want, key


class TestTrainSupernetCommand:
    def test_writes_artifacts_and_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        for name in ("run_a", "run_b"):
            code = main(
                ["train-supernet", "--config", str(cfg), "--out", str(tmp_path / name)]
            )
            assert code == 0
        a, b = tmp_path / "run_a" / "supernet", tmp_path / "run_b" / "supernet"
        for stage in (a, b):
            assert (stage / "checkpoint.json").exists()
            assert (stage / "training_curve.csv").exists()
            assert (stage / "config.json").exists()
            assert (stage / "stage.json").exists()
        assert sha(a / "checkpoint.json") == sha(b / "checkpoint.json")
        curve = (a / "training_curve.csv").read_text().strip().split("\n")
        assert curve[0] == "# netshrink-training-curve-v1"
        assert curve[1] == "epoch,loss,holdout_accuracy"

    def test_curve_scores_the_holdout_at_four_epochs_first_and_last(self, tmp_path, capsys):
        # the benchmark reads the last row's third cell as the super-network's holdout accuracy
        cfg = write_config(tmp_path / "c.json", training={"epochs": 7})
        assert main(["train-supernet", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        curve = (tmp_path / "run" / "supernet" / "training_curve.csv").read_text().splitlines()
        rows = [line.split(",") for line in curve[2:]]
        assert [row[0] for row in rows] == [str(epoch) for epoch in range(7)]
        assert [row[2] == "" for row in rows] == [False, True, False, True, False, True, False]
        last = float(rows[-1][2])
        assert 0.0 <= last <= 1.0
        assert f"full-width holdout accuracy {last:.4f}\n" in capsys.readouterr().out

    def test_invalid_config_returns_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", training={"epochs": 0})
        code = main(["train-supernet", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "training.epochs" in capsys.readouterr().err

    def test_lock_file_blocks_concurrent_writes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        run = tmp_path / "run"
        run.mkdir()
        (run / ".lock").write_text("12345\n")
        code = main(["train-supernet", "--config", str(cfg), "--out", str(run)])
        assert code == 1
        assert "locked" in capsys.readouterr().err

    def _locked_run(self, tmp_path, capsys, content: bytes) -> tuple[str, Path]:
        cfg = write_config(tmp_path / "c.json")
        lock = tmp_path / "run" / ".lock"
        lock.parent.mkdir()
        lock.write_bytes(content)
        assert main(["train-supernet", "--config", str(cfg), "--out", str(lock.parent)]) == 1
        assert lock.read_bytes() == content  # never removed, whatever it holds
        assert not (lock.parent / "supernet").exists()
        return capsys.readouterr().err, lock

    def test_lock_error_names_a_running_holder(self, tmp_path, capsys):
        err, _ = self._locked_run(tmp_path, capsys, f"{os.getpid()}\n".encode())
        assert f"locked by pid {os.getpid()}, which is running" in err

    def test_lock_error_names_an_exited_holder(self, tmp_path, capsys):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0
        err, lock = self._locked_run(tmp_path, capsys, f"{child.pid}\n".encode())
        assert f"locked by pid {child.pid}, which is not running: remove the stale lock {lock}" in err

    @pytest.mark.parametrize(
        "content", [b"", b"not a pid\n", b"0\n", b"-1\n", b"\xff\xfe", b"9" * 30],
        ids=["empty", "text", "zero", "negative", "non-utf8", "over-long"],
    )
    def test_lock_without_a_live_pid_fails_cleanly(self, tmp_path, capsys, content):
        err, lock = self._locked_run(tmp_path, capsys, content)
        assert err.startswith("error: run directory is locked") and err.count("\n") == 1
        assert f"remove the stale lock {lock}" in err

    @pytest.mark.parametrize("command", ["train-supernet", "train-discovered"])
    def test_jobs_is_a_search_only_flag(self, tmp_path, command):
        cfg = write_config(tmp_path / "c.json")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(tmp_path / "run"), "--jobs", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()


class TestSearchCommand:
    @pytest.fixture()
    def trained_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        run = tmp_path / "run"
        assert main(["train-supernet", "--config", str(cfg), "--out", str(run)]) == 0
        return cfg, run

    def test_search_artifacts_and_log_shape(self, trained_run):
        cfg, run = trained_run
        assert main(["search", "--config", str(cfg), "--out", str(run)]) == 0
        stage = run / "search"
        log_lines = (stage / "search_log.csv").read_text().strip().split("\n")
        assert log_lines[0] == "# netshrink-search-log-v2"
        trajectory = json.loads((stage / "trajectory.json").read_text())
        iterations = len(trajectory) - 1
        assert len(log_lines) - 2 == iterations * 6  # J rows per iteration
        arch = json.loads((stage / "discovered_architecture.json").read_text())
        assert arch[-1]["kind"] == "dense"

    def test_rerun_identical_trajectory(self, trained_run, tmp_path):
        cfg, run = trained_run
        assert main(["search", "--config", str(cfg), "--out", str(run)]) == 0
        first = (run / "search" / "trajectory.json").read_bytes()
        first_log = (run / "search" / "search_log.csv").read_bytes()
        run2 = tmp_path / "run2"
        shutil.copytree(run / "supernet", run2 / "supernet")
        assert main(["search", "--config", str(cfg), "--out", str(run2)]) == 0
        assert (run2 / "search" / "trajectory.json").read_bytes() == first
        assert (run2 / "search" / "search_log.csv").read_bytes() == first_log

    def test_target_equal_to_initial_immediate_success(self, trained_run, tmp_path):
        cfg, run = trained_run
        raw = json.loads(Path(cfg).read_text())
        raw["search"]["target_fraction"] = 1.0
        cfg2 = Path(cfg).with_name("c2.json")
        cfg2.write_text(json.dumps(raw))
        assert main(["search", "--config", str(cfg2), "--out", str(run)]) == 0
        log_lines = (run / "search" / "search_log.csv").read_text().strip().split("\n")
        assert len(log_lines) == 2  # version + header, no sample rows
        assert len(json.loads((run / "search" / "trajectory.json").read_text())) == 1

    def test_checkpoint_network_mismatch_rejected(self, trained_run, tmp_path, capsys):
        cfg, run = trained_run
        other = write_config(
            tmp_path / "other.json",
            network={"layers": [{"filters": 4, "kernel": 3}, {"filters": 4, "kernel": 3}]},
        )
        code = main(
            [
                "search", "--config", str(other), "--out", str(tmp_path / "other_run"),
                "--checkpoint", str(run / "supernet" / "checkpoint.json"),
            ]
        )
        assert code == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_nonpositive_jobs_fails_cleanly(self, trained_run, capsys):
        cfg, run = trained_run
        assert main(["search", "--config", str(cfg), "--out", str(run), "--jobs", "0"]) == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (run / "search").exists() and not (run / ".lock").exists()

    def test_missing_checkpoint_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        code = main(["search", "--config", str(cfg), "--out", str(tmp_path / "fresh")])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err


class TestTrainDiscoveredAndReport:
    @pytest.fixture()
    def searched_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        run = tmp_path / "run"
        assert main(["train-supernet", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["search", "--config", str(cfg), "--out", str(run)]) == 0
        return cfg, run

    def test_replay_mode_metrics_match_cost_model(self, searched_run):
        cfg, run = searched_run
        assert main(["train-discovered", "--config", str(cfg), "--out", str(run)]) == 0
        metrics = json.loads((run / "discovered" / "metrics.json").read_text())
        conf = load_config(cfg)
        arch = json.loads((run / "discovered" / "architecture.json").read_text())
        pairs = tuple(
            (r["M"], r["k"] if r["M"] > 0 else conf.layers[i].kernel_grid[0])
            for i, r in enumerate(row for row in arch if row["kind"] == "conv")
        )
        choice = SubNetChoice(pairs)
        table = synthetic_latency_table(conf.layers, conf.input_hw, seed=conf.seed + 5000)
        assert metrics["resource"] == pytest.approx(total_resource(choice, table))
        assert metrics["macs"] == pytest.approx(
            total_resource(choice, MacModel(conf.layers, conf.input_hw))
        )
        assert metrics["mode"] == "replay"
        assert 0.0 <= metrics["test_accuracy"] <= 1.0

    def test_scratch_mode_from_architecture_file(self, searched_run, tmp_path):
        cfg, run = searched_run
        arch_path = run / "search" / "discovered_architecture.json"
        out2 = tmp_path / "scratch_run"
        code = main(
            [
                "train-discovered", "--config", str(cfg), "--out", str(out2),
                "--architecture", str(arch_path),
            ]
        )
        assert code == 0
        metrics = json.loads((out2 / "discovered" / "metrics.json").read_text())
        assert metrics["mode"] == "scratch"

    def test_checkpoint_and_architecture_encode_a_removed_layer_alike(self, tmp_path):
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps([conv_row(0, 3), conv_row(4, 3)]))
        assert main(discovered_argv(tmp_path, "--architecture", str(arch))) == 0
        stage = tmp_path / "run" / "discovered"
        _, meta = T.load_checkpoint(stage / "checkpoint.json")
        rows = json.loads((stage / "architecture.json").read_text())
        assert meta["choice"] == [[0, 0], [4, 3]]
        assert meta["choice"] == [[r["M"], r["k"]] for r in rows if r["kind"] == "conv"]

    @pytest.mark.parametrize(
        "flag,payload,field",
        [
            ("--architecture", [{"index": 0, "M": 6, "k": 3}], "row 0: field 'kind'"),
            ("--architecture", [[6, 3]], "row 0: must be a JSON object"),
            ("--architecture", [{"kind": "conv", "M": "x", "k": 3}], "row 0: field 'M'"),
            ("--trajectory", {"kind": "conv"}, "must be a list, got dict"),
            (
                "--trajectory",
                [[conv_row(4, 3), conv_row(6, 3)], [conv_row(6, 3), conv_row(6, 3)]],
                "entry 1: layer 0: (6,3) does not shrink entry 0's (4,3)",
            ),
            (
                "--trajectory",
                [
                    [conv_row(6, 3), conv_row(6, 3)],
                    [conv_row(6, 3), conv_row(0, 3)],
                    [conv_row(6, 3), conv_row(2, 3)],
                ],
                "entry 2: layer 1: (2,3) does not shrink entry 1's (0,3)",
            ),
        ],
    )
    def test_malformed_architecture_input_fails_cleanly(
        self, tmp_path, capsys, flag, payload, field
    ):
        cfg = write_config(tmp_path / "c.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = str(tmp_path / "run")
        code = main(["train-discovered", "--config", str(cfg), "--out", out, flag, str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and field in err

    @pytest.mark.parametrize("flag", ["--architecture", "--trajectory"])
    def test_malformed_input_fails_before_any_set_up(self, tmp_path, capsys, monkeypatch, flag):
        def not_yet(cfg):
            raise AssertionError("set-up ran before the input file was parsed")

        monkeypatch.setattr(cli, "_splits", not_yet)
        monkeypatch.setattr(cli, "_build_cost_model", not_yet)
        cfg = write_config(tmp_path / "c.json")
        bad = tmp_path / "bad.json"
        bad.write_text('[{"kind": "conv", "M": 6,')
        out = str(tmp_path / "run")
        code = main(["train-discovered", "--config", str(cfg), "--out", out, flag, str(bad)])
        assert code == 1
        assert str(bad) in capsys.readouterr().err

    def test_report_prints_summary_and_is_pure(self, searched_run, capsys):
        cfg, run = searched_run
        assert main(["train-discovered", "--config", str(cfg), "--out", str(run)]) == 0
        capsys.readouterr()
        files_before = sorted(str(p) for p in run.rglob("*"))
        hashes_before = {str(p): sha(p) for p in run.rglob("*") if p.is_file()}
        assert main(["report", "--out", str(run)]) == 0
        out1 = capsys.readouterr().out
        assert "test accuracy" in out1
        assert "wall-clock" in out1
        assert "CO2 estimate" in out1
        assert main(["report", "--out", str(run)]) == 0
        assert sorted(str(p) for p in run.rglob("*")) == files_before
        assert {str(p): sha(p) for p in run.rglob("*") if p.is_file()} == hashes_before

    def test_report_gpu_hours_flag_gives_paper_figure(self, searched_run, capsys):
        cfg, run = searched_run
        assert main(["train-discovered", "--config", str(cfg), "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(run), "--gpu-hours", "397"]) == 0
        assert "113 lbs" in capsys.readouterr().out

    def test_report_on_missing_artifacts_fails(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path / "empty")])
        assert code == 1
        assert "missing run artifact" in capsys.readouterr().err


class TestRasterAndTableFiles:
    def test_pipeline_with_raster_dataset_and_table_file(self, tmp_path):
        from netshrink.cost import synthetic_latency_table
        from netshrink.supernet import LayerSpec

        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(120, 2, 6, 6)).astype(np.float32) / 255.0
        labels = np.repeat(np.arange(3), 40).astype(np.int64)
        raster = tmp_path / "data.raster"
        save_raster(raster, Dataset(images, labels, 3))

        layers = [
            LayerSpec(index=0, c=2, t=4, k_max=3, stride=1),
            LayerSpec(index=1, c=4, t=4, k_max=3, stride=1),
        ]
        table = synthetic_latency_table(layers, (6, 6), seed=1)
        table_path = tmp_path / "latency.json"
        table.save(table_path)

        cfg = {
            "seed": 5,
            "dataset": {
                "kind": "raster",
                "path": str(raster),
                "holdout_fraction": 0.15,
                "test_fraction": 0.15,
            },
            "network": {"layers": [{"filters": 4, "kernel": 3}, {"filters": 4, "kernel": 3}]},
            "training": {"epochs": 2, "batch_size": 16},
            "search": {
                "samples_per_iteration": 4,
                "layers_per_sample": 1,
                "target_fraction": 0.7,
            },
            "cost": {"kind": "file", "path": str(table_path)},
            "discovered": {"mode": "scratch", "epochs": 2},
        }
        cfg_path = tmp_path / "raster_cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        assert main(["train-supernet", "--config", str(cfg_path), "--out", str(run)]) == 0
        assert main(["search", "--config", str(cfg_path), "--out", str(run)]) == 0
        assert main(["train-discovered", "--config", str(cfg_path), "--out", str(run)]) == 0
        metrics = json.loads((run / "discovered" / "metrics.json").read_text())
        assert metrics["mode"] == "scratch"


def raster_config(tmp_path: Path, labels, cut: int = 0, **dataset) -> tuple[Path, Path]:
    """A config over a raster of len(labels) 2-channel 6x6 images whose header says 3 classes.

    The labels are written as given, in range or not, and `cut` bytes come
    off the end of the file.  Returns (config, raster).
    """
    raster = tmp_path / "data.raster"
    n = len(labels)
    save_raster(raster, Dataset(np.zeros((n, 2, 6, 6), np.float32), np.zeros(n, int), 3))
    blob = raster.read_bytes()[: -2 * n] + np.asarray(labels, "<u2").tobytes()
    raster.write_bytes(blob[: len(blob) - cut])
    cfg = write_config(tmp_path / "c.json")
    raw = json.loads(cfg.read_text())
    raw["dataset"] = {"kind": "raster", "path": str(raster), **dataset}
    cfg.write_text(json.dumps(raw))
    return cfg, raster


def edited_table_search_argv(tmp_path: Path, edit) -> list[str]:
    """`search` on a trained run whose cost file is a synthetic table changed by `edit`."""
    cfg = write_config(tmp_path / "c.json")
    table = synthetic_latency_table(load_config(cfg).layers, (6, 6), seed=1)
    edit(table.layers)
    table.save(tmp_path / "latency.json")
    cfg = write_config(
        tmp_path / "c.json", cost={"kind": "file", "path": str(tmp_path / "latency.json")}
    )
    run = str(tmp_path / "run")
    assert main(["train-supernet", "--config", str(cfg), "--out", run]) == 0
    return ["search", "--config", str(cfg), "--out", run]


def non_monotone_table_run(tmp_path: Path) -> tuple[list[str], list[str]]:
    """A trained run whose cost file charges nothing for layer 0's widest filter at k=3."""

    def edit(layers):
        layers[0][3][max(layers[0][3])] = 0.0

    return (
        edited_table_search_argv(tmp_path, edit),
        ["layer 0, kernel 3: latency not non-decreasing in M"],
    )


def missing_width_table_run(tmp_path: Path) -> tuple[list[str], list[str]]:
    """A trained run whose cost file has no entry for layer 1 at width 4, k=3."""

    def edit(layers):
        del layers[1][3][4]

    return (
        edited_table_search_argv(tmp_path, edit),
        ["error: layer 1: no entry for (M=4, k=3)"],
    )


def bool_shape_checkpoint_search(tmp_path: Path) -> tuple[list[str], list[str]]:
    """`search` on a checkpoint whose layer 0 weight is one filter of shape [true, C, K, K]."""
    cfg = write_config(tmp_path / "c.json")
    checkpoint = tmp_path / "checkpoint.json"
    cli._build_supernet(load_config(cfg)).save(checkpoint)
    payload = json.loads(checkpoint.read_text())
    weight = payload["tensors"]["layer0.weight"]
    weight["shape"][0] = True  # the data keeps one filter's values, so its size matches
    weight["data"] = weight["data"][: math.prod(weight["shape"][1:])]
    checkpoint.write_text(json.dumps(payload))
    return (
        ["search", "--config", str(cfg), "--out", str(tmp_path / "run"),
         "--checkpoint", str(checkpoint)],
        [str(checkpoint), "tensor layer0.weight field 'shape': must be an integer >= 0, got True"],
    )


def unholdable_shape_checkpoint_search(tmp_path: Path) -> tuple[list[str], list[str]]:
    """`search` on a checkpoint whose layer 0 weight is empty but of shape [2**62, 0]."""
    cfg = write_config(tmp_path / "c.json")
    checkpoint = tmp_path / "checkpoint.json"
    cli._build_supernet(load_config(cfg)).save(checkpoint)
    payload = json.loads(checkpoint.read_text())
    payload["tensors"]["layer0.weight"] = {"shape": [2**62, 0], "data": []}
    checkpoint.write_text(json.dumps(payload))
    return (
        ["search", "--config", str(cfg), "--out", str(tmp_path / "run"),
         "--checkpoint", str(checkpoint)],
        [str(checkpoint), "tensor layer0.weight field 'shape'"],
    )


def discovered_argv(tmp_path: Path, *flags: str) -> list[str]:
    cfg = write_config(tmp_path / "c.json")
    return ["train-discovered", "--config", str(cfg), "--out", str(tmp_path / "run"), *flags]


def train_argv(tmp_path: Path, cfg: Path, out: str = "run") -> list[str]:
    return ["train-supernet", "--config", str(cfg), "--out", str(tmp_path / out)]


def one_entry_trajectory(tmp_path: Path) -> Path:
    path = tmp_path / "trajectory.json"
    path.write_text(json.dumps([[conv_row(6, 3), conv_row(6, 3)]]))
    return path


class TestBadInputFailsCleanly:
    """Each case exits 1 with one `error:` line that names the field, and no traceback."""

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, write_config(
                        tmp / "c.json", dataset={"classes": 2, "per_class": 2, "test_fraction": 0.01}
                    )),
                    ["dataset.test_fraction", "empty split for 4 items"],
                ),
                id="empty-test-split",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, write_config(
                        tmp / "c.json",
                        dataset={"classes": 2, "per_class": 2, "holdout_fraction": 0.01},
                    )),
                    ["dataset.holdout_fraction", "empty split for 3 items"],
                ),
                id="empty-holdout-split",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, write_config(
                        tmp / "c.json",
                        dataset={"classes": 2, "per_class": 2, "holdout_fraction": 0.01},
                    ), out="a/b/run"),
                    ["dataset.holdout_fraction", "empty split for 3 items"],
                ),
                id="empty-holdout-split-nested-out",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, raster_config(
                        tmp, [0, 1, 2], holdout_fraction=0.2, test_fraction=0.2
                    )[0]),
                    ["dataset.holdout_fraction", "empty split for 2 items"],
                ),
                id="empty-raster-holdout-split",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, raster_config(tmp, [0, 1, 3])[0]),
                    [str(tmp / "data.raster"), "label block at byte 244", "label 3, outside [0, 3)"],
                ),
                id="raster-label-out-of-range",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, raster_config(tmp, [0, 1, 2], cut=1)[0]),
                    [str(tmp / "data.raster"), "truncated label block at byte 249, need 250"],
                ),
                id="raster-label-block-cut-short",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, write_config(tmp / "c.json", cost={"kind": "file"})),
                    ["cost.path: required"],
                ),
                id="cost-file-without-path",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, write_config(
                        tmp / "c.json", cost={"kind": "file", "path": str(tmp / "nope.json")}
                    )),
                    ["cost.path: file not found", "nope.json"],
                ),
                id="cost-file-missing",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, write_config(
                        tmp / "c.json", search={"metric": "macs"},
                        cost={"kind": "file", "path": str(tmp / "c.json")},
                    )),
                    ["macs metric needs no table file", "cost.kind"],
                ),
                id="cost-file-with-macs-metric",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, write_config(
                        tmp / "c.json", network={"layers": [{"filters": 6, "kernel": 2**61 + 1}]}
                    )),
                    ["network.layers[0].kernel", "must be <= 6", "6x6 input"],
                ),
                id="kernel-past-the-input-extent",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, write_config(
                        tmp / "c.json", network={"layers": [{"filters": 2**63, "kernel": 3}]}
                    )),
                    ["network.layers[0].filters", f"must be <= {cfgmod.MAX_FILTERS}"],
                ),
                id="filters-past-the-cap",
            ),
            pytest.param(
                lambda tmp: (
                    train_argv(tmp, write_config(
                        tmp / "c.json", training={"epochs": 40, "lr_decay": 1e-9}
                    )),
                    ["training.lr_decay: 1e-09", "training.learning_rate", "to 0.0 within 40 epochs"],
                ),
                id="learning-rate-decays-to-zero",
            ),
            pytest.param(non_monotone_table_run, id="non-monotone-latency-table"),
            pytest.param(bool_shape_checkpoint_search, id="checkpoint-bool-shape"),
            pytest.param(unholdable_shape_checkpoint_search, id="checkpoint-unholdable-shape"),
            pytest.param(missing_width_table_run, id="latency-table-missing-width"),
            pytest.param(
                lambda tmp: (discovered_argv(tmp), ["neither --architecture given nor"]),
                id="discovered-without-input",
            ),
            pytest.param(
                lambda tmp: (
                    discovered_argv(tmp, "--trajectory", str(one_entry_trajectory(tmp))),
                    ["replay mode needs the super-network checkpoint", str(tmp / "run")],
                ),
                id="replay-without-checkpoint",
            ),
            pytest.param(
                lambda tmp: (
                    ["train-supernet", "--config", str(write_config(tmp / "c.json")),
                     "--out", str(tmp / "c.json")],
                    ["--out", str(tmp / "c.json")],
                ),
                id="out-names-a-file",
            ),
            pytest.param(
                lambda tmp: (
                    ["search", "--config", str(write_config(tmp / "c.json")),
                     "--checkpoint", str(tmp / "c.json"), "--out", str(tmp / "c.json")],
                    ["--out", str(tmp / "c.json")],
                ),
                id="search-out-names-a-file",
            ),
        ],
    )
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, case):
        argv, names = case(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for name in names:
            assert name in err, (name, err)
        assert sorted(tmp_path.rglob("*")) == before  # no run directory left behind


CORRUPT_JSON = [
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
    pytest.param('{"seed": 3, "dataset": ', id="invalid-json"),
    pytest.param(b'{"seed": "\xff\xfe"}', id="non-utf8"),
    pytest.param("1" * 5000, id="over-long-integer"),
]


def write_raw(path: Path, content) -> Path:
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return path


class TestCorruptJsonFiles:
    @pytest.mark.parametrize("content", CORRUPT_JSON)
    @pytest.mark.parametrize(
        "loader",
        [load_config, LatencyTable.load, T.load_checkpoint],
        ids=["config", "latency-table", "checkpoint"],
    )
    def test_every_loader_raises_only_netshrink_errors(self, tmp_path, loader, content):
        path = write_raw(tmp_path / "bad.json", content)
        with pytest.raises(NetshrinkError, match=re.escape(str(path))):
            loader(path)

    @pytest.mark.parametrize("content", CORRUPT_JSON)
    def test_report_exits_1_on_corrupt_metrics(self, tmp_path, capsys, content):
        run = tmp_path / "run"
        for stage in ("supernet", "search", "discovered"):
            (run / stage).mkdir(parents=True)
            record = {"format": cli.STAGE_FORMAT, "stage": stage, "seconds": 1.0, "seed": 3}
            (run / stage / "stage.json").write_text(json.dumps(record))
        metrics = write_raw(run / "discovered" / "metrics.json", content)
        assert main(["report", "--out", str(run)]) == 1
        assert str(metrics) in capsys.readouterr().err


GOOD_METRICS = {"test_accuracy": 0.9, "resource_metric": "macs", "resource": 10.0, "macs": 10}


class TestReportRecordShapes:
    def run_dir(self, tmp_path, stage_records=None, metrics=GOOD_METRICS) -> Path:
        run = tmp_path / "run"
        for stage in ("supernet", "search", "discovered"):
            (run / stage).mkdir(parents=True)
            record = (stage_records or {}).get(stage, {"stage": stage, "seconds": 1.5})
            (run / stage / "stage.json").write_text(json.dumps(record))
        (run / "discovered" / "metrics.json").write_text(json.dumps(metrics))
        return run

    def test_well_formed_records_report(self, tmp_path, capsys):
        assert main(["report", "--out", str(self.run_dir(tmp_path))]) == 0
        assert "macs" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "metrics,field",
        [
            ([], "must be a JSON object"),
            ("0.9", "must be a JSON object"),
            ({**GOOD_METRICS, "test_accuracy": "0.9"}, "'test_accuracy'"),
            ({**GOOD_METRICS, "resource": None}, "'resource'"),
            ({**GOOD_METRICS, "macs": True}, "'macs'"),
            ({**GOOD_METRICS, "macs": 10**400}, "'macs'"),
            ({k: v for k, v in GOOD_METRICS.items() if k != "macs"}, "'macs'"),
            ({**GOOD_METRICS, "resource_metric": 3}, "'resource_metric'"),
        ],
    )
    def test_malformed_metrics_name_the_path_and_field(self, tmp_path, capsys, metrics, field):
        run = self.run_dir(tmp_path, metrics=metrics)
        assert main(["report", "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert str(run / "discovered" / "metrics.json") in err and field in err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_gpu_hours_fails_cleanly(self, tmp_path, capsys, value):
        run = self.run_dir(tmp_path)
        assert main(["report", "--out", str(run), "--gpu-hours", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --gpu-hours") and err.count("\n") == 1

    def test_stage_times_summing_past_the_float_range_fail_cleanly(self, tmp_path, capsys):
        records = {s: {"stage": s, "seconds": 1e308} for s in ("supernet", "search", "discovered")}
        run = self.run_dir(tmp_path, stage_records=records)
        assert main(["report", "--out", str(run)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: stage records {run}") and "'seconds'" in err

    @pytest.mark.parametrize(
        "record",
        [{"seconds": "x"}, {"seconds": -1.0}, {"seconds": float("nan")}, {}, [1.0], "1.0"],
    )
    def test_malformed_stage_record_names_the_path_and_field(self, tmp_path, capsys, record):
        run = self.run_dir(tmp_path, stage_records={"search": record})
        assert main(["report", "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert str(run / "search" / "stage.json") in err
        assert "'seconds'" in err or "must be a JSON object" in err


class TestAtomicWrites:
    """Every artifact goes through one writer: a temp file renamed over the target."""

    @staticmethod
    def _writers():
        from netshrink.cost import synthetic_latency_table
        from netshrink.errors import write_atomic, write_json
        from netshrink.supernet import LayerSpec

        layers = [LayerSpec(index=0, c=2, t=4, k_max=3, stride=1)]
        return {
            "checkpoint": lambda p: T.save_checkpoint(p, {"w": np.ones((2, 3))}, meta={"a": 1}),
            "latency-table": lambda p: synthetic_latency_table(layers, (6, 6), seed=1).save(p),
            "architecture": lambda p: write_json(p, [{"kind": "dense"}]),
            "text": lambda p: write_atomic(p, "new text\n"),
        }

    @pytest.mark.parametrize("writer", ["checkpoint", "latency-table", "architecture", "text"])
    def test_failed_replace_keeps_the_previous_artifact(self, tmp_path, monkeypatch, writer):
        target = tmp_path / "artifact"
        target.write_bytes(b"previous bytes")
        self._writers()[writer](target)  # the same writer succeeds unpatched
        written = target.read_bytes()
        assert written != b"previous bytes" and os.listdir(tmp_path) == ["artifact"]

        target.write_bytes(b"previous bytes")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            self._writers()[writer](target)
        assert target.read_bytes() == b"previous bytes"
        assert os.listdir(tmp_path) == ["artifact"]

    def test_no_artifact_is_written_in_place(self):
        # only errors.write_atomic opens a file for writing
        src = Path(cli.__file__).parent
        pattern = re.compile(r"write_text\(|write_bytes\(|open\([^)]*[\"'][wax]")
        offenders = [
            f"{path.name}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for line in path.read_text().splitlines()
            if pattern.search(line)
        ]
        assert offenders == [
            'errors.py: with open(tmp, "w") as fh:'
        ]

    def test_one_writer_per_text_format(self):
        # JSON artifacts go through errors.write_json (checkpoints through tensor's own
        # compact encoder) and CSV artifacts through errors.tagged_csv
        offenders = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                dumps = (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                    and node.func.attr in ("dump", "dumps")
                )
                if dumps and path.name not in ("errors.py", "tensor.py"):
                    offenders.append(f"{path.name}:{node.lineno}: json.{node.func.attr}")
                imported = (
                    [a.name for a in node.names] if isinstance(node, ast.Import)
                    else [node.module] if isinstance(node, ast.ImportFrom) else []
                )
                if "csv" in imported:
                    offenders.append(f"{path.name}:{node.lineno}: import csv")
        assert offenders == []


class TestOneLayerBuilder:
    def test_layers_are_built_in_one_place_and_drawn_in_one_init(self):
        # supernet.py lays out every network's layers in _layers and draws every
        # weight in _he: `Layer(` and `standard_normal(` are called nowhere else
        allowed = {"Layer": "_layers", "standard_normal": "_he"}

        def calls(node, owner):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, ast.FunctionDef) else owner
                if isinstance(child, ast.Call):
                    yield owner, getattr(child.func, "id", getattr(child.func, "attr", None)), child
                yield from calls(child, inner)

        path = Path(cli.__file__).parent / "supernet.py"
        found, offenders = set(), []
        for owner, name, call in calls(ast.parse(path.read_text()), None):
            if name in allowed:
                found.add(name)
                if owner != allowed[name]:
                    offenders.append(f"supernet.py:{call.lineno}: {name}( in {owner}")
        assert found == set(allowed)
        assert offenders == []


def other_network_checkpoint(tmp_path: Path) -> Path:
    """A checkpoint of a network with other layer widths than `write_config`'s."""
    cfg = write_config(
        tmp_path / "other.json",
        network={"layers": [{"filters": 4, "kernel": 3}, {"filters": 4, "kernel": 3}]},
    )
    checkpoint = tmp_path / "other_checkpoint.json"
    cli._build_supernet(load_config(cfg)).save(checkpoint)
    return checkpoint


class TestStageRunner:
    """`cli._stage` frames every stage: one lock, one record, one clean-up rule."""

    @pytest.fixture(scope="class")
    def finished_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("finished")
        cfg, run = write_config(tmp / "c.json"), tmp / "run"
        for command in cli._STAGE_DIRS:
            assert main([command, "--config", str(cfg), "--out", str(run)]) == 0
        return cfg, run

    @pytest.mark.parametrize("command", list(cli._STAGE_DIRS))
    def test_each_stage_records_itself_and_the_config(self, finished_run, command):
        cfg, run = finished_run
        stage_dir = run / cli._STAGE_DIRS[command]
        record = json.loads((stage_dir / "stage.json").read_text())
        assert set(record) == {"format", "stage", "seconds", "seed"}
        assert record["format"] == cli.STAGE_FORMAT and record["stage"] == command
        assert record["seconds"] >= 0 and record["seed"] == load_config(cfg).seed
        provenance = (stage_dir / "config.json").read_bytes()
        assert provenance == (run / "supernet" / "config.json").read_bytes()
        assert not (run / ".lock").exists()

    @pytest.mark.parametrize(
        "command,flags",
        [
            pytest.param(
                "train-supernet", lambda tmp: ["--config", str(raster_config(tmp, [0, 1, 3])[0])],
                id="train-supernet-bad-raster-label",
            ),
            pytest.param("search", lambda tmp: ["--jobs", "0"], id="search-jobs-0"),
            pytest.param(
                "search", lambda tmp: ["--checkpoint", str(other_network_checkpoint(tmp))],
                id="search-other-network-checkpoint",
            ),
            pytest.param(
                "train-discovered",
                lambda tmp: ["--architecture", str(write_raw(tmp / "bad.json", "[{"))],
                id="train-discovered-malformed-architecture",
            ),
        ],
    )
    def test_a_failed_stage_leaves_the_run_as_it_found_it(
        self, finished_run, tmp_path, capsys, command, flags
    ):
        cfg, finished = finished_run
        run = tmp_path / "run"
        shutil.copytree(finished, run)
        own = run / cli._STAGE_DIRS[command]
        shutil.rmtree(own)
        before = {str(p): sha(p) for p in run.rglob("*") if p.is_file()}
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        # argparse keeps the last --config, so a case may name its own
        argv = [command, "--config", str(cfg), "--out", str(run), *flags(inputs)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert {str(p): sha(p) for p in run.rglob("*") if p.is_file()} == before
        assert not (run / ".lock").exists() and not own.exists()
