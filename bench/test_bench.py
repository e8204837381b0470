"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import json
import re
import sys
import threading
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import bench_child  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for wl in run.WORKLOADS.values():
        assert (ROOT / wl.config).is_file()


def _round(calls, traced=False, **facts):
    return {"calls": calls, "checks": [], "hashes": {}, "peak_rss_mib": 50.0,
            "reference_s": [0.05] * (len(calls) + 1), "traced": traced, "wall_s": 1.0, **facts}


def test_every_metric_is_computed_even_from_failed_runs():
    setups = [{"setup_s": 0.2, "cli.import_s": 0.1, "config.load_s": 0.01,
               "data.build_s": 0.02, "supernet.init_s": 0.001, "reference_s": [0.05, 0.05]}]
    failed = [_round([{"stage": "train-supernet", "rc": 1, "seconds": 0.1, "error": "x"}])]
    e2e = run.end_to_end(setups, failed, run.Ledger())
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    layers = run.per_layer(setups, None, failed)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layers)


def test_stage_times_are_scaled_by_the_adjacent_reference_times():
    calls = [{"stage": "train-supernet", "rc": 0, "seconds": 4.0, "error": ""},
             {"stage": "search", "rc": 0, "seconds": 0.3, "error": ""},
             {"stage": "search", "rc": 0, "seconds": 0.6, "error": ""}]
    slow = run.REFERENCE_NOMINAL_S * 2
    rnd = _round(calls)
    rnd["reference_s"] = [slow, slow, slow, slow]
    assert run.stage_seconds([rnd], "train-supernet", at_reference_speed=True) == pytest.approx([2.0])
    assert run.stage_seconds([rnd], "search") == [0.3, 0.6]
    rnd["reference_s"] = [slow, slow, run.REFERENCE_NOMINAL_S, slow]
    assert run.stage_seconds([rnd], "search", at_reference_speed=True) == pytest.approx([0.2, 0.4])


def test_rejected_config_is_a_failed_stage_call_not_a_raise(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1, "dataset": {"kind": "synthetic"}, "bogus": 1}))
    args = Namespace(config=str(bad), seed=1, out=str(tmp_path / "run"), jobs=1,
                     search_calls=1, discovered_calls=1, smoke_floors=False, trace=False)
    result = bench_child.cmd_round(args)
    assert result["calls"][0]["rc"] == 1
    assert "bogus" in result["calls"][0]["error"]
    assert [c["ok"] for c in result["checks"]] == [False]

    ledger = run.Ledger()
    for call in result["calls"]:
        ledger.record(call["rc"] == 0, call["stage"])
    assert (ledger.attempted, len(ledger.failures)) == (1, 1)


TINY = {
    "seed": 3,
    "dataset": {"kind": "synthetic", "classes": 3, "per_class": 30, "height": 8, "width": 8,
                "channels": 2, "noise": 0.5, "holdout_fraction": 0.2, "test_fraction": 0.2},
    "network": {"layers": [{"filters": 4, "kernel": 5}, {"filters": 4, "stride": 2},
                           {"filters": 4}]},
    "training": {"epochs": 2, "batch_size": 16, "learning_rate": 0.05},
    "search": {"samples_per_iteration": 4, "layers_per_sample": 2, "init_reduction": 0.2,
               "decay": 1.0, "target_fraction": 0.7},
    "discovered": {"mode": "replay", "epochs": 1, "replay_epochs_per_step": 1},
}


@pytest.mark.parametrize("optimizer,mode,jobs", [("mcd", "replay", 2), ("scd", "scratch", 1)])
def test_traced_round_passes_the_gate_and_exercises_every_layer(tmp_path, optimizer, mode, jobs):
    cfg = json.loads(json.dumps(TINY))
    cfg["search"]["optimizer"] = optimizer
    cfg["discovered"]["mode"] = mode
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    args = Namespace(config=str(path), seed=5, out=str(tmp_path / "run"), jobs=jobs,
                     search_calls=2, discovered_calls=1, smoke_floors=False, trace=True)
    result = bench_child.cmd_round(args)
    failed = [c for c in result["checks"] if not c["ok"]]
    assert not failed, failed
    assert [c["stage"] for c in result["calls"]] == [
        "train-supernet", "search", "search", "train-discovered"]
    metrics = result["trace"]["metrics"]
    assert metrics["tensor.conv2d_backward.calls"] > 0
    assert metrics["search.eval_parallelism"] >= 1.0 - 1e-9
    # one evaluate_sample per unique sample plus the initial network, per search call
    assert len(result["trace"]["eval_ms"]) == 2 * (result["unique_samples"] + 1)


def test_self_time_subtracts_child_coverage():
    S = bench_trace.Span
    spans = [S(1, 0, "outer", 0, 0.0, 10.0, 0), S(2, 1, "a", 0, 1.0, 4.0, 0),
             S(3, 1, "b", 1, 3.0, 6.0, 0), S(4, 1, "c", 0, 9.0, 12.0, 0)]
    self_of = bench_trace.self_times(spans)
    assert self_of[1] == pytest.approx(10.0 - 5.0 - 1.0)  # [1,6] and the clipped [9,10]
    assert self_of[2] == pytest.approx(3.0)


def test_pool_thread_spans_take_the_submitting_span_as_parent():
    tracer = bench_trace.Tracer()
    leaf = tracer.wrap(lambda: None, "leaf")

    def fan_out():
        threads = [threading.Thread(target=lambda: [leaf() for _ in range(200)]) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.wrap(fan_out, "root")()
    root = next(s for s in tracer.spans if s.name == "root")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 800
    assert len({s.sid for s in tracer.spans}) == 801
    assert all(s.parent == root.sid for s in leaves)


def test_install_then_restore_leaves_netshrink_unchanged():
    before = [owner.__dict__[attr] for owner, attr, _, _ in bench_trace.patch_table()]
    restore = bench_trace.install(bench_trace.Tracer())
    assert all(owner.__dict__[attr] is not orig for (owner, attr, _, _), orig
               in zip(bench_trace.patch_table(), before))
    restore()
    assert [owner.__dict__[attr] for owner, attr, _, _ in bench_trace.patch_table()] == before


def test_run_refuses_a_directory_without_the_source(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "smoke", "--seed", "1", "--seconds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not found" in captured.err
