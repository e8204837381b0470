"""One measurement in a fresh interpreter; prints one JSON object as its last line.

    python3 bench/bench_child.py setup      --config C [--seed N]
    python3 bench/bench_child.py round      --config C [--seed N] --out DIR [--jobs J]
                                            [--search-calls S] [--discovered-calls D]
                                            [--smoke-floors] [--trace]
    python3 bench/bench_child.py microbench --config C [--seed N] --out DIR
    python3 bench/bench_child.py env

`bench/run.py` starts these with ``src`` on PYTHONPATH and the BLAS/OpenMP
thread variables pinned to 1.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

TOL = 1e-9
REFERENCE_STEPS = 60  # a reference time is the seconds of this many kernel steps
REFERENCE_REPS = 9  # measured in this many short repetitions of REFERENCE_REP_STEPS
REFERENCE_REP_STEPS = 10


def reference_s() -> float:
    """Seconds for a fixed numpy workload that uses nothing of netshrink.

    It mixes what a small training step does: an im2col window view, a
    GEMM and strided scatter-adds over a batch of 8x8 maps, in a Python loop.
    The runner divides each stage call by the reference times measured just
    before and after it, so that the speed of a shared host, which drifts by
    up to 1.7x over minutes, cancels out.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 8, 10, 10)).astype(np.float32)
    w = rng.standard_normal((72, 8)).astype(np.float32)
    reps = []
    for _ in range(REFERENCE_REPS):
        started = time.perf_counter()
        for _ in range(REFERENCE_REP_STEPS):
            cols = sliding_window_view(x, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
            y = np.maximum(cols.reshape(32, 64, 72) @ w, 0.0).transpose(0, 2, 1).reshape(32, 8, 8, 8)
            grad = np.zeros_like(x)
            for u in range(3):
                for v in range(3):
                    grad[:, :, u:u + 8, v:v + 8] += y
        reps.append(time.perf_counter() - started)
    # a spike on the host lands in a few short repetitions; the median drops them
    return sorted(reps)[REFERENCE_REPS // 2] * REFERENCE_STEPS / REFERENCE_REP_STEPS


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cost_model(cfg):
    """The resource model the CLI builds for `cfg`, from the public API."""
    from netshrink import config as cfgmod
    from netshrink.cost import LatencyTable, MacModel, synthetic_latency_table

    if cfg.search.metric == "macs":
        return MacModel(cfg.layers, cfg.input_hw)
    if cfg.cost.kind == "file":
        table = LatencyTable.load(cfg.cost.path)
        table.interpolate = table.interpolate or cfg.cost.interpolate
    else:
        table = synthetic_latency_table(
            cfg.layers, cfg.input_hw, seed=cfg.seed + cfgmod.SEED_COST,
            interpolate=cfg.cost.interpolate,
        )
    table.validate_against(cfg.layers)
    return table


def splits(cfg):
    from netshrink import config as cfgmod
    from netshrink.data import load_raster, synth_classification, three_way_split

    d = cfg.dataset
    if d.kind == "synthetic":
        data = synth_classification(
            d.classes, d.per_class, d.height, d.width,
            seed=cfg.seed + cfgmod.SEED_DATA, channels=d.channels, noise=d.noise,
        )
    else:
        data = load_raster(d.path)
    return three_way_split(data, d.holdout_fraction, d.test_fraction, seed=cfg.seed + cfgmod.SEED_DATA)


# ---------------------------------------------------------------------------
# setup: the public calls every stage makes before it computes anything
# ---------------------------------------------------------------------------

def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import netshrink  # noqa: F401
    from netshrink import config as cfgmod
    from netshrink.supernet import SuperNetwork
    import numpy as np

    t1 = time.perf_counter()
    cfg = cfgmod.load_config(args.config, seed_override=args.seed)
    t2 = time.perf_counter()
    splits(cfg)
    t3 = time.perf_counter()
    SuperNetwork(cfg.layers, cfg.input_hw, cfg.classes,
                 rng=np.random.default_rng(cfg.seed + cfgmod.SEED_INIT))
    t4 = time.perf_counter()
    cost_model(cfg)
    t5 = time.perf_counter()
    return {
        "reference_s": [reference_s(), reference_s()],
        "setup_s": t5 - t0,
        "cli.import_s": t1 - t0,
        "config.load_s": t2 - t1,
        "data.build_s": t3 - t2,
        "supernet.init_s": t4 - t3,
        "cost.model_s": t5 - t4,
    }


# ---------------------------------------------------------------------------
# round: the three CLI stages, then the correctness gate
# ---------------------------------------------------------------------------

def call_stage(main, argv: list[str]) -> tuple[int, float, str]:
    """Run one `cli.main` call; a rejected or crashing stage is a return code, not a raise."""
    sink = io.StringIO()
    error = ""
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(argv)
    except SystemExit as e:  # argparse rejects its arguments this way
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # a crash is counted as a failed stage call
        rc, error = 1, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - started
    if rc != 0:
        error = (sink.getvalue()[-400:] + error).strip()
    return rc, seconds, error


def read_search_log(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_outputs(cfg, out: Path, smoke_floors: bool) -> tuple[list[tuple[str, bool, str]], dict]:
    """The correctness gate over one round's artifacts; returns (checks, facts)."""
    import numpy as np
    from netshrink import config as cfgmod
    from netshrink.cost import total_resource
    from netshrink.search import load_trajectory_choices
    from netshrink.supernet import SuperNetwork

    checks = []
    model = cost_model(cfg)
    net = SuperNetwork(cfg.layers, cfg.input_hw, cfg.classes,
                       rng=np.random.default_rng(cfg.seed + cfgmod.SEED_INIT))
    net.load(out / "supernet" / "checkpoint.json")
    s = cfg.search
    target = s.target_resource if s.target_resource is not None else (
        s.target_fraction * total_resource(net.full_choice(), model)
    )

    choices = load_trajectory_choices(out / "search" / "trajectory.json", net)
    resources = [total_resource(c, model) for c in choices]
    metrics = json.loads((out / "discovered" / "metrics.json").read_text())
    final_ok = resources[-1] <= target + TOL * max(1.0, target)
    metrics_ok = metrics["resource"] <= target + TOL * max(1.0, target)
    checks.append(("final_resource_meets_target", final_ok and metrics_ok,
                   f"final {resources[-1]:.6g}, metrics {metrics['resource']:.6g}, target {target:.6g}"))
    decreasing = all(b < a for a, b in zip(resources, resources[1:]))
    checks.append(("trajectory_strictly_decreasing", decreasing, f"{len(resources)} entries"))

    rows = read_search_log(out / "search" / "search_log.csv")
    iterations = len(choices) - 1
    chosen = {}
    for row in rows:
        chosen.setdefault(int(row["iteration"]), 0)
        chosen[int(row["iteration"])] += int(row["chosen"])
    one_each = sorted(chosen) == list(range(iterations)) and all(v == 1 for v in chosen.values())
    checks.append(("one_chosen_row_per_iteration", one_each,
                   f"{iterations} iterations, chosen counts {sorted(set(chosen.values()))}"))

    curve = [ln for ln in (out / "supernet" / "training_curve.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    holdout_acc = float(curve[-1].split(",")[2])
    facts = {
        "supernet_holdout_acc": holdout_acc,
        "discovered_test_acc": float(metrics["test_accuracy"]),
        "iterations": iterations,
        "samples": len(rows),
        "unique_samples": sum(1 for r in rows if r["duplicate_of"] == ""),
        "target": target,
        "final_resource": resources[-1],
        "checkpoint_bytes": (out / "supernet" / "checkpoint.json").stat().st_size,
    }
    if smoke_floors:
        _, _, test = splits(cfg)
        full_acc = net.evaluate(test.images, test.labels, net.full_choice())
        drop = full_acc - metrics["test_accuracy"]
        facts["full_width_test_acc"] = full_acc
        checks.append(("full_width_test_acc_ge_0.9", full_acc >= 0.9, f"{full_acc:.4f}"))
        checks.append(("discovered_drop_le_0.1", drop <= 0.1, f"{drop:+.4f}"))
    return checks, facts


def required_spans(cfg) -> list[str]:
    """Span names a traced pipeline of `cfg` must record at least once."""
    names = [
        "config.load_config", "data.three_way_split",
        "data.synth_classification" if cfg.dataset.kind == "synthetic" else "data.load_raster",
        "supernet.init", "search.train_supernetwork", "supernet.forward_train",
        "supernet.backward", "tensor.conv2d_forward", "tensor.conv2d_backward",
        "tensor.sgd_step", "supernet.save", "tensor.save_checkpoint", "supernet.load",
        "tensor.load_checkpoint", "search.run_search", "search.evaluate_sample",
        "supernet.forward_eval", "cost.total_resource", "supernet.extract",
        "search.train_subnetwork",
        "search.generate_mcd_sample" if cfg.search.optimizer == "mcd" else "search.generate_scd_samples",
    ]
    if cfg.search.metric == "latency" and cfg.cost.kind == "synthetic":
        names.append("cost.synthetic_latency_table")
    if cfg.discovered.mode == "replay":
        names += ["search.trajectory_replay_finetune", "supernet.shrink_to"]
    return names


def cmd_round(args) -> dict:
    from netshrink.cli import main
    from netshrink.config import load_config
    from netshrink.errors import NetshrinkError

    out = Path(args.out)
    common = ["--config", args.config, "--out", str(out)]
    common += [] if args.seed is None else ["--seed", str(args.seed)]
    plan = [("train-supernet", [])] + [("search", ["--jobs", str(args.jobs)])] * args.search_calls
    plan += [("train-discovered", [])] * args.discovered_calls

    tracer = restore = None
    if args.trace:
        import bench_trace

        tracer = bench_trace.Tracer()
        restore = bench_trace.install(tracer)

    calls, hashes, references = [], [], []
    for stage, extra in plan:
        references.append(reference_s())
        rc, seconds, error = call_stage(main, [stage, *common, *extra])
        calls.append({"stage": stage, "rc": rc, "seconds": seconds, "error": error})
        if rc != 0:
            break
        if stage == "search":
            hashes.append({name: sha256(out / "search" / name)
                           for name in ("trajectory.json", "search_log.csv")})
    references.append(reference_s())
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if restore is not None:
        restore()

    checks, facts = [], {}
    if all(c["rc"] == 0 for c in calls) and len(calls) == len(plan):
        try:
            cfg = load_config(args.config, seed_override=args.seed)
            checks, facts = check_outputs(cfg, out, args.smoke_floors)
            checks.append(("search_artifacts_identical_within_round",
                           all(h == hashes[0] for h in hashes), f"{len(hashes)} search calls"))
            if tracer is not None:
                summary = bench_trace.summarize(tracer.spans)
                missing = [n for n in required_spans(cfg) if summary["calls"].get(n, 0) == 0]
                checks.append(("every_layer_exercised", not missing, f"no calls: {missing}"))
                facts["trace"] = summary
        except (NetshrinkError, OSError, ValueError, KeyError, IndexError) as e:
            checks.append(("artifacts_readable", False, f"{type(e).__name__}: {e}"))
    else:
        checks.append(("round_completed", False, "a stage call failed"))
    return {
        "calls": calls,
        "planned_calls": len(plan),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "hashes": hashes[0] if hashes else {},
        "reference_s": references,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        **facts,
    }


# ---------------------------------------------------------------------------
# microbenchmark: conv forward/backward at every (M, k) grid point
# ---------------------------------------------------------------------------

def time_ms(fn, batches: int = 7, batch_target_s: float = 0.004) -> float:
    """Median over `batches` of the mean milliseconds per call."""
    fn()
    started = time.perf_counter()
    fn()
    once = max(time.perf_counter() - started, 1e-6)
    per_batch = max(1, int(batch_target_s / once))
    means = []
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(per_batch):
            fn()
        means.append(1e3 * (time.perf_counter() - started) / per_batch)
    means.sort()
    return means[len(means) // 2]


def cmd_microbench(args) -> dict:
    import numpy as np
    from netshrink import tensor as T
    from netshrink.config import load_config
    from netshrink.cost import LATENCY_TABLE_FORMAT, LatencyTable
    from netshrink.supernet import spatial_flow

    cfg = load_config(args.config, seed_override=args.seed)
    rng = np.random.default_rng(cfg.seed)
    batch = cfg.training.batch_size
    spatial = spatial_flow(cfg.layers, cfg.input_hw)
    table: dict[int, dict[int, dict[int, float]]] = {}
    fwd, bwd = {}, {}
    for spec, (h, w), (h_out, w_out) in zip(cfg.layers, spatial, spatial[1:]):
        x = rng.standard_normal((batch, spec.c, h, w)).astype(np.float32)
        table[spec.index] = {}
        for k in spec.kernel_grid:
            row = table[spec.index][k] = {}
            for m in spec.width_grid:
                if m == 0:
                    row[0] = 0.0  # a removed stride-1 layer costs nothing
                    continue
                wt = rng.standard_normal((m, spec.c, k, k)).astype(np.float32)
                row[m] = time_ms(lambda: T.conv2d_forward(x, wt, spec.stride))
            wt = rng.standard_normal((spec.t, spec.c, k, k)).astype(np.float32)
            dy = rng.standard_normal((batch, spec.t, h_out, w_out)).astype(np.float32)
            fwd[f"l{spec.index}.k{k}"] = row[spec.t]
            bwd[f"l{spec.index}.k{k}"] = time_ms(lambda: T.conv2d_backward(dy, x, wt, spec.stride))

    violations = []
    for spec in cfg.layers:
        by_k = table[spec.index]
        for k, row in by_k.items():
            ms = sorted(row)
            violations += [f"l{spec.index} k{k}: M {a}->{b}" for a, b in zip(ms, ms[1:]) if row[b] < row[a]]
        for m in spec.width_grid:
            if m == 0:
                continue
            ks = sorted(by_k)
            violations += [f"l{spec.index} M{m}: k {a}->{b}" for a, b in zip(ks, ks[1:])
                           if by_k[b][m] < by_k[a][m]]
    path = Path(args.out) / "latency_table.json"
    LatencyTable(
        table, device=args.device,
        note=f"median conv2d_forward ms at batch {batch}, float32, measured by bench/run.py",
    ).save(path)
    try:
        LatencyTable.load(path).validate_against(cfg.layers)
        validation = "ok"
    except ValueError as e:
        validation = f"rejected: {e}"
    return {
        "format": LATENCY_TABLE_FORMAT,
        "table_path": str(path),
        "batch": batch,
        "conv_fwd_ms": fwd,
        "conv_bwd_ms": bwd,
        "monotonicity_violations": violations,
        "validate_against": validation,
    }


def cmd_env(args) -> dict:
    """numpy and its BLAS build, as numpy reports them."""
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 prints only
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            np.show_config()
        deps = {"text": sink.getvalue()}
    return {"numpy": np.__version__, "blas": deps.get("blas", deps)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "round", "microbench", "env"))
    parser.add_argument("--config", default="")
    parser.add_argument("--seed", type=int, default=None, help="default: the config's seed")
    parser.add_argument("--out", default=".")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--search-calls", type=int, default=1)
    parser.add_argument("--discovered-calls", type=int, default=1)
    parser.add_argument("--smoke-floors", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--device", default="unknown")
    args = parser.parse_args(argv)
    run = {"setup": cmd_setup, "round": cmd_round, "microbench": cmd_microbench,
           "env": cmd_env}[args.mode]
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
