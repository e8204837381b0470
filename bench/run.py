"""netshrink pipeline benchmark: config to discovered network, timed and checked.

    python3 bench/run.py --workload smoke --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  Every measurement runs in a fresh
interpreter (``bench/bench_child.py``) with ``src`` on PYTHONPATH and the
BLAS/OpenMP thread variables pinned to 1, one process at a time:

* set-up probes: import, config, data, super-network and cost model;
* rounds: ``train-supernet`` once, then ``search`` and ``train-discovered``
  a fixed number of times each, all through ``netshrink.cli.main`` into one
  run directory, until ``--seconds`` is used up, with a reference kernel
  timed next to every stage call (see ``end_to_end``);
* with ``--trace 1``: a conv microbenchmark that writes a measured latency
  table, then alternating untraced and traced single-pass rounds.

Every round passes the correctness gate.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json, or with
``--trace 1`` its ``per_layer`` metrics).  The full record, with the
environment, every call, every check and the artifact hashes, goes to
``bench/out/<workload>/seed<N>-trace<T>/result.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import bench_trace

BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 9
MIN_ROUNDS = 2  # artifact hashes are compared across rounds
HARD_STOP_S = 140.0  # start nothing after this; the run must end within 180 s
END_BY_S = 170.0  # a child still running then is killed
# bench_child.reference_s on an idle 2-vCPU Xeon VM; end-to-end times
# are reported at this reference speed (see end_to_end)
REFERENCE_NOMINAL_S = 0.05
# the conv microbenchmark points both workload networks have
CONV_POINTS = ("l0.k3", "l0.k5", "l1.k3", "l2.k3")


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the checkout root
    jobs: int  # passed to `search` only
    search_calls: int  # per round, so that short stages get enough samples
    discovered_calls: int
    # True: run the config's own seed and ignore --seed (see WORKLOADS)
    pinned_seed: bool = False
    # the acceptance floors of the pinned smoke run
    smoke_floors: bool = False


WORKLOADS = {
    # The README's recorded baseline, unchanged: seed 7, on which the
    # acceptance floors were set.  Across seeds its search runs 2 to 4
    # iterations and its floors do not all hold, so a seed would change the
    # work measured rather than the inputs of the same work.
    "smoke": Workload("demos/smoke_config.json", jobs=1, search_calls=6,
                      discovered_calls=1, pinned_seed=True, smoke_floors=True),
    # MCD with one iteration of J=40 (a fixed amount of search work on any
    # seed) and --jobs 2.  It ranks by MACs, which, unlike the seeded
    # synthetic latency table, are the same on every seed, so the discovered
    # network's size (and its training time) varies little across seeds.
    # Its width grids leave out 0, so no seed's search removes a whole layer.
    "desk-mcd": Workload("bench/configs/desk-mcd.json", jobs=2, search_calls=4,
                         discovered_calls=2),
}


class Ledger:
    """Attempted and failed operations: stage calls, child processes and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Runner:
    def __init__(self, root: Path, out: Path, ledger: Ledger, started: float):
        self.root = root
        self.out = out
        self.ledger = ledger
        self.started = started
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        for var in THREAD_VARS:
            self.env[var] = "1"

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, mode: str, *args: str) -> dict | None:
        """Run one bench_child process, an attempt in the ledger; None if it fails."""
        cmd = [sys.executable, str(BENCH_DIR / "bench_child.py"), mode, *args]
        timeout = max(5.0, END_BY_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            self.ledger.record(False, f"{mode}: killed after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        self.ledger.record(result is not None,
                           f"{mode}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return result


def run_round(runner: Runner, name: str, wl: Workload, seed_args: list[str], trace: bool,
              search_calls: int, discovered_calls: int) -> dict | None:
    out = runner.out / name
    args = ["--config", wl.config, *seed_args, "--out", str(out),
            "--jobs", str(wl.jobs), "--search-calls", str(search_calls),
            "--discovered-calls", str(discovered_calls)]
    args += ["--smoke-floors"] * wl.smoke_floors + ["--trace"] * trace
    started = time.perf_counter()
    result = runner.child("round", *args)
    if result is None:
        return None
    result["wall_s"] = time.perf_counter() - started
    result["traced"] = trace
    for call in result["calls"]:
        runner.ledger.record(call["rc"] == 0, f"{name} {call['stage']}: rc {call['rc']}: {call['error']}")
    for _ in range(result["planned_calls"] - len(result["calls"])):
        runner.ledger.record(False, f"{name}: stage call not run after an earlier failure")
    for check in result["checks"]:
        runner.ledger.record(check["ok"], f"{name} check {check['name']}: {check['detail']}")
    shutil.rmtree(out, ignore_errors=True)
    return result


def stage_seconds(rounds: list[dict], stage: str, at_reference_speed: bool = False) -> list[float]:
    """Seconds of each successful call of `stage`; optionally each scaled by
    REFERENCE_NOMINAL_S over the mean of the reference times measured just
    before and just after it."""
    out = []
    for r in rounds:
        refs = r["reference_s"]
        for i, c in enumerate(r["calls"]):
            if c["stage"] == stage and c["rc"] == 0:
                scale = 2 * REFERENCE_NOMINAL_S / (refs[i] + refs[i + 1]) if at_reference_speed else 1.0
                out.append(c["seconds"] * scale)
    return out


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], p: float) -> float:
    return bench_trace.percentile(values, p) if values else 0.0


def speed_factor(setups: list[dict], rounds: list[dict]) -> float:
    """Nominal over median measured reference time: below 1 while the host runs slow."""
    measured = median(t for item in setups + rounds for t in item["reference_s"])
    return REFERENCE_NOMINAL_S / measured if measured > 0 else 1.0


def stage_medians(setups: list[dict], rounds: list[dict], at_reference_speed: bool) -> dict:
    """Median seconds of the set-up probes and of each stage's calls."""
    setup = [s["setup_s"] * (2 * REFERENCE_NOMINAL_S / sum(s["reference_s"]) if at_reference_speed else 1.0)
             for s in setups]
    return {"setup_s": median(setup), **{
        stage: median(stage_seconds(rounds, stage, at_reference_speed))
        for stage in ("train-supernet", "search", "train-discovered")}}


def end_to_end(setups: list[dict], rounds: list[dict], ledger: Ledger) -> dict:
    """Timings are medians of each call's seconds at the nominal reference speed.

    On a shared host the same work takes up to 1.7x longer for a minute at a
    time; the reference kernel run next to each call slows with it, and the
    ratio cancels most of that drift.  The wall-clock medians go to result.json.
    """
    times = stage_medians(setups, rounds, at_reference_speed=True)
    done = [r for r in rounds if "discovered_test_acc" in r]
    return {
        "setup_s": times["setup_s"],
        "train_supernet_s": times["train-supernet"],
        "search_s": times["search"],
        "train_discovered_s": times["train-discovered"],
        "pipeline_s": times["train-supernet"] + times["search"] + times["train-discovered"],
        "peak_rss_mb": median(r["peak_rss_mib"] for r in rounds),
        "supernet_holdout_acc": median(r["supernet_holdout_acc"] for r in done),
        "discovered_test_acc": median(r["discovered_test_acc"] for r in done),
        "ok_share": (ledger.attempted - len(ledger.failures)) / max(1, ledger.attempted),
    }


def per_layer(setups: list[dict], micro: dict | None, rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"] and "trace" in r]
    plain = [r for r in rounds if not r["traced"] and r["calls"]]
    # with no traced round the span metrics still appear, as zeros
    summaries = [r["trace"] for r in traced] or [bench_trace.summarize([])]
    metrics = {name: median(s["metrics"][name] for s in summaries)
               for name in summaries[0]["metrics"]}
    steps = [v for s in summaries for v in s["train_step_ms"]]
    evals = [v for s in summaries for v in s["eval_ms"]]
    first = traced[0] if traced else {}
    micro = micro or {"conv_fwd_ms": {}, "conv_bwd_ms": {}, "monotonicity_violations": []}

    def pipeline(r):
        return sum(c["seconds"] for c in r["calls"])

    metrics.update({
        "supernet.train_step_ms.p50": percentile(steps, 50),
        "supernet.train_step_ms.p95": percentile(steps, 95),
        "supernet.train_step_ms.n": len(steps),
        "search.eval_ms.p50": percentile(evals, 50),
        "search.eval_ms.p90": percentile(evals, 90),
        "search.eval_ms.n": len(evals),
        "search.iterations": first.get("iterations", 0),
        "search.samples": first.get("samples", 0),
        "search.unique_ratio": first.get("unique_samples", 0) / max(1, first.get("samples", 0)),
        "supernet.checkpoint_bytes": first.get("checkpoint_bytes", 0),
        "cli.import_s": median(s["cli.import_s"] for s in setups),
        "config.load_s": median(s["config.load_s"] for s in setups),
        "data.build_s": median(s["data.build_s"] for s in setups),
        "supernet.init_s": median(s["supernet.init_s"] for s in setups),
        "tensor.lut_violations": len(micro["monotonicity_violations"]),
        "trace.overhead_ratio": (median(map(pipeline, traced)) / median(map(pipeline, plain))
                                 if traced and plain else 0.0),
        "host.speed_factor": speed_factor(setups, rounds),
    })
    for point in CONV_POINTS:
        metrics[f"tensor.conv_fwd_ms.{point}"] = micro["conv_fwd_ms"].get(point, 0.0)
        metrics[f"tensor.conv_bwd_ms.{point}"] = micro["conv_bwd_ms"].get(point, 0.0)
    return metrics


def environment(runner: Runner, wl: Workload) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    record = {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "thread_vars": {var: runner.env[var] for var in THREAD_VARS},
        "search_jobs": wl.jobs,
        # --jobs threads, each running single-threaded BLAS
        "threads_within_nproc": wl.jobs * int(runner.env["OPENBLAS_NUM_THREADS"]) <= (nproc or 1),
    }
    record.update(runner.child("env") or {})
    return record


def checkout_problems(root: Path, wl: Workload | None, workload: str) -> list[str]:
    problems = []
    if wl is None:
        problems.append(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    elif not (root / wl.config).is_file():
        problems.append(f"workload config {wl.config} not found under {root}")
    for needed in ("src/netshrink/cli.py", "BENCHMARK.json"):
        if not (root / needed).is_file():
            problems.append(f"{needed} not found under {root}; run from a netshrink source checkout")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    wl = WORKLOADS.get(args.workload)
    problems = checkout_problems(root, wl, args.workload)
    if problems:
        for problem in problems:
            print(f"bench: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.perf_counter()
    out = root / "bench" / "out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ledger = Ledger()
    runner = Runner(root, out, ledger, started)
    env_record = environment(runner, wl)
    seed_args = [] if wl.pinned_seed else ["--seed", str(args.seed)]

    setups = []
    for _ in range(SETUP_PROBES):
        result = runner.child("setup", "--config", wl.config, *seed_args)
        if result is not None:
            setups.append(result)

    micro = None
    if args.trace:
        micro = runner.child("microbench", "--config", wl.config, *seed_args,
                             "--out", str(out), "--device", env_record["cpu_model"])

    rounds: list[dict] = []
    while runner.elapsed() < HARD_STOP_S:
        enough = len(rounds) >= MIN_ROUNDS
        if args.trace:
            steps = sum(len(r["trace"]["train_step_ms"]) for r in rounds if "trace" in r)
            evals = sum(len(r["trace"]["eval_ms"]) for r in rounds if "trace" in r)
            enough = enough and steps >= 200 and evals >= 100  # >= 10 beyond p95 and p90
        # stop when another round would end more than half a round past --seconds
        longest = max((r["wall_s"] for r in rounds), default=0.0)
        if enough and runner.elapsed() + longest / 2 > args.seconds:
            break
        index = len(rounds)
        traced = bool(args.trace) and index % 2 == 1
        calls = (1, 1) if args.trace else (wl.search_calls, wl.discovered_calls)
        result = run_round(runner, f"round{index}", wl, seed_args, traced, *calls)
        if result is None:
            break
        rounds.append(result)

    hashes = [r["hashes"] for r in rounds if r["hashes"]]
    ledger.record(len(hashes) >= MIN_ROUNDS and all(h == hashes[0] for h in hashes),
                  f"search artifacts differ across {len(hashes)} rounds of one seed")

    values = (per_layer(setups, micro, rounds) if args.trace
              else end_to_end(setups, rounds, ledger))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "pinned_seed": wl.pinned_seed,
        "seconds": args.seconds,
        "trace": args.trace, "environment": env_record, "result": result,
        "failures": ledger.failures, "hashes": hashes[0] if hashes else {},
        "wall_clock_medians_s": stage_medians(setups, rounds, at_reference_speed=False),
        "speed_factor": speed_factor(setups, rounds),
        "setups": setups, "microbench": micro,
        "rounds": [{k: v for k, v in r.items() if k != "trace"} |
                   ({"trace_calls": r["trace"]["calls"]} if "trace" in r else {}) for r in rounds],
        "wall_s": runner.elapsed(),
    }
    (out / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  set-up probes {len(setups)}  wall {runner.elapsed():.1f} s")
    print(f"nproc {env_record['nproc']}  cpu {env_record['cpu_model']}  python "
          f"{env_record['python']}  numpy {env_record.get('numpy')}  blas "
          f"{env_record.get('blas', {}).get('version', '?')}  threads {env_record['thread_vars']}")
    for name, digest in record["hashes"].items():
        print(f"sha256 {name} {digest}")
    print(f"speed factor {record['speed_factor']:.4f} (reference {REFERENCE_NOMINAL_S} s nominal); "
          "wall-clock medians " + ", ".join(f"{k} {v:.4g} s" for k, v in record["wall_clock_medians_s"].items()))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(f"attempted {ledger.attempted}, failed {len(ledger.failures)}; record {out / 'result.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
