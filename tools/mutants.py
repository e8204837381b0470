"""Run tier-1 against each hand-written mutant of the program and report which ones it kills.

Usage: python tools/mutants.py [--tree PATH]

Each entry of `MUTANTS` gives a file (of `src/`, or of `bench/`, whose
tests tier-1 also runs), an exact old text, the new text and what the
mutant breaks.  The tool copies the tree (by default this
checkout) once to a temporary directory.  For each mutant it applies the
edit there, runs tier-1 with `-x` and restores the file.  The tree it reads
is never written.  A mutant whose old text does not occur exactly once in
its file is reported stale: a refactor that moves the code must update the
mutant, and cannot drop it silently.  A mutant marked equivalent cannot
change behaviour; it is listed with its reason and not run.

Prints one line per mutant ("killed" and the first failing test,
"survived", "stale" or "equivalent"), then `killed K/T`, where T counts the
mutants that ran.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TIER1 = ("-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors")

# a mutant that hangs the suite counts as killed after this many seconds
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the tree root
    old: str
    new: str
    breaks: str
    equivalent: str = ""  # why the mutant cannot change behaviour, if it cannot


MUTANTS = (
    Mutant(
        "select-ties-prefer-larger-resource", "src/netshrink/search.py",
        "-np.inf if np.isnan(r.loss) else -r.loss, -r.resource)",
        "-np.inf if np.isnan(r.loss) else -r.loss, r.resource)",
        "equal accuracy and loss pick the larger resource",
    ),
    Mutant(
        "mcd-shrinks-one-picked-layer", "src/netshrink/search.py",
        "for si in sorted(picked):",
        "for si in sorted(picked)[:1]:",
        "an MCD proposal shrinks one of its L picked layers",
    ),
    Mutant(
        "scd-takes-the-largest-shrink", "src/netshrink/search.py",
        "if best_option is None or key > best_option[0]:",
        "if best_option is None or key < best_option[0]:",
        "SCD proposes each layer's deepest feasible shrink",
    ),
    Mutant(
        "unshuffled-width-assignment", "src/netshrink/supernet.py",
        "    rng.shuffle(widths)\n    return widths",
        "    return widths",
        "training images get their widths in grid order",
    ),
    Mutant(
        "eight-point-width-grid", "src/netshrink/supernet.py",
        "np.linspace(0.0, t, 9)",
        "np.linspace(0.0, t, 8)",
        "the default width grid has eight points",
    ),
    Mutant(
        "kernel-draw-skips-the-largest", "src/netshrink/search.py",
        "s.kernel_grid[rng.integers(len(s.kernel_grid))]",
        "s.kernel_grid[rng.integers(max(1, len(s.kernel_grid) - 1))]",
        "super-network training never draws the largest kernel",
    ),
    Mutant(
        "budget-without-floor-clamp", "src/netshrink/search.py",
        "return max(prev_resource - reduction_schedule(initial_resource, config, iteration), min_resource)",
        "return prev_resource - reduction_schedule(initial_resource, config, iteration)",
        "the iteration budget can fall below the minimum resource",
    ),
    Mutant(
        "sgd-ignores-weight-decay", "src/netshrink/tensor.py",
        "step = weight_decay * p.value",
        "step = 0.0 * p.value",
        "sgd_step drops the weight-decay term",
    ),
    Mutant(
        "lr-decays-twice-per-epoch", "src/netshrink/config.py",
        "lr *= self.lr_decay",
        "lr *= self.lr_decay * self.lr_decay",
        "each super-network epoch decays the rate twice",
    ),
    Mutant(
        "replay-trains-zero-epochs-per-step", "src/netshrink/search.py",
        "train_subnetwork(net, train, discovered.replay_epochs_per_step, rng, config)",
        "train_subnetwork(net, train, 0, rng, config)",
        "trajectory replay skips its training at each shrink step",
    ),
    Mutant(
        "meets-without-tolerance", "src/netshrink/search.py",
        "return resource <= bound + 1e-9 * max(1.0, abs(bound))",
        "return resource <= bound",
        "a resource one rounding above its bound fails it",
    ),
    Mutant(
        "scd-tested-against-the-previous-best", "src/netshrink/search.py",
        "choices = generate_scd_samples(specs, model, best.choice, budget)",
        "choices = generate_scd_samples(specs, model, best.choice, best.resource)",
        "SCD samples need not meet the iteration's budget",
    ),
    Mutant(
        "mcd-escalates-at-once", "src/netshrink/search.py",
        "_MAX_ATTEMPTS = 200",
        "_MAX_ATTEMPTS = 1",
        "MCD escalates to forced minima after one proposal",
    ),
    Mutant(
        "lr-may-decay-to-zero", "src/netshrink/config.py",
        "if min(self.epoch_rates()) == 0.0:",
        "if False:",
        "a learning rate that decays to 0.0 reaches sgd_step",
    ),
    Mutant(
        "dataset-without-byte-cap", "src/netshrink/config.py",
        "if size > MAX_DATASET_BYTES:",
        "if False:",
        "a synthetic dataset past the cap reaches the allocator",
    ),
    Mutant(
        "train-accepts-off-grid-kernel", "src/netshrink/supernet.py",
        "layers = [by_kernel[k] for by_kernel, k in zip(self._train_layer, kernels)]",
        "layers = [by_kernel.get(k, by_kernel[max(by_kernel)])"
        " for by_kernel, k in zip(self._train_layer, kernels)]",
        "forward_train does not name an off-grid kernel",
    ),
    Mutant(
        "epochs-without-a-cap", "src/netshrink/config.py",
        "epochs: int = _key(40, lo=1, hi=10_000)",
        "epochs: int = _key(40, lo=1)",
        "a config's epochs may run the lr_decay check for as long as they ask",
    ),
    # the scratch mutants earlier changes describe, against the code as it now stands
    Mutant(
        "pass-through-drops-the-bypass-gradient", "src/netshrink/supernet.py",
        "        dx[:, m:hi] += dout[:, m:hi]\n",
        "        pass\n",
        "a shrunk layer's bypassed inputs get no gradient",
    ),
    Mutant(
        "pass-through-zeroes-its-gradient", "src/netshrink/supernet.py",
        "return dout  # a pass-through layer",
        "return dout * 0.0  # a pass-through layer",
        "a removed layer passes no gradient down",
    ),
    Mutant(
        "corner-kernel-window", "src/netshrink/supernet.py",
        "off = (full - k) // 2",
        "off = 0",
        "a smaller kernel takes the corner taps, not the centered window",
    ),
    Mutant(
        "dw-into-the-corner-window", "src/netshrink/supernet.py",
        "self.dw = prefix_slice(self.weight.grad, self.m, self.z_in, self.k)",
        "self.dw = self.weight.grad[: self.m, : self.z_in, : self.k, : self.k]",
        "a smaller kernel's weight gradient lands in the corner taps",
    ),
    Mutant(
        "gate-ignores-the-mask", "src/netshrink/supernet.py",
        "            gate = out > 0\n",
        "            gate = y > 0\n",
        "masked-out filters still get weight gradients",
    ),
    Mutant(
        "scaled-bypass", "src/netshrink/supernet.py",
        "out[:, :end] += x[:, :end] * dropped",
        "out[:, :end] += 2 * x[:, :end] * dropped",
        "training routes twice each dropped filter's input",
    ),
    Mutant(
        "flow-ignores-the-bypass", "src/netshrink/supernet.py",
        "r = max(m, spec.bypass_end(r))",
        "r = m if m else spec.bypass_end(r)",
        "a shrunk layer's flow drops the inputs it passes on",
    ),
    Mutant(
        "row-parser-without-the-object-check", "src/netshrink/supernet.py",
        "kind = json_object(row, at).get(\"kind\")",
        "kind = row.get(\"kind\")",
        "a row that is not an object fails with an AttributeError",
    ),
    Mutant(
        "row-parser-coerces-m", "src/netshrink/supernet.py",
        "m = json_int(row.get(\"M\"), f\"{at}: field 'M'\")",
        "m = int(row.get(\"M\"))",
        "a row's M may be a float, a bool or a string",
    ),
    Mutant(
        "row-parser-skips-the-head-row", "src/netshrink/supernet.py",
        "read = (\"kind\", \"M\", \"k\") if r < len(pairs) else ()",
        "read = (\"kind\", \"M\", \"k\") if r < len(pairs) else tuple(written[r])",
        "the head row's fields are not compared with the network's",
    ),
    Mutant(
        "extraction-reads-the-last-head-columns", "src/netshrink/supernet.py",
        "own(head_w.value[:, :z], head_b.value, \"head\")",
        "own(head_w.value[:, head_w.value.shape[1] - z :], head_b.value, \"head\")",
        "an extracted head copies the last z columns",
    ),
    Mutant(
        "batches-joined-in-reverse", "src/netshrink/supernet.py",
        "for lo in batches])",
        "for lo in batches[::-1]])",
        "evaluation joins its batch outputs in reverse order",
    ),
    Mutant(
        "score-weighs-batches-by-the-nominal-size", "src/netshrink/supernet.py",
        "[0] * (hi - lo)",
        "[0] * EVAL_BATCH_SIZE",
        "the mean loss weighs a short last batch as a full one",
    ),
    Mutant(
        "capture-fills-one-entry-less", "src/netshrink/supernet.py",
        "if capture is not None and i < len(capture):",
        "if capture is not None and i < len(capture) - 1:",
        "a captured prefix lacks its last layer's input",
    ),
    Mutant(
        "capture-of-the-wrong-layer", "src/netshrink/supernet.py",
        "                capture[i] = x\n",
        "                capture[max(i - 1, 0)] = x\n",
        "a layer's input is stored as the layer below's",
    ),
    Mutant(
        "prefix-relabelled-without-recomputing", "src/netshrink/search.py",
        "prefix = prefix.moved_to(supernet, best.choice)",
        "prefix = HoldoutPrefix(best.choice, prefix.inputs)",
        "the holdout prefix keeps the old best's inputs under the new best's choice",
    ),
    Mutant(
        "prefix-recomputed-one-layer-late", "src/netshrink/search.py",
        "f = first_changed_layer(self.choice, choice)",
        "f = min(first_changed_layer(self.choice, choice) + 1, len(self.inputs) - 1)",
        "the holdout prefix keeps one stale layer input after a winner",
    ),
    Mutant(
        "run-capture-one-layer-short", "src/netshrink/search.py",
        "stop = min(first_changed_layer(choice, after), len(choice.pairs) - 1) + 1",
        "stop = min(first_changed_layer(choice, after), len(choice.pairs) - 1)",
        "a run's next sample reruns one shared layer",
    ),
    Mutant(
        "progress-counts-from-the-prefix", "src/netshrink/search.py",
        "len(specs) - first_changed_layer(before, choice)",
        "len(specs) - first_changed_layer(prefix.choice, choice)",
        "the progress line counts each sample's layers from the best, not from the sample before",
    ),
    Mutant(
        "loader-without-the-shrink-check", "src/netshrink/search.py",
        "        i = first_growing_layer(before, after)\n        if i is not None:",
        "        i = first_growing_layer(before, after)\n        if False:",
        "a trajectory entry may grow a layer",
    ),
    Mutant(
        "conv-without-the-square-check", "src/netshrink/tensor.py",
        "if kh != kw:",
        "if False:",
        "a non-square kernel reaches the GEMM",
    ),
    Mutant(
        "conv-without-the-stride-check", "src/netshrink/tensor.py",
        "if stride < 1:",
        "if False:",
        "a stride below 1 reaches the GEMM",
    ),
    Mutant(
        "conv-without-the-extent-check", "src/netshrink/tensor.py",
        "if h < kh or wd < kw:",
        "if False:",
        "an input smaller than the kernel reaches the GEMM",
    ),
    Mutant(
        "dx-drops-the-odd-phases", "src/netshrink/tensor.py",
        "        for t in range(s):\n",
        "        for t in range(0, s, 2):\n",
        "a stride-2 input gradient leaves its odd columns unwritten",
    ),
    Mutant(
        "artifact-written-in-place", "src/netshrink/errors.py",
        "tmp = path.with_name(f\".{path.name}.{os.getpid()}.tmp\")",
        "tmp = path",
        "an artifact is rewritten in place, so a failed write leaves it torn",
    ),
    Mutant(
        "bench-cost-seed-off-by-one", "bench/bench_child.py",
        "seed=cfg.seed + cfgmod.SEED_COST,",
        "seed=cfg.seed + cfgmod.SEED_COST + 1,",
        "the bench prices a run with another table than the CLI",
    ),
    Mutant(
        "bench-split-seed-off-by-one", "bench/bench_child.py",
        "test_fraction, seed=cfg.seed + cfgmod.SEED_DATA)",
        "test_fraction, seed=cfg.seed + cfgmod.SEED_DATA + 1)",
        "the bench splits the data otherwise than the CLI",
    ),
    Mutant(
        "bench-ignores-the-interpolate-key", "bench/bench_child.py",
        "table.interpolate = table.interpolate or cfg.cost.interpolate",
        "table.interpolate = table.interpolate",
        "the bench reads a file table without the config's interpolation",
    ),
)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return "(no failing test named)"


def run(tree: Path, mutants) -> list[tuple[Mutant, str, str]]:
    """(mutant, status, detail) for each mutant, tried one at a time on a copy of `tree`."""
    results = []
    with tempfile.TemporaryDirectory(prefix="netshrink-mutants-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        for mutant in mutants:
            if mutant.equivalent:
                results.append((mutant, "equivalent", mutant.equivalent))
                continue
            target = copy / mutant.path
            original = target.read_text() if target.exists() else ""
            if original.count(mutant.old) != 1:
                results.append((mutant, "stale", f"old text occurs {original.count(mutant.old)} times"))
                continue
            target.write_text(original.replace(mutant.old, mutant.new))
            started = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, capture_output=True,
                                      text=True, timeout=TIMEOUT_S)
                status = "survived" if proc.returncode == 0 else "killed"
                detail = "" if proc.returncode == 0 else _first_failure(proc.stdout)
            except subprocess.TimeoutExpired:
                status, detail = "killed", f"timed out after {TIMEOUT_S} s"
            finally:
                target.write_text(original)
            results.append((mutant, status, f"{detail} ({time.perf_counter() - started:.0f} s)".strip()))
            print(f"{mutant.name}: {status} {results[-1][2]}", file=sys.stderr, flush=True)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to mutate a copy of")
    args = parser.parse_args(argv)
    results = run(args.tree.resolve(), MUTANTS)
    width = max(len(m.name) for m in MUTANTS)
    for mutant, status, detail in results:
        print(f"{mutant.name:<{width}}  {status:<10}  {detail}  [{mutant.breaks}]")
    ran = [status for _, status, _ in results if status in ("killed", "survived")]
    skipped = {s: sum(1 for _, status, _ in results if status == s) for s in ("stale", "equivalent")}
    print(f"killed {ran.count('killed')}/{len(ran)} ({skipped['stale']} stale, "
          f"{skipped['equivalent']} equivalent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
