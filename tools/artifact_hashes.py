"""Print the sha256 prefixes of the nine artifacts of the two pinned runs.

Usage: python tools/artifact_hashes.py

Runs `train-supernet`, `search` and `train-discovered` on the smoke config
(seed 7, `--jobs 1`) and on the bench's `desk-mcd` config (seed 501,
`--jobs 2`), each stage in a fresh process on this checkout's `src` with one
BLAS thread, in a temporary directory that is removed afterwards.  Prints one
line per run: the first 8 hex digits of the sha256 of the supernet
checkpoint, training curve, trajectory, search log, discovered architecture,
discovered checkpoint, metrics, architecture copy and config, in that order.
Equal lines before and after a change mean the change kept every artifact's
bytes.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUNS = (
    ("smoke seed 7 --jobs 1", ROOT / "demos" / "smoke_config.json", 7, 1),
    ("desk-mcd seed 501 --jobs 2", ROOT / "bench" / "configs" / "desk-mcd.json", 501, 2),
)

ARTIFACTS = (
    "supernet/checkpoint.json",
    "supernet/training_curve.csv",
    "search/trajectory.json",
    "search/search_log.csv",
    "search/discovered_architecture.json",
    "discovered/checkpoint.json",
    "discovered/metrics.json",
    "discovered/architecture.json",
    "discovered/config.json",
)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_hashes(config: Path, seed: int, jobs: int, out: Path) -> list[str]:
    """Run the three stages of `config` into `out`; returns the artifacts' sha256 prefixes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})
    common = ["--config", str(config), "--out", str(out), "--seed", str(seed)]
    for stage, extra in (("train-supernet", []), ("search", ["--jobs", str(jobs)]),
                         ("train-discovered", [])):
        subprocess.run([sys.executable, "-m", "netshrink", stage, *common, *extra],
                       env=env, check=True, stdout=subprocess.DEVNULL)
    return [hashlib.sha256((out / name).read_bytes()).hexdigest()[:8] for name in ARTIFACTS]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="netshrink-hashes-") as tmp:
        for label, config, seed, jobs in RUNS:
            hashes = run_hashes(config, seed, jobs, Path(tmp) / label.split()[0])
            print(f"{label}: {' '.join(hashes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
