"""The pinned end-to-end run: train-supernet -> search -> train-discovered -> report.

Uses demos/smoke_config.json (seed 7).  The recorded baseline behind the
shipped thresholds: full-width test accuracy 0.969, discovered 0.990 at
1.356 ms against a 1.437 ms target; the report's total read 1.2-2.4 s on a
2-vCPU Xeon.
"""
import sys
import time
from pathlib import Path

from netshrink.cli import main

config = str(Path(__file__).parent / "smoke_config.json")
out = sys.argv[1] if len(sys.argv) > 1 else "runs/smoke"

started = time.perf_counter()
for argv in (
    ["train-supernet", "--config", config, "--out", out],
    ["search", "--config", config, "--out", out],
    ["train-discovered", "--config", config, "--out", out],
    ["report", "--out", out],
):
    print(f"\n$ netshrink {' '.join(argv)}")
    code = main(argv)
    if code != 0:
        sys.exit(code)
print(f"\nsmoke run finished in {time.perf_counter() - started:.1f}s -> {out}")
