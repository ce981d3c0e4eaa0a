#!/usr/bin/env python3
"""qrds benchmark: one seeded workload in this process, outputs checked.

Run from the root of a checkout (the directory holding ``src/qrds`` and
``BENCHMARK.json``):

    python3 qbench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

Whole passes of the workload run until the next one would end after
``--seconds``.  Each operation is checked outside its timed interval.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported, their
times scaled to reference seconds by calibration chunks timed between the
operations (see calibrate.py); the wall-clock times follow as ``wall.*``.  With
``--trace 1`` the first pass is replayed for ``--seconds``, alternately
without and with the benchmark's wrappers, and the per-layer metrics are
reported: medians over the traced replays, and ``trace.overhead_s`` as the
difference of the traced and untraced median pass times.  Human-readable
lines come first; the last line of standard output is one JSON object.  A run
record with every generated input goes to ``qbench/out/``, and
``--replay RECORD`` runs the passes of such a record again.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

SETUP_RUNS = 7
SETUP_CAL_CHUNKS = 4
SETUP_PROBE = "import qrds; qrds.verify_all(order=8)"


def measure_setup(calibrate, kind: str) -> dict:
    """Wall times of a fresh interpreter that imports qrds and makes one tiny
    call, from spawn to exit, and the calibration chunks timed between them.
    One untimed run first fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", SETUP_PROBE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    samples, cal = [], []
    for _ in range(SETUP_RUNS):
        cal.append(calibrate.sample(kind, SETUP_CAL_CHUNKS))
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(perf_counter() - t0)
    cal.append(calibrate.sample(kind, SETUP_CAL_CHUNKS))
    return {"s": samples, "cal_s": cal}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=Path, help="run record whose passes to run again")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qrds" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"qbench: no qrds sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"qbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports qrds, so only once src is on the path

    setup = measure_setup(harness.calibrate, harness.SETUP_CAL_KIND)
    return harness.run(args, spec, setup)


if __name__ == "__main__":
    sys.exit(main())
