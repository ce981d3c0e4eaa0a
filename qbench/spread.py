#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 qbench/spread.py --seeds 1-10                 # every workload
    python3 qbench/spread.py --seeds 1-5 --workloads series-scan
    python3 qbench/spread.py --seeds 1-10 --baseline      # also write baseline.json

Runs are sequential, one ``run.py`` process at a time, from the checkout
root.  For each end-to-end metric it prints the median of the runs, the
quartiles, and the spread (q3 - q1) / median beside the metric's bound.
``--baseline`` adds one traced run per workload and writes
``qbench/baseline.json`` with the machine, the layer-to-metric pairing, and
every median and per-layer value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / median(values), "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            result = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            print(f"{workload} seed={seed} {time.perf_counter() - t0:.1f}s failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            s = summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
            ok = name == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            print(f"  {name:14s} median={s['median']:<12.6g} q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} "
                  f"spread={s['spread']:.4f} bound={bound} {'ok' if ok else 'WIDE'}", flush=True)
        baseline[workload] = {
            "seeds": args.seeds,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": summary,
        }
        if args.baseline:
            traced = run_once(workload, args.seeds[0], args.seconds, 1)
            baseline[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            baseline[workload]["per_layer_seed"] = args.seeds[0]

    if args.baseline:
        sys.path.insert(0, str(ROOT / "src"))
        import calibrate
        import tracer

        out = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": cpu_model()},
            "calibration_ref_s": calibrate.REF_S,
            "run_seconds": args.seconds,
            "pairing": tracer.PAIRING,
            "workloads": baseline,
        }
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
