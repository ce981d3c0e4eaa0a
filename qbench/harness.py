"""Measurement loop, traced replay and metrics of one benchmark run."""

from __future__ import annotations

import json
import math
import resource
import traceback
from contextlib import nullcontext
from itertools import count
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import calibrate
import qrds
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# calibration chunks in each pass: at least this many, and one before each op
CAL_PER_PASS = 4
# the set-up probe imports qrds and runs a tiny verify_all
SETUP_CAL_KIND = "series"


def cal_chunks(ops) -> int:
    """Calibration chunks timed before each operation of a pass."""
    return max(1, -(-CAL_PER_PASS // max(1, len(ops))))


def run_pass(ops, around=None, cal=None):
    """Yield (op, seconds, output or exception) for each operation.  With a
    list ``cal``, a block of calibration chunks runs before each operation,
    untimed by it, and the block's chunk times are appended to ``cal``."""
    for op in ops:
        if cal is not None:
            cal.append(calibrate.sample(calibrate.kind(ops), cal_chunks(ops)))
        with around(workloads.label(op)) if around else nullcontext():
            t0 = perf_counter()
            try:
                out = workloads.run_op(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            dt = perf_counter() - t0
        yield op, dt, out


def failure(op, out, digests) -> str | None:
    """None when an operation's output passes its check, else why not."""
    if isinstance(out, Exception):
        return "".join(traceback.format_exception_only(type(out), out)).strip()
    try:
        return workloads.check(op, out, digests)
    except Exception as exc:  # a malformed output fails its check
        return f"check raised {exc!r}"


def measure(passes, seconds: float, digests: dict):
    """Run whole passes for at most ``seconds``, with a block of calibration
    chunks before each operation and one after the last; check every
    output."""
    records, failures = [], []
    t_start = perf_counter()
    longest = 0.0
    for index, ops in passes:
        if records and perf_counter() - t_start + longest > seconds:
            break
        p0 = perf_counter()
        op_s, cal_s = [], []
        for op, dt, out in run_pass(ops, cal=cal_s):
            op_s.append(dt)
            why = failure(op, out, digests)
            if why:
                failures.append({"pass": index, "op": workloads.label(op), "error": why})
        longest = max(longest, perf_counter() - p0)
        records.append({"index": index, "ops": ops, "op_s": op_s, "cal_s": cal_s})
    if records:
        ops = records[-1]["ops"]
        records[-1]["cal_end"] = calibrate.sample(calibrate.kind(ops), cal_chunks(ops))
    return records, failures


def traced_pass(index: int, ops: list, digests: dict):
    """One pass with every wrapper in place; outputs checked afterwards."""
    spans = tracer.Tracer()
    with tracer.patched(spans.replacements()):
        results = list(run_pass(ops, around=spans.op))
    failures = []
    for op, _dt, out in results:
        why = failure(op, out, digests)
        if why:
            failures.append({"pass": index, "op": workloads.label(op), "error": why, "traced": True})
    return spans, sum(dt for _op, dt, _out in results), failures


def measure_traced(index: int, ops: list, seconds: float, digests: dict):
    """Replay one pass without and then with the wrappers, in turn, for at
    most ``seconds``.  Returns the untraced records, the failures, the layer
    metrics and time of each traced replay, and the first replay's spans."""
    records, failures, layers, traced_s = [], [], [], []
    first = None
    t_start = perf_counter()
    longest = 0.0
    while not records or perf_counter() - t_start + longest <= seconds:
        p0 = perf_counter()
        plain, plain_failures = measure([(index, ops)], math.inf, digests)
        spans, dt, traced_failures = traced_pass(index, ops, digests)
        records += plain
        failures += plain_failures + traced_failures
        layers.append(spans.layer_metrics())
        traced_s.append(dt)
        first = first or spans
        longest = max(longest, perf_counter() - p0)
    return records, failures, layers, traced_s, first


def end_to_end(records, setup: dict) -> tuple[dict, dict, dict]:
    """Metric values in reference seconds (see calibrate.py), their sample
    counts, and the same times as measured by the wall clock."""
    blocks = [b for r in records for b in r["cal_s"]] + [records[-1]["cal_end"]]
    scales = iter(calibrate.local_scales(blocks, calibrate.kind(records[0]["ops"])))
    op_ref = [[dt * next(scales) for dt in r["op_s"]] for r in records]
    setup_ref = [s * k for s, k in zip(setup["s"], calibrate.local_scales(setup["cal_s"], SETUP_CAL_KIND))]

    # each operation checks or produces its horizon + 1 coefficients
    coeffs = sum(op["order"] + 1 for r in records for op in r["ops"])

    def timings(op_s: list[list[float]], setup_s: list[float]) -> dict:
        op_ms = [1000 * s for ops in op_s for s in ops]
        return {
            "pass_s": median(sum(s) for s in op_s),
            "op_ms_p50": median(op_ms),
            "op_ms_p90": quantiles(op_ms, n=10, method="inclusive")[8] if len(op_ms) > 1 else op_ms[0],
            "coeffs_per_s": coeffs / sum(map(sum, op_s)),
            "setup_s": median(setup_s),
        }

    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = dict(timings(op_ref, setup_ref), peak_rss_mb=kib / 1024)
    n_ops = sum(len(r["op_s"]) for r in records)
    samples = {
        "pass_s": len(records),
        "op_ms_p50": n_ops,
        "op_ms_p90": n_ops,
        "coeffs_per_s": n_ops,
        "setup_s": len(setup["s"]),
        "peak_rss_mb": 1,
    }
    return values, samples, timings([r["op_s"] for r in records], setup["s"])


def run(args, spec: dict, setup: dict) -> int:
    """Measure, check and report one run; see run.py for the arguments."""
    digests = json.loads((HERE / "digests.json").read_text())
    qrds.verify_all(order=8)  # the same warm-up call as the set-up probe

    if args.replay:
        passes = [(r["index"], r["ops"]) for r in json.loads(args.replay.read_text())["passes"]]
    else:
        passes = ((i, workloads.make_pass(args.workload, args.seed, i)) for i in count())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)

    if args.trace:
        index, ops = next(iter(passes))
        records, failures, layers, traced_s, spans = measure_traced(index, ops, args.seconds, digests)
        attempted = len(ops) * (len(records) + len(traced_s))
        values = {k: median(layer[k] for layer in layers) for k in layers[0]}
        values["trace.overhead_s"] = median(traced_s) - median(sum(r["op_s"]) for r in records)
        spans.write(OUT / f"{stem}.spans.json.gz")
        wanted, samples, wall = spec["per_layer"], {}, {}
    else:
        records, failures = measure(passes, args.seconds, digests)
        attempted = sum(len(r["ops"]) for r in records)
        values, samples, wall = end_to_end(records, setup)
        wanted = spec["end_to_end"]

    print(f"qbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("inputs " + json.dumps([{"index": r["index"], "ops": r["ops"]} for r in records]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}{n}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in wall.items():
        print(f"{'wall.' + name:36s} {value:>16.6g} {units.get(name, '')}  (wall clock, not calibrated)")
    print(f"{'failed_ops':36s} {len(failures) / attempted:>16.6g} share  ({len(failures)} of {attempted})")
    for f in failures:
        print(f"FAILED {f['op']} in pass {f['pass']}: {f['error']}")

    record = {
        "args": {k: str(v) if isinstance(v, Path) else v for k, v in vars(args).items()},
        "setup": setup,
        "calibration_ref_s": calibrate.REF_S,
        "passes": records,
        "failures": failures,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(f"record {(OUT / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0
