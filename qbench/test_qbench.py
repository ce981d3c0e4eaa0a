"""Tests of the benchmark itself: python3 -m pytest qbench -q (from the root)."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import calibrate  # noqa: E402
import harness  # noqa: E402
import qrds  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DIGESTS = json.loads((HERE / "digests.json").read_text())
UNITS = {m["name"]: m["unit"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}

# one operation of every kind, at small horizons
SMALL_PASS = [
    {"op": "verify_all", "order": 40},
    {"op": "eval_named", "id": "L7", "order": 60},
    {"op": "eval_named", "id": "Z3", "order": 80},
    {"op": "pair_relation", "pair": "P1A", "n_max": 8, "order": 60},
    {"op": "lacunarity", "id": "SIGMA", "order": 300},
    {"op": "arith_leg", "theorem": 5, "order": 3000},
    {"op": "arith_leg", "theorem": 9, "order": 3000},
]


def _canon(out):
    """Comparable form of an operation's output."""
    if isinstance(out, qrds.LaurentSeries):
        return ("series", out.order, workloads._items(out, out.order))
    if isinstance(out, tuple):
        return tuple(_canon(x) for x in out)
    if isinstance(out, list) and out and isinstance(out[0], qrds.VerificationReport):
        return [{k: v for k, v in r.to_payload().items() if k != "elapsed_ms"} for r in out]
    return out


def _corrupt(f):
    """The same series with one coefficient, half way up, off by one."""
    e = (f.valuation() + f.order) // 2
    return qrds.LaurentSeries.from_items(list(f.items()) + [(e, 1)], f.order)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    for index in (0, 1, 5):
        a = workloads.make_pass(workload, 7, index)
        assert a == workloads.make_pass(workload, 7, index)
        assert json.loads(json.dumps(a)) == a
    assert [workloads.make_pass(workload, 7, i) for i in range(4)] != [
        workloads.make_pass(workload, 8, i) for i in range(4)
    ]


def test_strata_cover_each_band():
    orders = [workloads.make_pass("verify-sweep", 3, i)[0]["order"] for i in range(workloads.STRATA)]
    lo, hi = workloads.VERIFY_BAND
    starts = [lo + s * (hi - lo + 1) // workloads.STRATA for s in range(workloads.STRATA)]
    assert sorted(sum(n >= start for start in starts) - 1 for n in orders) == list(range(workloads.STRATA))


def test_series_scan_evaluates_each_id_once_before_lacunarity():
    for seed in range(20):
        ops = workloads.make_pass("series-scan", seed, 0)
        ids = [op["id"] for op in ops if op["op"] == "eval_named"]
        assert sorted(ids) == sorted(qrds.catalog_ids())
        kinds = [op["op"] for op in ops]
        assert kinds.count("pair_relation") == 8 and kinds.count("lacunarity") == 1
        sigma = next(i for i, op in enumerate(ops) if op.get("id") == "SIGMA" and op["op"] == "eval_named")
        assert sigma < kinds.index("lacunarity")


def test_traced_and_untraced_outputs_identical():
    plain = [_canon(out) for _op, _dt, out in harness.run_pass(SMALL_PASS)]
    spans = tracer.Tracer()
    originals = {name: fn for name, fn in tracer.SPANNED.items()}
    with tracer.patched(spans.replacements()):
        assert qrds.verify.eval_named is not originals["catalog.eval_named"]
        traced = [_canon(out) for _op, _dt, out in harness.run_pass(SMALL_PASS, around=spans.op)]
    assert traced == plain
    assert qrds.verify.eval_named is originals["catalog.eval_named"]
    assert qrds.LaurentSeries.__add__ is tracer.KERNEL["series.add"]
    assert len(spans.op_labels) == len(SMALL_PASS)


def test_traced_counts_repeat_exactly():
    def counts():
        spans = tracer.Tracer()
        with tracer.patched(spans.replacements()):
            list(harness.run_pass(SMALL_PASS, around=spans.op))
        m = spans.layer_metrics()
        return {k: v for k, v in m.items() if UNITS[k] != "s"}

    first = counts()
    assert first == counts()
    assert first["verify.reports"] == 17
    assert first["catalog.outer_terms"] > 0 and first["series.coeff_ops"] > 0
    assert first["ideals.canonical_reps.calls"] > 0


def test_self_time_excludes_children():
    spans = tracer.Tracer()
    spans.name.extend([0, 0, 0])
    spans.parent.extend([-1, 0, 1])
    spans.start.extend([0.0, 1.0, 2.0])
    spans.end.extend([10.0, 4.0, 3.0])
    total, own = spans.durations()
    assert total == [10.0, 3.0, 1.0]
    assert own == [7.0, 2.0, 1.0]


def test_calibration_scales_each_op_by_the_chunks_nearest_it():
    ref = calibrate.REF_S["series"]
    # four chunks a block: each op sees the block before and the block after it
    blocks = [[ref] * 4, [2 * ref] * 4, [2 * ref] * 4]
    assert calibrate.local_scales(blocks, "series") == [pytest.approx(2 / 3), 0.5]
    # one chunk a block: each op sees two blocks before and two after it
    blocks = [[ref]] * 4 + [[4 * ref]] * 6
    want = [1.0, 1.0, 4 / 7, 0.4, 4 / 13] + [0.25] * 4
    assert calibrate.local_scales(blocks, "series") == pytest.approx(want)


def test_calibration_chunks_run_the_frozen_copy():
    assert calibrate.kind(workloads.make_pass("arith-legs", 1, 0)) == "arith"
    assert calibrate.kind(workloads.make_pass("series-scan", 1, 0)) == "series"
    for kind in calibrate.REF_S:
        assert len(calibrate.sample(kind, 2)) == 2
    mismatch, theta, _ideal = workloads.arith_leg(calibrate.refqrds, 5, 500)
    assert mismatch is None and theta.order >= 500


def test_measure_times_a_calibration_block_around_every_op():
    ops = [{"op": "eval_named", "id": "L2", "order": 40}, {"op": "eval_named", "id": "Z3", "order": 80}]
    records, _ = harness.measure([(0, ops), (1, ops)], math.inf, DIGESTS)
    assert [len(r["cal_s"]) for r in records] == [2, 2]
    assert [len(b) for r in records for b in r["cal_s"]] == [harness.cal_chunks(ops)] * 4
    assert "cal_end" in records[-1] and "cal_end" not in records[0]
    values, _samples, wall = harness.end_to_end(records, {"s": [0.1], "cal_s": [[0.02], [0.03]]})
    assert set(wall) < set(values) and all(v > 0 for v in values.values())


def test_repeat_share():
    assert tracer._repeat_share([("L6", 201), ("L6", 400), ("L6", 201), ("L7", 5)]) == 0.25
    assert tracer._repeat_share([]) == 0.0


def test_checks_pass_on_a_real_pass():
    for workload in workloads.WORKLOADS:
        ops = [op for op in workloads.make_pass(workload, 1, 0) if op["op"] != "verify_all"][:3]
        records, failures = harness.measure([(0, ops)], math.inf, DIGESTS)
        assert failures == [] and len(records[0]["op_s"]) == len(ops)


@pytest.mark.parametrize(
    "target, op",
    [
        (qrds.catalog.eval_named, {"op": "verify_all", "order": 40}),
        (qrds.catalog.eval_named, {"op": "eval_named", "id": "Z2", "order": 900}),
        (qrds.catalog.eval_named, {"op": "eval_named", "id": "L3", "order": 50}),
        (qrds.catalog.eval_named, {"op": "lacunarity", "id": "SIGMA", "order": 9500}),
        (qrds.ideals.ideal_series, {"op": "arith_leg", "theorem": 2, "order": 3000}),
    ],
)
def test_corrupted_coefficient_is_caught_and_named(target, op):
    def corrupting(*args, **kwargs):
        return _corrupt(target(*args, **kwargs))

    with tracer.patched({target: corrupting}):
        _records, failures = harness.measure([(0, [op])], math.inf, DIGESTS)
    assert [f["op"] for f in failures] == [workloads.label(op)]


def test_trace_mode_checks_untraced_and_traced_replays():
    ops = [op for op in SMALL_PASS if op["op"] not in ("lacunarity", "eval_named")]
    records, failures, layers, traced_s, spans = harness.measure_traced(0, ops, 0.0, DIGESTS)
    assert failures == []
    assert len(records) == len(layers) == len(traced_s) == 1
    assert len(spans.op_labels) == len(ops)

    original = qrds.ideals.ideal_series

    def corrupting(*args, **kwargs):
        return _corrupt(original(*args, **kwargs))

    with tracer.patched({original: corrupting}):
        _records, failures, *_ = harness.measure_traced(0, ops, 0.0, DIGESTS)
    assert {f.get("traced", False) for f in failures} == {False, True}


def test_replay_runs_the_recorded_inputs(tmp_path, capsys):
    ops = [{"op": "eval_named", "id": "L2", "order": 40}, {"op": "arith_leg", "theorem": 7, "order": 2000}]
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"passes": [{"index": 3, "ops": ops}]}))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    args = argparse.Namespace(workload="series-scan", seed=99, seconds=60.0, trace=0, replay=record)
    assert harness.run(args, spec, setup={"s": [0.1], "cal_s": [[0.02], [0.02]]}) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == len(ops)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    written = json.loads((harness.OUT / "series-scan-seed99-trace0.json").read_text())
    assert [p["ops"] for p in written["passes"]] == [ops]
