#!/usr/bin/env python3
"""Freeze the reference digests the benchmark checks outputs against.

    python3 qbench/freeze_digests.py

writes ``qbench/digests.json``: for Z2..Z5 every order of the single-sum band
and for the lacunarity profile every order of its band, keyed by (id, order).
Each id is summed once at the top of its band and lower orders are digested
from truncations of that series; a few orders are then recomputed directly and
must give the same digest.  Run it only at a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import qrds  # noqa: E402
import tracer  # noqa: E402
import workloads as w  # noqa: E402


def _spot_orders(band):
    lo, hi = band
    return (lo, (lo + hi) // 2, hi)


def main() -> int:
    series = {}
    for sid in w.DIGEST_IDS:
        top = qrds.eval_named(sid, w.SINGLE_BAND[1])
        series[sid] = {str(n): w.series_digest(top.truncate(n), n) for n in range(w.SINGLE_BAND[0], w.SINGLE_BAND[1] + 1)}
        for n in _spot_orders(w.SINGLE_BAND):
            assert w.series_digest(qrds.eval_named(sid, n), n) == series[sid][str(n)], (sid, n)

    sid = w.LACUNARITY_ID
    lo, hi = w.LACUNARITY_BAND
    top = qrds.eval_named(sid, hi)
    truncated = {qrds.catalog.eval_named: lambda series_id, order: top.truncate(order)}
    with tracer.patched(truncated):
        lacunarity = {str(n): w.report_digest(qrds.lacunarity_report(sid, n)) for n in range(lo, hi + 1)}
    for n in _spot_orders(w.LACUNARITY_BAND):
        assert w.report_digest(qrds.lacunarity_report(sid, n)) == lacunarity[str(n)], (sid, n)

    out = {"series": series, "lacunarity": {sid: lacunarity}}
    (HERE / "digests.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
