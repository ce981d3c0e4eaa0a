"""Seeded workload plans, the operations they run, and the output checks.

A plan is a sequence of passes; a pass is a list of operations; an operation
is a plain dict (JSON-ready, so a run record can replay it).  Everything the
program sees is in those dicts.

Every band is cut into ``STRATA`` equal strata.  Within each block of
``STRATA`` consecutive passes an operation slot visits every stratum once, in
a seed-shuffled order, at a seed-drawn value inside the stratum.  So any run
covers each band evenly whatever its pass count, and pass times from
different seeds stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import qrds

STRATA = 4

# verify_all horizon: narrow band around the ROADMAP's order-400 baseline
VERIFY_BAND = (392, 408)
# series-scan horizons: double sums, single sums, pair relation, lacunarity
DOUBLE_BAND = (180, 220)
SINGLE_BAND = (900, 1100)
RELATION_BAND = (280, 320)
RELATION_NMAX = 25
LACUNARITY_ID = "SIGMA"
LACUNARITY_BAND = (9500, 10500)
# arith-legs target horizon N of the ideal side
ARITH_BAND = (30000, 40000)

# single sums whose outputs are checked against frozen digests
DIGEST_IDS = ("Z2", "Z3", "Z4", "Z5")

WORKLOADS = ("verify-sweep", "series-scan", "arith-legs")

VERIFY_REPORT_IDS = tuple(
    [f"corollary-{j}" for j in (1, 2, 3, 4)]
    + ["sigma"]
    + [f"theorem-{i:02d}" for i in range(1, 13)]
)


def _draw(rng: random.Random, band: tuple[int, int], stratum: int) -> int:
    lo, hi = band
    width = hi - lo + 1
    return rng.randint(lo + stratum * width // STRATA, lo + (stratum + 1) * width // STRATA - 1)


def _slots(workload: str) -> list[tuple[dict, tuple[int, int]]]:
    """(operation without its horizon, horizon band) for one pass."""
    if workload == "verify-sweep":
        return [({"op": "verify_all"}, VERIFY_BAND)]
    if workload == "series-scan":
        slots = []
        for sid in qrds.catalog_ids():
            band = DOUBLE_BAND if sid.startswith("L") else SINGLE_BAND
            slots.append(({"op": "eval_named", "id": sid}, band))
        for label in qrds.pair_labels():
            slots.append(({"op": "pair_relation", "pair": label, "n_max": RELATION_NMAX}, RELATION_BAND))
        slots.append(({"op": "lacunarity", "id": LACUNARITY_ID}, LACUNARITY_BAND))
        return slots
    if workload == "arith-legs":
        return [({"op": "arith_leg", "theorem": spec.index}, ARITH_BAND) for spec in qrds.theorem_table()]
    raise ValueError(f"unknown workload {workload!r}")


def make_pass(workload: str, seed: int, index: int) -> list[dict]:
    """The operations of pass ``index`` of a workload; same seed, same pass."""
    slots = _slots(workload)
    block, pos = divmod(index, STRATA)
    block_rng = random.Random(f"{workload}:{seed}:block:{block}")
    perms = [block_rng.sample(range(STRATA), STRATA) for _ in slots]
    rng = random.Random(f"{workload}:{seed}:pass:{index}")
    ops = [dict(op, order=_draw(rng, band, perm[pos])) for (op, band), perm in zip(slots, perms)]
    rng.shuffle(ops)
    if workload == "series-scan":
        # lacunarity evaluates SIGMA at ~10^4; run it after the SIGMA
        # evaluation so that no call repeats an id at a lower horizon
        lac = next(i for i, op in enumerate(ops) if op["op"] == "lacunarity")
        sig = next(i for i, op in enumerate(ops) if op["op"] == "eval_named" and op["id"] == LACUNARITY_ID)
        if lac < sig:
            ops[lac], ops[sig] = ops[sig], ops[lac]
    return ops


def label(op: dict) -> str:
    """Human-readable name of an operation, used in failure reports."""
    args = [str(op[k]) for k in ("id", "pair", "theorem") if k in op]
    return f"{op['op']}({', '.join(args + [str(op['order'])])})"


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def run_op(op: dict):
    """Run one operation through the public API and return its output."""
    kind = op["op"]
    if kind == "verify_all":
        return qrds.verify_all(order=op["order"])
    if kind == "eval_named":
        return qrds.eval_named(op["id"], op["order"])
    if kind == "pair_relation":
        return qrds.verify_pair_relation(qrds.pair_catalog(op["pair"]), n_max=op["n_max"], order=op["order"])
    if kind == "lacunarity":
        return qrds.lacunarity_report(op["id"], op["order"])
    if kind == "arith_leg":
        return arith_leg(qrds, op["theorem"], op["order"])
    raise ValueError(f"unknown operation {kind!r}")


def arith_leg(lib, theorem: int, n: int):
    """Theta side of a theorem against its ideal side through q**n, in the
    qrds package ``lib``: (first mismatch, theta series, ideal series)."""
    spec = lib.theorem_table()[theorem - 1]
    base = max(0, _ceil_div(n - spec.shift, spec.dilate))
    theta = lib.eval_blocks(lib.hecke_catalog(spec.series_id), base).dilate_shift(spec.dilate, spec.shift)
    query = lib.IdealQuery(spec.field_d, spec.residue, spec.modulus, spec.restriction)
    ideal = lib.ideal_series(query, n, weight=spec.weight)
    return lib.first_mismatch(theta, ideal, through=n), theta, ideal


# ------------------------------------------------------------------ checks


def _items(f, through: int) -> dict:
    return {e: Fraction(c) for e, c in f.items() if e <= through}


def series_digest(f, order: int) -> str:
    """Digest of the horizon and every nonzero coefficient through ``order``."""
    text = f"{f.order};" + ";".join(f"{e}:{c}" for e, c in sorted(_items(f, order).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


def check(op: dict, out, digests: dict) -> str | None:
    """None when the output is correct, else what is wrong with it."""
    kind, n = op["op"], op["order"]
    if kind == "verify_all":
        ids = tuple(r.report_id for r in out)
        if ids != VERIFY_REPORT_IDS:
            return f"report ids {ids}"
        bad = [r.report_id for r in out if not r.ok or r.order != n]
        return f"reports failed: {bad}" if bad else None
    if kind == "eval_named":
        if out.order != n:
            return f"horizon {out.order}, expected {n}"
        if op["id"] in DIGEST_IDS:
            want = digests["series"][op["id"]].get(str(n))
            return None if series_digest(out, n) == want else "coefficients differ from the frozen digest"
        theta = qrds.eval_blocks(qrds.hecke_catalog(op["id"]), n)
        return None if _items(out, n) == _items(theta, n) else "coefficients differ from the theta form"
    if kind == "pair_relation":
        return f"relation failures {out[:3]}" if out else None
    if kind == "lacunarity":
        want = digests["lacunarity"][op["id"]].get(str(n))
        return None if report_digest(out) == want else "profile differs from the frozen digest"
    if kind == "arith_leg":
        mismatch, theta, ideal = out
        if mismatch is not None:
            return f"first mismatch {mismatch}"
        if theta.order < n or ideal.order < n or _items(theta, n) != _items(ideal, n):
            return "theta and ideal sides differ"
        return None
    return f"unknown operation {kind!r}"
