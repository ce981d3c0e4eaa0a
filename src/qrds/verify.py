"""End-to-end identity verification.

Each of the twelve theorem entries ties one double sum to three other
descriptions of the same coefficients:

* ``ideal``     — after the substitution q -> q^t shifted by s, the series
                  matches a weighted ideal-count generating function of a
                  real quadratic field, restricted to one residue class
                  (building it cross-checks the field's two ideal counts,
                  and a disagreement raises ``InvariantViolation``);
* ``theta``     — the series equals its indefinite theta-function form;
* ``pipeline``  — the series, scaled and shifted, equals the alpha side of
                  its Bailey pair's limit transform after the iteration
                  step: the closed forms of alpha_n, summed through a proven
                  last index (``bailey.alpha_side``).

``verify_theorem`` runs all three legs and reports the first mismatching
coefficient of any leg, exactly — there are no tolerances anywhere.

The pipeline leg checks Bailey's lemma, the step of the proof that the
catalog sum does not already make: the transform's beta side is the
catalog's double sum itself (the same seed and ratios, pinned by the
tests), while its alpha side is built from the closed forms of alpha_n and
shares no code path with the catalog sum.  The pair, form, scale and
constant come from ``catalog.pipeline``, which reads them off the row the
double sum itself is summed from.

``verify_all`` plans its run: the theorem table and the corollary-term
table name every (series id, horizon) its reports read, so each catalog
series is summed once, at the highest of its horizons, before the first
report, and every report reads a truncation of that one sum.  The double
sums of one family share their columns (``catalog.eval_plan``).  Each field's
ideal counts are made and cross-checked once too, and each theorem's ideal
leg reads its residue class from them.  The alpha sides are cheap and each
report builds its own, as a lone ``verify_theorem`` does.
"""

from __future__ import annotations

import time
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from .bailey import alpha_sum, bailey_step, pair_catalog
from .catalog import eval_named, eval_plan, pipeline
from .errors import InvariantViolation, UnknownId, check_order
from .hecke import eval_blocks, hecke_catalog
from .ideals import IdealQuery, class_series, ideal_counts, ideal_series
from .series import LaurentSeries, first_mismatch

__all__ = [
    "TheoremSpec",
    "theorem_table",
    "VerificationReport",
    "verify_theorem",
    "verify_corollary",
    "verify_sigma",
    "verify_all",
    "check_support_residue",
    "lacunarity_report",
]


HALF = Fraction(1, 2)


@dataclass(frozen=True)
class TheoremSpec:
    """One dilation/ideal correspondence: series_id(q) -> q^shift * f(q^dilate)
    supported on norm values ``residue`` mod ``modulus`` of the field with
    squarefree part ``field_d``."""

    index: int
    series_id: str
    dilate: int
    shift: int
    field_d: int
    residue: int
    modulus: int
    restriction: str  # "all" | "neg"
    weight: Fraction


_THEOREMS: tuple[TheoremSpec, ...] = (
    TheoremSpec(1, "L1", 32, -17, 2, 15, 32, "all", HALF),
    TheoremSpec(2, "L2", 32, 7, 2, 7, 32, "all", HALF),
    TheoremSpec(3, "L3", 32, -33, 2, 31, 32, "all", HALF),
    TheoremSpec(4, "L4", 32, -9, 2, 23, 32, "all", HALF),
    TheoremSpec(5, "L5", 2, -2, 3, 0, 2, "neg", Fraction(2)),
    TheoremSpec(6, "L6", 2, -1, 3, 1, 2, "neg", Fraction(2)),
    TheoremSpec(7, "L7", 6, 1, 3, 1, 6, "all", Fraction(1)),
    TheoremSpec(8, "L8", 6, -2, 3, 4, 6, "all", Fraction(1)),
    TheoremSpec(9, "L9", 16, -9, 6, 7, 16, "all", Fraction(1)),
    TheoremSpec(10, "L10", 16, -17, 6, 15, 16, "all", Fraction(1)),
    TheoremSpec(11, "L11", 48, 5, 6, 5, 48, "all", HALF),
    TheoremSpec(12, "L12", 48, -19, 6, 29, 48, "all", HALF),
)

def theorem_table() -> tuple[TheoremSpec, ...]:
    return _THEOREMS


def _theorem(index: int) -> TheoremSpec:
    if not 1 <= index <= len(_THEOREMS):
        raise UnknownId(f"theorem index must be 1..{len(_THEOREMS)}, got {index}")
    return _THEOREMS[index - 1]


def _mm_payload(mm):
    if mm is None:
        return None
    e, lhs, rhs = mm
    return {"exp": e, "lhs": str(lhs), "rhs": str(rhs)}


@dataclass
class LegReport:
    name: str
    mismatch: tuple | None

    @property
    def ok(self) -> bool:
        return self.mismatch is None

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.ok else "fail",
            "first_mismatch": _mm_payload(self.mismatch),
        }


@dataclass
class VerificationReport:
    report_id: str
    order: int
    legs: list[LegReport]
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return all(leg.ok for leg in self.legs)

    @property
    def first_mismatch(self) -> tuple | None:
        for leg in self.legs:
            if leg.mismatch is not None:
                return leg.mismatch
        return None

    def to_payload(self) -> dict:
        return {
            "id": self.report_id,
            "order": self.order,
            "status": "pass" if self.ok else "fail",
            "first_mismatch": _mm_payload(self.first_mismatch),
            "legs": [leg.to_payload() for leg in self.legs],
            "elapsed_ms": self.elapsed_ms,
        }


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def base_order_for(spec: TheoremSpec | _Term, order: int) -> int:
    """Smallest base horizon whose dilation covers exponents through order.

    ``spec`` is anything with ``dilate`` and ``shift``: a theorem entry or a
    corollary term."""
    return max(0, _ceil_div(order - spec.shift, spec.dilate))


@dataclass(frozen=True)
class _Term:
    """``coeff * q**shift * f(q**dilate)`` for the catalog series ``series_id``."""

    series_id: str
    dilate: int = 1
    shift: int = 0
    coeff: int = 1


@dataclass(frozen=True)
class _Corollary:
    """A dissection identity: the left terms sum to the right terms.
    ``alternate`` substitutes q -> -q in the left-hand side."""

    lhs: tuple[_Term, ...]
    rhs: tuple[_Term, ...]
    alternate: bool = False


_COROLLARIES: dict[int, _Corollary] = {
    1: _Corollary(
        (_Term("Z2"),),
        (_Term("L1", 4, -2), _Term("L2", 4, 1), _Term("L3", 4, -4), _Term("L4", 4, -1)),
    ),
    2: _Corollary((_Term("Z3", coeff=2),), (_Term("L5", 2, -2, -1), _Term("L6", 2, -1))),
    3: _Corollary((_Term("Z4"),), (_Term("L7", 2, 0), _Term("L8", 2, -1)), alternate=True),
    4: _Corollary((_Term("Z5", 2, 0, -2),), (_Term("L6"),)),
}

_SIGMA = _Term("SIGMA")


def _planned_horizons(order: int) -> dict[str, int]:
    """Highest base horizon at which verify_all's reports read each series."""
    terms = [_SIGMA, *_THEOREMS]
    for cor in _COROLLARIES.values():
        terms.extend(cor.lhs + cor.rhs)
    plan: dict[str, int] = {}
    for term in terms:
        h = base_order_for(term, order)
        plan[term.series_id] = max(plan.get(term.series_id, h), h)
    return plan


# The plan of the verify_all call in progress, if any: series id -> one sum
# at its planned horizon, and field D -> its cross-checked ideal counts.
# verify_all sets it and resets it on return, so nothing outlives its call; a
# context variable rather than a parameter keeps the report functions' signatures.
_SOURCE: ContextVar[tuple[dict[str, LaurentSeries], dict[int, tuple]] | None] = ContextVar("qrds_verify_plan", default=None)


def _series(series_id: str, horizon: int) -> LaurentSeries:
    """The catalog series through q**horizon: a truncation of the running
    verify_all's sum, or summed directly when no plan is running.  Asking
    beyond the plan is an internal fault, not a reason to re-sum."""
    plan = _SOURCE.get()
    if plan is None:
        return eval_named(series_id, horizon)
    f = plan[0].get(series_id)
    planned = None if f is None else f.order
    if planned is None or horizon > planned:
        raise InvariantViolation(f"{series_id} requested through order {horizon}, planned through {planned}")
    return f.truncate(horizon)


def _ideals(spec: TheoremSpec, order: int) -> LaurentSeries:
    """The theorem's weighted ideal series through q**order: its residue
    class read from the running verify_all's counts of its field, which
    verify_all made through this order, or counted when no plan is running."""
    query = IdealQuery(spec.field_d, spec.residue, spec.modulus, spec.restriction)
    plan = _SOURCE.get()
    if plan is None:
        return ideal_series(query, order, weight=spec.weight)
    return class_series(query, plan[1][spec.field_d], order, spec.weight)


def verify_theorem(index: int, order: int = 400) -> VerificationReport:
    """Check one dilation/ideal entry at the given horizon, all legs exact."""
    check_order(order)
    spec = _theorem(index)
    t0 = time.perf_counter()
    base_order = base_order_for(spec, order)
    series = _series(spec.series_id, base_order)

    dilated = series.dilate_shift(spec.dilate, spec.shift)
    legs = [LegReport("ideal", first_mismatch(dilated, _ideals(spec, order), through=order))]

    theta = eval_blocks(hecke_catalog(spec.series_id), base_order)
    legs.append(LegReport("theta", first_mismatch(series, theta, through=base_order)))

    pair_label, form_id, scale, const = pipeline(spec.series_id)
    piped = alpha_sum(bailey_step(pair_catalog(pair_label)), form_id, base_order, scale)
    if const:
        piped = piped + LaurentSeries.monomial(const, 0)
    legs.append(LegReport("pipeline", first_mismatch(piped, series, through=base_order)))

    elapsed = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(f"theorem-{index:02d}", order, legs, elapsed)


def _term_sum(terms: tuple[_Term, ...], order: int) -> LaurentSeries:
    """Sum of the dilated, shifted, scaled terms, exact through q**order."""
    total = None
    for term in terms:
        base = _series(term.series_id, base_order_for(term, order))
        out = base.dilate_shift(term.dilate, term.shift)
        if term.coeff != 1:
            out = out.scale(term.coeff)
        total = out if total is None else total + out
    return total


def verify_corollary(index: int, order: int = 400) -> VerificationReport:
    """Check one of the four dissection identities between the single-sum
    series Z2..Z5 and the double sums."""
    check_order(order)
    t0 = time.perf_counter()
    cor = _COROLLARIES.get(index)
    if cor is None:
        raise UnknownId(f"corollary index must be 1..{len(_COROLLARIES)}, got {index}")
    lhs = _term_sum(cor.lhs, order)
    if cor.alternate:
        lhs = lhs.alternate()
    rhs = _term_sum(cor.rhs, order)
    legs = [LegReport("identity", first_mismatch(lhs, rhs, through=order))]
    elapsed = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(f"corollary-{index}", order, legs, elapsed)


def verify_sigma(order: int = 400) -> VerificationReport:
    """Check the weighted-count single sum against its indefinite theta form."""
    check_order(order)
    t0 = time.perf_counter()
    series = _term_sum((_SIGMA,), order)
    theta = eval_blocks(hecke_catalog("SIGMA"), order)
    legs = [LegReport("theta", first_mismatch(series, theta, through=order))]
    elapsed = int((time.perf_counter() - t0) * 1000)
    return VerificationReport("sigma", order, legs, elapsed)


def verify_all(order: int = 400) -> list[VerificationReport]:
    """Every check at one horizon, reports sorted by id.

    Each catalog series is summed once, at the highest horizon any report
    reads it, and each field's ideal counts are made and cross-checked once,
    through ``order``, before the first report runs; every report reads a
    truncation or a residue class of them.  The double sums of one family
    share their columns.  Each theorem's pipeline leg builds its own alpha
    side, as a lone ``verify_theorem`` does.  A report's ``elapsed_ms``
    covers its own legs, alpha side included, and none of the shared sums
    or counts.  Both are dropped when the call returns.
    """
    check_order(order)
    counts = {d: ideal_counts(d, order) for d in sorted({spec.field_d for spec in _THEOREMS})}
    token = _SOURCE.set((eval_plan(_planned_horizons(order)), counts))
    try:
        reports = [verify_corollary(j, order) for j in _COROLLARIES]
        reports.append(verify_sigma(order))
        reports.extend(verify_theorem(i, order) for i in range(1, 13))
    finally:
        _SOURCE.reset(token)
    return sorted(reports, key=lambda r: r.report_id)


def check_support_residue(index: int, order: int = 400) -> bool:
    """Every exponent of the dilated series lies in the residue class the
    ideal leg restricts to.

    Exponent e dilates to t*e + s, which lies in the class for every e exactly
    when ``modulus`` divides ``dilate`` and ``shift - residue``.  So the
    theorem's row decides it at every order, whatever the series'
    coefficients are, and no series is summed; ``order`` is only checked."""
    check_order(order)
    spec = _theorem(index)
    return spec.dilate % spec.modulus == 0 and (spec.shift - spec.residue) % spec.modulus == 0


def lacunarity_report(series_id: str, order: int) -> dict:
    """Dyadic nonzero-density profile of a named series; descriptive only."""
    f = eval_named(series_id, order)

    def window(lo: int, hi: int) -> list:  # the coefficients of q^lo .. q^hi
        return f.coeffs[max(0, lo - f.offset):max(0, hi + 1 - f.offset)]

    windows = []
    lo = 1
    while lo <= order:
        hi = min(2 * lo - 1, order)
        coeffs = window(lo, hi)
        nonzero = len(coeffs) - coeffs.count(0)
        windows.append({
            "lo": lo,
            "hi": hi,
            "size": hi - lo + 1,
            "nonzero": nonzero,
            "density": round(nonzero / (hi - lo + 1), 6),
        })
        lo *= 2
    values = Counter(map(str, filter(None, window(0, order))))
    return {
        "id": series_id,
        "order": order,
        "windows": windows,
        "values": dict(sorted(values.items(), key=lambda kv: (len(kv[0]), kv[0]))),
    }
