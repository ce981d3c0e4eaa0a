"""End-to-end identity verification.

Each of the twelve theorem entries ties one double sum to three other
descriptions of the same coefficients:

* ``ideal``     — after the substitution q -> q^t shifted by s, the series
                  matches a weighted ideal-count generating function of a
                  real quadratic field, restricted to one residue class
                  (building it cross-checks the field's two ideal counts,
                  and a disagreement raises ``InvariantViolation``);
* ``theta``     — the series equals its indefinite theta-function form;
* ``pipeline``  — the series equals the alpha side of its Bailey pair's
                  limit transform after the iteration step, plus a
                  constant: the closed forms of alpha_n, summed through a
                  proven last index (``bailey.alpha_side``).

``verify_theorem`` runs all three legs and reports the first mismatching
coefficient of any leg, exactly — there are no tolerances anywhere.

The pipeline leg checks Bailey's lemma, the step of the proof that the
catalog sum does not already make: the transform's beta side is the
catalog's double sum itself (the same seed and ratios, pinned by the
tests), while its alpha side is built from the closed forms of alpha_n and
shares no code path with the catalog sum.  The pair, form and constant
come from ``catalog.pipeline``, which reads them off the row the double
sum itself is summed from.

Every report reads one explicit plan, made before its first leg: each
catalog series it reads, summed once at the highest horizon it is read at,
and each field's cross-checked ideal counts, from which each theorem's
ideal leg reads its residue class.  A read beyond the plan raises
``InvariantViolation``.  ``verify_all`` makes one plan for all 17 reports,
summing the double sums of one family together so that they share their
columns (``catalog.eval_plan``); a lone report makes its own, summing each
series through ``eval_named``.  The alpha sides are cheap and each report
builds its own.  Nothing is kept between calls.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .bailey import alpha_side, bailey_step, pair_catalog
from .catalog import eval_named, eval_plan, normalize_id, pipeline
from .errors import InvariantViolation, UnknownId, check_int, check_order
from .hecke import eval_blocks, hecke_catalog
from .ideals import IdealQuery, class_series, ideal_counts
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


def _entry(table: tuple, index: int, what: str):
    """Entry ``index``, counted from 1, of the theorem or corollary table: the
    index must be an int (``TypeError``, a bool included) in range
    (``UnknownId``)."""
    check_int(index, f"{what} index")
    if not 1 <= index <= len(table):
        raise UnknownId(f"{what} index must be 1..{len(table)}, got {index}")
    return table[index - 1]


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


def base_order_for(spec: TheoremSpec | _Term, order: int) -> int:
    """Smallest base horizon whose dilation covers exponents through order:
    ceil((order - shift) / dilate), and at least 0.

    ``spec`` is anything with ``dilate`` and ``shift``: a theorem entry or a
    corollary term."""
    return max(0, -((spec.shift - order) // spec.dilate))


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


# corollaries 1 to 4, in order
_COROLLARIES: tuple[_Corollary, ...] = (
    _Corollary(
        (_Term("Z2"),),
        (_Term("L1", 4, -2), _Term("L2", 4, 1), _Term("L3", 4, -4), _Term("L4", 4, -1)),
    ),
    _Corollary((_Term("Z3", coeff=2),), (_Term("L5", 2, -2, -1), _Term("L6", 2, -1))),
    _Corollary((_Term("Z4"),), (_Term("L7", 2, 0), _Term("L8", 2, -1)), alternate=True),
    _Corollary((_Term("Z5", 2, 0, -2),), (_Term("L6"),)),
)

_SIGMA = _Term("SIGMA")


@dataclass(frozen=True)
class _Plan:
    """What a run of reports reads, made before its first report: each
    catalog series once, keyed by id, and each field's cross-checked ideal
    counts, keyed by D.  Reading beyond the plan is an internal fault, not a
    reason to sum or count again."""

    order: int
    sums: dict[str, LaurentSeries]
    counts: dict[int, tuple]

    def series(self, series_id: str, horizon: int) -> LaurentSeries:
        """The catalog series through q**horizon, a truncation of its sum."""
        f = self.sums.get(series_id)
        _check_planned(series_id, horizon, None if f is None else f.order)
        return f.truncate(horizon)

    def ideals(self, spec: TheoremSpec) -> LaurentSeries:
        """The theorem's weighted ideal series through q**order, a residue
        class of its field's counts."""
        counts = self.counts.get(spec.field_d)
        planned = None if counts is None else len(counts[0]) - 1
        _check_planned(f"ideal counts of D={spec.field_d}", self.order, planned)
        query = IdealQuery(spec.field_d, spec.residue, spec.modulus, spec.restriction)
        return class_series(query, counts, self.order, spec.weight)


def _check_planned(what: str, horizon: int, planned: int | None) -> None:
    if planned is None or horizon > planned:
        raise InvariantViolation(f"{what} requested through order {horizon}, planned through {planned}")


def _plan(order: int, terms, sum_all) -> _Plan:
    """The plan of the reports that read ``terms`` at ``order``: each series
    summed once by ``sum_all``, at the highest base horizon any term reads
    it, and the ideal counts of each theorem's field through ``order``."""
    horizons: dict[str, int] = {}
    for term in terms:
        h = base_order_for(term, order)
        horizons[term.series_id] = max(horizons.get(term.series_id, h), h)
    fields = sorted({term.field_d for term in terms if isinstance(term, TheoremSpec)})
    counts = {d: ideal_counts(d, order) for d in fields}
    return _Plan(order, sum_all(horizons), counts)


def _sum_each(horizons: dict[str, int]) -> dict[str, LaurentSeries]:
    """Each series on its own, through ``eval_named``: a lone report's sums."""
    return {sid: eval_named(sid, h) for sid, h in horizons.items()}


def _timed(report_id: str, plan: _Plan, legs: list[LegReport], t0: float) -> VerificationReport:
    return VerificationReport(report_id, plan.order, legs, int((time.perf_counter() - t0) * 1000))


def _theorem_report(spec: TheoremSpec, plan: _Plan, t0: float) -> VerificationReport:
    base_order = base_order_for(spec, plan.order)
    series = plan.series(spec.series_id, base_order)

    dilated = series.dilate_shift(spec.dilate, spec.shift)
    legs = [LegReport("ideal", first_mismatch(dilated, plan.ideals(spec), through=plan.order))]

    theta = eval_blocks(hecke_catalog(spec.series_id), base_order)
    legs.append(LegReport("theta", first_mismatch(series, theta, through=base_order)))

    pair_label, form_id, const = pipeline(spec.series_id)
    piped = alpha_side(bailey_step(pair_catalog(pair_label)), form_id, base_order)
    if const:
        piped = piped + LaurentSeries.monomial(const, 0)
    legs.append(LegReport("pipeline", first_mismatch(piped, series, through=base_order)))
    return _timed(f"theorem-{spec.index:02d}", plan, legs, t0)


def verify_theorem(index: int, order: int = 400) -> VerificationReport:
    """Check one dilation/ideal entry at the given horizon, all legs exact."""
    check_order(order)
    spec = _entry(_THEOREMS, index, "theorem")
    t0 = time.perf_counter()
    return _theorem_report(spec, _plan(order, [spec], _sum_each), t0)


def _term_sum(terms: tuple[_Term, ...], plan: _Plan) -> LaurentSeries:
    """Sum of the dilated, shifted, scaled terms, exact through q**plan.order."""
    total = None
    for term in terms:
        base = plan.series(term.series_id, base_order_for(term, plan.order))
        out = base.dilate_shift(term.dilate, term.shift)
        if term.coeff != 1:
            out = out.scale(term.coeff)
        total = out if total is None else total + out
    return total


def _corollary_report(index: int, cor: _Corollary, plan: _Plan, t0: float) -> VerificationReport:
    lhs = _term_sum(cor.lhs, plan)
    if cor.alternate:
        lhs = lhs.alternate()
    rhs = _term_sum(cor.rhs, plan)
    return _timed(f"corollary-{index}", plan, [LegReport("identity", first_mismatch(lhs, rhs, through=plan.order))], t0)


def verify_corollary(index: int, order: int = 400) -> VerificationReport:
    """Check one of the four dissection identities between the single-sum
    series Z2..Z5 and the double sums."""
    check_order(order)
    t0 = time.perf_counter()
    cor = _entry(_COROLLARIES, index, "corollary")
    return _corollary_report(index, cor, _plan(order, cor.lhs + cor.rhs, _sum_each), t0)


def _sigma_report(plan: _Plan, t0: float) -> VerificationReport:
    series = plan.series("SIGMA", plan.order)
    theta = eval_blocks(hecke_catalog("SIGMA"), plan.order)
    return _timed("sigma", plan, [LegReport("theta", first_mismatch(series, theta, through=plan.order))], t0)


def verify_sigma(order: int = 400) -> VerificationReport:
    """Check the weighted-count single sum against its indefinite theta form."""
    check_order(order)
    t0 = time.perf_counter()
    return _sigma_report(_plan(order, [_SIGMA], _sum_each), t0)


def verify_all(order: int = 400) -> list[VerificationReport]:
    """Every check at one horizon, reports sorted by id.

    One plan serves all 17 reports: before the first report runs, each
    catalog series is summed once, at the highest horizon any report reads
    it, and each field's ideal counts are made and cross-checked once,
    through ``order``; every report reads a truncation or a residue class of
    them.  The double sums of one family share their columns
    (``catalog.eval_plan``).  Each theorem's pipeline leg builds its own
    alpha side, as a lone ``verify_theorem`` does.  A report's
    ``elapsed_ms`` covers its own legs, alpha side included, and none of
    the plan.
    """
    check_order(order)
    terms = [_SIGMA, *_THEOREMS, *(term for cor in _COROLLARIES for term in cor.lhs + cor.rhs)]
    plan = _plan(order, terms, eval_plan)
    reports = [_corollary_report(j, cor, plan, time.perf_counter()) for j, cor in enumerate(_COROLLARIES, 1)]
    reports.append(_sigma_report(plan, time.perf_counter()))
    reports.extend(_theorem_report(spec, plan, time.perf_counter()) for spec in _THEOREMS)
    return sorted(reports, key=lambda r: r.report_id)


def check_support_residue(index: int, order: int = 400) -> bool:
    """Every exponent of the dilated series lies in the residue class the
    ideal leg restricts to.

    Exponent e dilates to t*e + s, which lies in the class for every e exactly
    when ``modulus`` divides ``dilate`` and ``shift - residue``.  So the
    theorem's row decides it at every order, whatever the series'
    coefficients are, and no series is summed; ``order`` is only checked."""
    check_order(order)
    spec = _entry(_THEOREMS, index, "theorem")
    return spec.dilate % spec.modulus == 0 and (spec.shift - spec.residue) % spec.modulus == 0


def lacunarity_report(series_id: str, order: int) -> dict:
    """Dyadic nonzero-density profile of a named series; descriptive only.
    The id is read as ``normalize_id`` reads it and reported as its key."""
    check_order(order)
    key = normalize_id(series_id)
    f = eval_named(key, order)

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
        "id": key,
        "order": order,
        "windows": windows,
        "values": dict(sorted(values.items(), key=lambda kv: (len(kv[0]), kv[0]))),
    }
