"""End-to-end verification reports: legs, payloads, fault detection."""

import re
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import qrds.bailey as bailey
import qrds.catalog as catalog
import qrds.chain as chain
import qrds.ideals as ideals
import qrds.verify as verify_mod
from qrds.bailey import bailey_step, limit_form, pair_catalog, verify_pair_relation
from qrds.catalog import eval_named, eval_plan
from qrds.errors import InvariantViolation, UnknownId
from qrds.hecke import eval_blocks, hecke_catalog
from qrds.ideals import IdealQuery, ideal_series
from qrds.series import LaurentSeries
from qrds.verify import (
    base_order_for,
    check_support_residue,
    lacunarity_report,
    theorem_table,
    verify_all,
    verify_corollary,
    verify_sigma,
    verify_theorem,
)


def test_theorem_table_shape():
    table = theorem_table()
    assert len(table) == 12
    assert [spec.series_id for spec in table] == [f"L{i}" for i in range(1, 13)]
    one = table[0]
    assert (one.dilate, one.shift) == (32, -17)
    assert (one.field_d, one.residue, one.modulus) == (2, 15, 32)
    assert one.restriction == "all"
    assert one.weight == Fraction(1, 2)
    five = table[4]
    assert (five.dilate, five.shift) == (2, -2)
    assert (five.field_d, five.restriction) == (3, "neg")
    assert five.weight == 2
    # t*e + s lies in the residue class for every e, so check_support_residue
    # holds whatever the series' coefficients are
    for spec in table:
        assert spec.dilate == spec.modulus
        assert (spec.shift - spec.residue) % spec.modulus == 0


def test_base_order_math():
    spec = theorem_table()[0]  # dilate 32, shift -17
    assert base_order_for(spec, 0) == 1  # covers q^(32-17) = q^15 >= q^0
    assert base_order_for(spec, 15) == 1
    assert base_order_for(spec, 16) == 2
    assert base_order_for(spec, 400) == 14
    # dilation of the base must reach the requested horizon
    for s in theorem_table():
        for order in (0, 1, 37, 100):
            b = base_order_for(s, order)
            assert s.dilate * b + s.shift >= order
            assert b == 0 or s.dilate * (b - 1) + s.shift < order


@pytest.mark.parametrize("index", range(1, 13))
def test_theorem_passes(index):
    report = verify_theorem(index, order=120)
    assert report.ok, report.to_payload()
    assert [leg.name for leg in report.legs] == ["ideal", "theta", "pipeline"]
    assert report.report_id == f"theorem-{index:02d}"


@pytest.mark.parametrize("index", range(1, 5))
def test_corollary_passes(index):
    report = verify_corollary(index, order=150)
    assert report.ok, report.to_payload()
    assert [leg.name for leg in report.legs] == ["identity"]


def test_sigma_passes():
    report = verify_sigma(order=200)
    assert report.ok
    assert [leg.name for leg in report.legs] == ["theta"]


def test_verify_all_ordering():
    reports = verify_all(order=60)
    ids = [r.report_id for r in reports]
    assert ids == (
        [f"corollary-{j}" for j in range(1, 5)]
        + ["sigma"]
        + [f"theorem-{i:02d}" for i in range(1, 13)]
    )
    assert all(r.ok for r in reports)


def test_payload_schema():
    payload = verify_theorem(3, order=64).to_payload()
    assert set(payload) == {"id", "order", "status", "first_mismatch", "legs", "elapsed_ms"}
    assert payload["status"] == "pass"
    assert payload["first_mismatch"] is None
    assert payload["order"] == 64
    for leg in payload["legs"]:
        assert set(leg) == {"name", "status", "first_mismatch"}
        assert leg["status"] == "pass"
    assert isinstance(payload["elapsed_ms"], int)


def test_unknown_indices():
    for bad in (0, 13, -1):
        with pytest.raises(UnknownId, match=f"^'theorem index must be 1..12, got {bad}'$"):
            verify_theorem(bad)
        with pytest.raises(UnknownId, match=f"^'theorem index must be 1..12, got {bad}'$"):
            check_support_residue(bad)
    for bad in (0, 5):
        with pytest.raises(UnknownId, match=f"^'corollary index must be 1..4, got {bad}'$"):
            verify_corollary(bad)


@pytest.mark.parametrize("index", [True, False, 1.0, 2.0, Fraction(1), "1", None], ids=repr)
def test_an_index_that_is_not_an_int_raises_before_any_sum(monkeypatch, index):
    # verify_theorem(True, 20) once reported "theorem-01", verify_corollary
    # (2.0, 20) "corollary-2.0", and verify_theorem(1.0, 20) failed with an
    # unrelated error; the theorem and corollary tables share one lookup
    _no_sums(monkeypatch)
    for what, entry in (("theorem", verify_theorem), ("corollary", verify_corollary),
                        ("theorem", check_support_residue)):
        with pytest.raises(TypeError, match=f"^{what} index must be an int, got {re.escape(repr(index))}$"):
            entry(index, 20)


def _no_sums(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a catalog series was summed")

    monkeypatch.setattr(verify_mod, "eval_named", refuse)
    monkeypatch.setattr(verify_mod, "eval_plan", refuse)


@pytest.mark.parametrize("index", range(1, 13))
def test_support_residue(monkeypatch, index):
    _no_sums(monkeypatch)  # the theorem's row decides it
    for order in (0, 200, 400, 10**6):
        assert check_support_residue(index, order)


@pytest.mark.parametrize("index", range(1, 13))
def test_support_residue_rejects_a_wrong_row(monkeypatch, index):
    # at order 0 no dilated exponent is visible yet, and the row still fails
    _no_sums(monkeypatch)
    spec = theorem_table()[index - 1]
    for wrong in (dict(shift=spec.shift + 1), dict(shift=spec.shift - 1),
                  dict(modulus=spec.dilate + 1), dict(modulus=2 * spec.dilate)):
        rows = list(theorem_table())
        rows[index - 1] = replace(spec, **wrong)
        monkeypatch.setattr(verify_mod, "_THEOREMS", tuple(rows))
        for order in (0, 400):
            assert not check_support_residue(index, order), wrong


def test_negative_order_raises_before_any_sum(monkeypatch):
    _no_sums(monkeypatch)
    checks = [lambda: verify_all(-1), lambda: verify_sigma(-1)]
    checks += [lambda j=j: verify_corollary(j, -1) for j in range(1, 5)]
    checks += [lambda i=i: verify_theorem(i, -1) for i in range(1, 13)]
    checks += [lambda i=i: check_support_residue(i, -1) for i in range(1, 13)]
    for check in checks:
        with pytest.raises(ValueError, match="order must be >= 0"):
            check()


def _order_entries():
    """(name, entry as a function of one horizon) for every public entry
    point that takes one; ``verify_pair_relation`` once per horizon argument."""
    stepped = bailey_step(pair_catalog("BK1"))
    entries = [
        ("verify_all", verify_all),
        ("verify_sigma", verify_sigma),
        ("lacunarity_report", lambda n: lacunarity_report("SIGMA", n)),
        ("eval_named", lambda n: eval_named("SIGMA", n)),
        ("eval_blocks", lambda n: eval_blocks(hecke_catalog("SIGMA"), n)),
        ("ideal_series", lambda n: ideal_series(IdealQuery(2, 7, 32), n)),
        ("limit_form", lambda n: limit_form(stepped, "A1", n)),
        ("verify_pair_relation order", lambda n: verify_pair_relation(stepped, 5, n)),
        ("verify_pair_relation n_max", lambda n: verify_pair_relation(stepped, n, 5)),
    ]
    entries += [(f"verify_corollary {j}", lambda n, j=j: verify_corollary(j, n)) for j in range(1, 5)]
    entries += [(f"verify_theorem {i}", lambda n, i=i: verify_theorem(i, n)) for i in range(1, 13)]
    entries += [(f"check_support_residue {i}", lambda n, i=i: check_support_residue(i, n)) for i in range(1, 13)]
    return entries


@pytest.mark.parametrize("order", [True, False, 10.0, 5.5, Fraction(10), "10", None], ids=repr)
def test_a_horizon_that_is_not_an_int_raises_before_any_sum(monkeypatch, order):
    # a bool is an int to isinstance, and verify_theorem(1, True) once
    # reported the order true; a float failed deep inside with an unrelated error
    _no_sums(monkeypatch)
    for name, entry in _order_entries():
        with pytest.raises(TypeError, match=f"^(order|n_max) must be an int, got {re.escape(repr(order))}$"):
            entry(order)


def test_lacunarity_report_reads_its_id_as_every_entry_point_does():
    assert lacunarity_report(" z5 ", 16) == lacunarity_report("Z5", 16)
    assert lacunarity_report("sigma", 16)["id"] == "SIGMA"
    with pytest.raises(UnknownId, match="^\"unknown series id 'L13'\"$"):
        lacunarity_report("L13", 16)


def test_fault_injection(monkeypatch):
    """A single corrupted coefficient must be caught and located."""
    real = eval_named

    def corrupted(series_id, order, star_budget=None):
        f = real(series_id, order, star_budget=star_budget)
        if series_id == "L1" and order >= 5:
            f = f + LaurentSeries.monomial(1, 5, f.order)
        return f

    monkeypatch.setattr(verify_mod, "eval_named", corrupted)
    report = verify_theorem(1, order=200)
    assert not report.ok
    legs = {leg.name: leg for leg in report.legs}
    # the theta leg compares in base coordinates: flagged exactly at q^5
    assert legs["theta"].mismatch is not None
    assert legs["theta"].mismatch[0] == 5
    # the ideal leg sees it through the dilation q -> q^32 shifted by -17
    assert legs["ideal"].mismatch is not None
    assert legs["ideal"].mismatch[0] == 32 * 5 - 17
    payload = report.to_payload()
    assert payload["status"] == "fail"
    assert payload["first_mismatch"]["exp"] == 32 * 5 - 17


def test_fault_injection_corollary(monkeypatch):
    real = eval_named

    def corrupted(series_id, order, star_budget=None):
        f = real(series_id, order, star_budget=star_budget)
        if series_id == "Z3":
            f = f + LaurentSeries.monomial(1, 7, f.order)
        return f

    monkeypatch.setattr(verify_mod, "eval_named", corrupted)
    report = verify_corollary(2, order=100)
    assert not report.ok
    assert report.first_mismatch[0] == 7


def _recorded_sums(monkeypatch, corrupt=None):
    """Route verify's catalog sums through a recorder of (series id, horizon):
    ``eval_named`` for a lone report's plan, and the family driver
    ``eval_plan`` for verify_all's.  ``corrupt`` maps a series id to one
    exponent whose coefficient gains 1 whenever visible."""
    calls = []

    def spoiled(series_id, f):
        e = (corrupt or {}).get(series_id)
        if e is not None and f.order >= e:
            f = f + LaurentSeries.monomial(1, e, f.order)
        return f

    def recorded(series_id, order, star_budget=None):
        calls.append((series_id, order))
        return spoiled(series_id, eval_named(series_id, order, star_budget=star_budget))

    def planned(horizons):
        calls.extend(horizons.items())
        return {sid: spoiled(sid, f) for sid, f in eval_plan(horizons).items()}

    monkeypatch.setattr(verify_mod, "eval_named", recorded)
    monkeypatch.setattr(verify_mod, "eval_plan", planned)
    return calls


def _standalone_reports(order):
    reports = [verify_corollary(j, order) for j in range(1, 5)]
    reports.append(verify_sigma(order))
    reports.extend(verify_theorem(i, order) for i in range(1, 13))
    return sorted(reports, key=lambda r: r.report_id)


def _timeless(report):
    payload = report.to_payload()
    del payload["elapsed_ms"]
    return payload


@pytest.mark.parametrize("order", (0, 1, 2, 3, 7, 120, 400, 401))
def test_verify_all_sums_each_series_once(monkeypatch, order):
    calls = _recorded_sums(monkeypatch)
    alone = _standalone_reports(order)
    highest = {}
    for sid, h in calls:
        highest[sid] = max(highest.get(sid, h), h)
    calls.clear()
    planned = verify_all(order)
    assert len(calls) == 17
    assert dict(calls) == highest  # one call per id, at its highest horizon
    assert [_timeless(r) for r in planned] == [_timeless(r) for r in alone]


def test_verify_all_sums_single_sums_through_catalog_eval_named(monkeypatch):
    """Inside verify_all's plan every single sum, and no double sum, goes
    through the module-global ``catalog.eval_named``, once per id at its
    planned horizon: the one place where a single sum's value can be
    replaced or corrupted from outside."""
    calls, real = [], catalog.eval_named

    def recorded(series_id, order, star_budget=None):
        calls.append((series_id, order))
        return real(series_id, order, star_budget=star_budget)

    monkeypatch.setattr(catalog, "eval_named", recorded)
    verify_all(400)
    assert sorted(calls) == [("SIGMA", 400), ("Z2", 400), ("Z3", 400), ("Z4", 400), ("Z5", 200)]


def test_verify_all_sums_every_series_before_the_first_leg(monkeypatch):
    calls = _recorded_sums(monkeypatch)
    events = []

    def leg(namespace, name):
        fn = getattr(namespace, name)

        def wrapped(*args, **kwargs):
            events.append((name, len(calls)))
            return fn(*args, **kwargs)
        monkeypatch.setattr(namespace, name, wrapped)

    for name in ("eval_blocks", "class_series", "alpha_side"):
        leg(verify_mod, name)
    for name, module in list(sys.modules.items()):  # every binding of limit_form
        if (name == "qrds" or name.startswith("qrds.")) and getattr(module, "limit_form", None) is bailey.limit_form:
            leg(module, "limit_form")
    verify_all(120)
    assert len(calls) == 17
    assert events and all(n_sums == 17 for _, n_sums in events)
    assert Counter(name for name, _ in events)["alpha_side"] == 12  # one pipeline alpha side per theorem
    assert "limit_form" not in {name for name, _ in events}


def test_plan_guard_raises_beyond_planned_horizon(monkeypatch):
    real = verify_mod.eval_plan

    def under_planned(horizons):
        return real({**horizons, "L6": horizons["L6"] - 1})

    monkeypatch.setattr(verify_mod, "eval_plan", under_planned)
    with pytest.raises(InvariantViolation, match=r"L6 requested through order 400, planned through 399"):
        verify_all(400)
    # the failed run's sums are gone: the plan is a local of its call
    assert not [v for v in vars(verify_mod).values() if isinstance(v, verify_mod._Plan)]
    with pytest.raises(InvariantViolation, match="L1"):
        verify_mod._Plan(3, {}, {}).series("L1", 3)


def test_plan_guard_raises_beyond_planned_counts(monkeypatch):
    """Ideal counts made through less than the plan's order, or a field the
    plan lacks, raise naming D and both orders, as a sum read beyond the
    plan does, planned and alone alike."""
    real = verify_mod.ideal_counts
    monkeypatch.setattr(verify_mod, "ideal_counts", lambda D, limit: real(D, limit - (D == 3)))
    short = r"^ideal counts of D=3 requested through order 400, planned through 399$"
    with pytest.raises(InvariantViolation, match=short):
        verify_all(400)
    with pytest.raises(InvariantViolation, match=short):
        verify_theorem(6, 400)
    monkeypatch.undo()
    missing = r"^ideal counts of D=2 requested through order 3, planned through None$"
    with pytest.raises(InvariantViolation, match=missing):
        verify_mod._Plan(3, {}, {}).ideals(theorem_table()[0])


def test_lone_report_is_independent_of_a_running_plan(monkeypatch):
    """A lone verify_theorem(1, 1500), run from a leg of verify_all(400),
    reads its own plan and not the running one, which was counted through
    400 only: it reports as it does alone."""
    alone = _timeless(verify_theorem(1, 1500))
    nested, real = [], verify_mod.eval_blocks

    def wrapped(*args):
        if not nested:
            nested.append(None)  # the nested report's own theta leg runs unwrapped
            nested[0] = _timeless(verify_theorem(1, 1500))
        return real(*args)

    monkeypatch.setattr(verify_mod, "eval_blocks", wrapped)
    assert all(report.ok for report in verify_all(400))
    assert nested == [alone]


def test_verify_all_counts_each_field_once(monkeypatch):
    """verify_all(400) builds each field's cross-checked ideal counts once,
    for D = 2, 3 and 6, through its order and before the first leg; a lone
    verify_theorem builds its own field's."""
    events = []
    real_counts, real_leg = ideals.ideal_counts, verify_mod.LegReport

    def counts(D, limit):
        events.append(("counts", D, limit))
        return real_counts(D, limit)

    def leg(name, mismatch):
        events.append(("leg", name))
        return real_leg(name, mismatch)

    monkeypatch.setattr(ideals, "ideal_counts", counts)
    monkeypatch.setattr(verify_mod, "ideal_counts", counts)
    monkeypatch.setattr(verify_mod, "LegReport", leg)
    assert all(report.ok for report in verify_all(400))
    assert sorted(events[:3]) == [("counts", 2, 400), ("counts", 3, 400), ("counts", 6, 400)]
    assert [e for e in events[3:] if e[0] == "counts"] == []
    assert ("leg", "ideal") in events
    for index, D in ((1, 2), (6, 3), (9, 6)):
        events.clear()
        assert verify_theorem(index, 400).ok
        assert [e for e in events if e[0] == "counts"] == [("counts", D, 400)]


def test_fault_injection_through_verify_all(monkeypatch):
    """A corrupted L1 or L6 coefficient fails every report that reads the
    series, at the exponent the standalone report gives, and no other."""
    corrupt = {"L1": 5, "L6": 3}
    _recorded_sums(monkeypatch, corrupt)
    order = 200
    alone = {r.report_id: r for r in _standalone_reports(order)}
    planned = verify_all(order)
    failing = {r.report_id for r in planned if not r.ok}
    assert failing == {"theorem-01", "corollary-1", "theorem-06", "corollary-2", "corollary-4"}
    for report in planned:  # same legs, same first mismatch as standalone
        assert _timeless(report) == _timeless(alone[report.report_id])


def _column_store(column):
    """(store, family) of a column's ratio, a catalog family's."""
    for form, fam in catalog._FAMILIES.items():
        if column is fam.column:
            return "catalog", form
    raise AssertionError(f"column of an unknown ratio {column!r}")


def _recorded_columns(monkeypatch, corrupt=None):
    """Route every column the ratio-chain sum computes, summed by its chain
    (``chain.column``) or derived from the two before it (``chain.derived``), through
    a recorder of (store, family, k, "chain" or "derived"); ``corrupt`` is
    one (store, family, k) whose column gains 1 in its constant term, in the
    store, for every member it serves and every column derived from it."""
    columns = []
    real_column, real_derived = chain.column, chain.derived

    def kept(key, how, col):
        columns.append((*key, how))
        if key == corrupt:
            col[0] += 1
        return col

    def summed(column, k, *args):
        return kept((*_column_store(column), k), "chain", real_column(column, k, *args))

    def derived(fam, k, *args):
        return kept(("catalog", fam.name, k + 2), "derived", real_derived(fam, k, *args))

    monkeypatch.setattr(chain, "column", summed)
    monkeypatch.setattr(chain, "derived", derived)
    return columns


def test_verify_all_sums_each_column_once(monkeypatch):
    """Each column of each family is computed once, with no gap from k0 on:
    every family sums one column, U_k0, by its chain, and derives every
    later one."""
    columns = _recorded_columns(monkeypatch)
    verify_all(400)
    counts = Counter(key[:3] for key in columns)
    assert counts and set(counts.values()) == {1}
    assert {store for store, *_ in columns} == {"catalog"}
    for family, fam in catalog._FAMILIES.items():
        hows = sorted((k, how) for _, f, k, how in columns if f == family)
        ks = [k for k, _ in hows]
        assert len(ks) > 2 and ks == list(range(fam.k0, fam.k0 + len(ks))), family
        assert [how for _, how in hows] == ["chain"] + ["derived"] * (len(ks) - 1), family


# the first column each family derives: U_(k0+1), from the constant U_(k0-1)
# and the chained U_k0, dividing by q^b of B_(k0-1)
_FIRST_DERIVED = {
    "A1": r"^A1 column 2 from columns 0 and 1: numerator not divisible by q\^4$",
    "AQ": r"^AQ column 1 from columns -1 and 0: numerator not divisible by q\^2$",
    "A1ALSO": r"^A1ALSO column 2 from columns 0 and 1: numerator not divisible by q\^3$",
    "AQALSO": r"^AQALSO column 1 from columns -1 and 0: numerator not divisible by q\^1$",
}


@pytest.mark.parametrize("store", ["catalog"])
def test_corrupted_column_fails_only_its_store(monkeypatch, store):
    """In each family, one corrupted chained column U_k0 of the catalog
    store, the only store, stops verify_all at the first column derived from
    it, whose numerator is not divisible by q^b of B_(k0-1); the error names
    the family, the derived column and the two it reads."""
    for form, fam in catalog._FAMILIES.items():
        with monkeypatch.context() as patched:
            _recorded_columns(patched, corrupt=(store, form, fam.k0))
            with pytest.raises(InvariantViolation, match=_FIRST_DERIVED[form]):
                verify_all(400)


# a slip that the derivation cannot see is caught earlier: a column ratio of
# A1 or AQ with its exponent lowered falls below the family's bound, which
# every column walk checks first, and AQALSO's raised one meets the q^1 of
# its first derived column and fails the next, which divides by q^3
_COLUMN_SLIPS = {
    ("A1", "exponent-1"): r"^valuation 5 below its bound 6 at n=3$",
    ("AQ", "exponent-1"): r"^valuation 0 below its bound 1 at n=1$",
    ("AQALSO", "exponent+1"): r"^AQALSO column 2 from columns 0 and 1: numerator not divisible by q\^3$",
}


@pytest.mark.parametrize("form", sorted(_FIRST_DERIVED))
@pytest.mark.parametrize("slip", ["exponent+1", "exponent-1", "no-divisor"])
def test_column_form_slip_fails_its_family(monkeypatch, form, slip):
    """A slip of +-1 in the monomial exponent of a family's column ratio
    stops verify_all at the family's first derived column, named with its
    family and the two columns it reads, or at the family's bound.  The
    column scale converts only the chained column, U_k0, by X_k0: dropping
    it stops A1ALSO (X_1 = 1 + q) the same way and changes no report of the
    other families, whose X_k0 is 1."""
    fam = catalog._FAMILIES[form]
    if slip == "no-divisor":
        broken = fam._replace(column_scale=lambda k: ())
    else:
        d = 1 if slip == "exponent+1" else -1

        def column(k, n):
            c, e, num, den = fam.column(k, n)
            return c, e + d, num, den

        broken = fam._replace(column=column)
    if slip == "no-divisor" and form != "A1ALSO":
        want = [_timeless(r) for r in verify_all(400)]
        monkeypatch.setitem(catalog._FAMILIES, form, broken)
        assert [_timeless(r) for r in verify_all(400)] == want
        return
    monkeypatch.setitem(catalog._FAMILIES, form, broken)
    with pytest.raises(InvariantViolation, match=_COLUMN_SLIPS.get((form, slip), _FIRST_DERIVED[form])):
        verify_all(400)


def _relation_slips():
    """(family, index into A_k's exponents, then B_k's monomial and binomial
    exponents, slip), each exponent slipped both ways.  A slip that takes an
    exponent below 0, or B_k's binomial exponent below 1, at k0 - 1, the
    first k the relation is read at, is refused by the derivation's own
    check of the relation."""
    for form, fam in sorted(catalog._FAMILIES.items()):
        names = [f"a{i}" for i in range(len(fam.relation(fam.k0 - 1)[0]))] + ["b", "c"]
        for i, name in enumerate(names):
            for d in (1, -1):
                yield pytest.param(form, i, d, id=f"{form}-{name}{d:+d}")


@pytest.mark.parametrize("form, i, d", list(_relation_slips()))
def test_relation_slip_raises_or_fails_a_leg(monkeypatch, form, i, d):
    """A +-1 slip of one exponent of A_k = sum s q^a or B_k = q^b (1 - q^c),
    for every k, either stops verify_all(400) at a derived column of the
    family, named, or fails some leg."""
    fam = catalog._FAMILIES[form]

    def relation(k):
        terms, b, c = fam.relation(k)
        flat = [e for _, e in terms] + [b, c]
        flat[i] += d
        return tuple((sign, e) for (sign, _), e in zip(terms, flat)), flat[-2], flat[-1]

    monkeypatch.setitem(catalog._FAMILIES, form, fam._replace(relation=relation))
    try:
        reports = verify_all(400)
    except InvariantViolation as err:
        assert str(err).startswith(f"{form} column "), err
    else:
        assert not all(leg.ok for r in reports for leg in r.legs)


def test_ratio_chain_fault_fails_every_pipeline_leg(monkeypatch):
    """A fault in the ratio-chain driver that every catalog sum goes
    through fails the pipeline leg of theorems 1-3, whose sums at their base
    horizons (5 and less) read no derived column: the alpha side it is
    checked against is built without that driver.  (A beta side, summed by
    the same driver, carries the same fault.)  Theorem 4's sum derives AQ
    column 2 from the faulty chained column, and verify_all(120) A1 column
    2, so both stop before any leg reports, at the first derived column that
    the fault makes indivisible."""
    real = chain.horner

    def faulty(*args):
        buf = real(*args)
        if len(buf) > 3:
            buf[3] += 1
        return buf

    monkeypatch.setattr(chain, "horner", faulty)
    failing = {i for i in range(1, 4) for leg in verify_theorem(i, 120).legs if leg.name == "pipeline" and not leg.ok}
    assert failing == {1, 2, 3}
    with pytest.raises(InvariantViolation, match=r"^AQ column 2 from columns 0 and 1: .* q\^5$"):
        verify_theorem(4, 120)
    with pytest.raises(InvariantViolation, match=_FIRST_DERIVED["A1"]):
        verify_all(120)


def test_corrupted_alpha_item_fails_its_pipeline_legs(monkeypatch):
    """One extra item q^-3 in alpha_3 of P2A fails exactly the pipeline legs
    of the theorems on P2A, L1 under A1 and L9 under A1ALSO, at the
    exponent the item reaches, planned and alone alike."""
    p2a = bailey.pair_catalog("P2A")

    def items(m):
        return p2a.alpha_items(m) + ([(-3, 1)] if m == 3 else [])

    monkeypatch.setitem(bailey._PAIRS, "P2A", replace(p2a, alpha_items=items))
    for reports in (verify_all(400), _standalone_reports(400)):
        failing = {(r.report_id, leg.name): leg.mismatch[0] for r in reports for leg in r.legs if not leg.ok}
        assert failing == {("theorem-01", "pipeline"): 12, ("theorem-09", "pipeline"): 9}


@pytest.fixture(scope="module")
def theorem_sums():
    """The twelve theorems' series, each through the highest base horizon
    of any theorem at order 400."""
    top = max(base_order_for(spec, 400) for spec in theorem_table())
    return eval_plan({spec.series_id: top for spec in theorem_table()})


def test_every_leg_rejects_another_theorems_series(monkeypatch, theorem_sums):
    """Negative control: at order 400 the series of each theorem passes all
    three legs of its own theorem and fails all three of every other one."""
    for sid, f in theorem_sums.items():
        monkeypatch.setattr(verify_mod, "eval_named", lambda _, horizon, star_budget=None, f=f: f.truncate(horizon))
        for spec in theorem_table():
            legs = verify_theorem(spec.index, 400).legs
            assert [leg.ok for leg in legs] == [sid == spec.series_id] * 3, (sid, spec.index)


@pytest.mark.parametrize("label, form_id", [("BK1", "A1"), ("BK2", "AQ"), ("P1A", "A1"), ("P1B", "AQ")])
def test_unused_pipeline_fails_every_pipeline_leg(monkeypatch, theorem_sums, label, form_id):
    """Negative control: a valid pair/form combination that no theorem uses,
    put in place of each theorem's own, fails its pipeline leg at order 400."""
    assert (label, form_id) not in {catalog.pipeline(sid)[:2] for sid in theorem_sums}
    monkeypatch.setattr(verify_mod, "eval_named", lambda sid, horizon, star_budget=None: theorem_sums[sid].truncate(horizon))
    real = verify_mod.pipeline
    monkeypatch.setattr(verify_mod, "pipeline", lambda sid: (label, form_id, *real(sid)[2:]))
    for spec in theorem_table():
        legs = {leg.name: leg.ok for leg in verify_theorem(spec.index, 400).legs}
        assert legs == {"ideal": True, "theta": True, "pipeline": False}, spec.index


def test_lacunarity_report_shape():
    payload = lacunarity_report("sigma", 100)
    assert payload["id"] == "SIGMA"
    assert payload["order"] == 100
    wins = payload["windows"]
    assert [w["lo"] for w in wins] == [1, 2, 4, 8, 16, 32, 64]
    assert wins[-1]["hi"] == 100
    f = eval_named("SIGMA", 100)
    for w in wins:
        assert w["size"] == w["hi"] - w["lo"] + 1
        nz = sum(1 for e in range(w["lo"], w["hi"] + 1) if f.coefficient(e))
        assert w["nonzero"] == nz
        assert w["density"] == round(nz / w["size"], 6)
    # value histogram counts every nonzero coefficient once
    assert sum(payload["values"].values()) == sum(
        1 for e in range(0, 101) if f.coefficient(e)
    )


def _lacunarity_by_coefficient(series_id: str, order: int) -> dict:
    # one coefficient(e) call per exponent, window by window
    f = eval_named(series_id, order)
    windows, lo = [], 1
    while lo <= order:
        hi = min(2 * lo - 1, order)
        nonzero = sum(1 for e in range(lo, hi + 1) if f.coefficient(e))
        windows.append({"lo": lo, "hi": hi, "size": hi - lo + 1, "nonzero": nonzero,
                        "density": round(nonzero / (hi - lo + 1), 6)})
        lo *= 2
    values = Counter(str(f.coefficient(e)) for e in range(order + 1) if f.coefficient(e))
    return {"id": series_id, "order": order, "windows": windows,
            "values": dict(sorted(values.items(), key=lambda kv: (len(kv[0]), kv[0])))}


@pytest.mark.parametrize("series_id", ["SIGMA", "Z2"])
def test_lacunarity_report_matches_a_count_by_coefficient(series_id):
    payload, want = lacunarity_report(series_id, 300), _lacunarity_by_coefficient(series_id, 300)
    assert payload == want and list(payload["values"]) == list(want["values"])  # in JSON order too
    assert any(w["nonzero"] < w["size"] for w in payload["windows"])
