"""Catalog evaluation: frozen heads, independent product forms, summation budgets."""

import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qrds
import qrds.bailey as bailey
import qrds.catalog as catalog
import qrds.chain as chain
from qrds.catalog import (
    catalog_ids,
    classical_sum,
    eval_named,
    normalize_id,
    star_sum,
)
from qrds.errors import InvariantViolation, NoStabilization, UnknownId
from qrds.series import LaurentSeries

from test_acceptance import PIPELINES  # the acceptance gate's own pipeline rows

# ------------------------------------------------------------------ oracles
#
# Heads through q^30, computed once and hand-checked against low-order
# expansions of the defining sums (e.g. SIGMA = 1 + q - q^2 + 2q^3 - ...).

HEADS = {
    "SIGMA": {0: 1, 1: 1, 2: -1, 3: 2, 4: -2, 5: 1, 7: 1, 8: -2, 10: 2,
              12: -1, 13: -2, 14: 2, 15: 1, 17: -2, 18: 2, 19: -2, 22: 3,
              24: -2, 25: -2, 26: 1, 28: 2},
    "Z2": {1: 1, 3: 1, 4: 1, 6: 1, 8: 1, 9: 1, 10: 1, 13: 1, 15: 2, 16: 1,
           19: 1, 21: 1, 22: 1, 24: 1, 25: 1, 26: 1, 28: 1, 30: 1},
    "Z3": {2: -1, 3: 1, 8: -1, 11: 2, 12: -1, 18: -1, 23: 2, 26: -2, 27: 1},
    "Z4": {0: 1, 1: -1, 4: 2, 5: -1, 7: -2, 8: 1, 12: 2, 15: -2, 16: 1,
           17: -2, 20: 2, 21: -1, 24: 2, 29: -2},
    "Z5": {1: -1, 3: -2, 6: -2, 7: -1, 10: -2, 12: -2, 15: -2, 18: -2,
           19: -1, 21: -2, 25: -2, 27: -2, 28: -2},
    "L1": {2: 1, 3: 1, 6: 1, 7: 1, 8: 1, 9: 1, 12: 1, 14: 1, 15: 1, 17: 2,
           20: 2, 23: 1, 24: 1, 27: 1, 29: 1, 30: 2},
    "L2": {0: 1, 2: 1, 3: 1, 5: 1, 6: 1, 8: 1, 11: 1, 12: 2, 13: 1, 15: 1,
           20: 1, 21: 2, 22: 1, 23: 1, 24: 1, 26: 1, 30: 1},
    "L3": {2: 1, 3: 1, 5: 1, 7: 1, 8: 1, 10: 2, 13: 1, 16: 1, 17: 2, 19: 1,
           20: 1, 21: 1, 26: 2, 28: 1, 30: 1},
    "L4": {1: 1, 4: 2, 5: 1, 9: 1, 10: 1, 11: 2, 14: 1, 16: 1, 18: 1, 19: 1,
           20: 1, 23: 1, 25: 2, 26: 1, 28: 1, 29: 1},
    "L5": {2: 2, 5: 2, 7: 2, 10: 2, 14: 4, 17: 2, 23: 4, 25: 2, 26: 2},
    "L6": {2: 2, 6: 4, 12: 4, 14: 2, 20: 4, 24: 4, 30: 4},
    "L7": {0: 1, 2: 2, 4: 1, 6: 2, 8: 1, 10: 2, 12: 2, 16: 2, 18: 2, 20: 3,
           26: 2, 28: 3, 30: 2},
    "L8": {1: 1, 3: 1, 4: 2, 8: 2, 9: 2, 11: 1, 15: 2, 16: 2, 17: 1, 20: 2,
           24: 2, 25: 2, 28: 2},
    "L9": {2: 2, 5: 2, 6: 2, 9: 2, 11: 2, 14: 4, 17: 2, 20: 2, 23: 2,
           24: 4, 27: 2},
    "L10": {2: 2, 4: 2, 7: 4, 11: 2, 13: 2, 14: 2, 16: 2, 20: 2, 22: 4,
            25: 2, 28: 2, 29: 2},
    "L11": {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 8: 1, 9: 2, 10: 2,
            14: 1, 15: 3, 16: 1, 17: 1, 20: 2, 21: 1, 22: 1, 23: 1, 25: 2,
            27: 1, 28: 2, 30: 1},
    "L12": {1: 1, 3: 2, 4: 1, 6: 1, 7: 1, 8: 2, 10: 1, 11: 1, 12: 1, 13: 1,
            14: 1, 15: 1, 17: 1, 18: 1, 19: 2, 20: 1, 21: 2, 25: 1, 26: 1,
            27: 1, 28: 3, 29: 1, 30: 1},
}

STARRED = ("L7", "L8", "L11", "L12")


def head(f: LaurentSeries, through: int) -> dict:
    return {
        e: int(f.coefficient(e))
        for e in range(f.offset, through + 1)
        if f.coefficient(e)
    }


@pytest.mark.parametrize("sid", sorted(HEADS))
def test_frozen_heads(sid):
    assert head(eval_named(sid, 30), 30) == HEADS[sid]


def test_catalog_ids_complete():
    assert set(catalog_ids()) == set(HEADS)
    assert len(catalog_ids()) == 17


def test_normalize_id_case_insensitive():
    assert normalize_id("sigma") == "SIGMA"
    assert normalize_id(" l7 ") == "L7"
    assert normalize_id(" z2 ") == "Z2"
    assert eval_named("l5", 20) == eval_named("L5", 20)
    with pytest.raises(UnknownId, match="^\"unknown series id 'L13'\"$"):
        normalize_id("L13")
    with pytest.raises(UnknownId, match="^\"unknown series id 'nope'\"$"):
        eval_named("nope", 10)
    with pytest.raises(UnknownId, match="^\"unknown series id ' bogus '\"$"):
        catalog.eval_plan({" bogus ": -1})  # the id is read before its horizon


def test_eval_rejects_negative_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a catalog chain was summed")

    monkeypatch.setattr(chain, "ratio_sum", refuse)
    monkeypatch.setattr(chain, "walk", refuse)  # every chain, a single sum's too, starts here
    for evaluate in (
        lambda: eval_named("SIGMA", -1),
        lambda: eval_named("L1", -1),
        lambda: catalog.eval_plan({"SIGMA": -1}),
        lambda: catalog.eval_plan({"L1": -1}),
        lambda: catalog.eval_plan({"Z2": 10, "L5": 10, "l6": -1}),
        lambda: eval_named("BOGUS", -1),  # the horizon is checked before the id
    ):
        with pytest.raises(ValueError, match="^order must be >= 0$"):
            evaluate()


@pytest.mark.parametrize("first, second", [("L1", " l1"), ("SIGMA", "sigma"), ("Z2", " z2 ")])
@pytest.mark.parametrize("high_first", [True, False])
def test_eval_plan_keeps_the_highest_horizon_of_an_id(monkeypatch, first, second, high_first):
    """Two keys that name one id get it through the higher horizon, in
    either insertion order; a single sum goes through ``eval_named``."""
    calls, real = [], catalog.eval_named

    def recorded(sid, order):
        calls.append((sid, order))
        return real(sid, order)

    monkeypatch.setattr(catalog, "eval_named", recorded)
    horizons = {first: 20, second: 10} if high_first else {second: 10, first: 20}
    got = catalog.eval_plan(horizons)
    assert list(got) == [first]
    assert got[first].order == 20
    assert got[first] == real(first, 20)
    assert calls == ([(first, 20)] if first in catalog._SINGLES else [])


@pytest.mark.parametrize("sid", ["L7", "SIGMA"])
@pytest.mark.parametrize("budget", [-1, -5])
def test_eval_rejects_negative_star_budget(sid, budget):
    with pytest.raises(ValueError, match="star_budget must be >= 0"):
        eval_named(sid, 10, star_budget=budget)


@pytest.mark.parametrize("sid", ["L7", "SIGMA"])
@pytest.mark.parametrize("budget", [2.5, 200.0, True, False, Fraction(20), "20"], ids=repr)
def test_eval_rejects_a_star_budget_that_is_not_an_int(monkeypatch, sid, budget):
    # eval_named("L7", 30, star_budget=2.5) once raised NoStabilization "no
    # last level within 2.5 levels from n=0.5", and 200.0 and True were taken
    def refuse(*args, **kwargs):
        raise AssertionError("a chain was summed")

    monkeypatch.setattr(chain, "single_sum", refuse)
    monkeypatch.setattr(chain, "ratio_sum", refuse)
    with pytest.raises(TypeError, match=f"^star_budget must be an int, got {re.escape(repr(budget))}$"):
        eval_named(sid, 30, star_budget=budget)


def test_order_zero():
    f = eval_named("SIGMA", 0)
    assert f.coefficient(0) == 1
    assert f.order == 0
    # L1 has no constant term
    g = eval_named("L1", 0)
    assert g.coefficient(0) == 0


# --------------------------------------------- independent product forms
#
# Each single sum is re-evaluated from its termwise product representation
# with a plain dict-of-int engine: no LaurentSeries, no ratio recurrences.

_N = 60


def _pmul(a, c, e):
    """a * (1 + c q^e), truncated at q^_N."""
    out = dict(a)
    for k, v in a.items():
        if k + e <= _N:
            out[k + e] = out.get(k + e, 0) + c * v
    return {k: v for k, v in out.items() if v}


def _pdiv(a, c, e):
    """a / (1 + c q^e), truncated at q^_N."""
    out = {}
    for k in range(_N + 1):
        v = a.get(k, 0)
        if k - e >= 0:
            v -= c * out.get(k - e, 0)
        if v:
            out[k] = v
    return out


def _term_sigma(n):
    t = {n * (n + 1) // 2: 1}
    for i in range(1, n + 1):
        t = _pdiv(t, 1, i)
    return t


def _term_z2(n):
    t = {n: 1}
    for i in range(1, n):
        t = _pmul(t, 1, 2 * i)
    for i in range(1, n + 1):
        t = _pdiv(t, 1, 2 * i - 1)
    return t


def _term_z3(n):
    t = {n * n + n: (-1) ** n}
    for i in range(1, n):
        t = _pmul(t, -1, 2 * i)
    for i in range(1, 2 * n + 1):
        t = _pdiv(t, 1, i)
    return t


def _term_z4(n):
    t = {n * n + n: (-1) ** n}
    for i in range(1, n + 1):
        t = _pmul(t, -1, 2 * i)
    for i in range(1, 2 * n + 2):
        t = _pdiv(t, 1, i)
    return t


def _term_z5(n):
    t = {n: (-1) ** n}
    for i in range(1, n):
        t = _pmul(t, -1, i)
    for i in range(1, n + 1):
        t = _pdiv(t, -1, 2 * i - 1)
    return t


SINGLE_FORMS = {
    "SIGMA": (_term_sigma, 0),
    "Z2": (_term_z2, 1),
    "Z3": (_term_z3, 1),
    "Z4": (_term_z4, 0),
    "Z5": (_term_z5, 1),
}


@pytest.mark.parametrize("sid", sorted(SINGLE_FORMS))
def test_single_sum_matches_product_form(sid):
    term, n0 = SINGLE_FORMS[sid]
    total = {}
    for n in range(n0, _N + 2):  # valuation of term n is at least n
        for k, v in term(n).items():
            total[k] = total.get(k, 0) + v
    total = {k: v for k, v in total.items() if v}
    assert total == head(eval_named(sid, _N), _N)


# Z2's row before its Rogers-Fine form: n0 = 1, seed q / (1 + q), ratio
# q (1 + q^(2n)) / (1 + q^(2n+1)), one q per term.
_Z2_BY_ONE_Q = (1, (1, 1, (), ((-1, 1),)), lambda n: (1, 1, ((-1, 2 * n),), ((-1, 2 * n + 1),))), lambda n: n


@pytest.mark.parametrize("order", [*range(0, 81), 199, 400, 1000])
def test_z2_rogers_fine_row_matches_its_defining_sum(order):
    """Z2's catalog row, the Rogers-Fine form with term valuations
    2n^2 + 2n + 1, is its defining single sum summed term by term."""
    (n0, seed, ratio), bound = _Z2_BY_ONE_Q
    want = chain.seeded(seed, order, lambda h, v: chain.chain(chain.walk(ratio, n0, h, v, 4 * order + 64, bound)))
    assert shape(eval_named("Z2", order)) == shape(want)


# ----------------------------------------------------------- sum machinery


def test_star_budget_stability():
    # A starred value must not depend on how long we were willing to wait.
    for sid in STARRED:
        default_budget = 4 * 120 + 64
        a = eval_named(sid, 120, star_budget=default_budget)
        b = eval_named(sid, 120, star_budget=2 * default_budget)
        assert a == b, sid
    # a single sum's default cap is the same 4N + 64 levels
    assert eval_named("Z5", 120) == eval_named("Z5", 120, star_budget=4 * 120 + 64)
    # the budget caps the levels of one column: L7's first column has 24
    with pytest.raises(NoStabilization):
        eval_named("L7", 300, star_budget=10)


@pytest.mark.parametrize("sid", ["SIGMA", "L7", "L11"])
def test_level_cap_binds_at_the_longest_chain(monkeypatch, sid):
    # star_budget caps the ratios of each chain: R, the most any chain of
    # the sum walks, is enough to reach the default sum and R - 1 is not.
    # L11's longest chain is its first column, summed through the raised
    # horizon its derived columns need (q^576 at order 300)
    walk, walked = chain.walk, []

    def counted(*args):
        ratios, levels = walk(*args)
        walked.append(len(ratios))
        return ratios, levels

    monkeypatch.setattr(chain, "walk", counted)
    default = eval_named(sid, 300)
    R = max(walked)
    assert R > 1
    assert eval_named(sid, 300, star_budget=R) == default
    with pytest.raises(NoStabilization):
        eval_named(sid, 300, star_budget=R - 1)


@pytest.mark.parametrize("sid", ["L1", "L6", "L12"])
def test_every_column_is_walked_at_its_own_horizon(monkeypatch, sid):
    """Every column's chain is walked with the family's bound once, in k
    order, derived columns included: a derived column at the horizon and
    valuation its fold needs, the one chained column, U_k0, through at least
    that horizon.  So every bound and level-cap check fires as if each column
    were summed by its chain."""
    walk, calls = chain.walk, []

    def recorded(ratio, j, h, v, cap, bound=None):
        ratios, levels = walk(ratio, j, h, v, cap, bound)
        calls.append((bound is not None, (j, h, v), levels))
        return ratios, levels

    monkeypatch.setattr(chain, "walk", recorded)
    eval_named(sid, 400)
    fam = catalog._FAMILIES[catalog._DOUBLES[sid][0]]
    diagonal = calls[0][2]  # the one member's diagonal: the need of each column
    columns = [start for bounded, start, _ in calls if bounded]
    assert len(columns) == len(diagonal) > 2
    for i, ((k, h, v), (kk, hk, vk)) in enumerate(zip(columns, diagonal)):
        assert (k, v) == (kk, vk)
        assert h >= hk if i == 0 else h == hk, (k, h, hk)
    assert columns[0][0] == fam.k0


@pytest.mark.parametrize("sid, order, value", [("SIGMA", 0, {0: 1}), ("Z2", 1, {1: 1}), ("L1", 1, {})])
def test_zero_star_budget_allows_no_level(sid, order, value):
    """A star budget of 0 caps every chain at zero levels; it is not read as
    "use the default".  A sum whose chains need no ratio through q**order
    keeps its value."""
    f = eval_named(sid, order, star_budget=0)
    assert head(f, order) == value
    assert shape(f) == shape(eval_named(sid, order))


@pytest.mark.parametrize("sid, order, n", [("SIGMA", 1, 0), ("Z2", 40, 0), ("L1", 40, 1), ("L7", 1, 0)])
def test_zero_star_budget_stops_the_first_ratio(sid, order, n):
    with pytest.raises(NoStabilization, match=f"^no last level within 0 levels from n={n}$"):
        eval_named(sid, order, star_budget=0)
    assert eval_named(sid, order, star_budget=None) == eval_named(sid, order)


def test_classical_sum_skips_short_gaps():
    # three zero terms in a row must not end the sum; four must
    terms = [
        LaurentSeries.one(),
        LaurentSeries.zero(10),
        LaurentSeries.zero(10),
        LaurentSeries.zero(10),
        LaurentSeries.monomial(1, 2, 10),
    ] + [LaurentSeries.zero(10)] * 4
    f = classical_sum(iter(terms), 10)
    assert f.coefficient(2) == 1


def test_classical_sum_budget_exceeded():
    # the budget is 4*order + 64 terms; the term after it raises
    taken = []

    def ones():
        while True:
            taken.append(1)
            yield LaurentSeries.one()

    with pytest.raises(NoStabilization) as info:
        classical_sum(ones(), 5)
    assert len(taken) == 4 * 5 + 64 + 1
    assert info.value.n_limit == len(taken)


def test_star_sum_handles_two_periodic_tail():
    # terms: 1+q, then (+1, -1, +1, ...) forever -> average is (1+q) + 1/2
    def terms():
        yield LaurentSeries.from_items([(0, 1), (1, 1)], 10)
        sign = 1
        while True:
            yield LaurentSeries.monomial(sign, 0, 10)
            sign = -sign

    f = star_sum(terms(), 10)
    from fractions import Fraction

    assert f.coefficient(0) == Fraction(3, 2)
    assert f.coefficient(1) == 1


def test_star_sum_no_stabilization():
    ones = (LaurentSeries.one() for _ in itertools.count())
    with pytest.raises(NoStabilization) as info:
        star_sum(ones, 5, budget=12)
    assert info.value.n_limit == 13


def test_star_sum_exhausted_stream():
    with pytest.raises(NoStabilization):
        star_sum(iter([LaurentSeries.one()]), 5)


# -------------------------------------------------------- valuation bounds

# The A1ALSO family (L5, L6, L9, L10) with a valuation bound no row can
# meet: the first row (n = 1) has valuation 2, far below n + 100.
_BROKEN_BOUND = """
import qrds.catalog as catalog
from qrds.errors import InvariantViolation
catalog._FAMILIES["A1ALSO"] = catalog._FAMILIES["A1ALSO"]._replace(bound=lambda n: n + 100)
try:
    catalog.eval_named("L5", 40)
except InvariantViolation:
    raise SystemExit(0)
raise SystemExit(1)
"""

# P3B with an extra alpha item q^(-u(3)) = q^(-12) at n = 3, so that level's
# least exponent of q^(u(n)) * alpha_n is 0, below n(n - 1)/2 = 3.
_BROKEN_ALPHA = """
import dataclasses
import qrds.bailey as bailey
from qrds.errors import InvariantViolation
pair = bailey._PAIRS["P3B"]
bailey._PAIRS["P3B"] = dataclasses.replace(
    pair, alpha_items=lambda m: pair.alpha_items(m) + ([(-12, 1)] if m == 3 else [])
)
try:
    bailey.limit_form(bailey.bailey_step(bailey.pair_catalog("P3B")), "AQ", 60)
except InvariantViolation as err:
    raise SystemExit(0 if "P3B" in str(err) and "n=3" in str(err) else 2)
raise SystemExit(1)
"""


def test_valuation_bound_is_checked_before_the_level_cap(monkeypatch):
    # L7's diagonal at order 300 has 17 levels and its first column 24,
    # so a cap of 20 levels stops that column; a bound broken at n = 5
    # is met on the way and named, not outrun by the cap
    with pytest.raises(NoStabilization):
        eval_named("L7", 300, star_budget=20)
    family = catalog._FAMILIES["AQALSO"]
    monkeypatch.setitem(catalog._FAMILIES, "AQALSO", family._replace(bound=lambda n: 100 * (n == 5)))
    with pytest.raises(InvariantViolation, match="below its bound 100 at n=5$"):
        eval_named("L7", 300, star_budget=20)


@pytest.mark.parametrize("sid", ["L5", "L6", "L9", "L10"])
def test_valuation_bound_violation_raises(monkeypatch, sid):
    family = catalog._FAMILIES["A1ALSO"]
    monkeypatch.setitem(catalog._FAMILIES, "A1ALSO", family._replace(bound=lambda n: n + 100))
    with pytest.raises(InvariantViolation, match="n=1$"):
        eval_named(sid, 40)


@pytest.mark.parametrize("sid", sorted(catalog._SINGLES))
def test_single_sum_bound_violation_raises(monkeypatch, sid):
    # a single sum's chain checks its row's bound at every level: raised at
    # the fourth level alone, the bound is named there
    (n0, *rest), bound = catalog._SINGLES[sid]
    monkeypatch.setitem(catalog._SINGLES, sid, ((n0, *rest), lambda n: bound(n) + 100 * (n == n0 + 3)))
    with pytest.raises(InvariantViolation, match=f"below its bound \\d+ at n={n0 + 3}$"):
        eval_named(sid, 200)


def test_beta_side_checks_the_forms_bound(monkeypatch):
    # limit_form's beta side sums its rows with the form's bound, as the
    # catalog's double sums do; BK1's first column reaches n = 5 at order 300
    family = catalog._FAMILIES["A1ALSO"]
    monkeypatch.setitem(catalog._FAMILIES, "A1ALSO",
                        family._replace(bound=lambda n: family.bound(n) + 100 * (n == 5)))
    with pytest.raises(InvariantViolation, match="n=5$"):
        bailey.limit_form(bailey.bailey_step(bailey.pair_catalog("BK1")), "A1ALSO", 300)


@pytest.mark.parametrize("form_id", ["AQ", "AQALSO"])
def test_alpha_bound_violation_raises(monkeypatch, form_id):
    pair = bailey._PAIRS["P3B"]
    broken = dataclasses.replace(
        pair, alpha_items=lambda m: pair.alpha_items(m) + ([(-12, 1)] if m == 3 else [])
    )
    monkeypatch.setitem(bailey._PAIRS, "P3B", broken)
    with pytest.raises(InvariantViolation, match=r"alpha side of P3B\*: valuation 0 .* at n=3$"):
        bailey.limit_form(bailey.bailey_step(bailey.pair_catalog("P3B")), form_id, 60)


# The same family with its bound raised at n = 5 alone, reached through
# verify_all, where L5, L6, L9 and L10 share their columns: each column is
# summed at the least valuation any member has, so the check still fires.
_BROKEN_SHARED_BOUND = """
import qrds.catalog as catalog
import qrds.verify as verify
from qrds.errors import InvariantViolation
family = catalog._FAMILIES["A1ALSO"]
catalog._FAMILIES["A1ALSO"] = family._replace(bound=lambda n: family.bound(n) + 100 * (n == 5))
try:
    verify.verify_all(400)
except InvariantViolation as err:
    raise SystemExit(0 if str(err).endswith("n=5") else 2)
raise SystemExit(1)
"""


# AQALSO with B_k's binomial exponent slipped by one: column 1, derived from
# the constant column -1 and the chained column 0, comes out wrong, and
# column 2, derived from it, has a numerator not divisible by q^3.
_BROKEN_RELATION = """
import qrds.catalog as catalog
from qrds.errors import InvariantViolation
family = catalog._FAMILIES["AQALSO"]
catalog._FAMILIES["AQALSO"] = family._replace(relation=lambda k: (*family.relation(k)[:2], 2 * k + 5))
try:
    catalog.eval_named("L12", 200)
except InvariantViolation as err:
    raise SystemExit(0 if str(err) == "AQALSO column 2 from columns 0 and 1: numerator not divisible by q^3" else 2)
raise SystemExit(1)
"""


@pytest.mark.parametrize(
    "script", [_BROKEN_BOUND, _BROKEN_ALPHA, _BROKEN_SHARED_BOUND, _BROKEN_RELATION],
    ids=["catalog", "alpha", "shared", "relation"],
)
def test_valuation_bound_survives_optimized_mode(script):
    src = str(Path(qrds.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# one relation slip of each kind the derivation cannot take, at every k: an
# extra term of A_k with exponent -1, which a slice would read from the
# list's end; B_k's binomial exponent 0, 1 - q^0 being no binomial; and B_k's
# monomial q^-1, whose division would drop coefficients from the list's end
_RELATION_EXPONENT_SLIPS = {
    "a-negative": ("A1", "L1", lambda a, b, c: ((*a, (1, -1)), b, c)),
    "c-zero": ("AQ", "L2", lambda a, b, c: (a, b, 0)),
    "b-negative": ("A1ALSO", "L5", lambda a, b, c: (a, -1, c)),
}


@pytest.mark.parametrize("slip", sorted(_RELATION_EXPONENT_SLIPS))
def test_relation_exponents_are_checked(monkeypatch, slip):
    """A relation whose exponents the derivation cannot take raises
    InvariantViolation naming the family, the column and k, at k0 - 1, the
    first k the relation is read at, whatever the columns hold."""
    form, sid, slipped = _RELATION_EXPONENT_SLIPS[slip]
    fam = catalog._FAMILIES[form]
    monkeypatch.setitem(catalog._FAMILIES, form, fam._replace(relation=lambda k: slipped(*fam.relation(k))))
    with pytest.raises(InvariantViolation, match=f"^{form} column {fam.k0 + 1}: relation at k={fam.k0 - 1} has "):
        eval_named(sid, 200)


# --------------------------------------------------------- inside-out sum
#
# The inside-out sum against rows built one term at a time with
# ``_apply`` and summed by ``classical_sum`` / ``star_sum`` (down column k0,
# then along each row: the other path through T(n, k) = S_n * P_k / (q)_{n-k},
# with a streak, not a proven last level, ending the sum): same offsets,
# horizons, coefficients and coefficient types.  The Bailey alpha side is
# checked the same way, against its terms summed one series at a time.


def shape(f: LaurentSeries):
    return (f.offset, f.order, [(type(c).__name__, c) for c in f.coeffs])


def _apply(f: LaurentSeries, order: int, ratio) -> LaurentSeries:
    """``f`` times the ratio (c, e, num, den), one series operation at a time."""
    c, e, num, den = ratio
    f = f.mul_monomial(c, e)
    if f.order is not None and f.order > order:
        f = f.truncate(order)
    if f.is_zero():
        return f
    for cc, ee in num:
        f = f.mul_binomial(cc, ee)
    for cc, ee in den:
        f = f.div_binomial(cc, ee, order=order)
    return f


def _rows_by_terms(start, order, k0, p_ratio, s_ratio):
    n = k0
    while True:
        term = total = start
        for k in range(k0, n):
            c, e, num, den = p_ratio(k)
            term = _apply(term, order, (c, e, num + ((1, n - k),), den))
            if term.is_zero():
                break
            total = total + term
        yield total
        c, e, num, den = s_ratio(n)
        start = _apply(start, order, (c, e, num, den + ((1, n + 1 - k0),)))
        n += 1


def _oracle_sum(start, order, k0, p_ratio, s_ratio, starred):
    rows = _rows_by_terms(start, order, k0, p_ratio, s_ratio)
    return star_sum(rows, order) if starred else classical_sum(rows, order)


@pytest.mark.parametrize("sid", sorted(catalog._DOUBLES))
@pytest.mark.parametrize("order", [0, 7, 60])
def test_double_rows_match_term_by_term(sid, order):
    form, pair, const = catalog._DOUBLES[sid]
    fam = catalog._FAMILIES[form]
    start = LaurentSeries.monomial(fam.c0, fam.e0, order).div_binomial(1, 1, order=order)
    want = _oracle_sum(start, order, fam.k0, catalog._P_RATIOS[pair], fam.s_ratio, fam.starred)
    if fam.starred:
        want = want.scale(2)
    want = want + LaurentSeries.monomial(const, 0, order)
    assert shape(eval_named(sid, order)) == shape(want)


def _direct_column(form, k, h, scaled=True):
    """Column k of ``form`` summed term by term from its S ratio,
    rho_k(n) = s_ratio(n) / (1 - q^(n+1-k)), doubled for a starred form,
    and if ``scaled`` times the product of the family's ``column_scale(j)``
    binomials over j < k ((-q;q)_k for A1ALSO and AQALSO, 1 for A1 and AQ),
    as coefficients of q^0..q^h: what the catalog's column chain must hold."""
    fam = catalog._FAMILIES[form]

    def terms():
        term, n = LaurentSeries.one(h), k
        while True:
            yield term
            c, e, num, den = fam.s_ratio(n)
            term = _apply(term, h, (c, e, num, den + ((1, n + 1 - k),)))
            n += 1

    total = star_sum(terms(), h).scale(2) if fam.starred else classical_sum(terms(), h)
    for j in range(k if scaled else 0):
        for c, e in fam.column_scale(j):
            total = total.mul_binomial(c, e)
    return [total.coefficient(i) for i in range(h + 1)]


def _catalog_column(form, k, h, scaled=True):
    """Column k of ``form`` as the catalog's chain sums it, at level k's
    least valuation allowed by the form's bound, padded to q^0..q^h; unless
    ``scaled``, divided by the family's column scale X_k."""
    fam = catalog._FAMILIES[form]
    col = chain.column(fam.column, k, h, fam.bound(k), 4 * h + 64, fam.bound)
    assert len(col) <= h + 1
    col = LaurentSeries(0, col, h)
    for j in range(0 if scaled else k):
        for c, e in fam.column_scale(j):
            col = col.div_binomial(c, e, order=h)
    return [col.coefficient(i) for i in range(h + 1)]


@pytest.mark.parametrize("form, k", [(form, k) for form in ("A1", "AQ", "A1ALSO", "AQALSO")
                                     for k in range(catalog._FAMILIES[form].k0, 13)])
def test_column_matches_the_direct_column(form, k):
    """Each column of every family, the (III.4) form of A1ALSO and AQALSO
    and the restated S ratio of A1 and AQ, is the direct S-ratio column,
    summed term by term by ``classical_sum`` / ``star_sum``, times the
    family's column scale, at every horizon through 60 and at 199 and 400."""
    want = _direct_column(form, k, 400)
    for h in (*range(61), 199, 400):
        assert _catalog_column(form, k, h) == want[:h + 1], h


@pytest.mark.parametrize("form", ["A1", "AQ", "A1ALSO", "AQALSO"])
def test_derived_columns_match_the_chain_and_direct_columns(form):
    """Every column k <= 40 that ``chain.columns`` gives through q^300, the first
    summed by its chain through a raised horizon and every later one derived
    by the family's relation, the first of them from the constant U_(k0-1),
    is U_k: the chain column divided by its scale X_k, and the direct
    S-ratio column without the scale."""
    fam, h = catalog._FAMILIES[form], 300
    need = {k: (h, fam.bound(k)) for k in range(fam.k0, 41)}
    got = chain.columns(fam, need, 4 * 3000 + 64)
    assert sorted(got) == sorted(need)
    for k, col in got.items():
        col = col[:h + 1] + [0] * (h + 1 - len(col))
        assert col == _catalog_column(form, k, h, scaled=False) == _direct_column(form, k, h, scaled=False), k


def _shared(num, den):
    return set(num) & set(den)


def test_diagonal_steps_are_in_lowest_terms(monkeypatch):
    """Every diagonal step the fold walks, for the twelve double sums and for
    ``limit_form``'s beta side of all eight stepped pairs under each form of
    their relation, has no binomial in both its numerator and its
    denominator.  Of the twelve, exactly L1-L8 have S_(k+1) / S_k and
    P_(k+1) / P_k share a binomial at every k, for the step to cancel."""
    steps = []
    real = chain.diagonal

    def recorded(fam, p_ratio):
        step = real(fam, p_ratio)

        def kept(k):
            steps.append(step(k))
            return steps[-1]
        return kept

    monkeypatch.setattr(chain, "diagonal", recorded)
    catalog.eval_plan({sid: 200 for sid in catalog._DOUBLES})
    walked = len(steps)
    for label in bailey.pair_labels():
        stepped = bailey.bailey_step(bailey.pair_catalog(label))
        for form in ("A1", "A1ALSO") if stepped.rel == "1" else ("AQ", "AQALSO"):
            before = len(steps)
            lhs, rhs = bailey.limit_form(stepped, form, 60)
            assert lhs == rhs and len(steps) > before, (label, form)
    assert walked > 0 and len(steps) > walked
    assert not any(_shared(num, den) for _, _, num, den in steps)
    for sid, (form, pair, _) in catalog._DOUBLES.items():
        fam, p_ratio = catalog._FAMILIES[form], catalog._P_RATIOS[pair]
        shared = [bool(_shared(fam.s_ratio(k)[2] + p_ratio(k)[2], fam.s_ratio(k)[3] + p_ratio(k)[3]))
                  for k in range(fam.k0, fam.k0 + 40)]
        # L9-L12's P-ratio is 1 - q over 1 - q at k0, and shares nothing with S's
        assert shared == [True] * 40 if int(sid[1:]) <= 8 else [True] + [False] * 39, sid


def test_each_diagonal_is_walked_once(monkeypatch):
    """A plan of all twelve double sums walks each member's diagonal once:
    the walk that plans the columns' horizons is the one the fold folds by,
    so every step k of a member's diagonal is taken once."""
    steps = Counter()
    real = chain.diagonal

    def recorded(fam, p_ratio):
        step, member = real(fam, p_ratio), object()

        def counted(k):
            steps[member, k] += 1
            return step(k)
        return counted

    monkeypatch.setattr(chain, "diagonal", recorded)
    catalog.eval_plan({sid: 400 for sid in catalog._DOUBLES})
    assert len({member for member, _ in steps}) == 12
    assert len(steps) > 12 and set(steps.values()) == {1}


@pytest.mark.parametrize("form", sorted(catalog._FAMILIES))
def test_chained_column_steps_are_in_lowest_terms(monkeypatch, form):
    """The one chained column of each family is summed with its ratios in
    lowest terms: A1's and AQ's are plain monomials, -q^(n+1) at level n,
    and A1ALSO's and AQALSO's carry the one divisor 1 + q^(n+1)."""
    fam, applied, real = catalog._FAMILIES[form], [], chain.horner

    def recorded(ratios, *args):
        applied.extend(ratios)
        return real(ratios, *args)

    monkeypatch.setattr(chain, "horner", recorded)
    chain.column(fam.column, fam.k0, 300, fam.bound(fam.k0), 4 * 300 + 64, fam.bound)
    assert len(applied) > 10
    for n, (c, e, num, den) in enumerate(applied, fam.k0):
        assert (c, e, num, den) == (-1, n + 1, (), ((-1, n + 1),) if form.endswith("ALSO") else ()), n


def _at(ratio, q):
    """The ratio (c, e, num, den) at the rational number q."""
    c, e, num, den = ratio
    x = c * q ** e
    for cc, ee in num:
        x *= 1 - cc * q ** ee
    for cc, ee in den:
        x /= 1 - cc * q ** ee
    return x


# g_m / (r_m (1 - u)) of each family's telescoping certificate, at
# x = q^k, u = q^m, a = q^alpha_exp and s = s_k s_(k+1), as proved above
# ``catalog._FAMILIES``
_CERTIFICATES = {
    "A1": lambda q, x, u, a, s: -(1 - x) + x * (1 + q * q * x) * u - q * q * x ** 3 * u * u,
    "AQ": lambda q, x, u, a, s: -(1 - q * x) + q * x * (1 + q * q * x) * u - q ** 4 * x ** 3 * u * u,
    "A1ALSO": lambda q, x, u, a, s: (-s * (1 - a * x - a * x * (1 + q * x + q * q * x) * u + a * a * q * q * x ** 3 * u * u)
                                     / (1 + q * x * u)),
}
_CERTIFICATES["AQALSO"] = _CERTIFICATES["A1ALSO"]


def _column_terms(fam, q):
    """t(k, m), the product of the first m ratios of column k's chain at the
    rational q; s(k), the column scale X_(k+1) / X_k; r(k, m) = t(k, m) /
    (1 - a x) for m >= 1, read with the first numerator binomial of level k,
    1 - a x, left out."""
    def t(k, m):
        return math.prod(_at(fam.column(k, n), q) for n in range(k, k + m))

    def s(k):
        return math.prod(1 - cc * q ** ee for cc, ee in fam.column_scale(k))

    def r(k, m):
        c, e, num, den = fam.column(k, k)
        return _at((c, e, num[1:], den), q) * math.prod(_at(fam.column(k, n), q) for n in range(k + 1, k + m))

    return t, s, r


@pytest.mark.parametrize("form, alpha_exp", [("A1", 0), ("AQ", 1), ("A1ALSO", 0), ("AQALSO", 1)])
def test_relation_telescopes_on_the_column_terms(form, alpha_exp):
    """The catalog's proof of the relation, checked at rational q from
    k = k0 - 1 on: the terms t_m(k) of column k's chain (products of
    ``column`` ratios), with A_k's signed terms and B_k read from
    ``relation(k)`` and s_k from ``column_scale(k)``, satisfy
    s_k s_(k+1) t_m(k) - A_k s_(k+1) t_m(k+1) - B_k t_m(k+2) = g_(m+1) - g_m,
    g_m = (1 - u) r_m times the family's certificate, r_m = t_m(k) / (1 - ax)
    with the factor 1 - ax cancelled, so that k = k0 - 1, where ax = 1,
    is covered too."""
    fam, certificate = catalog._FAMILIES[form], _CERTIFICATES[form]
    assert fam.column(fam.k0, fam.k0)[2][0] == (1, fam.k0 + alpha_exp)  # the binomial 1 - ax
    for q in (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7)):
        a = q ** alpha_exp
        t, s, r = _column_terms(fam, q)
        for k in range(fam.k0 - 1, fam.k0 + 5):
            x = q ** k
            terms, b, c = fam.relation(k)
            big_a, big_b = sum(sign * q ** e for sign, e in terms), q ** b * (1 - q ** c)

            def g(m):  # g_0 = 0 by its factor 1 - u
                u = q ** m
                return 0 if m == 0 else (1 - u) * certificate(q, x, u, a, s(k) * s(k + 1)) * r(k, m)

            for m in range(12):
                lhs = s(k) * s(k + 1) * t(k, m) - big_a * s(k + 1) * t(k + 1, m) - big_b * t(k + 2, m)
                assert lhs == g(m + 1) - g(m), (q, k, m)


@pytest.mark.parametrize("form", sorted(catalog._FAMILIES))
def test_column_below_the_first_is_its_constant(form):
    """U_(k0-1), which the first derived column reads, is ``u_below``: at
    rational q the chain of column k0 - 1 is 1, each later term holding the
    factor 1 - ax = 0, and its scale is X_(k0-1) = X_k0 / s_(k0-1), so
    U_(k0-1) = s_(k0-1) / X_k0: 1, and 2 for AQALSO, whose s_(-1) = 1 + q^0."""
    fam = catalog._FAMILIES[form]
    k = fam.k0 - 1
    for q in (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7)):
        t, s, _ = _column_terms(fam, q)
        assert [t(k, m) for m in range(12)] == [1] + [0] * 11
        assert sum(t(k, m) for m in range(12)) * s(k) / math.prod(s(j) for j in range(fam.k0)) == fam.u_below


_PIPELINE_PAIRS = sorted({catalog.pipeline(sid)[:2] for sid in catalog._DOUBLES})


def _stepped_alpha(stepped, n, order):
    """q^(u(n)) alpha_n from its closed form, one series operation at a time."""
    f = LaurentSeries.from_items(stepped.alpha_items(n), None)
    if stepped.rel == "q":
        f = f.div_binomial(1, 1, order=order)
    return f.mul_monomial(1, stepped.u(n)).truncate(order)


def _beta(pair, m, order):
    """beta_m of a catalog pair from its closed form, one series operation at a time."""
    if m < pair.beta_first:
        return LaurentSeries.zero(order)
    f = LaurentSeries.monomial(-1 if m % 2 else 1, pair.beta_exp(m), None)
    for cc, ee in pair.beta_num(m):
        f = f.mul_binomial(cc, ee)
    for cc, ee in pair.beta_den(m):
        f = f.div_binomial(cc, ee, order=order)
    return f


def _stepped_p_ratio(stepped):
    """P_(k+1) / P_k of P_k = q^(u(k)) beta_k, the quotient of the two closed
    forms with the binomials they share dropped here, as multisets:
    u(k + 1) - u(k) is 2k + 1, plus 1 for a = q."""
    u = 2 if stepped.rel == "q" else 1

    def p_ratio(k):
        e = stepped.beta_exp(k + 1) - stepped.beta_exp(k) + 2 * k + u
        num = Counter(stepped.beta_num(k + 1) + stepped.beta_den(k))
        den = Counter(stepped.beta_den(k + 1) + stepped.beta_num(k))
        return -1, e, tuple((num - den).elements()), tuple((den - num).elements())

    return p_ratio


@pytest.mark.parametrize("sid", sorted(catalog._DOUBLES))
def test_pipeline_is_the_acceptance_row(sid):
    label, form_id, scale, const = PIPELINES[sid]
    assert catalog.pipeline(sid) == catalog.pipeline(sid.lower()) == (label, form_id, const)
    # the gate scales limit_form's star value back to the doubled series
    assert scale == (2 if catalog._FAMILIES[form_id].starred else 1)


@pytest.mark.parametrize("sid", ["SIGMA", "Z2", "Z3", "Z4", "Z5"])
def test_pipeline_rejects_a_single_sum(sid):
    with pytest.raises(UnknownId, match=f"{sid} is not a double sum"):
        catalog.pipeline(sid)


@pytest.mark.parametrize("sid", sorted(catalog._DOUBLES))
def test_double_table_matches_its_pipeline(sid):
    """Each id's seed and P-ratio, transcribed apart from ``bailey``, agree
    with its limit form's weight seed and with the ratio of its stepped
    pair's closed forms (k0, the S ratio and the star flag are the form's
    own, one record for both).

    The pair's P_k = q^(u(k)) beta_k is a monomial whose exponent is
    quadratic in k times runs of binomials whose ends are affine in k, so
    every entry of P_(k+1) / P_k in lowest terms (``p_ratio``) is affine in
    k.  Each entry of the catalog's ratio is checked against the line
    through its values at two small n, at n = 10**3 and 10**6: an entry that
    bends only past the first 200 n, such as a floor division by a large
    constant, fails there.  Two affine maps that agree at two n agree at
    every n, and the two here agree, once the catalog's is reduced, at every
    n from k0 to 199.  Below k0 no sum reads a ratio, and an a = 1 pair's
    P_0 is 0.  So the catalog sum is the pipeline's beta side at every
    order, and ``verify`` does not sum that side again."""
    form_id, label, _ = catalog._DOUBLES[sid]
    fam, p_ratio = catalog._FAMILIES[form_id], catalog._P_RATIOS[label]
    stepped = bailey.bailey_step(bailey.pair_catalog(label))
    base, k0, (wc, we) = stepped, fam.k0, fam.w_seed
    seed = (-wc if k0 % 2 else wc, we + stepped.u(k0) + base.beta_exp(k0),
            tuple(base.beta_num(k0)), tuple(base.beta_den(k0)))
    assert (fam.c0, fam.e0, (), ((1, 1),)) == seed
    for n in range(k0, 200):
        assert chain.cancel(p_ratio(n)) == stepped.p_ratio(n), n

    def entries(n):
        c, e, num, den = p_ratio(n)
        return (len(num), len(den)), (c, e, *(x for b in num + den for x in b))

    (shape, low), (_, high) = entries(k0 + 1), entries(k0 + 2)
    for n in (10**3, 10**6):
        assert entries(n) == (shape, tuple(a + (n - k0 - 1) * (b - a) for a, b in zip(low, high))), n


def test_one_s_ratio_feeds_the_catalog_and_the_beta_side(monkeypatch):
    """A slip in A1's S ratio at n = 3 moves both L1 and the beta side of
    its pipeline, and the alpha side, which reads no S ratio, catches it."""
    stepped, order = bailey.bailey_step(bailey.pair_catalog("P2A")), 120
    l1, (lhs, rhs) = eval_named("L1", order), bailey.limit_form(stepped, "A1", order)
    family = catalog._FAMILIES["A1"]

    def slipped(n):
        c, e, num, den = family.s_ratio(n)
        return c, e + (n == 3), num, den

    monkeypatch.setitem(catalog._FAMILIES, "A1", family._replace(s_ratio=slipped))
    bad_lhs, bad_rhs = bailey.limit_form(stepped, "A1", order)
    assert eval_named("L1", order) != l1
    assert bad_lhs != lhs and bad_rhs == rhs and bad_lhs != bad_rhs


@pytest.mark.parametrize("form", sorted(catalog._FAMILIES))
def test_family_members_in_any_order_match_eval_named(form):
    """The double sums of one family share their columns; in every order and
    at their own horizons each is the one ``eval_named`` gives alone, so no
    member's fold changes a column another member reads."""
    ids = [sid for sid, (fam, _, _) in catalog._DOUBLES.items() if fam == form]
    orders = dict(zip(ids, (97, 150, 61, 120)))
    want = {sid: shape(eval_named(sid, h)) for sid, h in orders.items()}
    for perm in itertools.permutations(ids):
        got = catalog._family_sums(form, {sid: orders[sid] for sid in perm})
        assert list(got) == list(perm)
        assert {sid: shape(f) for sid, f in got.items()} == want


@pytest.mark.parametrize("sid", catalog_ids())
@pytest.mark.parametrize("order", [0, 1, 200])
def test_eval_named_returns_a_list_of_its_own(sid, order):
    """The series adopts the list its chain built: a single sum's innermost
    head is a fresh [1], a fold's is a slice of a column, so no result
    shares a list with another call's, nor one family member's with
    another's."""
    f, g = eval_named(sid, order), eval_named(sid, order)
    assert f.coeffs is not g.coeffs
    before = (f.offset, list(f.coeffs), f.order)
    g.coeffs[:0] = [5]
    g.coeffs.append(1)
    assert (f.offset, f.coeffs, f.order) == before
    assert shape(eval_named(sid, order)) == shape(f)
    if sid in catalog._DOUBLES:
        form = catalog._DOUBLES[sid][0]
        members = catalog._family_sums(form, {m: order for m, row in catalog._DOUBLES.items() if row[0] == form})
        assert len({id(m.coeffs) for m in members.values()}) == len(members)


def _alpha_by_terms(stepped, form, order):
    def terms():
        n = form.k0
        while True:
            yield _apply(_stepped_alpha(stepped, n, order), order, form.rhs_term(n))
            n += 1

    total = star_sum(terms(), order) if form.starred else classical_sum(terms(), order)
    if stepped.rel == "q":  # cancels the global 1/(1 - q) of alpha_n
        total = total.mul_binomial(1, 1)
    return total


@pytest.mark.parametrize("label, form_id", _PIPELINE_PAIRS)
@pytest.mark.parametrize("order", [0, 7, 60, 300])
def test_stepped_rows_match_term_by_term(label, form_id, order):
    stepped = bailey.bailey_step(bailey.pair_catalog(label))
    form = catalog._FAMILIES[form_id]
    base, k0 = stepped, form.k0
    wc, we = form.w_seed
    seed = _beta(base, k0, order).mul_monomial(wc, we + stepped.u(k0)).truncate(order)
    want = _oracle_sum(seed, order, k0, _stepped_p_ratio(stepped), form.s_ratio, form.starred)
    lhs, rhs = bailey.limit_form(stepped, form_id, order)
    assert shape(lhs) == shape(want)
    alpha = _alpha_by_terms(stepped, form, order)
    assert shape(bailey.alpha_side(stepped, form_id, order)) == shape(alpha)
    assert shape(rhs) == shape(alpha.scale(Fraction(1, 2)) if form.starred else alpha)


binomials = st.tuples(st.sampled_from([1, -1]), st.integers(min_value=1, max_value=12))


def ratios(min_exponent=0):
    return st.tuples(
        st.sampled_from([1, -1, 2, 0]),
        st.integers(min_value=min_exponent, max_value=6),
        st.lists(binomials, max_size=2).map(tuple),
        st.lists(binomials, max_size=2).map(tuple),
    )


def _listed(items, k0, tail):
    return lambda j: items[j - k0] if j - k0 < len(items) else tail


_STOP = (0, 0, (), ())


def _direct(s_ratio):
    """The column ratio rho_k(n) = s_ratio(n) / (1 - q^(n+1-k)) of the terms T(n, k)."""
    def column(k, n):
        c, e, num, den = s_ratio(n)
        return c, e, num, den + ((1, n + 1 - k),)
    return column


def _family(k0, s_ratio):
    """A family of double sums with S ratio ``s_ratio`` from row ``k0``,
    its columns summed term by term (``_direct``), and a valuation bound
    of 0, which no term of a seed with exponent >= 0 can fall below.  It
    keeps A1's relation, which its columns need not obey, so its sums are
    built from ``chain.column``, ``chain.chain`` and ``chain.seeded``
    (``_synthetic_sum``), not by ``chain.columns``."""
    return catalog._FAMILIES["A1"]._replace(name="TEST", k0=k0, s_ratio=s_ratio, column=_direct(s_ratio),
                                            bound=lambda n: 0)


def _synthetic_sum(fam, order, seed, p_ratio):
    """The double sum of ``fam`` through q**order with first term ``seed``,
    every column summed by its own chain at the horizon its fold level needs."""
    cap = 4 * order + 64

    def fold(h, v):
        def column(k, hk):
            return chain.column(fam.column, k, hk, 0, cap, fam.bound)
        return chain.chain(chain.walk(chain.diagonal(fam, p_ratio), fam.k0, h, v, cap), column)

    return chain.seeded(seed, order, fold)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["single", "double", "family", "column"]),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=3),
    ratios().filter(lambda r: r[0] != 0),
    st.lists(ratios(), max_size=4),
    st.tuples(st.sampled_from(sorted(catalog._FAMILIES)), st.integers(min_value=1, max_value=40),
              st.integers(min_value=0, max_value=150)),
    st.lists(ratios(), max_size=4),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), ratios(), st.lists(ratios(), max_size=4)),
        max_size=2,
    ),
)
def test_ratio_sum_matches_term_by_term_for_any_ratios(mode, order, k0, seed, ss, form_k_h, ps, others):
    # listed ratios, then a 0 multiplier ends each chain.  "double": double
    # sums of an arbitrary S ratio, ``others`` with their own order, seed and
    # P-ratios among them, every column summed by its chain (``chain.column``)
    # term by term (``_direct``) and folded by ``chain.chain``.  "family": the
    # same members summed together by ``chain.ratio_sum`` on a catalog family,
    # one chained column shared by all and the rest derived, its bound
    # relaxed to 0 for the arbitrary seeds.  "column": a column of a family
    # at a random k and horizon against its direct S-ratio column.  Each sum
    # is checked against its own terms.
    form, k, h = form_k_h
    if mode == "column":
        k = max(k, catalog._FAMILIES[form].k0)
        assert _catalog_column(form, k, h) == _direct_column(form, k, h)
        return
    start = _apply(LaurentSeries.one(order), order, seed)
    if mode == "single":
        s_ratio = _listed(ss, k0, _STOP)
        want, n, term = LaurentSeries.zero(order), k0, start
        while not term.is_zero():
            want = want + term
            term = _apply(term, order, s_ratio(n))
            n += 1
        got = chain.seeded(
            seed, order, lambda h, v: chain.chain(chain.walk(s_ratio, k0, h, v, 4 * order + 64)))
        assert shape(got) == shape(want)
        return
    members = [(order, seed, ps)] + others
    if mode == "double":
        fam = _family(k0, _listed(ss, k0, _STOP))
        got = [_synthetic_sum(fam, o, sd, _listed(p, k0, _STOP)) for o, sd, p in members]
    else:
        fam = catalog._FAMILIES[form]._replace(bound=lambda n: 0)
        got = chain.ratio_sum(fam, [chain.Member(o, sd, _listed(p, fam.k0, _STOP)) for o, sd, p in members])
    for (o, sd, p), f in zip(members, got):
        start = _apply(LaurentSeries.one(o), o, sd)
        want = _oracle_sum(start, o, fam.k0, _listed(p, fam.k0, _STOP), fam.s_ratio, fam.starred)
        assert shape(f) == shape(want.scale(2) if fam.starred else want)


@pytest.mark.parametrize("negative", ["p_ratio", "s_ratio", "seed", "single"])
def test_ratio_sum_rejects_negative_exponent(monkeypatch, negative):
    ratio = {"p_ratio": (1, 1, (), ()), "s_ratio": (1, 1, (), ()), "seed": (1, 0, (), ()), "single": (1, 1, (), ())}
    ratio[negative] = (1, -1, (), ())
    with pytest.raises(InvariantViolation, match="negative monomial exponent"):
        if negative == "single":  # SIGMA's row with its ratio replaced
            monkeypatch.setitem(catalog._SINGLES, "SIGMA", ((0, (1, 0, (), ()), lambda n: ratio["single"]), lambda n: 0))
            eval_named("SIGMA", 10)
        else:
            chain.ratio_sum(_family(0, lambda n: ratio["s_ratio"]),
                            [chain.Member(10, ratio["seed"], lambda k: ratio["p_ratio"])])


@pytest.mark.parametrize("sid", sorted(HEADS))
def test_eval_named_repeats(sid):
    assert shape(eval_named(sid, 50)) == shape(eval_named(sid, 50))
