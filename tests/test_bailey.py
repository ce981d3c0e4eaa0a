"""Pair catalog: defining relation, iteration step, limit transforms."""

import re
import sys
from dataclasses import replace
from operator import add

import pytest

import qrds.bailey as bailey
import qrds.catalog as catalog
import qrds.series as series
from qrds.bailey import (
    alpha_side,
    bailey_step,
    limit_form,
    pair_catalog,
    pair_labels,
    verify_pair_relation,
)
from qrds.catalog import eval_named
from qrds.errors import Beta0NotZero, FormPairMismatch, UnknownId, UnknownPair
from qrds.series import LaurentSeries, apply_binomials_into, first_mismatch
from qrds.verify import verify_all

from test_acceptance import PIPELINES  # the acceptance gate's own pipeline rows

ALL_PAIRS = ("BK1", "BK2", "P1A", "P1B", "P2A", "P2B", "P3A", "P3B")
ALL_FORMS = ("A1", "A1ALSO", "AQ", "AQALSO")


def test_labels():
    assert pair_labels() == ALL_PAIRS
    assert tuple(sorted(catalog._FAMILIES)) == ALL_FORMS
    assert pair_catalog("p2a").label == "P2A"
    assert pair_catalog(" p3b ") is pair_catalog("P3B")
    with pytest.raises(UnknownPair, match="^\"unknown Bailey pair 'P9X'\"$"):
        pair_catalog("P9X")


def level_items(level, through: int) -> list:
    v, buf = level
    return [(v + i, c) for i, c in enumerate(buf) if c and v + i <= through]


def beta_level(pair, m: int, order: int):
    items = [(pair.beta_exp(m), -1 if m % 2 else 1)] if m >= pair.beta_first else []
    return bailey._level(items, pair.beta_num(m), pair.beta_den(m), order)


def test_frozen_alpha_values():
    p2a = pair_catalog("P2A")
    assert bailey._level(p2a.alpha_items(0), (), (), 40) == (41, [])
    assert level_items(bailey._level(p2a.alpha_items(1), (), (), 40), 10) == [(0, -1), (2, 1)]
    assert level_items(bailey._level(p2a.alpha_items(2), (), (), 40), 10) == [(-1, 1), (0, 1), (3, -1), (4, -1)]
    # a = q pairs carry a global 1/(1-q)
    p2b = pair_catalog("P2B")
    assert bailey._level(p2b.alpha_items(0), (), ((1, 1),), 8) == (0, [1] * 9)


def test_frozen_beta_values():
    p2a = pair_catalog("P2A")
    assert p2a.beta_first == 1 and beta_level(p2a, 0, 10) == (11, [])
    assert beta_level(p2a, 1, 8) == (0, [-1] * 9)  # -1/(1-q)
    p2b = pair_catalog("P2B")
    assert beta_level(p2b, 0, 8) == (0, [1] * 9)  # 1/(1-q)
    # 1/((1-q^2)(1-q^3)): partitions into parts 2 and 3
    bk1 = pair_catalog("BK1")
    assert level_items(beta_level(bk1, 2, 7), 7) == [(0, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 2), (7, 1)]
    # a level is exact through its order, with int coefficients
    v, buf = beta_level(bk1, 3, 30)
    assert len(buf) == 31 - v and all(type(c) is int for c in buf)


def _apply_ratio(f: LaurentSeries, ratio, order: int) -> LaurentSeries:
    c, e, num, den = ratio
    g = f * LaurentSeries.monomial(c, e, None)
    for cc, ee in num:
        g = g.mul_binomial(cc, ee)
    for cc, ee in den:
        g = g.div_binomial(cc, ee, order=order)
    return g


@pytest.mark.parametrize("label", ALL_PAIRS)
def test_beta_ratio_matches_closed_form(label):
    # the beta ratio p_ratio(k) maps P_k = q^(u(k)) beta_k, read off the
    # closed forms here, to P_(k+1), base and stepped, in lowest terms; each
    # k is checked through q^200 and through 200 past P_(k+1)'s exponent
    def p(pair, m, order):
        v, buf = beta_level(pair, m, order - pair.u(m))
        return LaurentSeries(v + pair.u(m), buf, order)

    for pair in (pair_catalog(label), bailey_step(pair_catalog(label))):
        for k in range(pair.beta_first, 41):
            c, e, num, den = ratio = pair.p_ratio(k)
            order = max(200, pair.u(k + 1) + pair.beta_exp(k + 1) + 200)
            got = _apply_ratio(p(pair, k, order - min(e, 0)), ratio, order)
            assert got.truncate(order) == p(pair, k + 1, order), (pair.label, k)
            assert c == -1 and not set(num) & set(den), (pair.label, k)


@pytest.mark.parametrize("label", ALL_PAIRS)
def test_pair_relation(label):
    assert verify_pair_relation(pair_catalog(label), n_max=10, order=80) == []


@pytest.mark.parametrize("label", ("P2A", "BK2", "P1B"))
def test_stepped_pair_relation(label):
    stepped = bailey_step(pair_catalog(label))
    assert verify_pair_relation(stepped, n_max=8, order=60) == []


def test_stepped_alpha_shift():
    # alpha'_n = a^n q^(n^2) alpha_n, here a = 1
    stepped = bailey_step(pair_catalog("P2A"))
    shifted = [(e + stepped.u(1), c) for e, c in stepped.alpha_items(1)]
    assert level_items(bailey._level(shifted, (), (), 40), 10) == [(1, -1), (3, 1)]


def _with_alpha_item(pair, n0, extra):
    alpha = pair.alpha_items
    return replace(pair, alpha_items=lambda m: alpha(m) + (extra if m == n0 else []))


@pytest.mark.parametrize("step", [False, True], ids=["base", "stepped"])
def test_relation_catches_a_corrupted_alpha_item(step):
    # one extra monomial in one alpha_n breaks the relation from that n on,
    # located at its exponent (shifted by u(n) in the stepped pair)
    p2a = _with_alpha_item(pair_catalog("P2A"), 3, [(4, 1)])
    p3b = _with_alpha_item(pair_catalog("P3B"), 2, [(2, -1)])
    if step:
        p2a, p3b = bailey_step(p2a), bailey_step(p3b)
    failures = verify_pair_relation(p2a, n_max=6, order=40)
    assert [n for n, _ in failures] == [3, 4, 5, 6]
    assert failures[0] == ((3, (13, -29, -28)) if step else (3, (4, -6, -5)))
    failures = verify_pair_relation(p3b, n_max=4, order=30)
    want = [(2, (8, 13, 12)), (3, (8, 19, 18))] if step else [(2, (2, 6, 5)), (3, (2, -20, -21))]
    assert failures[:2] == want
    assert all(type(x) is int for _, mm in failures for x in mm)


def relation_oracle(pair, n_max: int, order: int) -> list:
    """The pair relation checked term by term, unscaled: one int list per
    alpha_k (and per beta_k for a stepped pair), divided in place by the two
    new Pochhammer factors as n advances, and the lists summed at every n."""
    base, u = pair, pair.u
    a_exp = 0 if pair.rel == "1" else 1

    def total(levels):
        lo = min(v for v, _ in levels)
        out = [0] * (order + 1 - lo)
        for v, buf in levels:
            out[v - lo:] = map(add, out[v - lo:], buf)
        return LaurentSeries(lo, out, order)

    alphas, betas, failures = [], [], []
    for n in range(n_max + 1):
        for k, (_, buf) in enumerate(alphas):
            apply_binomials_into(buf, (), ((1, n - k),), len(buf))
            apply_binomials_into(buf, (), ((1, a_exp + n + k),), len(buf))
        den = [(1, a_exp + i) for i in range(1 - a_exp, 2 * n + 1)]  # (aq)_{2n}, and 1 - q for a = q
        alphas.append(bailey._level([(e + u(n), c) for e, c in base.alpha_items(n)], (), den, order))
        items = [(base.beta_exp(n) + u(n), -1 if n % 2 else 1)] if n >= base.beta_first else []
        beta = bailey._level(items, base.beta_num(n), base.beta_den(n), order)
        if not pair.stepped:
            betas = [beta]
        else:
            for k, (_, buf) in enumerate(betas):
                apply_binomials_into(buf, (), ((1, n - k),), len(buf))
            betas.append(beta)
        mm = first_mismatch(total(betas), total(alphas), through=order)
        if mm is not None:
            failures.append((n, mm))
    return failures


def _with_beta_den(pair, m0, extra):
    den = pair.beta_den
    return replace(pair, beta_den=lambda m: den(m) + (extra if m == m0 else []))


def _with_beta_exp_raised(pair, m0):
    exp = pair.beta_exp
    return replace(pair, beta_exp=lambda m: exp(m) + (m == m0))


MUTANTS = {
    "none": lambda p: p,
    "alpha@3": lambda p: _with_alpha_item(p, 3, [(4, 1)]),
    "alpha@5": lambda p: _with_alpha_item(p, 5, [(-3, -1)]),
    "beta_den@4": lambda p: _with_beta_den(p, 4, [(1, 3)]),
    "beta_exp@2": lambda p: _with_beta_exp_raised(p, 2),
    # below every alpha'_k with k < 4 (test_low_alpha_item_lies_below_every_earlier_alpha),
    # so the Horner sum grows at its front at k = 4
    "alpha@4_low": lambda p: _with_alpha_item(p, 4, [(-40, 1)]),
    # the Horner sum of an a = 1 pair starts from a nonzero alpha_0
    "alpha@0": lambda p: _with_alpha_item(p, 0, [(1, 1)]),
}
SIZES = [(8, 60)] + [(n_max, order) for order in (0, 1, 3) for n_max in (0, 1, 6)]


@pytest.mark.parametrize("step", [False, True], ids=["base", "stepped"])
@pytest.mark.parametrize("label", ALL_PAIRS)
def test_relation_matches_its_oracle(label, step):
    # the scaled Horner check and the term-by-term oracle give the same
    # failure list, mutant by mutant and size by size
    for name, mutate in MUTANTS.items():
        pair = mutate(pair_catalog(label))
        if step:
            pair = bailey_step(pair)
        for n_max, order in SIZES:
            failures = verify_pair_relation(pair, n_max=n_max, order=order)
            assert failures == relation_oracle(pair, n_max, order), (name, n_max, order)
        if name != "none":
            assert verify_pair_relation(pair, n_max=8, order=60), name  # every mutant is seen


@pytest.mark.parametrize("step", [False, True], ids=["base", "stepped"])
@pytest.mark.parametrize("label", ALL_PAIRS)
def test_low_alpha_item_lies_below_every_earlier_alpha(label, step):
    pair = MUTANTS["alpha@4_low"](pair_catalog(label))
    if step:
        pair = bailey_step(pair)
    low = min(e for e, _ in pair.alpha_items(4)) + pair.u(4)
    assert all(low < e + pair.u(k) for k in range(4) for e, _ in pair.alpha_items(k))


@pytest.mark.parametrize("step", [False, True], ids=["base", "stepped"])
@pytest.mark.parametrize("label", ALL_PAIRS)
def test_relation_catches_a_corrupted_beta_factor(label, step):
    # one extra denominator binomial in beta_4 breaks beta_4 alone, so the
    # base relation fails at n = 4 only; a stepped beta'_n sums every beta_k
    # with k <= n, so the stepped relation fails from n = 4 on
    pair = _with_beta_den(pair_catalog(label), 4, [(1, 3)])
    if step:
        pair = bailey_step(pair)
    failures = verify_pair_relation(pair, n_max=8, order=60)
    assert [n for n, _ in failures] == ([4, 5, 6, 7, 8] if step else [4])
    assert failures == relation_oracle(pair, 8, 60)


def test_one_slip_in_a_beta_closed_form_fails_both_readers(monkeypatch):
    # beta_exp one too high at m = 4: the relation of the stepped pair fails
    # from n = 4 on, and the limit form's beta side, which chains the ratios
    # of the same closed forms, leaves its alpha side
    monkeypatch.setitem(bailey._PAIRS, "P2A", _with_beta_exp_raised(pair_catalog("P2A"), 4))
    stepped = bailey_step(pair_catalog("P2A"))
    assert [n for n, _ in verify_pair_relation(stepped, n_max=8, order=300)] == [4, 5, 6, 7, 8]
    lhs, rhs = limit_form(stepped, "A1", 300)
    assert lhs != rhs


def test_relation_needs_a_catalog_pair():
    with pytest.raises(TypeError):
        verify_pair_relation(object(), n_max=2, order=10)
    with pytest.raises(TypeError, match="needs a catalog pair or a stepped one, got 'BK1'$"):
        verify_pair_relation("BK1", n_max=-1, order=-1)  # the type is checked first
    # a twice-stepped pair cannot be built, so the relation never sees one
    with pytest.raises(TypeError, match=r"needs a catalog pair, got BaileyPair\(label='P2A\*'"):
        bailey_step(bailey_step(pair_catalog("P2A")))


@pytest.mark.parametrize("step", [False, True], ids=["base", "stepped"])
@pytest.mark.parametrize("n_max, order, msg", [
    (-1, 10, "n_max must be >= 0"),
    (2, -1, "order must be >= 0"),  # errors.check_order's own message
    (-1, -1, "n_max must be >= 0"),
])
def test_relation_rejects_negative_arguments(step, n_max, order, msg):
    pair = pair_catalog("P2A")
    with pytest.raises(ValueError, match=f"^{msg}$"):
        verify_pair_relation(bailey_step(pair) if step else pair, n_max=n_max, order=order)


@pytest.mark.parametrize(
    "arg", ["BK1", 42, bailey_step(pair_catalog("P2A"))], ids=["str", "int", "stepped"]
)
def test_step_needs_a_catalog_pair(arg):
    with pytest.raises(TypeError, match=f"needs a catalog pair, got {re.escape(repr(arg))}$"):
        bailey_step(arg)


@pytest.mark.parametrize("label", ALL_PAIRS)
def test_step_only_sets_stepped_and_the_label(label):
    pair = pair_catalog(label)
    stepped = bailey_step(pair)
    assert stepped.label == label + "*" and stepped.stepped and not pair.stepped
    assert replace(stepped, label=pair.label, stepped=False) == pair


def test_step_exponent():
    # u(k) = k^2 for a = 1 and k^2 + k for a = q; 0 before the step
    for label, want in (("P2A", [0, 1, 4, 9, 16]), ("P2B", [0, 2, 6, 12, 20])):
        pair = pair_catalog(label)
        assert [bailey_step(pair).u(k) for k in range(5)] == want
        assert [pair.u(k) for k in range(5)] == [0] * 5


# ------------------------------------------------------------ limit forms

@pytest.mark.parametrize("series_id", sorted(PIPELINES))
def test_pipeline_reproduces_catalog(series_id):
    pair_label, form_id, scale, const = PIPELINES[series_id]
    order = 100
    lhs, rhs = limit_form(bailey_step(pair_catalog(pair_label)), form_id, order)
    assert lhs == rhs, "transform identity"
    got = lhs.scale(scale)
    if const:
        got = got + LaurentSeries.monomial(const, 0, order)
    assert got == eval_named(series_id, order)


@pytest.mark.parametrize("series_id", sorted(PIPELINES))
def test_alpha_side_is_the_catalog_series_less_its_constant(series_id):
    # a starred form's alpha side is written for the doubled sum, as the
    # series is, so no pipeline scales it
    pair_label, form_id, _, const = PIPELINES[series_id]
    for order in (0, 7, 60, 300):
        got = alpha_side(bailey_step(pair_catalog(pair_label)), form_id, order)
        assert all(type(c) is int for c in got.coeffs), order
        assert got.order == order
        assert got + LaurentSeries.monomial(const, 0, order) == eval_named(series_id, order), order


@pytest.mark.parametrize("series_id", ["L7", "L8", "L11", "L12"])
@pytest.mark.parametrize("order", [0, 7, 60, 300])
def test_limit_form_halves_both_starred_sides(series_id, order):
    # limit_form is the form's star value; twice it is the doubled alpha
    # side and the catalog series less its constant
    pair_label, form_id, _, const = PIPELINES[series_id]
    pair = bailey_step(pair_catalog(pair_label))
    lhs, rhs = limit_form(pair, form_id, order)
    assert rhs.scale(2) == alpha_side(pair, form_id, order)
    assert lhs.scale(2) + LaurentSeries.monomial(const, 0, order) == eval_named(series_id, order)


@pytest.mark.parametrize("series_id", sorted(PIPELINES))
def test_alpha_side_returns_a_list_of_its_own(series_id):
    pair_label, form_id, _, _ = PIPELINES[series_id]
    pair = bailey_step(pair_catalog(pair_label))
    f, g = alpha_side(pair, form_id, 200), alpha_side(pair, form_id, 200)
    assert f.coeffs is not g.coeffs
    before = (f.offset, list(f.coeffs), f.order)
    g.coeffs[0] += 1
    g.coeffs.append(1)
    assert (f.offset, f.coeffs, f.order) == before
    assert alpha_side(pair, form_id, 200) == f


def test_form_pair_mismatch():
    for side in (limit_form, alpha_side):
        with pytest.raises(FormPairMismatch):
            side(bailey_step(pair_catalog("P2A")), "AQ", 20)
        with pytest.raises(FormPairMismatch):  # before any sum, whatever the order
            side(bailey_step(pair_catalog("P1B")), "A1ALSO", 0)
        with pytest.raises(FormPairMismatch):
            side(bailey_step(pair_catalog("P2B")), "A1", 20)
        with pytest.raises(UnknownId, match="^\"unknown limit form 'B9'\"$"):
            side(bailey_step(pair_catalog("P2A")), "B9", 20)


@pytest.mark.parametrize("side", [limit_form, alpha_side], ids=["limit_form", "alpha_side"])
def test_limit_form_reads_the_form_first_and_loosely(side):
    # the name is case- and space-insensitive, and read before the pair
    # type and the order are checked
    pair = bailey_step(pair_catalog("P2A"))
    assert side(pair, " a1 ", 20) == side(pair, "A1", 20)
    with pytest.raises(UnknownId, match="unknown limit form 'BOGUS'"):
        side(pair, "BOGUS", -1)
    with pytest.raises(UnknownId, match="unknown limit form 'BOGUS'"):
        side("x", "BOGUS", -1)
    with pytest.raises(TypeError, match="needs a stepped catalog pair, got 'x'$"):
        side("x", "A1", -1)


def test_beta0_must_vanish_for_shifted_forms():
    for side in (limit_form, alpha_side):
        with pytest.raises(Beta0NotZero):
            side(bailey_step(replace(pair_catalog("BK2"), rel="1")), "A1", 20)
        with pytest.raises(Beta0NotZero):  # before any sum, whatever the order
            side(bailey_step(replace(pair_catalog("P1B"), rel="1")), "A1ALSO", 0)


def test_limit_form_needs_stepped_catalog_pair():
    with pytest.raises(TypeError):
        limit_form(pair_catalog("P2A"), "A1", 20)
    # the type is checked before beta_0 is read
    with pytest.raises(TypeError):
        limit_form(replace(pair_catalog("BK2"), rel="1"), "A1", 20)


def test_limit_form_names_a_non_pair():
    with pytest.raises(TypeError, match="got 42$"):
        limit_form(42, "A1", 10)


@pytest.mark.parametrize("order", [-1, -3])
def test_limit_form_rejects_negative_order(monkeypatch, order):
    def refuse(*args, **kwargs):
        raise AssertionError("a side was summed")

    monkeypatch.setattr(bailey, "ratio_sum", refuse)
    monkeypatch.setattr(bailey, "_level", refuse)
    for side in (limit_form, alpha_side):
        with pytest.raises(ValueError, match="^order must be >= 0$"):
            side(bailey_step(pair_catalog("P2A")), "A1", order)


class _StreakSumCalled(Exception):
    pass


def _patch_every_binding(monkeypatch, wrap, *funcs):
    """Set every binding of each of ``funcs`` in a qrds module or class, found
    by identity, to ``wrap(func)``, so no import path gets round the patch."""
    wrapped = {id(f): wrap(f) for f in funcs}
    for name, module in list(sys.modules.items()):
        if name != "qrds" and not name.startswith("qrds."):
            continue
        namespaces = [module] + [
            v for v in vars(module).values() if isinstance(v, type) and v.__module__.startswith("qrds")
        ]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped:
                    monkeypatch.setattr(ns, attr, wrapped[id(value)])


def test_no_engine_path_uses_a_streak_sum(monkeypatch):
    # every binding of classical_sum / star_sum raises: the engine must not
    # reach either of them
    def refuse(*args, **kwargs):
        raise _StreakSumCalled

    _patch_every_binding(monkeypatch, lambda f: refuse, catalog.classical_sum, catalog.star_sum)
    assert catalog.classical_sum is refuse and catalog.star_sum is refuse

    assert all(report.ok for report in verify_all(120))
    done = 0
    for label in ALL_PAIRS:
        for form_id in ALL_FORMS:
            try:
                lhs, rhs = limit_form(bailey_step(pair_catalog(label)), form_id, 60)
            except (FormPairMismatch, Beta0NotZero):
                continue
            assert lhs == rhs, (label, form_id)
            done += 1
    assert done == 16


def test_every_engine_binomial_kernel_call_has_an_int_unit_c(monkeypatch):
    # a binomial is 1 - c * q**e with c the int 1 or -1, and the one list
    # kernel refuses any other c: every binomial the engine passes it must
    # have one of the two
    seen = []

    def record(kernel):
        def recorded(buf, num, den, m):
            seen.extend(c for c, _ in (*num, *den))
            return kernel(buf, num, den, m)
        return recorded

    kernel = series.apply_binomials_into
    _patch_every_binding(monkeypatch, record, kernel)
    assert kernel is not series.apply_binomials_into

    assert all(report.ok for report in verify_all(120))
    for label in ALL_PAIRS:
        for pair in (pair_catalog(label), bailey_step(pair_catalog(label))):
            assert verify_pair_relation(pair, 8, 60) == []
    for sid in catalog.catalog_ids():
        eval_named(sid, 60)
    for sid in sorted(catalog._DOUBLES):
        label, form_id, _ = catalog.pipeline(sid)
        lhs, rhs = limit_form(bailey_step(pair_catalog(label)), form_id, 60)
        assert lhs == rhs, sid
    assert len(seen) > 1000
    assert {(type(c), c) for c in seen} == {(int, 1), (int, -1)}


def test_each_binomial_is_checked_once_per_call(monkeypatch):
    """Every binomial pass goes through ``apply_binomials_into``, which checks
    each of its binomials once, before its first pass, and the pass bodies
    check nothing: over verify_all, a stepped pair relation and a method
    call, ``_check_binomial`` runs once per binomial per call, the kernel's
    and the method's (whose early returns come before any pass)."""
    checks, expected = [0], [0]

    def count_checks(check):
        def counted(c, e):
            checks[0] += 1
            return check(c, e)
        return counted

    def count_binomials(kernel):
        def counted(buf, num, den, m):
            expected[0] += len(num) + len(den)
            return kernel(buf, num, den, m)
        return counted

    def count_method(method):
        def counted(self, c, e, *args):
            expected[0] += 1
            return method(self, c, e, *args)
        return counted

    monkeypatch.setattr(series, "_check_binomial", count_checks(series._check_binomial))
    _patch_every_binding(monkeypatch, count_binomials, series.apply_binomials_into)
    _patch_every_binding(monkeypatch, count_method, LaurentSeries.mul_binomial, LaurentSeries.div_binomial)

    assert all(report.ok for report in verify_all(400))
    assert verify_pair_relation(bailey_step(pair_catalog("P2A")), 15, 200) == []
    f = LaurentSeries(0, [1, 2, 3], 40)
    assert f.div_binomial(-1, 2) == f.mul_binomial(1, 2).div_binomial(1, 4)
    assert expected[0] > 1000
    assert checks[0] == expected[0]
