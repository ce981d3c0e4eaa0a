import math
import random
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qrds.series as series
from qrds.series import LaurentSeries, UnknownCoefficient, apply_binomials_into, first_mismatch


def poly(*items):
    return LaurentSeries.from_items(list(items), None)


def test_constructor_normalizes_and_trims():
    f = LaurentSeries(2, [0, 0, 3, 0, 1, 0, 0], None)
    assert f.offset == 4
    assert f.coeffs == [3, 0, 1]
    assert f.valuation() == 4
    assert f.degree() == 6


def test_constructor_keeps_one_copy_of_its_input():
    """Trimming works on the one owned copy: building a series from a long
    list allocates that list once, not once more for the trimmed slice."""
    for pad in (0, 50):
        raw = [0] * pad + [i % 7 - 3 or 1 for i in range(35_002)] + [0] * pad
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = LaurentSeries(0, raw, 40_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (f.offset, len(f.coeffs)) == (pad, 35_002)
        assert f.coeffs == raw[pad:pad + 35_002]
        assert peak - before < 1.25 * sys.getsizeof(f.coeffs)


def test_constructor_rejects_coefficient_beyond_order():
    with pytest.raises(ValueError):
        LaurentSeries(0, [1, 1, 1], 1)


_ADOPT_CASES = [
    (2, [0, 0, 3, 0, 1, 0, 0], None),  # leading and trailing zeros, exact
    (-3, [0, 5, Fraction(1, 2), 0], 10),
    (4, [0, 0, 0], 9),  # all zero: offset order + 1
    (4, [0, Fraction(0)], None),  # all zero and exact: offset 0
    (0, [], 3),
    (7, [1, -2, 3], None),
]


@pytest.mark.parametrize("offset, co, order", _ADOPT_CASES)
def test_adopt_trims_as_the_constructor_does(offset, co, order):
    want = LaurentSeries(offset, co, order)
    raw = list(co)
    got = LaurentSeries._adopt(offset, raw, order)
    assert got.coeffs is raw  # owned, not copied
    assert (got.offset, got.coeffs, got.order) == (want.offset, want.coeffs, want.order)
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@pytest.mark.parametrize("offset, co, order", [(0, [1, 1, 1], 1), (3, [0, 2, 0, 0], 3), (-2, [0, 0, 1], -1)])
def test_adopt_rejects_a_coefficient_past_the_order_as_the_constructor_does(offset, co, order):
    with pytest.raises(ValueError) as want:
        LaurentSeries(offset, co, order)
    with pytest.raises(ValueError) as got:
        LaurentSeries._adopt(offset, list(co), order)
    assert str(got.value) == str(want.value)


def _owned_results():
    """(name, result, its inputs) for every operation that adopts a list it
    built, and for mul_monomial(1, e), which must copy: scale(1) is the input."""
    f = LaurentSeries(1, [1, -1, 2, 0, 3], 12)
    g = LaurentSeries(0, [4, 1, 0, 0, 0, 0, 5], 9)
    h = LaurentSeries(-1, [Fraction(1, 2), 3], None)
    return [
        ("dilate_shift", f.dilate_shift(3, 2), (f,)),
        ("truncate", f.truncate(3), (f,)),
        ("add", f + g, (f, g)),
        ("mul", f * g, (f, g)),
        ("scale", h.scale(Fraction(2, 3)), (h,)),
        ("mul_binomial", f.mul_binomial(1, 2), (f,)),
        ("mul_binomial c=-1", f.mul_binomial(-1, 1), (f,)),
        ("div_binomial", f.div_binomial(1, 2), (f,)),
        ("div_binomial c=-1", g.div_binomial(-1, 20, order=40), (g,)),
        ("alternate", f.alternate(), (f,)),
        ("mul_monomial", f.mul_monomial(1, 4), (f,)),
    ]


@pytest.mark.parametrize("name", [name for name, _, _ in _owned_results()])
def test_results_own_their_coefficients(name):
    [(_, out, inputs)] = [r for r in _owned_results() if r[0] == name]
    assert all(out.coeffs is not f.coeffs for f in inputs)
    before = (out.offset, list(out.coeffs), out.order)
    for f in inputs:
        f.coeffs[0] += 7
        f.coeffs.append(1)
    assert (out.offset, out.coeffs, out.order) == before


def test_zero_and_empty_conventions():
    z = LaurentSeries.zero(10)
    assert z.is_zero() and z.order == 10 and z.valuation() is None
    assert LaurentSeries.zero(None).order is None


def test_coefficient_beyond_horizon_raises():
    f = LaurentSeries(0, [1, 2], 5)
    assert f.coefficient(1) == 2
    assert f.coefficient(5) == 0
    with pytest.raises(UnknownCoefficient):
        f.coefficient(6)
    # exact polynomials answer everywhere
    assert poly((0, 1)).coefficient(10 ** 6) == 0


def test_binomial_product_identity():
    f = poly((0, 1)).mul_binomial(1, 1).mul_binomial(-1, 1)
    assert f == poly((0, 1), (2, -1))  # (1-q)(1+q) = 1 - q^2


def test_mul_binomial_beyond_horizon_is_identity():
    f = LaurentSeries(0, [1, 1, 1], 2)
    assert f.mul_binomial(1, 3) is f


def test_div_binomial_geometric_series():
    g = LaurentSeries.one().div_binomial(1, 1, order=6)
    assert [g.coefficient(e) for e in range(7)] == [1] * 7
    assert g.order == 6


def test_div_then_mul_binomial_round_trips():
    f = poly((0, 2), (3, -5), (7, 1))
    g = f.div_binomial(1, 2, order=40).mul_binomial(1, 2)
    assert first_mismatch(f, g, through=40) is None


def test_mul_exact_zero_annihilates():
    z = LaurentSeries.zero(None)
    f = LaurentSeries(0, [1, 1], 8)
    assert (z * f).is_zero()
    assert (z * f).order is None


def test_mul_order_is_conservative():
    a = LaurentSeries(0, [1, 1], 5)       # 1 + q + O(q^6)
    b = LaurentSeries(3, [1], 10)         # q^3 + O(q^11)
    assert (a * b).order == 8             # a.order + val(b)
    exact = poly((2, 1))
    assert (exact * exact).order is None


def test_dilate_shift_and_alternate():
    f = poly((1, 1), (2, -3))
    g = f.dilate_shift(4, -2)
    assert dict(g.items()) == {2: 1, 6: -3}
    assert f.alternate() == poly((1, -1), (2, -3))
    assert f.alternate().alternate() == f


def test_dilate_shift_multiplicative():
    rng = random.Random(7)
    for _ in range(25):
        f = LaurentSeries.from_items(
            [(rng.randrange(-4, 9), rng.randrange(-5, 6)) for _ in range(6)], None
        )
        g = LaurentSeries.from_items(
            [(rng.randrange(-4, 9), rng.randrange(-5, 6)) for _ in range(6)], None
        )
        lhs = (f * g).dilate_shift(3, 5)
        rhs = f.dilate_shift(3, 2) * g.dilate_shift(3, 3)
        assert lhs == rhs


def test_truncate_semantics():
    f = poly((0, 1), (4, 2))
    t = f.truncate(2)
    assert t.order == 2 and t.degree() == 0
    assert t.truncate(5) is t  # a wider request cannot add knowledge back
    with pytest.raises(ValueError):
        t.truncate(None)  # and exactness certainly cannot be restored
    assert f.truncate(None) is f


coeffs = st.integers(min_value=-9, max_value=9)
polys = st.builds(
    lambda items: LaurentSeries.from_items(items, None),
    st.lists(st.tuples(st.integers(min_value=-10, max_value=20), coeffs), max_size=10),
)


@settings(max_examples=120, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + LaurentSeries.zero(None) == f
    assert f * LaurentSeries.one() == f
    assert (f + f.scale(-1)).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_equality_tracks_common_horizon(f, g):
    mm = first_mismatch(f, g)
    assert (mm is None) == (f == g)
    if mm is not None:
        e, cf, cg = mm
        assert cf != cg
        assert f.coefficient(e) == cf and g.coefficient(e) == cg


def test_payload_and_csv_shapes():
    f = LaurentSeries.from_items([(-2, Fraction(1, 2)), (3, -4)], 12)
    p = f.to_payload()
    assert p["offset"] == -2 and p["order"] == 12
    assert p["coefficients"] == [
        {"exp": -2, "num": "1", "den": "2"},
        {"exp": 3, "num": "-4", "den": "1"},
    ]
    assert f.to_csv_rows() == [(-2, "1", "2"), (3, "-4", "1")]
    # exact polynomials report their degree as the horizon
    assert poly((5, 1)).to_payload()["order"] == 5


# ------------------------------------------------- kernel against naive loops
#
# Each reference below is the plain per-index loop for its operation.  The
# kernel must match it in offset, order, coefficients and coefficient types,
# and must leave its input untouched.

def _ref_norm(x):
    return int(x) if isinstance(x, Fraction) and x.denominator == 1 else x


def _ref_mul_binomial(f, c, e):
    co = f.coeffs
    n = len(co)
    m = n + e if f.order is None else min(n + e, f.order - f.offset + 1)
    if not co or m <= e:
        return f
    out = co[:m] + [0] * (m - n)
    for i in range(e, m):
        out[i] = out[i] - c * co[i - e]
    return LaurentSeries(f.offset, out, f.order)


def _ref_div_binomial(f, c, e, order):
    if order is None or f.order is not None and f.order < order:
        order = f.order
    if not f.coeffs:
        return LaurentSeries.zero(order)
    m = order - f.offset + 1
    if m <= 0:
        return LaurentSeries.zero(order)
    out = f.coeffs[:m] + [0] * (m - len(f.coeffs))
    for i in range(e, m):
        out[i] = out[i] + c * out[i - e]
    return LaurentSeries(f.offset, out, order)


def _ref_add(f, g):
    orders = [h.order for h in (f, g) if h.order is not None]
    order = min(orders) if orders else None
    acc = {}
    for h in (f, g):
        for i, c in enumerate(h.coeffs):
            x = h.offset + i
            if order is None or x <= order:
                acc[x] = acc[x] + c if x in acc else c
    if not acc:
        return LaurentSeries.zero(order)
    lo, hi = min(acc), max(acc)
    return LaurentSeries(lo, [acc.get(x, 0) for x in range(lo, hi + 1)], order)


def _ref_mul_monomial(f, c, e):
    order = None if f.order is None else f.order + e
    if not c:
        return LaurentSeries.zero(order)
    return LaurentSeries(f.offset + e, [_ref_norm(c * x) for x in f.coeffs], order)


def _ref_dilate_shift(f, t, s):
    order = None if f.order is None else t * f.order + s
    if not f.coeffs:
        return LaurentSeries.zero(order)
    out = [0] * ((len(f.coeffs) - 1) * t + 1)
    for i, c in enumerate(f.coeffs):
        if c:
            out[i * t] = c
    return LaurentSeries(t * f.offset + s, out, order)


def shape(f):
    return (f.offset, f.order, [(type(c), c) for c in f.coeffs])


mixed_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from([1, 2, 3])),
)


@st.composite
def horizon_series(draw):
    """Exact series, or one truncated at a horizon that may cut into it."""
    offset = draw(st.integers(min_value=-10, max_value=10))
    co = draw(st.lists(st.one_of(coeffs, mixed_coeffs), max_size=25))
    f = LaurentSeries(offset, co, None)
    if draw(st.booleans()):
        return f
    return f.truncate(draw(st.integers(min_value=offset - 3, max_value=offset + len(co) + 15)))


# a binomial is 1 - c * q**e with c the int 1 or -1 (any other c raises)
multipliers = st.sampled_from([1, -1])
# up to past every series length, so c = 1 meets both the strided
# (e*e <= 4*m) and the block-wise route of div_binomial, and c = -1 both
# sides of _NEG_BLOCK_MIN_E
exponents = st.integers(min_value=1, max_value=80)


def _check_kernel(op, ref, *operands):
    before = [shape(f) for f in operands]
    assert shape(op()) == shape(ref())
    assert [shape(f) for f in operands] == before


@settings(max_examples=300, deadline=None)
@given(horizon_series(), multipliers, exponents)
def test_mul_binomial_matches_naive_loop(f, c, e):
    _check_kernel(lambda: f.mul_binomial(c, e), lambda: _ref_mul_binomial(f, c, e), f)


@settings(max_examples=300, deadline=None)
@given(horizon_series(), multipliers, exponents,
       st.one_of(st.none(), st.integers(min_value=-12, max_value=60)))
def test_div_binomial_matches_naive_loop(f, c, e, order):
    if order is None and f.order is None:
        if f.is_zero():
            assert f.div_binomial(c, e).is_zero()
        else:
            with pytest.raises(ValueError):
                f.div_binomial(c, e)
        return
    _check_kernel(lambda: f.div_binomial(c, e, order=order), lambda: _ref_div_binomial(f, c, e, order), f)


@settings(max_examples=300, deadline=None)
@given(horizon_series(), horizon_series())
def test_add_matches_naive_loop(f, g):
    _check_kernel(lambda: f + g, lambda: _ref_add(f, g), f, g)


@settings(max_examples=300, deadline=None)
@given(horizon_series(), st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2)]),
       st.integers(min_value=-20, max_value=20))
def test_mul_monomial_matches_naive_loop(f, c, e):
    _check_kernel(lambda: f.mul_monomial(c, e), lambda: _ref_mul_monomial(f, c, e), f)


def _ref_scale(f, c):
    """The per-coefficient path: each product, an int wherever it is
    integral, by every multiplier, 1 included."""
    out = []
    for x in f.coeffs:
        y = c * x
        out.append(int(y) if isinstance(y, Fraction) and y.denominator == 1 else y)
    return LaurentSeries(f.offset, out, f.order)


@settings(max_examples=300, deadline=None)
@given(horizon_series(), st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3)]))
def test_scale_matches_naive_loop(f, c):
    # an int multiplier over int coefficients takes one map; a Fraction
    # anywhere, stored with denominator 1 included, takes the per-coefficient path
    _check_kernel(lambda: f.scale(c), lambda: _ref_scale(f, c), f)


@pytest.mark.parametrize("c", [1, 2, Fraction(1), Fraction(2)])
def test_scale_gives_an_int_wherever_integral_for_every_multiplier(c):
    """A stored Fraction(1, 1) comes out an int under every integral
    multiplier, 1 included; int coefficients under the multiplier 1 give
    the series itself."""
    f = LaurentSeries(0, [Fraction(1, 1), Fraction(1, 3)], 5).scale(c)
    assert [(type(x), x) for x in f.coeffs] == [(int, c), (Fraction, Fraction(c, 3))]
    g = LaurentSeries(0, [1, 2], 5)
    assert g.scale(c) is g if c == 1 else [(type(x), x) for x in g.scale(c).coeffs] == [(int, c), (int, 2 * c)]


@pytest.mark.parametrize("c", [-1, 1, 2, Fraction(1, 2)])
def test_mul_monomial_gives_an_int_wherever_integral(c):
    """``mul_monomial`` is ``scale`` moved by e: a stored Fraction(1, 1) comes
    out an int wherever its product with c is integral, c = -1 included."""
    f = LaurentSeries(0, [Fraction(1, 1), Fraction(1, 3)], 5).mul_monomial(c, 2)
    assert (f.offset, f.order) == (2, 7)
    assert [(type(x), x) for x in f.coeffs] == [(int if c == int(c) else Fraction, c), (Fraction, Fraction(c, 3))]
    g = LaurentSeries(0, [1, 2], 5).mul_monomial(c, 0)
    assert [(type(x), x) for x in g.coeffs] == [(int if c == int(c) else Fraction, c), (int, 2 * c)]


def _no_stored_fraction_zero(f):
    return all(type(c) is int or c for c in f.coeffs)


@settings(max_examples=300, deadline=None)
@given(horizon_series().filter(_no_stored_fraction_zero), st.integers(min_value=1, max_value=6),
       st.integers(min_value=-20, max_value=20))
def test_dilate_shift_matches_naive_loop(f, t, s):
    _check_kernel(lambda: f.dilate_shift(t, s), lambda: _ref_dilate_shift(f, t, s), f)


@pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2), "2", None], ids=repr)
def test_dilate_shift_refuses_a_factor_or_shift_that_is_not_an_int(bad):
    # dilate_shift(True, 1) was taken as t = 1, and dilate_shift(2.0, 1)
    # failed on multiplying a list by a float
    f = LaurentSeries(0, [1, 2], 10)
    for name, args in (("t", (bad, 1)), ("s", (2, bad))):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
            f.dilate_shift(*args)


def test_dilate_shift_copies_stored_zeros():
    # the one difference from the loop: a stored Fraction(0) is copied as it
    # is, where the loop left an int 0 (equal values either way)
    f = LaurentSeries(1, [1, Fraction(0), Fraction(1, 2)], 4)
    g = f.dilate_shift(2, 1)
    assert shape(g) == (3, 9, [(int, 1), (int, 0), (Fraction, 0), (int, 0), (Fraction, Fraction(1, 2))])
    assert g == _ref_dilate_shift(f, 2, 1)


def test_div_binomial_switches_strategy_on_exponent():
    # m = 41 coefficients: e = 12 sums strided classes, e = 13 whole blocks
    f = LaurentSeries(0, list(range(1, 30)), 40)
    for e in (1, 2, 12, 13, 20, 40, 41):
        for c in (1, -1):
            assert shape(f.div_binomial(c, e)) == shape(_ref_div_binomial(f, c, e, None))


def _ref_div_list(buf, c, e, m):
    """The per-index loop of a binomial division on a bare list."""
    out = buf + [0] * (m - len(buf))
    for i in range(e, m):
        out[i] = out[i] + c * out[i - e]
    return out


def _lists(m):
    """An int list of m - 3 coefficients, and the same list with every
    seventh coefficient a Fraction."""
    rng = random.Random(m)
    ints = [rng.randint(-9, 9) for _ in range(m - 3)]
    return {"int": ints, "Fraction": [Fraction(v, 2) if i % 7 == 3 else v for i, v in enumerate(ints)]}


def _assert_div_list_matches_the_loop(c, m, exponents, bufs):
    """``apply_binomials_into`` dividing by the one binomial (c, e) against
    ``_ref_div_list`` at each exponent, types compared, on each list of
    ``bufs``, padded by the kernel."""
    for e in exponents:
        for buf in bufs:
            got = buf[:]
            apply_binomials_into(got, (), ((c, e),), m)
            want = _ref_div_list(buf, c, e, m)
            assert [(type(v), v) for v in got] == [(type(v), v) for v in want], (e, buf)


@pytest.mark.parametrize("m", [41, 1000])
@pytest.mark.parametrize("kind", ["int", "Fraction"])
def test_div_by_one_plus_q_e_matches_the_loop_around_the_crossover(kind, m):
    # c = -1 takes one block pass from e = _NEG_BLOCK_MIN_E on and two unit
    # passes below it, on an int list and on one holding Fractions alike;
    # e >= m leaves the list padded
    x = series._NEG_BLOCK_MIN_E
    _assert_div_list_matches_the_loop(-1, m, (1, 2, x - 2, x - 1, x, x + 1, 2 * x, m - 1, m, m + 5), [_lists(m)[kind]])


@pytest.mark.parametrize("m", [41, 1000])
@pytest.mark.parametrize("c", [1, -1], ids=["1", "-1"])
def test_division_matches_the_loop_on_both_sides_of_the_strided_bound(c, m):
    # c = 1 sums residue classes while e*e <= 4*m and whole blocks of e past
    # it, the last one partial, as m is a multiple of none of these e; c = -1
    # meets both sides of _NEG_BLOCK_MIN_E at m = 41
    b = math.isqrt(4 * m)  # the largest e with e*e <= 4*m
    _assert_div_list_matches_the_loop(c, m, (1, 2, b - 1, b, b + 1, b + 2, m // 3, m - 1, m, m + 5),
                                      _lists(m).values())


@pytest.mark.parametrize("num, den", [((), ()), ([(1, 1)], ()), ([(-1, 1)], ()), ((), [(1, 1)]), ((), [(-1, 1)])],
                         ids=["none", "mul c=1", "mul c=-1", "div c=1", "div c=-1"])
def test_apply_binomials_into_rejects_a_list_longer_than_its_horizon(num, den):
    # its tail past the horizon would stay unmultiplied or undivided; the
    # horizon is checked once, before the first pass, with no pass too
    buf = [1, 2, 3, 4]
    with pytest.raises(ValueError, match="^coefficient list of length 4 is longer than the horizon 3$"):
        apply_binomials_into(buf, num, den, 3)
    assert buf == [1, 2, 3, 4]


def _binomial_operations(c, e, buf, f):
    """Every binomial operation once, with the binomial (c, e):
    ``apply_binomials_into`` on ``buf`` with (c, e) alone in either list,
    and after a unit binomial in each of its lists, and both methods on
    ``f``."""
    return {
        "apply_binomials_into num": lambda: apply_binomials_into(buf, [(c, e)], [], 8),
        "apply_binomials_into den": lambda: apply_binomials_into(buf, [], [(c, e)], 8),
        "apply_binomials_into num after units": lambda: apply_binomials_into(buf, [(1, 2), (c, e)], [(1, 1)], 8),
        "apply_binomials_into den after units": lambda: apply_binomials_into(buf, [(1, 2)], [(-1, 1), (c, e)], 8),
        "mul_binomial": lambda: f.mul_binomial(c, e),
        "div_binomial": lambda: f.div_binomial(c, e),
    }


_OPERATIONS = list(_binomial_operations(1, 1, [], None))


@pytest.mark.parametrize("c", [0, 2, -3, Fraction(1, 2), Fraction(1), Fraction(-1), True, 1.0], ids=repr)
@pytest.mark.parametrize("op", _OPERATIONS)
def test_binomial_operations_refuse_a_c_that_is_not_an_int_unit(op, c):
    """A binomial is 1 - c * q**e with c the int 1 or -1; any other c is
    refused before the list or series is touched, on a zero series too."""
    for f in (LaurentSeries(0, [1, 2, 3], 7), LaurentSeries.zero(7), LaurentSeries.zero(None)):
        buf, before = [1, 2, 3], shape(f)
        with pytest.raises(ValueError, match=f"^binomial coefficient must be the int 1 or -1, got {re.escape(repr(c))}$"):
            _binomial_operations(c, 1, buf, f)[op]()
        assert buf == [1, 2, 3] and shape(f) == before


@pytest.mark.parametrize("e", [0, -1, True, 2.0, Fraction(2)], ids=repr)
@pytest.mark.parametrize("op", _OPERATIONS)
def test_binomial_operations_refuse_an_exponent_that_is_not_an_int_from_one(op, e):
    """e is an int >= 1: a bool, a float or a Fraction is refused as c is,
    before the list or series is touched, on a zero series too."""
    for f in (LaurentSeries(0, [1, 2, 3], 7), LaurentSeries.zero(7), LaurentSeries.zero(None)):
        buf, before = [1, 2, 3], shape(f)
        with pytest.raises(ValueError, match=f"^binomial exponent must be an int >= 1, got {re.escape(repr(e))}$"):
            _binomial_operations(1, e, buf, f)[op]()
        assert buf == [1, 2, 3] and shape(f) == before


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, "2", None, complex(1), True, False], ids=repr)
def test_scalars_are_ints_or_fractions(c):
    # a float would store inexact coefficients in an exact series, and
    # scale(True) was taken as 1
    f = LaurentSeries(0, [2, 4], 10)
    with pytest.raises(TypeError, match=r"^scalar must be an int or a Fraction, got \w+$"):
        f.scale(c)
    with pytest.raises(TypeError, match=r"^scalar must be an int or a Fraction, got \w+$"):
        f.mul_monomial(c, 2)
    for e in (0, 4):  # q**4 lies beyond the horizon 3
        with pytest.raises(TypeError, match=r"^scalar must be an int or a Fraction, got \w+$"):
            LaurentSeries.monomial(c, e, 3)
    assert shape(f) == (0, 10, [(int, 2), (int, 4)])


@pytest.mark.parametrize("bad", [0.5, 1.0, complex(1), Decimal("0.5"), True, False, "1", None], ids=repr)
def test_an_exact_series_refuses_a_coefficient_that_is_not_an_int_or_a_fraction(bad):
    # LaurentSeries(0, [0.5], 3).coeffs was [0.5], and from_items([(0, True)], 3).coeffs
    # was [1]: the items of one exponent were summed from the int 0 before any check
    msg = f"^coefficients must be ints or Fractions, got {type(bad).__name__}$"
    for co in ([bad], [1, Fraction(1, 2), bad, 0]):
        with pytest.raises(TypeError, match=msg):
            LaurentSeries(0, co, 3)
    msg = f"^coefficient must be an int or a Fraction, got {type(bad).__name__}$"
    for items in ([(0, bad)], [(0, 1), (1, bad)], [(0, 1), (0, bad)], [(5, bad)]):  # q**5 lies past the horizon
        with pytest.raises(TypeError, match=msg):
            LaurentSeries.from_items(items, 3)


@pytest.mark.parametrize("bad", [2.0, 2.5, True, False, Fraction(2), "2"], ids=repr)
def test_an_offset_exponent_or_horizon_that_is_not_an_int_raises(bad):
    # LaurentSeries(2.0, [1], 5) printed "offset": 2.0 and "exp": 2.0 in its
    # payload, LaurentSeries.zero(2.5) stored order 2.5 and an offset True
    # was taken; truncate(1.5), first_mismatch(..., through=1.5) and
    # coefficient(1.0) failed deep inside on a slice or a list index
    def raises(name):
        return pytest.raises(TypeError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$")

    f = LaurentSeries(0, [1, 2, 3], 5)
    calls = {
        "offset": [lambda: LaurentSeries(bad, [1], 5), lambda: LaurentSeries(bad, [], None)],
        "order": [
            lambda: LaurentSeries(0, [1], bad),
            lambda: LaurentSeries.zero(bad),
            lambda: LaurentSeries.one(bad),
            lambda: LaurentSeries.monomial(1, 0, bad),
            lambda: LaurentSeries.from_items([(0, 1)], bad),
            lambda: f.truncate(bad),
            lambda: f.div_binomial(1, 1, bad),
        ],
        "exponent": [
            lambda: LaurentSeries.monomial(1, bad, 5),
            lambda: LaurentSeries.monomial(1, bad, 1),  # past the horizon, where no series is built
            lambda: LaurentSeries.from_items([(0, 1), (bad, 1)], 5),
            lambda: LaurentSeries.from_items([(bad, 1)], 1),
            lambda: f.coefficient(bad),
            lambda: f.mul_monomial(1, bad),
        ],
        "through": [lambda: first_mismatch(f, f, through=bad)],
    }
    for name, cases in calls.items():
        for call in cases:
            with raises(name):
                call()
    assert (f.offset, f.order, f.coeffs) == (0, 5, [1, 2, 3])
    # dilate_shift makes negative horizons, and they stay legal
    g = f.dilate_shift(2, -14)
    assert (g.offset, g.order, g.coeffs) == (-14, -4, [1, 0, 2, 0, 3])
    assert g.truncate(-11).coeffs == [1, 0, 2] and LaurentSeries.zero(-4).order == -4
    assert first_mismatch(g, LaurentSeries(-14, [1], -13), through=-13) is None


def _snapshot(*fs):
    return [(f.coeffs, list(f.coeffs)) for f in fs]


@pytest.mark.parametrize("offset", [-3, 0, 7])
@pytest.mark.parametrize("n", [1, 2, 50])
def test_first_mismatch_locates_a_whole_run_differing_at_either_end(offset, n):
    run = [i % 5 - 2 or 3 for i in range(n)]
    for i in (0, n - 1):
        changed = list(run)
        changed[i] += 1
        a, b = LaurentSeries(offset, run, offset + n + 5), LaurentSeries(offset, changed, offset + n + 5)
        seen = _snapshot(a, b)
        assert first_mismatch(a, b) == (offset + i, run[i], changed[i])
        assert first_mismatch(b, a) == (offset + i, changed[i], run[i])
        assert all(co is f.coeffs and co == was for (co, was), f in zip(seen, (a, b)))


@pytest.mark.parametrize("offset", [-3, 0, 7])
@pytest.mark.parametrize("n", [1, 2, 50])
def test_first_mismatch_finds_equal_whole_runs_equal(offset, n):
    run = [i % 5 - 2 or 3 for i in range(n)]
    a, b = LaurentSeries(offset, run, None), LaurentSeries(offset, run, None)
    assert a.coeffs is not b.coeffs
    # a run one longer than the other, its last coefficient past the
    # shorter one's horizon: one side is a whole run, the other a slice
    c = LaurentSeries(offset, run + [9], offset + n + 3)
    d = LaurentSeries(offset, run, offset + n - 1)
    seen = _snapshot(a, b, c, d)
    for f, g in ((a, b), (b, a), (c, d), (d, c), (a, d), (d, a)):
        assert first_mismatch(f, g) is None
    assert first_mismatch(a, c, through=offset + n - 1) is None
    assert first_mismatch(a, c) == (offset + n, 0, 9)
    assert all(co is f.coeffs and co == was for (co, was), f in zip(seen, (a, b, c, d)))


def _ref_first_mismatch(a, b, through):
    orders = [o for o in (a.order, b.order, through) if o is not None]
    if a.is_zero() and b.is_zero():
        return None
    lo = min(f.valuation() for f in (a, b) if not f.is_zero())
    hi = max(f.degree() for f in (a, b) if not f.is_zero())
    if orders:
        hi = min([hi] + orders)
    for e in range(lo, hi + 1):
        ca = a.coeffs[e - a.offset] if 0 <= e - a.offset < len(a.coeffs) else 0
        cb = b.coeffs[e - b.offset] if 0 <= e - b.offset < len(b.coeffs) else 0
        if ca != cb:
            return (e, ca, cb)
    return None


@settings(max_examples=300, deadline=None)
@given(horizon_series(), horizon_series(),
       st.one_of(st.none(), st.integers(min_value=-12, max_value=60)))
# disjoint stored runs, with and without a horizon between them
@example(LaurentSeries(-4, [1, 2], 30), LaurentSeries(10, [3, Fraction(1, 2)], 30), None)
@example(LaurentSeries(-4, [Fraction(1, 2)], 30), LaurentSeries(10, [3], 30), 5)
# the mismatch lies where only one side stores coefficients, past a stored
# Fraction(0) and a zero that equal the other side's absent ones
@example(LaurentSeries(0, [1, Fraction(0), 0, 5], 20), LaurentSeries(0, [1], 20), None)
@example(LaurentSeries(2, [7], None), LaurentSeries(0, [0, 0, 7, 0, 0, 0, -1], None), None)
# one side zero
@example(LaurentSeries.zero(10), LaurentSeries(3, [Fraction(-1, 2), 1], 10), None)
@example(LaurentSeries(3, [2, 1], None), LaurentSeries.zero(None), 4)
# through below both valuations
@example(LaurentSeries(5, [1], 20), LaurentSeries(7, [2], 20), 3)
def test_first_mismatch_matches_naive_loop(f, g, through):
    got = first_mismatch(f, g, through=through)
    want = _ref_first_mismatch(f, g, through)
    assert got == want
    if got is not None:
        assert [type(c) for c in got] == [type(c) for c in want]
