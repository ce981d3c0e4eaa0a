import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qrds.series import LaurentSeries, UnknownCoefficient, first_mismatch


def poly(*items):
    return LaurentSeries.from_items(list(items), None)


def test_constructor_normalizes_and_trims():
    f = LaurentSeries(2, [0, 0, 3, 0, 1, 0, 0], None)
    assert f.offset == 4
    assert f.coeffs == [3, 0, 1]
    assert f.valuation() == 4
    assert f.degree() == 6


def test_constructor_rejects_coefficient_beyond_order():
    with pytest.raises(ValueError):
        LaurentSeries(0, [1, 1, 1], 1)


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
    assert (f - f).is_zero()


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
