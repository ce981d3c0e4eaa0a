import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qrds.errors import UnknownId
import qrds.hecke as hecke
from qrds.hecke import HeckeBlock, HeckeBlockSet, eval_blocks, hecke_catalog


def rows_to_sum(b, order):
    """A row index from which on no term of ``b`` reaches q**order.

    Along a window edge j = s*n + t (s = +-1, t = p or r) the exponent is
    (A+D) n^2 + beta n + gamma with A + D >= 1, and the factor term only adds
    G n + H.  With |beta| and |gamma| bounded as below and
    k = isqrt(|gamma| + order) + 1 > sqrt(|gamma| + order), every
    n >= |beta| + k has n^2 - |beta| n - |gamma| >= n k - |gamma| >=
    k^2 - |gamma| > order, so both edges lie above the horizon, and D < 0
    puts each row's minimum at an edge.
    """
    g, h = b.factor or (0, 0)
    last = 0
    for t in (b.p, b.r):
        beta = abs(b.B) + abs(g) + 2 * abs(b.D * t) + abs(b.E)
        gamma = abs(b.C) + abs(h) + abs(b.D) * t * t + abs(b.E * t)
        last = max(last, beta + math.isqrt(gamma + order) + 1)
    return last


def brute_block_set(block_set, order):
    """Direct (n, j) double loop, sharing no code with the block evaluator."""
    acc = {}
    for b in block_set.blocks:
        for n in range(b.n0, rows_to_sum(b, order)):
            for j in range(-n + b.p, n + b.r + 1):
                e = b.A * n * n + b.B * n + b.C + b.D * j * j + b.E * j
                if e <= order:
                    acc[e] = acc.get(e, 0) + b.coeff
                if b.factor is not None:
                    g, h = b.factor
                    e2 = e + g * n + h
                    if e2 <= order:
                        acc[e2] = acc.get(e2, 0) - b.coeff
    for c, e in block_set.constants:
        if e <= order:
            acc[e] = acc.get(e, 0) + c
    return {e: c for e, c in acc.items() if c}


# heads frozen from the brute-force loop above; they also agree with the
# direct summation engine (see test_verify) so any regression in either
# pathway trips this
SIGMA_HEAD = {0: 1, 1: 1, 2: -1, 3: 2, 4: -2, 5: 1, 7: 1, 8: -2, 10: 2, 12: -1, 13: -2, 14: 2, 15: 1}
L5_HEAD = {2: 2, 5: 2, 7: 2, 10: 2, 14: 4, 17: 2}


def test_sigma_head_and_brute_force():
    bs = hecke_catalog("SIGMA")
    f = eval_blocks(bs, 40)
    assert {e: c for e, c in f.items() if e <= 15} == SIGMA_HEAD
    assert dict(f.items()) == brute_block_set(bs, 40)


@pytest.mark.parametrize("sid", sorted(hecke._CATALOG))
def test_all_catalog_entries_match_brute_force(sid):
    bs = hecke_catalog(sid)
    f = eval_blocks(bs, 60)
    assert dict((e, c) for e, c in f.items() if e <= 60) == brute_block_set(bs, 60)
    assert f.order == 60


def _dense(items, order):
    """(offset, coeffs, order) of the series with the nonzero ``items``."""
    if not items:
        return order + 1, [], order
    lo, hi = min(items), max(items)
    return lo, [items.get(e, 0) for e in range(lo, hi + 1)], order


@pytest.mark.parametrize("sid", sorted(hecke._CATALOG))
def test_catalog_entries_match_brute_force_at_many_orders(sid):
    # brute_block_set through the top horizon holds every term of a lower
    # one, so the lower ones are its restrictions
    bs = hecke_catalog(sid)
    orders = list(range(151)) + random.Random(sid).sample(range(151, 3001), 20)
    full = brute_block_set(bs, max(orders))
    for order in orders:
        f = eval_blocks(bs, order)
        assert all(type(c) is int for c in f.coeffs), (sid, order)
        want = _dense({e: c for e, c in full.items() if e <= order}, order)
        assert (f.offset, f.coeffs, f.order) == want, (sid, order)


def test_row_peak_exactly_at_the_horizon():
    # e(n, j) = 2 n^2 - (j - 1)^2: row n = 5 (row part 49) peaks at j = 1
    # with exponent 50.  At horizon 49 its roots j = 0 and j = 2 sit exactly
    # on it and j = 1 is skipped; at 50 the peak is a double root on the
    # horizon; at 51 the whole row is visible.
    bs = HeckeBlockSet((HeckeBlock(0, 0, 0, A=2, B=0, C=-1, D=-1, E=2),))
    for order in (49, 50, 51):
        f = eval_blocks(bs, order)
        assert (f.offset, f.coeffs, f.order) == _dense(brute_block_set(bs, order), order), order


def test_block_below_q0_starts_the_list_there():
    # e(n, j) = 2 n^2 - j^2 - 7 reaches q^-7 at n = 0 and a constant q^-9
    # lies lower still
    bs = HeckeBlockSet((HeckeBlock(0, 0, 0, A=2, B=0, C=-7, D=-1, E=0),), constants=((3, -9), (1, 0)))
    for order in (0, 1, 5, 40, 300):
        f = eval_blocks(bs, order)
        assert f.offset == -9 and f.coefficient(-9) == 3 and f.coefficient(-7) == 1
        assert (f.offset, f.coeffs, f.order) == _dense(brute_block_set(bs, order), order), order


def test_eval_blocks_returns_a_list_of_its_own():
    bs = hecke_catalog("L4")
    f, g = eval_blocks(bs, 200), eval_blocks(bs, 200)
    assert f.coeffs is not g.coeffs
    before = (f.offset, list(f.coeffs), f.order)
    g.coeffs[0] += 1
    assert (f.offset, f.coeffs, f.order) == before


def test_l5_head():
    f = eval_blocks(hecke_catalog("L5"), 20)
    assert {e: c for e, c in f.items()} == L5_HEAD


def test_catalog_lookup_case_insensitive_and_unknown():
    assert hecke_catalog("sigma") is hecke_catalog("SIGMA")
    assert hecke_catalog(" l12 ") is hecke_catalog("L12")
    with pytest.raises(UnknownId, match="^\"no block set for id 'L99'\"$"):
        hecke_catalog("L99")


def test_eval_blocks_rejects_negative_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a block was summed")

    monkeypatch.setattr(hecke, "_eval_block", refuse)
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        eval_blocks(hecke_catalog("L1"), -1)


def test_block_validation():
    with pytest.raises(ValueError):
        HeckeBlock(0, 0, 0, A=0, B=0, C=0, D=-1, E=0)
    with pytest.raises(ValueError):
        HeckeBlock(0, 0, 0, A=2, B=0, C=0, D=1, E=0)
    with pytest.raises(ValueError):
        HeckeBlock(0, 0, 0, A=1, B=0, C=0, D=-1, E=0)  # A + D = 0
    with pytest.raises(ValueError):
        HeckeBlock(0, 0, 0, A=2, B=0, C=0, D=-1, E=0, coeff=0)


@pytest.mark.parametrize("bad", [0.5, 6.0, True, False, Fraction(6), "6"], ids=repr)
def test_a_block_field_or_constant_that_is_not_an_int_raises(bad):
    # coeff=0.5 put [0.5, 0, 0, 1.0, 0] into SIGMA's first block's series, a
    # constant (0.5, 0) put [0.5], coeff=True counted as 1, and A=6.0 or
    # factor=(4, 1.0) failed deep inside eval_blocks
    fields = dict(n0=0, p=0, r=0, A=6, B=1, C=0, D=-4, E=0)
    for name in (*fields, "coeff"):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
            HeckeBlock(**{**fields, name: bad})
    block = HeckeBlock(**fields)
    for pair in ((4, bad), (bad, 1)):
        with pytest.raises(TypeError, match=f"^factor must be a pair of ints, got {re.escape(repr(pair))}$"):
            HeckeBlock(**fields, factor=pair)
        with pytest.raises(TypeError, match=f"^constant must be a pair of ints, got {re.escape(repr(pair))}$"):
            HeckeBlockSet((block,), constants=((1, 0), pair))


@pytest.mark.parametrize("pair", [[4, 1], (4,), (4, 1, 0), 4], ids=repr)
def test_a_factor_or_constant_that_is_not_a_pair_raises(pair):
    fields = dict(n0=0, p=0, r=0, A=6, B=1, C=0, D=-4, E=0)
    with pytest.raises(TypeError, match=f"^factor must be a pair of ints, got {re.escape(repr(pair))}$"):
        HeckeBlock(**fields, factor=pair)
    with pytest.raises(TypeError, match=f"^constant must be a pair of ints, got {re.escape(repr(pair))}$"):
        HeckeBlockSet((), constants=(pair,))


def test_falling_edges_above_horizon_do_not_stop_the_sum():
    # rows n = 0..3 are above q^0 at both edges, (n - 4)^2, but still
    # falling; row n = 4 reaches q^0 at j = -4 and j = 4
    block = HeckeBlock(0, 0, 0, A=2, B=-8, C=16, D=-1, E=0)
    f = eval_blocks(HeckeBlockSet((block,)), 0)
    assert dict(f.items()) == {0: 2}
    assert dict(f.items()) == brute_block_set(HeckeBlockSet((block,)), 0)


def test_deep_dip_block_matches_brute_force():
    # a deep dip (B very negative): the edges, n^2 - 200n, stay inside a
    # tiny horizon out to row n = 200
    bad = HeckeBlockSet((HeckeBlock(n0=0, p=0, r=0, A=2, B=-200, C=0, D=-1, E=0),))
    f = eval_blocks(bad, 2)
    assert f.order == 2
    assert dict(f.items()) == brute_block_set(bad, 2)


@st.composite
def blocks(draw):
    A = draw(st.integers(2, 8))  # A + D > 0 leaves no D < 0 for A = 1
    small = st.integers(-20, 20)
    return HeckeBlock(
        n0=draw(st.integers(-2, 2)),
        p=draw(st.integers(-2, 2)),
        r=draw(st.integers(-2, 2)),
        A=A,
        B=draw(small),
        C=draw(small),
        D=draw(st.integers(-(A - 1), -1)),
        E=draw(small),
        coeff=draw(st.sampled_from((1, -1, 2, -2, 3))),
        factor=draw(st.none() | st.tuples(st.integers(-6, 6), st.integers(-6, 6))),
    )


@settings(max_examples=150, deadline=None)
@given(block=blocks(), order=st.integers(0, 300))
# rows whose left root, or right root, lies left of every window of the
# block, and a row with an empty window (j = 2..1 at n = 0)
@example(block=HeckeBlock(0, 0, 0, A=2, B=0, C=0, D=-1, E=-2), order=0)
@example(block=HeckeBlock(0, 0, 1, A=2, B=-2, C=-11, D=-1, E=-19), order=62)
@example(block=HeckeBlock(0, 2, 1, A=2, B=0, C=0, D=-1, E=0), order=0)
def test_eval_blocks_matches_brute_force(block, order):
    bs = HeckeBlockSet((block,))
    f = eval_blocks(bs, order)
    assert f.order == order
    assert dict(f.items()) == brute_block_set(bs, order)


def test_payload_schema():
    p = hecke_catalog("L1").to_payload()
    assert set(p) == {"blocks", "constants"}
    for b in p["blocks"]:
        assert set(b) == {"n0", "p", "r", "A", "B", "C", "D", "E", "coeff", "factor"}


def test_duplicate_blocks_folded():
    for sid in ("L5", "L6", "L9", "L10"):
        folded = hecke_catalog(sid).blocks
        assert len(folded) == 2 and {b.coeff for b in folded} == {2}, sid
    assert {b.coeff for b in hecke_catalog("SIGMA").blocks} == {1, -1}
