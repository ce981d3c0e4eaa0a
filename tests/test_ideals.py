import math
import re
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import qrds.ideals as ideals
from qrds.cli import main
from qrds.errors import InvariantViolation, UnsupportedField
from qrds.ideals import (
    FieldSpec,
    IdealQuery,
    canonical_reps,
    field_spec,
    ideal_series,
    kronecker_symbol,
    sieve_counts,
)
from qrds.series import LaurentSeries
from qrds.verify import theorem_table


def test_field_table():
    assert field_spec(2) == FieldSpec(2, 8, 3, 2)
    assert field_spec(3) == FieldSpec(3, 12, 2, 1)
    assert field_spec(6) == FieldSpec(6, 24, 5, 2)
    for f in (field_spec(2), field_spec(3), field_spec(6)):
        assert f.x1 * f.x1 - f.D * f.y1 * f.y1 == 1  # fundamental Pell solution
    with pytest.raises(UnsupportedField):
        field_spec(5)


@pytest.mark.parametrize("bad", [2.0, True, Fraction(2), "2"], ids=repr)
def test_field_spec_refuses_a_d_that_is_not_an_int(bad):
    # field_spec(2.0) returned D = 2's field: _FIELDS[2.0] hashes as 2
    with pytest.raises(TypeError, match=f"^D must be an int, got {re.escape(repr(bad))}$"):
        field_spec(bad)


@pytest.mark.parametrize("name, args", [
    ("D", (2.0, 7, 32)),
    ("residue", (2, 7.0, 32)),
    ("residue", (2, True, 32)),
    ("modulus", (2, 7, 32.0)),
    ("modulus", (2, 0, True)),
], ids=["float-D", "float-residue", "bool-residue", "float-modulus", "bool-modulus"])
def test_ideal_query_refuses_a_field_residue_or_modulus_that_is_not_an_int(name, args):
    # IdealQuery(2.0, 7, 32), IdealQuery(2, 7.0, 32) and IdealQuery(2, True, 32)
    # were all accepted, and ideal_series summed D = 2's counts for the first
    bad = args[("D", "residue", "modulus").index(name)]
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
        IdealQuery(*args)


# ------------------------------------------------------------ the character


def _primes(limit):
    sieve = [True] * (limit + 1)
    sieve[0:2] = [False, False]
    for p in range(2, int(math.isqrt(limit)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    return [p for p, is_p in enumerate(sieve) if is_p]


def test_kronecker_euler_criterion():
    for delta in (8, 12, 24, 5, -4, 13):
        for p in _primes(500):
            if p == 2 or delta % p == 0:
                continue
            euler = pow(delta % p, (p - 1) // 2, p)
            want = 1 if euler == 1 else -1
            assert kronecker_symbol(delta, p) == want, (delta, p)


def test_kronecker_multiplicative_in_n():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randrange(-30, 31)
        m = rng.randrange(1, 60)
        n = rng.randrange(1, 60)
        assert kronecker_symbol(a, m * n) == kronecker_symbol(a, m) * kronecker_symbol(a, n)


def test_kronecker_frozen_patterns():
    # chi_8 depends on m mod 8 (1, 7 -> +1; 3, 5 -> -1), zero on evens
    for m in range(1, 50, 2):
        want = 1 if m % 8 in (1, 7) else -1
        assert kronecker_symbol(8, m) == want
    assert all(kronecker_symbol(8, m) == 0 for m in range(2, 40, 2))
    # chi_24 on units mod 24
    plus = {1, 5, 19, 23}
    for m in range(1, 100):
        if math.gcd(m, 24) == 1:
            assert kronecker_symbol(24, m) == (1 if m % 24 in plus else -1)


def test_kronecker_rejects_bad_modulus():
    with pytest.raises(ValueError):
        kronecker_symbol(5, 0)


# ------------------------------------------------------- canonical windows


def test_canonical_reps_frozen_cases():
    assert canonical_reps(2, 1) == [(1, 0)]
    assert canonical_reps(2, -1) == [(1, 1)]
    assert canonical_reps(2, 7) == [(3, -1), (3, 1)]
    assert canonical_reps(2, -7) == [(-1, 2), (1, 2)]  # mirror orbits
    assert canonical_reps(3, 1) == [(1, 0)]
    assert canonical_reps(3, -2) == [(1, 1)]
    assert canonical_reps(3, -3) == [(0, 1)]
    assert canonical_reps(6, 3) == [(3, 1)]
    assert canonical_reps(6, -2) == [(2, 1)]
    with pytest.raises(ValueError):
        canonical_reps(2, 0)


def test_reps_solve_the_norm_equation():
    for D in (2, 3, 6):
        for m in list(range(1, 40)) + [-m for m in range(1, 40)]:
            for u, v in canonical_reps(D, m):
                assert u * u - D * v * v == m


def test_window_picks_one_per_unit_orbit():
    # applying the fundamental unit moves every canonical representative out
    # of the window, so no two reps share an orbit "one step apart"
    for D in (2, 3, 6):
        f = field_spec(D)
        for m in list(range(1, 60)) + [-m for m in range(1, 60)]:
            reps = set(canonical_reps(D, m))
            for u, v in reps:
                succ = (f.x1 * u + D * f.y1 * v, f.y1 * u + f.x1 * v)
                pred = (f.x1 * u - D * f.y1 * v, -f.y1 * u + f.x1 * v)
                assert succ not in reps, (D, m, (u, v))
                assert pred not in reps, (D, m, (u, v))


def test_counts_match_divisor_sums():
    # D = 2 has a norm -1 unit: positive and negative windows both carry the
    # full ideal count.  D = 3, 6 do not: the two windows partition it.
    c2 = sieve_counts(2, 399)
    for m in range(1, 400):
        assert len(canonical_reps(2, m)) == c2[m]
        assert len(canonical_reps(2, -m)) == c2[m]
    for D in (3, 6):
        total = sieve_counts(D, 399)
        for m in range(1, 400):
            assert len(canonical_reps(D, m)) + len(canonical_reps(D, -m)) == total[m], (D, m)


def test_count_multiplicative_on_coprime_arguments():
    rng = random.Random(11)
    for D in (2, 3, 6):
        counts = sieve_counts(D, 120 * 120)
        for _ in range(120):
            a = rng.randrange(1, 120)
            b = rng.randrange(1, 120)
            if math.gcd(a, b) != 1:
                continue
            assert counts[a * b] == counts[a] * counts[b]


def test_ramified_prime_absorbs():
    # 2 ramifies in the D = 6 field, so multiplying an odd norm by 2 cannot
    # change the ideal count
    counts = sieve_counts(6, 600)
    for m in range(1, 300, 2):
        assert counts[m] == counts[2 * m]


def _divisor_sum(D, m):
    """sum_{d | m} chi(d) by trial division, one Kronecker symbol per divisor."""
    delta = field_spec(D).discriminant
    return sum(kronecker_symbol(delta, d) for d in range(1, m + 1) if m % d == 0)


def test_sieve_agrees_with_direct_counts():
    for D in (2, 3, 6):
        counts = sieve_counts(D, 500)
        assert len(counts) == 501 and counts[0] == 0
        for m in range(1, 501):
            assert counts[m] == _divisor_sum(D, m), (D, m)


def _chi_sieve(D, limit):
    """sum_{d | m} chi(d) for every m <= limit, one Kronecker symbol and one
    step per pair (d, m)."""
    delta = field_spec(D).discriminant
    ref = [0] * (limit + 1)
    for d in range(1, limit + 1):
        chi = kronecker_symbol(delta, d)
        for m in range(d, limit + 1, d):
            ref[m] += chi
    return ref


def test_sieve_split_in_every_residue_class():
    # the pairs (d, k) split at s = min(limit, isqrt(Delta limit)), and the
    # d > s half starts each residue r of chi at the least j > s with
    # j = r mod Delta
    for D in (2, 3, 6):
        delta = field_spec(D).discriminant
        ref = _chi_sieve(D, (3 * delta) ** 2)
        limits = set()
        for t in (1, 2):
            for r in range(delta):
                # the least and the largest limit with isqrt(Delta limit) + 1
                # = Delta t + r, which puts s + 1 in every residue class
                x = delta * t + r - 1
                for limit in (-(-x * x // delta), ((x + 1) ** 2 - 1) // delta):
                    assert min(limit, math.isqrt(delta * limit)) == x, (D, limit)
                    limits.add(limit)
                # and the limits that put isqrt(limit) + 1 in every class
                limits.update(((delta * t + r) ** 2 - 1, (delta * t + r) ** 2))
        for limit in sorted(limits):
            assert sieve_counts(D, limit) == ref[: limit + 1], (D, limit)


def test_sieve_below_delta_has_no_far_half():
    # below limit = Delta, s = limit: every d <= limit is a slice of its own
    # multiples, and no slice steps by k Delta
    for D in (2, 3, 6):
        delta = field_spec(D).discriminant
        ref = _chi_sieve(D, delta)
        for limit in range(delta + 1):
            if limit < delta:
                assert all(run.start == run.step for run, _ in ideals._chi_slices(delta, limit))
            assert sieve_counts(D, limit) == ref[: limit + 1], (D, limit)


def test_sieve_edge_horizons():
    for D in (2, 3, 6):
        assert sieve_counts(D, -1) == []
        assert sieve_counts(D, 0) == [0]
        assert sieve_counts(D, 1) == [0, 1]
        full = sieve_counts(D, 400)
        for limit in (2, 3, 24, 25, 399):  # around squares and the period
            assert sieve_counts(D, limit) == full[: limit + 1]


@pytest.mark.parametrize("bad", [True, False, 10.0, 7.0, Fraction(10), "10"], ids=repr)
def test_a_limit_or_norm_that_is_not_an_int_raises(bad):
    # sieve_counts(2, True) was [0, 1] and canonical_reps(2, True) [(1, 0)];
    # sieve_counts(2, 10.0) and canonical_reps(2, 7.0) failed deep inside
    # with unrelated errors
    for D in (2, 3, 6):
        for name, count in (("limit", sieve_counts), ("limit", ideals.ideal_counts), ("m", canonical_reps)):
            with pytest.raises(TypeError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
                count(D, bad)


def _split_primes(D, k):
    """The first k primes p with chi(p) = (Delta / p) = 1."""
    delta = field_spec(D).discriminant
    primes = []
    p = 2
    while len(primes) < k:
        if all(p % q for q in range(2, math.isqrt(p) + 1)) and kronecker_symbol(delta, p) == 1:
            primes.append(p)
        p += 1
    return primes


def _least_norm_reaching(D, target):
    """The least m whose split prime powers p^a || m have prod (a + 1) >= target.

    Such an m is a product of split primes alone, the smallest ones, with
    exponents non-increasing along them: any other prime or order makes m
    larger.  A target up to 256 needs at most 8 primes, each a + 1 >= 2.
    """
    primes = _split_primes(D, 8)
    best = None

    def walk(i, m, size, cap):
        nonlocal best
        if size >= target:
            best = m if best is None else min(best, m)
            return
        if i == len(primes):
            return
        for a in range(1, cap + 1):
            m *= primes[i]
            if best is not None and m >= best:
                return
            walk(i + 1, m, size * (a + 1), a)

    walk(0, 1, 1, target)
    return best


def test_byte_bound_is_the_least_norm_whose_split_part_has_256_divisors():
    # a count is prod_{p split} (a_p + 1) prod_{p inert} [a_p even], so at most
    # prod_{p split} (a_p + 1), and sieve_counts keeps it in one byte below the
    # least m where that reaches 256, in any of the three fields
    least = {D: _least_norm_reaching(D, 256) for D in (2, 3, 6)}
    assert least == {2: 568_817_087_951, 3: 1_461_516_258_059, 6: 169_680_381_125}
    assert ideals._BYTE_BOUND == min(least.values()) == 5**3 * 19 * 23 * 29 * 43 * 47 * 53


@pytest.mark.parametrize("D", [2, 3, 6])
def test_least_norm_search_matches_the_sieve(D):
    # the same search finds where the sieved counts first reach each threshold
    limit = 1_081_079
    counts = sieve_counts(D, limit)
    for target in (8, 12, 16, 20, 24):
        least = _least_norm_reaching(D, target)
        first = next((m for m, c in enumerate(counts) if c >= target), None)
        assert first == (least if least <= limit else None), (D, target)
        assert least > limit or counts[least] == _divisor_sum(D, least) >= target
    if D == 3:
        # no count of 20 below the limit: the first one is past it
        assert _least_norm_reaching(3, 20) == 1_338_623


@pytest.mark.parametrize("D", [2, 3, 6])
def test_sieve_past_the_old_divisor_bound(D):
    # past 1 081 080, the least integer with 256 divisors, every count still
    # fits in a byte: the bound is on the split part of m alone
    limit = 1_100_000
    counts = sieve_counts(D, limit)
    assert len(counts) == limit + 1 and all(type(c) is int for c in counts)
    rng = random.Random(D)
    sample = [720_720, 1_081_079, 1_081_080, limit] + rng.sample(range(1, limit + 1), 5)
    for m in sample:
        assert counts[m] == _divisor_sum(D, m), (D, m)


@pytest.mark.parametrize("D", [2, 3, 6])
def test_sieve_refuses_a_limit_at_the_byte_bound(D):
    # only the bound itself and past it: a limit just below would allocate
    # a bytearray of 170 GB
    for limit in (ideals._BYTE_BOUND, ideals._BYTE_BOUND + 1, 10**20):
        with pytest.raises(ValueError, match=f"^limit must be below {ideals._BYTE_BOUND}, got {limit}$"):
            sieve_counts(D, limit)


# ----------------------------------------------------------- window sweep


def _window_counts(D, limit):
    """(pos, neg) with pos[a] = len(canonical_reps(D, a)) and neg[a] =
    len(canonical_reps(D, -a)) for a in [1, limit], one ``ideals._sweep``
    over each window of ``ideals._windows``."""
    f = field_spec(D)
    out = ([0] * (limit + 1), [0] * (limit + 1))
    for counts, window in zip(out, ideals._windows(f)):
        ideals._sweep(counts, *window, f.x1 + 1)
    return out


def test_window_counts_match_canonical_reps():
    for D in (2, 3, 6):
        pos, neg = _window_counts(D, 3000)
        assert len(pos) == len(neg) == 3001 and pos[0] == neg[0] == 0
        for m in range(1, 3001):
            assert pos[m] == len(canonical_reps(D, m)), (D, m)
            assert neg[m] == len(canonical_reps(D, -m)), (D, m)


def _per_point_sweep(counts, A, B, c, x1p):
    """counts[a] += 1 for each a = A w^2 - B z^2 <= limit in the window
    -c w < z (x1+1) <= c w, one point at a time, rows ended by the same
    continuous bound as ``ideals._sweep``."""
    limit = len(counts) - 1
    span = x1p * x1p
    gap = A * span - B * c * c
    w = 1
    while w * w * gap <= limit * span:
        for z in range(-(c * w) // x1p + 1, c * w // x1p + 1):
            a = A * w * w - B * z * z
            if a <= limit:
                counts[a] += 1
        w += 1


def test_window_counts_match_per_point_sweep():
    # rows where (x1+1) divides c w have the lone edge point z = hi, such as
    # w = 75 of the D = 6 positive window, (75, 25)
    for D in (2, 3, 6):
        f = field_spec(D)
        pos = [0] * 3001
        neg = [0] * 3001
        _per_point_sweep(pos, 1, D, f.y1, f.x1 + 1)
        _per_point_sweep(neg, D, 1, D * f.y1, f.x1 + 1)
        for limit in range(3001):
            assert _window_counts(D, limit) == (pos[: limit + 1], neg[: limit + 1]), (D, limit)


def test_window_bracket_is_twice_a_times_x1_plus_one():
    # _sweep's last row and canonical_reps' bound both rest on this identity
    for D in (2, 3, 6):
        f = field_spec(D)
        x1p = f.x1 + 1
        for A, B, c in ideals._windows(f):
            assert A * x1p * x1p - B * c * c == 2 * A * x1p > 0, (D, A, B, c)


def test_window_counts_near_arith_horizon():
    rng = random.Random(40000)
    for D in (2, 3, 6):
        pos, neg = _window_counts(D, 40500)
        for m in rng.sample(range(39500, 40501), 40):
            assert pos[m] == len(canonical_reps(D, m)), (D, m)
            assert neg[m] == len(canonical_reps(D, -m)), (D, m)


def test_window_sweep_reaches_edge_row():
    # (75, 25) sits on the window edge 25 * 6 == 2 * 75 in row u = 75.  A
    # sweep that stops at the first row whose smallest norm, taken at the
    # floored window edges, exceeds the limit stops before that row (the
    # value is not monotone in u) and finds only four of the five.
    assert canonical_reps(6, 1875) == [(45, -5), (45, 5), (51, -11), (51, 11), (75, 25)]
    pos, neg = _window_counts(6, 1875)
    assert (pos[1875], neg[1875]) == (5, 0)
    assert sieve_counts(6, 1875)[1875] == 5


# ------------------------------------------------------------------ series


def test_ideal_series_residue_class_and_weight():
    q = IdealQuery(2, 15, 32, "all")
    f = ideal_series(q, 200, weight=Fraction(1, 2))
    # 47 and 79 are primes that split (both are 7 mod 8); 111 = 3*37 and
    # 143 = 11*13 have inert factors and drop out; 175 = 5^2 * 7 counts 2
    assert dict(f.items()) == {47: 1, 79: 1, 175: 1}
    assert all(e % 32 == 15 for e, _ in f.items())


def test_ideal_series_negative_norms():
    q = IdealQuery(3, 0, 2, "neg")
    f = ideal_series(q, 40, weight=2)
    assert f.coefficient(2) == 2  # x^2 - 3 y^2 = -2 at (1, 1), one orbit
    for e, c in f.items():
        assert e % 2 == 0
        assert c == 2 * len(canonical_reps(3, -e))


def test_ideal_series_rejects_negative_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a norm was counted")

    monkeypatch.setattr(ideals, "ideal_counts", refuse)
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        ideal_series(IdealQuery(3, 0, 2, "neg"), -1)


def test_ideal_series_zero_residue_starts_at_modulus():
    q = IdealQuery(3, 0, 2, "neg")
    f = ideal_series(q, 10)
    assert f.valuation() == 2  # m = 0 is never queried


@pytest.mark.parametrize("weight", [1, 3, Fraction(1, 2)])
def test_class_series_owns_its_coefficients(weight):
    counts = ideals.ideal_counts(6, 300)
    kept = [list(c) for c in counts]
    f = ideals.class_series(IdealQuery(6, 5, 8, "all"), counts, 300, weight)
    assert all(f.coeffs is not c for c in counts)
    before = (f.offset, list(f.coeffs), f.order)
    for c in counts:
        c[5::8] = [9] * len(c[5::8])
    assert (f.offset, f.coeffs, f.order) == before
    assert dict(f.items()) == {m: weight * kept[0][m] for m in range(5, 301, 8) if kept[0][m]}


def test_query_validation():
    with pytest.raises(ValueError):
        IdealQuery(2, 32, 32, "all")
    with pytest.raises(ValueError):
        IdealQuery(2, -1, 32, "all")
    with pytest.raises(ValueError):
        IdealQuery(2, 0, 0, "all")
    with pytest.raises(ValueError):
        IdealQuery(2, 1, 32, "positive")
    with pytest.raises(UnsupportedField):
        IdealQuery(7, 1, 32, "all")


def _reference_series(query, order, weight):
    """The ideal series built one norm at a time: trial-division divisor
    sums for "all", canonical representatives for "neg"."""
    start = query.residue if query.residue else query.modulus
    items = []
    for m in range(start, order + 1, query.modulus):
        if query.restriction == "all":
            c = _divisor_sum(query.D, m)
        else:
            c = len(canonical_reps(query.D, -m))
        if c:
            items.append((m, c * weight))
    return LaurentSeries.from_items(items, order)


def _typed(f):
    return f.offset, f.order, [(type(c), c) for c in f.coeffs]


@pytest.mark.parametrize("order", [0, 1, 400, 5000])
def test_ideal_series_matches_per_norm_reference(order):
    for spec in theorem_table():
        q = IdealQuery(spec.field_d, spec.residue, spec.modulus, spec.restriction)
        got = ideal_series(q, order, weight=spec.weight)
        want = _reference_series(q, order, spec.weight)
        assert _typed(got) == _typed(want), (spec.index, order)


def test_ideal_series_matches_per_term_assembly_at_arith_horizon():
    # the weighted terms of the cross-checked counts, summed one at a time
    order = 35017
    for spec in theorem_table():
        q = IdealQuery(spec.field_d, spec.residue, spec.modulus, spec.restriction)
        counts = ideals.ideal_counts(q.D, order)[q.restriction == "neg"]
        start = q.residue if q.residue else q.modulus
        terms = [(m, counts[m] * spec.weight) for m in range(start, order + 1, q.modulus)]
        want = LaurentSeries.from_items(terms, order)
        assert _typed(ideal_series(q, order, weight=spec.weight)) == _typed(want), spec.index


@pytest.mark.parametrize("weight", [0.5, 2.0, Decimal("0.5"), "1/2", True, False])
def test_ideal_series_rejects_non_rational_weight(weight):
    # a float weight would make float coefficients, and True was taken as 1
    with pytest.raises(TypeError, match="weight must be an int or a Fraction"):
        ideal_series(IdealQuery(2, 15, 32, "all"), 200, weight=weight)


# ------------------------------------------------------- fault injection


def _corrupt(monkeypatch, which, m):
    """Add one to a single count at norm m: the divisor sum, or one window."""
    if which == "sieve":
        real_sieve = ideals.sieve_counts

        def sieve(D, limit):
            counts = real_sieve(D, limit)
            counts[m] += 1
            return counts

        monkeypatch.setattr(ideals, "sieve_counts", sieve)
    else:
        real_sweep = ideals._sweep

        def sweep(counts, A, B, c, x1p):
            real_sweep(counts, A, B, c, x1p)
            # the windows are (1, D, y1) for m > 0 and (D, 1, D y1) for m < 0
            if (A, B, c) == ideals._windows(field_spec(max(A, B)))[which == "neg"]:
                counts[m] += 1

        monkeypatch.setattr(ideals, "_sweep", sweep)


@pytest.mark.parametrize("which", ["sieve", "pos", "neg"])
@pytest.mark.parametrize("D", [2, 3, 6])
def test_cross_check_catches_one_corrupted_count(monkeypatch, D, which):
    # m = 1001 is odd and off every theorem's residue class for D = 3, so the
    # check fires even where the corrupted norm is never read
    _corrupt(monkeypatch, which, 1001)
    for restriction in ("all", "neg"):
        with pytest.raises(InvariantViolation, match=rf"D={D} at m=1001\b"):
            ideal_series(IdealQuery(D, 0, 2, restriction), 2000)


def test_cross_check_catches_a_corrupted_pos_count_on_the_copied_list(monkeypatch):
    # for D = 3 and 6 the m > 0 window is swept onto a copy of the m < 0
    # list: a count of +1 there must show at a norm the m < 0 window holds
    assert (len(canonical_reps(3, 11)), len(canonical_reps(3, -11))) == (0, 2)
    _corrupt(monkeypatch, "pos", 11)
    with pytest.raises(InvariantViolation) as caught:
        ideals.ideal_counts(3, 100)
    assert str(caught.value) == (
        "ideal counts disagree for D=3 at m=11: unit-orbit windows give 1 (+) and 2 (-), the divisor sum 2"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--d", "3", "--residue", "0", "--modulus", "2", "--neg-norm", "--weight", "2"],
        ["--d", "6", "--residue", "5", "--modulus", "48"],
    ],
)
def test_cli_cross_checks_at_arith_horizon(argv, capsys):
    # the arith-legs scale: every norm through 40000 is checked both ways
    assert main(["ideals", *argv, "--order", "40000"]) == 0
    assert capsys.readouterr().out


def test_corrupted_count_is_an_internal_fault_in_the_cli(monkeypatch, capsys):
    _corrupt(monkeypatch, "neg", 1875)
    rc = main(["ideals", "--d", "6", "--residue", "5", "--modulus", "48", "--order", "4000"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: InvariantViolation: ideal counts disagree for D=6 at m=1875")
