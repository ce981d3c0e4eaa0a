import math
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
    _window_counts,
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
    # the d > isqrt(limit) half starts each residue r of chi at the least
    # j > s = isqrt(limit) with j = r mod Delta; limits (Delta t + r)^2 - 1
    # and (Delta t + r)^2 put s + 1 in every residue class
    for D in (2, 3, 6):
        delta = field_spec(D).discriminant
        ref = _chi_sieve(D, (3 * delta) ** 2)
        for t in (1, 2):
            for r in range(delta):
                for limit in ((delta * t + r) ** 2 - 1, (delta * t + r) ** 2):
                    assert sieve_counts(D, limit) == ref[: limit + 1], (D, limit)


def test_sieve_edge_horizons():
    for D in (2, 3, 6):
        assert sieve_counts(D, -1) == []
        assert sieve_counts(D, 0) == [0]
        assert sieve_counts(D, 1) == [0, 1]
        full = sieve_counts(D, 400)
        for limit in (2, 3, 24, 25, 399):  # around squares and the period
            assert sieve_counts(D, limit) == full[: limit + 1]


# ----------------------------------------------------------- window sweep


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


@pytest.mark.parametrize("weight", [0.5, 2.0, Decimal("0.5"), "1/2"])
def test_ideal_series_rejects_non_rational_weight(weight):
    # a float weight would make float coefficients
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
        real_windows = ideals._window_counts

        def windows(D, limit):
            pos, neg = real_windows(D, limit)
            (pos if which == "pos" else neg)[m] += 1
            return pos, neg

        monkeypatch.setattr(ideals, "_window_counts", windows)


@pytest.mark.parametrize("which", ["sieve", "pos", "neg"])
@pytest.mark.parametrize("D", [2, 3, 6])
def test_cross_check_catches_one_corrupted_count(monkeypatch, D, which):
    # m = 1001 is odd and off every theorem's residue class for D = 3, so the
    # check fires even where the corrupted norm is never read
    _corrupt(monkeypatch, which, 1001)
    for restriction in ("all", "neg"):
        with pytest.raises(InvariantViolation, match=rf"D={D} at m=1001\b"):
            ideal_series(IdealQuery(D, 0, 2, restriction), 2000)


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
