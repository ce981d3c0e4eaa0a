"""Ideal-norm counting in the real quadratic orders Z[sqrt(D)], D in {2, 3, 6}.

Every norm m <= N is counted two independent ways in one pass each:

* an arithmetic one -- the number of integral ideals of Z[sqrt(D)] of norm m
  is ``sum_{d | m} chi(d)`` with chi = (Delta / .), Delta = 4D; chi has period
  |Delta|, and ``sieve_counts`` adds it along strided slices, the d past
  sqrt(|Delta| N) one nonzero residue of chi at a time, so no slice adds a zero.
  Below N = 1 081 080, the least integer with 256 divisors, every count
  lies in [0, 240], so the sieve runs on a bytearray mod 256 and each
  slice update is one ``bytes.translate``; from there on, on a list of ints;
* a lattice one -- the canonical representatives of u^2 - D v^2 = +-m, one
  per orbit of the fundamental totally positive unit.  ``_windows`` holds the
  two fundamental windows, one per sign of m; ``canonical_reps`` enumerates
  one for a single m, and ``_sweep`` counts every m at once by one sweep
  over a window.

For D = 2 the unit 1 + sqrt(2) has norm -1 and each sign of m carries the
full ideal count; for D = 3 and 6 every ideal comes from exactly one sign, so
the counts for +m and -m add up to the divisor sum.  ``ideal_counts`` checks
this on every norm through its horizon, before ``ideal_series`` reads one
residue class: for D = 2 it compares each window's list with the divisor
sums, and for D = 3 and 6 it sweeps the m > 0 window onto a copy of the
m < 0 list and compares that one list, so no third list of sums is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import add, mul
from typing import Iterator

from .errors import InvariantViolation, UnsupportedField, check_exact, check_int, check_order
from .series import Coeff, LaurentSeries

__all__ = [
    "FieldSpec",
    "IdealQuery",
    "field_spec",
    "kronecker_symbol",
    "canonical_reps",
    "ideal_series",
    "sieve_counts",
]


@dataclass(frozen=True)
class FieldSpec:
    """A supported real quadratic order with its fundamental unit data.

    (x1, y1) is the smallest solution of x^2 - D y^2 = 1 with x, y > 0;
    orbits of (u, v) |-> (x1 u + D y1 v, y1 u + x1 v) are what the canonical
    windows slice through.
    """

    D: int
    discriminant: int
    x1: int
    y1: int


_FIELDS = {
    2: FieldSpec(D=2, discriminant=8, x1=3, y1=2),
    3: FieldSpec(D=3, discriminant=12, x1=2, y1=1),
    6: FieldSpec(D=6, discriminant=24, x1=5, y1=2),
}


def field_spec(D: int) -> FieldSpec:
    try:
        return _FIELDS[D]
    except KeyError:
        raise UnsupportedField(f"D must be one of {sorted(_FIELDS)}, got {D!r}") from None


@dataclass(frozen=True)
class IdealQuery:
    """All norms congruent to ``residue`` mod ``modulus`` in one field.

    ``restriction`` is "all" (count ideals by norm) or "neg" (count
    canonical solutions of u^2 - D v^2 = -m instead).
    """

    D: int
    residue: int
    modulus: int
    restriction: str = "all"

    def __post_init__(self):
        field_spec(self.D)
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue must lie in [0, modulus)")
        if self.restriction not in ("all", "neg"):
            raise ValueError("restriction must be 'all' or 'neg'")


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a / n) for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _windows(f: FieldSpec) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The (A, B, c) of the two fundamental windows, for m > 0 and m < 0.

    A window holds the points m = A w^2 - B z^2 with w > 0 and
    -c w < z (x1+1) <= c w, one per unit orbit.  For m > 0 it is (1, D, y1)
    with (u, v) = (w, z); for m < 0 it is (D, 1, D y1) with (u, v) = (z, w).
    In both, A (x1+1)^2 - B c^2 = 2 A (x1+1) > 0, since x1^2 - D y1^2 = 1.
    """
    return (1, f.D, f.y1), (f.D, 1, f.D * f.y1)


def canonical_reps(D: int, m: int) -> list[tuple[int, int]]:
    """Canonical solutions of u^2 - D v^2 = m, one per unit orbit.

    The solutions are the points of the window ``_windows`` gives for the
    sign of m.  Everything is compared exactly in cross-multiplied integers.
    The enumeration range carries a 2x safety margin over the bound the
    window implies, and the margin is checked empty afterwards.
    """
    f = field_spec(D)
    check_int(m, "m")
    if m == 0:
        raise ValueError("m must be nonzero")
    A, B, c = _windows(f)[m < 0]
    x1p = f.x1 + 1
    a = abs(m)
    reps: list[tuple[int, int]] = []
    margin: list[tuple[int, int]] = []
    # the window forces 2 A w^2 / (x1+1) <= |m|, and A w^2 = |m| + B z^2 >= |m|
    bound = isqrt(a * x1p // (2 * A)) + 1
    for w in range(isqrt(-(-a // A) - 1) + 1, 2 * bound + 1):
        t = A * w * w - a
        if t % B:
            continue
        t //= B
        z = isqrt(t)
        if z * z != t:
            continue
        for zz in ({z, -z} if z else {0}):
            if -c * w < zz * x1p <= c * w:
                (reps if w <= bound else margin).append((w, zz) if m > 0 else (zz, w))
    if margin:
        raise InvariantViolation(f"canonical window bound too small for D={D}, m={m}")
    reps.sort()
    return reps


def _sweep(counts: list[int], A: int, B: int, c: int, x1p: int) -> None:
    """counts[a] += 1 for every a = A w^2 - B z^2 <= limit in the window
    (A, B, c) of ``_windows``, where limit = len(counts) - 1.

    In row w every point has |z| (x1+1) <= c w, so its norm is at least
    w^2 (A (x1+1)^2 - B c^2) / (x1+1)^2, and the bracket is 2 A (x1+1) > 0
    (``_windows``).  So the bound grows with w and the sweep ends at the
    last w with w^2 times the bracket at most limit (x1+1)^2.  Within a row
    only the points with B z^2 >= A w^2 - limit are visited, all of them
    counted.  The row's window is |z| <= hi = c w // (x1+1), symmetric
    except when (x1+1) divides c w: then z = hi is in it and z = -hi is not.
    So z and -z share one step (+2), z = 0 is counted once and that lone
    edge point once.
    """
    limit = len(counts) - 1
    span = x1p * x1p
    gap = A * span - B * c * c
    rows = isqrt(limit * span // gap)  # the last w with w^2 gap <= limit span
    squares = [B * z * z for z in range(c * rows // x1p + 1)]
    for w in range(1, rows + 1):
        top = A * w * w
        hi, rem = divmod(c * w, x1p)
        need = top - limit
        if need <= 0:
            counts[top] += 1  # z = 0
            r = 1
        else:
            r = isqrt(-(-need // B) - 1) + 1  # least r > 0 with B r^2 >= need
        for b in squares[r : hi + (rem > 0)]:
            counts[top - b] += 2
        if not rem and hi >= r:
            counts[top - squares[hi]] += 1


# the least integer with 256 divisors (OEIS A002182): below it a divisor
# sum fits in one byte (see sieve_counts)
_BYTE_BOUND = 1_081_080
# chi(d) = +1 or -1 added to each byte of a slice, mod 256
_STEP = {x: bytes((i + x) % 256 for i in range(256)) for x in (1, -1)}


def _chi_slices(delta: int, limit: int) -> Iterator[tuple[slice, int]]:
    """The (slice, chi) updates of ``sieve_counts``, for limit >= 0."""
    chi = [kronecker_symbol(delta, r or delta) for r in range(delta)]  # chi(0) = chi(delta) = 0
    s = min(limit, isqrt(delta * limit))
    for d in range(2, s + 1):
        x = chi[d % delta]
        if x:
            yield slice(d, None, d), x
    # (j0, chi(r)) for each residue r with chi(r) != 0
    runs = [(s + 1 + (r - s - 1) % delta, x) for r, x in enumerate(chi) if x]
    for k in range(1, limit // (s + 1) + 1):
        stop = k * (limit // k) + 1
        for j0, x in runs:
            yield slice(k * j0, stop, k * delta), x


def sieve_counts(D: int, limit: int) -> list[int]:
    """Divisor sums sum_{d | m} chi(d) for every m in [0, limit] at once.

    chi = (Delta / .) has period |Delta| (8, 12 and 24 are fundamental
    discriminants), so it is tabulated once per residue.  The pairs (d, k)
    with d k <= limit split at s = min(limit, isqrt(|Delta| limit)): each
    d <= s with chi(d) != 0 adds chi(d) along counts[d::d] (d = 1 sets the
    initial list of ones); for each k <= limit // (s + 1), the d in
    (s, limit // k] are taken one nonzero residue r of chi at a time, so
    chi(r) is added along counts[k j0 : : k |Delta|] with j0 the least
    j > s with j = r mod |Delta|.  Each pair is still touched once, and only
    the d with chi(d) != 0 are: a half of them for Delta = 8 and a third for
    12 and 24.  The first half makes about phi(|Delta|) s / |Delta| slice
    updates and the second phi(|Delta|) limit / s, so this s, the balance
    point of the two, makes about 2 phi(|Delta|) sqrt(limit / |Delta|) in
    all, where s = isqrt(limit) would make up to
    (1 + phi(|Delta|)) sqrt(limit).  Below limit = |Delta|, s = limit and the
    second half is empty.

    Below limit 1 081 080 the counts live in a bytearray and each update is
    one ``translate`` through a +1 or -1 table, so every byte is its count
    mod 256.  That is the count itself: it is the number of ideals of norm m,
    so 0 <= count <= d(m) <= 240 for every m < 1 081 080, the least integer
    with 256 divisors, and the additions commute mod 256.  From that limit
    on, the same updates run on a list of ints.  Either way the result is a
    list of ints.
    """
    delta = field_spec(D).discriminant
    check_int(limit, "limit")
    if limit < 0:
        return []
    updates = _chi_slices(delta, limit)
    if limit < _BYTE_BOUND:
        counts = bytearray(b"\0" + b"\1" * limit)
        for run, x in updates:
            counts[run] = counts[run].translate(_STEP[x])
        return list(counts)
    counts = [0] + [1] * limit
    for run, x in updates:
        counts[run] = map(add, counts[run], repeat(x))
    return counts


def ideal_counts(D: int, limit: int) -> tuple[list[int], list[int]]:
    """The counts for m in [0, limit] of both restrictions, "all" (the
    divisor sums) and "neg" (the m < 0 window), once the divisor sums and
    the unit-orbit windows agree on every m.  For D = 3 and 6 the m > 0
    window is swept onto a copy of the m < 0 list, so one list holds
    pos[m] + neg[m]."""
    f = field_spec(D)
    x1p = f.x1 + 1
    plus, minus = _windows(f)
    sieve = sieve_counts(D, limit)
    neg = [0] * (limit + 1)
    _sweep(neg, *minus, x1p)
    # D = 2 has the unit 1 + sqrt(2) of norm -1, so each window carries every
    # ideal; D = 3 and 6 have none, and each ideal lies in exactly one window
    swept = [0] * (limit + 1) if D == 2 else neg.copy()
    _sweep(swept, *plus, x1p)
    checks = (swept, neg) if D == 2 else (swept,)
    if any(got != sieve for got in checks):
        m = next(m for m in range(limit + 1) if any(got[m] != sieve[m] for got in checks))
        pos = swept[m] if D == 2 else swept[m] - neg[m]
        raise InvariantViolation(
            f"ideal counts disagree for D={D} at m={m}: unit-orbit windows give "
            f"{pos} (+) and {neg[m]} (-), the divisor sum {sieve[m]}"
        )
    return sieve, neg


def ideal_series(query: IdealQuery, order: int, weight: Coeff = 1) -> LaurentSeries:
    """Generating function sum_m weight * count(m) * q^m over one norm class.

    Both counts of every norm through ``order`` are cross-checked first
    (see ``ideal_counts``), so a miscount raises ``InvariantViolation``.
    ``weight`` is an int or a Fraction, not a bool; each coefficient is an
    int wherever its value is integral.
    """
    check_exact(weight, "weight")
    check_order(order)
    return class_series(query, ideal_counts(query.D, order), order, weight)


def class_series(query: IdealQuery, counts: tuple, order: int, weight: Coeff) -> LaurentSeries:
    """``ideal_series`` read from ``counts``, the (all, neg) pair of
    ``ideal_counts`` of the query's field through at least ``order``."""
    start = query.residue if query.residue else query.modulus
    counts = counts[query.restriction == "neg"][start : order + 1 : query.modulus]
    p, d = weight.numerator, weight.denominator
    scaled = map(mul, counts, repeat(p))
    coeffs = [0] * max(order + 1 - start, 0)
    if d == 1:
        coeffs[:: query.modulus] = scaled
    else:
        coeffs[:: query.modulus] = [cp // d if cp % d == 0 else Fraction(cp, d) for cp in scaled]
    return LaurentSeries._adopt(start, coeffs, order)
