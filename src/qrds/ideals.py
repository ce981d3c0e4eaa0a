"""Ideal-norm counting in the real quadratic orders Z[sqrt(D)], D in {2, 3, 6}.

Two independent counting paths are provided:

* an arithmetic one — the number of integral ideals of Z[sqrt(D)] of norm m
  equals ``sum_{d | m} chi(d)`` where chi is the Kronecker symbol mod 4D;
* a lattice one — canonical representatives of solutions of
  ``u^2 - D v^2 = m`` (one per orbit of the fundamental totally positive
  unit), counted by direct window enumeration.

For D = 2 the unit x1 + y1*sqrt(D) has norm +1 and the two paths agree for
each sign of m separately; for D = 3 and 6 every ideal comes from exactly
one of the two signs, so the counts for +m and -m add up to the divisor sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import InvariantViolation, UnsupportedField
from .series import Coeff, LaurentSeries

__all__ = [
    "FieldSpec",
    "IdealQuery",
    "field_spec",
    "kronecker_symbol",
    "ideal_count",
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


def _divisor_count(D: int, m: int) -> int:
    """sum_{d | m} chi(d) with chi the Kronecker symbol mod 4D."""
    if m < 1:
        raise ValueError("m must be >= 1")
    delta = field_spec(D).discriminant
    total = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            total += kronecker_symbol(delta, d)
            e = m // d
            if e != d:
                total += kronecker_symbol(delta, e)
        d += 1
    return total


def canonical_reps(D: int, m: int) -> list[tuple[int, int]]:
    """Canonical solutions of u^2 - D v^2 = m, one per unit orbit.

    For m > 0 the window is  u > 0  and  -y1 u < v (x1+1) <= y1 u;
    for m < 0 it is          v > 0  and  -D y1 v < u (x1+1) <= D y1 v.
    Everything is compared exactly in cross-multiplied integers.  The
    enumeration range carries a 2x safety margin over the bound the window
    implies, and the margin is checked empty afterwards.
    """
    f = field_spec(D)
    if m == 0:
        raise ValueError("m must be nonzero")
    x1p = f.x1 + 1
    reps: list[tuple[int, int]] = []
    margin: list[tuple[int, int]] = []
    if m > 0:
        # window forces 2 u^2 / (x1+1) <= m
        bound = isqrt(m * x1p // 2) + 1
        for u in range(1, 2 * bound + 1):
            t = u * u - m
            if t < 0:
                continue
            if t % f.D:
                continue
            w = t // f.D
            v = isqrt(w)
            if v * v != w:
                continue
            for vv in ({v, -v} if v else {0}):
                if -f.y1 * u < vv * x1p <= f.y1 * u:
                    (reps if u <= bound else margin).append((u, vv))
    else:
        a = -m
        # window forces 2 D v^2 / (x1+1) <= |m|
        bound = isqrt(a * x1p // (2 * f.D)) + 1
        for v in range(1, 2 * bound + 1):
            t = f.D * v * v - a
            if t < 0:
                continue
            u = isqrt(t)
            if u * u != t:
                continue
            for uu in ({u, -u} if u else {0}):
                if -f.D * f.y1 * v < uu * x1p <= f.D * f.y1 * v:
                    (reps if v <= bound else margin).append((uu, v))
    if margin:
        raise InvariantViolation(f"canonical window bound too small for D={D}, m={m}")
    reps.sort()
    return reps


def ideal_count(D: int, m: int, restriction: str = "all") -> int:
    """Number of ideals of norm m ("all") or of canonical negative-norm
    solutions of u^2 - D v^2 = -m ("neg")."""
    if restriction == "all":
        return _divisor_count(D, m)
    if restriction == "neg":
        return len(canonical_reps(D, -m))
    raise ValueError("restriction must be 'all' or 'neg'")


def sieve_counts(D: int, limit: int) -> list[int]:
    """Divisor-sum counts for every m in [0, limit] at once."""
    delta = field_spec(D).discriminant
    counts = [0] * (limit + 1)
    for d in range(1, limit + 1):
        chi = kronecker_symbol(delta, d)
        if chi:
            for mult in range(d, limit + 1, d):
                counts[mult] += chi
    return counts


def ideal_series(
    query: IdealQuery, order: int, weight: Coeff = 1
) -> LaurentSeries:
    """Generating function sum_m weight * count(m) * q^m over one norm class."""
    if order < 0:
        raise ValueError("order must be >= 0")
    start = query.residue if query.residue else query.modulus
    items: list[tuple[int, Coeff]] = []
    if query.restriction == "all":
        counts = sieve_counts(query.D, order)
        for m in range(start, order + 1, query.modulus):
            c = counts[m]
            if c:
                items.append((m, c * weight))
    else:
        for m in range(start, order + 1, query.modulus):
            c = len(canonical_reps(query.D, -m))
            if c:
                items.append((m, c * weight))
    return LaurentSeries.from_items(items, order)
