"""Exact truncated Laurent series over the rationals.

The one value type everything else in this package computes with.  A series
is stored densely: ``coeffs[i]`` is the coefficient of ``q**(offset + i)``.
``order`` is the *knowledge horizon*: coefficients are correct for every
exponent ``<= order`` and unknown beyond it.  ``order = None`` means the
series is an exact Laurent polynomial (known everywhere, zero off-support).

Coefficients are Python ints whenever possible and ``fractions.Fraction``
otherwise; the hot loops (``mul_binomial`` / ``div_binomial`` with unit
coefficients) never leave the integers.

The per-coefficient work runs in C-level slice operations, not Python
loops: ``__add__`` and ``mul_binomial`` are one ``map`` over aligned
slices, and ``div_binomial`` is a prefix sum along each residue class of
the index mod e (see ``div_binomial_into``).  The two binomial kernels also
work in place on a bare coefficient list (``mul_binomial_into``,
``div_binomial_into``), and ``apply_binomials_into`` multiplies such a list
by a list of binomials and divides it by another: that is how ``chain``
sums its ratio chains and ``bailey`` builds its levels without building a
series per term.  Each coefficient is the one the plain per-index loop
gives, type included.

Order propagation is conservative: an operation claims a coefficient only
when its inputs determine it.  For a product this means

    order = min(a.order + val(b), b.order + val(a))

where ``val`` is the lowest exponent that could carry a nonzero coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Union

Coeff = Union[int, Fraction]

__all__ = [
    "LaurentSeries",
    "UnknownCoefficient",
    "first_mismatch",
]


class UnknownCoefficient(ValueError):
    """Raised when a coefficient beyond the tracked order is requested."""


def _norm(x: Coeff) -> Coeff:
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def mul_binomial_into(buf: list, c: Coeff, e: int, m: int) -> None:
    """Multiply the coefficient list ``buf`` by (1 - c * q**e) in place.

    Index i stands for q**i; coefficients from index ``m`` on are beyond the
    horizon and are not produced.  ``buf`` grows by up to e zeros first.
    Every right-hand slice is a copy taken before the assignment, so the
    update reads the old coefficients.
    """
    if e < 1:
        raise ValueError("binomial exponent must be >= 1")
    n = len(buf)
    m = min(n + e, m)
    if m <= e:
        return
    if m > n:
        buf.extend(repeat(0, m - n))
    low = buf[:m - e]
    if c == 1:
        buf[e:m] = map(sub, buf[e:m], low)
    elif c == -1:
        buf[e:m] = map(add, buf[e:m], low)
    else:
        buf[e:m] = map(sub, buf[e:m], map(mul, repeat(c), low))


def div_binomial_into(buf: list, c: Coeff, e: int, m: int) -> None:
    """Divide the coefficient list ``buf`` by (1 - c * q**e) in place, through index m - 1.

    ``buf`` is padded with zeros to length ``m``; it must not be longer.  The
    quotient satisfies out[i] = buf[i] + c * out[i - e]: a prefix sum along
    each residue class of the index mod e.  With e*e <= 4*m there are few
    long classes, summed one strided slice at a time by ``accumulate``;
    otherwise there are few blocks of e consecutive indices, each updated
    from the block before it by one ``map``.  Division by 1 + q**e is done
    as multiplication by 1 - q**e and division by 1 - q**(2e), which keeps
    that case on the unit prefix sum.
    """
    if e < 1:
        raise ValueError("binomial exponent must be >= 1")
    if len(buf) < m:
        buf.extend(repeat(0, m - len(buf)))
    if c == -1:
        mul_binomial_into(buf, 1, e, m)
        c, e = 1, 2 * e
    if e >= m:
        return
    if e * e <= 4 * m:
        if c == 1:
            for r in range(e):
                buf[r:m:e] = accumulate(buf[r:m:e])
        else:
            for r in range(e):
                buf[r:m:e] = accumulate(buf[r:m:e], lambda acc, x: x + c * acc)
        return
    for lo in range(e, m, e):
        hi = min(lo + e, m)
        prev = buf[lo - e:hi - e]
        if c == 1:
            buf[lo:hi] = map(add, buf[lo:hi], prev)
        else:
            buf[lo:hi] = map(add, buf[lo:hi], map(mul, repeat(c), prev))


def apply_binomials_into(buf: list, num, den, m: int) -> None:
    """Multiply ``buf`` by (1 - c * q**e) for each (c, e) of ``num``, then
    divide it by the same for each of ``den``, in place, through index m - 1."""
    for c, e in num:
        mul_binomial_into(buf, c, e, m)
    for c, e in den:
        div_binomial_into(buf, c, e, m)


class LaurentSeries:
    """Immutable truncated Laurent series with exact rational coefficients."""

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs: Iterable[Coeff], order: int | None = None):
        co = list(coeffs)
        # trim leading zeros (raising offset) and trailing zeros, in place,
        # so that the owned copy is the only one
        lo = 0
        while lo < len(co) and not co[lo]:
            lo += 1
        hi = len(co)
        while hi > lo and not co[hi - 1]:
            hi -= 1
        del co[hi:]
        del co[:lo]
        offset += lo
        if order is not None and co and offset + len(co) - 1 > order:
            raise ValueError("coefficient stored beyond declared order")
        if not co:
            offset = 0 if order is None else order + 1
        self.offset = offset
        self.coeffs = co
        self.order = order

    # ----------------------------------------------------------- constructors

    @classmethod
    def zero(cls, order: int | None = None) -> "LaurentSeries":
        return cls(0, [], order)

    @classmethod
    def one(cls, order: int | None = None) -> "LaurentSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def monomial(cls, c: Coeff = 1, e: int = 0, order: int | None = None) -> "LaurentSeries":
        if order is not None and e > order:
            return cls.zero(order)
        return cls(e, [_norm(c)], order)

    @classmethod
    def from_items(cls, items: Iterable[tuple[int, Coeff]], order: int | None = None) -> "LaurentSeries":
        """Build from (exponent, coefficient) pairs; repeats accumulate."""
        acc: dict[int, Coeff] = {}
        for e, c in items:
            if order is not None and e > order:
                continue
            acc[e] = acc.get(e, 0) + c
        if not acc:
            return cls.zero(order)
        lo = min(acc)
        hi = max(acc)
        co: list[Coeff] = [0] * (hi - lo + 1)
        for e, c in acc.items():
            co[e - lo] = _norm(c)
        return cls(lo, co, order)

    # -------------------------------------------------------------- accessors

    def is_zero(self) -> bool:
        """True when every tracked coefficient vanishes."""
        return not self.coeffs

    def valuation(self) -> int | None:
        """Lowest exponent with a nonzero tracked coefficient (None if zero)."""
        return self.offset if self.coeffs else None

    def degree(self) -> int | None:
        """Highest exponent with a nonzero tracked coefficient (None if zero)."""
        return self.offset + len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, e: int) -> Coeff:
        """Coefficient of q**e; raises beyond the knowledge horizon."""
        if self.order is not None and e > self.order:
            raise UnknownCoefficient(f"exponent {e} beyond tracked order {self.order}")
        i = e - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def items(self) -> Iterator[tuple[int, Coeff]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield (self.offset + i, c)

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = _min_order(self.order, other.order)
        if self.is_zero():
            return other.truncate(order) if order != other.order else other
        if other.is_zero():
            return self.truncate(order) if order != self.order else self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs)) - 1
        if order is not None:
            hi = min(hi, order)
        out: list[Coeff] = [0] * (hi - lo + 1)
        a = self.offset - lo
        k = min(len(self.coeffs), len(out) - a)
        if k > 0:
            out[a:a + k] = self.coeffs[:k]
        b = other.offset - lo
        k = min(len(other.coeffs), len(out) - b)
        if k > 0:
            out[b:b + k] = map(add, out[b:b + k], other.coeffs[:k])
        return LaurentSeries(lo, out, order)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # An exactly-zero factor annihilates regardless of the other order.
        if self.is_zero() and self.order is None:
            return self
        if other.is_zero() and other.order is None:
            return other
        order = _mul_order(self, other)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(order)
        a, b = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        lo = a.offset + b.offset
        hi = a.offset + len(a.coeffs) + b.offset + len(b.coeffs) - 2
        if order is not None:
            hi = min(hi, order)
        if hi < lo:
            return LaurentSeries.zero(order)
        out: list[Coeff] = [0] * (hi - lo + 1)
        bco = b.coeffs
        for i, av in enumerate(a.coeffs):
            if not av:
                continue
            # (a.offset+i) + (b.offset+j) - lo == i + j
            for j in range(min(len(bco), hi - lo - i + 1)):
                out[i + j] += av * bco[j]
        return LaurentSeries(lo, out, order)

    def scale(self, c: Coeff) -> "LaurentSeries":
        """Multiply every coefficient by the constant c.

        Every coefficient that comes out integral is an int, whatever c is:
        an integral c over int coefficients is one ``map`` (none for c = 1),
        and anything else goes through ``_norm``.
        """
        if not c:
            return LaurentSeries.zero(self.order)
        if c != int(c) or Fraction in map(type, self.coeffs):
            return LaurentSeries(self.offset, [_norm(c * x) for x in self.coeffs], self.order)
        return self if c == 1 else LaurentSeries(self.offset, map(mul, self.coeffs, repeat(int(c))), self.order)

    def mul_monomial(self, c: Coeff, e: int) -> "LaurentSeries":
        """Multiply by c * q**e: ``scale`` by c, moved by e."""
        order = None if self.order is None else self.order + e
        return LaurentSeries(self.offset + e, self.scale(c).coeffs, order)

    def mul_binomial(self, c: Coeff, e: int) -> "LaurentSeries":
        """Multiply by (1 - c * q**e), e >= 1.  Exact; order is preserved."""
        if e < 1:
            raise ValueError("binomial exponent must be >= 1")
        if self.is_zero() or not c:
            return self
        co = self.coeffs
        n = len(co)
        if self.order is None:
            m = n + e
        else:
            m = min(n + e, self.order - self.offset + 1)
        if m <= e:
            # the shifted copy lies entirely beyond the horizon
            return self
        out = co[:m]
        mul_binomial_into(out, c, e, m)
        return LaurentSeries(self.offset, out, self.order)

    def div_binomial(self, c: Coeff, e: int, order: int | None = None) -> "LaurentSeries":
        """Divide by (1 - c * q**e), e >= 1, truncating at ``order``.

        The quotient is an infinite series, so a finite horizon is required:
        either the series already has one or ``order`` must be given.
        """
        if e < 1:
            raise ValueError("binomial exponent must be >= 1")
        if order is None:
            order = self.order
        elif self.order is not None:
            order = min(order, self.order)
        if self.is_zero():
            return LaurentSeries.zero(order)
        if order is None:
            raise ValueError("dividing by a binomial needs a truncation order")
        if not c:
            return self.truncate(order)
        m = order - self.offset + 1
        if m <= 0:
            return LaurentSeries.zero(order)
        out = self.coeffs[:m]
        div_binomial_into(out, c, e, m)
        return LaurentSeries(self.offset, out, order)

    def truncate(self, order: int | None) -> "LaurentSeries":
        """Restrict the knowledge horizon to ``order`` (drops higher terms)."""
        if order is None:
            if self.order is None:
                return self
            raise ValueError("cannot extend a truncated series to an exact one")
        if self.order is not None and self.order <= order:
            return self
        keep = max(0, order - self.offset + 1)
        return LaurentSeries(self.offset, self.coeffs[:keep], order)

    def dilate_shift(self, t: int, s: int) -> "LaurentSeries":
        """Return q**s * f(q**t): exponent e maps to t*e + s."""
        if t < 1:
            raise ValueError("dilation factor must be a positive integer")
        order = None if self.order is None else t * self.order + s
        if not self.coeffs:
            return LaurentSeries.zero(order)
        out: list[Coeff] = [0] * ((len(self.coeffs) - 1) * t + 1)
        out[::t] = self.coeffs
        return LaurentSeries(t * self.offset + s, out, order)

    def alternate(self) -> "LaurentSeries":
        """Substitute q -> -q (negate coefficients at odd exponents)."""
        co = [(-c if (self.offset + i) % 2 else c) for i, c in enumerate(self.coeffs)]
        return LaurentSeries(self.offset, co, self.order)

    # ------------------------------------------------------------- comparison

    def __eq__(self, other: object) -> bool:
        """Mathematical equality: coefficient-wise up to the common horizon."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return first_mismatch(self, other) is None

    __hash__ = None  # type: ignore[assignment]

    # ---------------------------------------------------------- serialization

    def to_payload(self) -> dict:
        """JSON-ready dict: offset, order, and the nonzero coefficients."""
        if self.order is not None:
            order = self.order
        else:
            d = self.degree()
            order = d if d is not None else 0
        return {
            "offset": self.offset if self.coeffs else 0,
            "order": order,
            "coefficients": [
                {"exp": e, "num": str(Fraction(c).numerator), "den": str(Fraction(c).denominator)}
                for e, c in self.items()
            ],
        }

    def to_csv_rows(self) -> list[tuple[int, str, str]]:
        return [
            (e, str(Fraction(c).numerator), str(Fraction(c).denominator))
            for e, c in self.items()
        ]

    def __repr__(self) -> str:
        parts = []
        for e, c in list(self.items())[:8]:
            parts.append(f"{c}*q^{e}" if e else f"{c}")
        body = " + ".join(parts) if parts else "0"
        if len(self.coeffs) > 8:
            body += " + ..."
        tail = f" + O(q^{self.order + 1})" if self.order is not None else ""
        return f"<{body}{tail}>"


def _min_order(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _mul_order(a: LaurentSeries, b: LaurentSeries) -> int | None:
    """Conservative product horizon: unknown tail of one factor times the
    lowest possible exponent of the other."""

    def lowest_possible(f: LaurentSeries) -> int:
        v = f.valuation()
        if v is not None:
            return v
        # an all-zero truncated series could first be nonzero just past its horizon
        return f.order + 1 if f.order is not None else 0

    cand = []
    if a.order is not None:
        cand.append(a.order + lowest_possible(b))
    if b.order is not None:
        cand.append(b.order + lowest_possible(a))
    return min(cand) if cand else None


def first_mismatch(
    a: LaurentSeries, b: LaurentSeries, through: int | None = None
) -> tuple[int, Coeff, Coeff] | None:
    """First exponent where a and b disagree, with both coefficients.

    Compares through ``min(a.order, b.order, through)`` (None = unbounded,
    possible only when both series are exact).  Returns None on agreement.
    """
    horizon = _min_order(_min_order(a.order, b.order), through)
    lo_candidates = [v for v in (a.valuation(), b.valuation()) if v is not None]
    if not lo_candidates:
        return None
    lo = min(lo_candidates)
    his = [d for d in (a.degree(), b.degree()) if d is not None]
    hi = max(his)
    if horizon is not None:
        hi = min(hi, horizon)
    wa = _window(a, lo, hi)
    wb = _window(b, lo, hi)
    if wa == wb:
        return None
    for e, ca, cb in zip(range(lo, hi + 1), wa, wb):
        if ca != cb:
            return (e, ca, cb)
    return None


def _window(f: LaurentSeries, lo: int, hi: int) -> list[Coeff]:
    """Coefficients of q**lo .. q**hi, zeros outside the stored run."""
    n = max(0, hi - lo + 1)
    left = min(n, max(0, f.offset - lo))
    body = f.coeffs[max(0, lo - f.offset) : max(0, hi - f.offset + 1)]
    return [0] * left + body + [0] * (n - left - len(body))
