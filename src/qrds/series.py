"""Exact truncated Laurent series over the rationals.

The one value type everything else in this package computes with.  A series
is stored densely: ``coeffs[i]`` is the coefficient of ``q**(offset + i)``.
``order`` is the *knowledge horizon*: coefficients are correct for every
exponent ``<= order`` and unknown beyond it.  ``order = None`` means the
series is an exact Laurent polynomial (known everywhere, zero off-support).

Coefficients are Python ints whenever possible and ``fractions.Fraction``
otherwise, and ``LaurentSeries(...)`` refuses any other coefficient type
(``TypeError``); a scalar (``scale``, ``monomial``) is an int or a
Fraction, never a float or a bool.  An offset or exponent is an int, and a
horizon (an ``order``, ``truncate``'s or ``first_mismatch``'s ``through``)
an int or None, negative ones included; anything else, a bool or an
integral float included, raises ``TypeError``.

A binomial is 1 - c * q**e with e >= 1 and c the int 1 or -1: the
q-Pochhammer factors 1 - q**e and 1 + q**e of a q-hypergeometric term ratio
are the only binomials the engine writes.  Every binomial operation refuses
any other c, 0, 2, ``Fraction(1)`` and ``True`` included, and any e that is
not an int >= 1, with ``ValueError`` before it touches its input, so every
binomial pass is additions and subtractions alone.

The per-coefficient work runs in C-level slice operations, not Python
loops: ``__add__`` and a binomial product are one ``map`` over aligned
slices, and a binomial quotient is a prefix sum along each residue class
of the index mod e or one pass of block sums or differences (see
``_div_into``).  Every binomial pass goes through one list kernel,
``apply_binomials_into``, which multiplies a bare coefficient list by a
list of binomials and divides it by another, in place: that is how
``chain`` sums its ratio chains, ``bailey`` builds its levels and
``mul_binomial``/``div_binomial`` work, without building a series per
term.  It checks each binomial and the horizon once, before its first
pass, and refuses a list longer than the horizon, whose tail it would
leave as it is; the pass bodies ``_mul_into`` and ``_div_into`` check
nothing.  Each coefficient is the one the plain per-index loop gives, type
included.
``first_mismatch`` cuts the compared range at the ends of both stored runs
and compares each piece as two slices (or checks with ``any`` that the one
stored slice is zero), so no padded copy is built and only a piece that
differs is walked exponent by exponent; a piece that is a series' whole
stored run is compared without copying it.

A series owns its coefficient list.  ``LaurentSeries(...)`` copies what it
is given; an operation that has just built a list hands it over through the
private ``_adopt``, which trims it in place under the same rules.

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

from .errors import check_exact, check_int

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


def _check_optional_order(order, name: str = "order") -> None:
    """A horizon is None (exact) or an int, negative ones included."""
    if order is not None:
        check_int(order, name)


def _check_binomial(c: int, e: int) -> None:
    """The binomials every binomial operation refuses: c anything but the
    int 1 or -1, or e anything but an int >= 1 (a bool, a float or a
    Fraction is not an int)."""
    if type(c) is not int or c not in (1, -1):
        raise ValueError(f"binomial coefficient must be the int 1 or -1, got {c!r}")
    if type(e) is not int or e < 1:
        raise ValueError(f"binomial exponent must be an int >= 1, got {e!r}")


def _mul_into(buf: list, c: int, e: int, m: int) -> None:
    """Multiply ``buf`` by (1 - c * q**e) in place through index m - 1,
    ``buf`` grown by up to e zeros first: one ``map`` of ``sub`` (c = 1) or
    ``add`` (c = -1) over a copy of the low slice taken before the
    assignment, so it reads the old coefficients."""
    n = len(buf)
    m = min(n + e, m)
    if m <= e:
        return
    if m > n:
        buf.extend(repeat(0, m - n))
    buf[e:m] = map(sub if c == 1 else add, buf[e:m], buf[:m - e])


# Division by 1 + q**e with e at least this takes one block pass; below it,
# it is multiplication by 1 - q**e and division by 1 - q**(2e).  The block
# pass makes m/e slice updates, the other route e strided sums, which win for
# small e.  Timed on int lists (2-core Xeon, Python 3.11), the two break even
# near e = 10 at m = 300, e = 15 at m = 1000 and e = 19 at m = 10**4; replaying
# every such division of verify_all(400), of SIGMA at 10**4 and of each
# catalog id at its series-scan order, 14 was within 4 % of the best
# crossover for both.
_NEG_BLOCK_MIN_E = 14


def _div_into(buf: list, c: int, e: int, m: int) -> None:
    """Divide ``buf`` by (1 - c * q**e) in place through index m - 1,
    ``buf`` padded with zeros to length m.

    The quotient is the per-index loop out[i] = buf[i] + c * out[i - e],
    made by slice passes.  With c = 1 and e*e <= 4*m there are few long
    residue classes of the index mod e, each summed as one strided slice by
    ``accumulate``; otherwise there are few blocks of e consecutive indices,
    each updated from the block before it by one ``map`` of ``add`` (c = 1)
    or ``sub`` (c = -1).  Division by 1 + q**e with e below
    ``_NEG_BLOCK_MIN_E`` is multiplication by 1 - q**e and division by
    1 - q**(2e), which keeps it on the c = 1 routes.
    """
    buf.extend(repeat(0, m - len(buf)))
    if c == -1 and e < _NEG_BLOCK_MIN_E:
        _mul_into(buf, 1, e, m)
        c, e = 1, 2 * e
    if c == 1 and e * e <= 4 * m:
        for r in range(e):
            buf[r:m:e] = accumulate(buf[r:m:e])
        return
    op = add if c == 1 else sub
    for lo in range(e, m, e):
        buf[lo:lo + e] = map(op, buf[lo:lo + e], buf[lo - e:lo])


def apply_binomials_into(buf: list, num, den, m: int) -> None:
    """Multiply the coefficient list ``buf`` by (1 - c * q**e) for each
    (c, e) of ``num``, then divide it by the same for each of ``den``, in
    place, through index m - 1; index i stands for q**i.

    This is the one binomial list kernel.  Every binomial is checked
    (``_check_binomial``), and so is the horizon, once, before the first
    pass: a ``buf`` longer than m raises ``ValueError``, as its tail would
    stay unmultiplied or undivided.  The passes check nothing.  A product
    grows ``buf`` by up to e zeros, and a quotient pads it to length m.
    """
    for c, e in (*num, *den):
        _check_binomial(c, e)
    if len(buf) > m:
        raise ValueError(f"coefficient list of length {len(buf)} is longer than the horizon {m}")
    for c, e in num:
        _mul_into(buf, c, e, m)
    for c, e in den:
        _div_into(buf, c, e, m)


class LaurentSeries:
    """Immutable truncated Laurent series with exact rational coefficients."""

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs: Iterable[Coeff], order: int | None = None):
        co = list(coeffs)
        bad = set(map(type, co)) - {int, Fraction}
        if bad:
            raise TypeError(f"coefficients must be ints or Fractions, got {', '.join(sorted(t.__name__ for t in bad))}")
        check_int(offset, "offset")
        _check_optional_order(order)
        self._own(offset, co, order)

    @classmethod
    def _adopt(cls, offset: int, co: list, order: int | None = None) -> "LaurentSeries":
        """The series of ``co``, a list its caller has just built and hands
        over: trimmed in place as ``__init__`` trims its copy, not copied.
        Its coefficients are not checked: every caller builds the list from
        the ints and Fractions of series and scalars already checked, by
        additions, products and exact divisions."""
        f = object.__new__(cls)
        f._own(offset, co, order)
        return f

    def _own(self, offset: int, co: list, order: int | None) -> None:
        # trim leading zeros (raising offset) and trailing zeros, in place
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
        """c * q**e: q**e scaled by c, zero if e lies beyond ``order``."""
        check_int(e, "exponent")
        _check_optional_order(order)
        return (cls.zero(order) if order is not None and e > order else cls(e, [1], order)).scale(c)

    @classmethod
    def from_items(cls, items: Iterable[tuple[int, Coeff]], order: int | None = None) -> "LaurentSeries":
        """Build from (exponent, coefficient) pairs; repeats accumulate."""
        _check_optional_order(order)
        acc: dict[int, Coeff] = {}
        for e, c in items:
            check_int(e, "exponent")
            check_exact(c, "coefficient")
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
        check_int(e, "exponent")
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
        return LaurentSeries._adopt(lo, out, order)

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
        return LaurentSeries._adopt(lo, out, order)

    def scale(self, c: Coeff) -> "LaurentSeries":
        """Multiply every coefficient by the constant c.

        c is an int or a Fraction, not a bool (``errors.check_exact``).  Every
        coefficient that comes out integral is an int, whatever c is: an
        integral c over int coefficients is one ``map`` (none for c = 1), and
        anything else goes through ``_norm``.
        """
        check_exact(c, "scalar")
        if not c:
            return LaurentSeries.zero(self.order)
        if c != int(c) or Fraction in map(type, self.coeffs):
            return LaurentSeries._adopt(self.offset, [_norm(c * x) for x in self.coeffs], self.order)
        return self if c == 1 else LaurentSeries(self.offset, map(mul, self.coeffs, repeat(int(c))), self.order)

    def mul_monomial(self, c: Coeff, e: int) -> "LaurentSeries":
        """Multiply by c * q**e: ``scale`` by c, moved by e."""
        check_int(e, "exponent")
        order = None if self.order is None else self.order + e
        return LaurentSeries(self.offset + e, self.scale(c).coeffs, order)

    def mul_binomial(self, c: int, e: int) -> "LaurentSeries":
        """Multiply by (1 - c * q**e), c = 1 or -1, e >= 1.  Exact; order is preserved."""
        _check_binomial(c, e)
        m = len(self.coeffs) + e
        if self.order is not None:
            m = min(m, self.order - self.offset + 1)
        if m <= e:
            # the shifted copy lies entirely beyond the horizon (or is zero)
            return self
        out = self.coeffs[:m]
        apply_binomials_into(out, ((c, e),), (), m)
        return LaurentSeries._adopt(self.offset, out, self.order)

    def div_binomial(self, c: int, e: int, order: int | None = None) -> "LaurentSeries":
        """Divide by (1 - c * q**e), c = 1 or -1, e >= 1, truncating at ``order``.

        The quotient is an infinite series, so a finite horizon is required:
        either the series already has one or ``order`` must be given.
        """
        _check_binomial(c, e)
        _check_optional_order(order)
        order = _min_order(order, self.order)
        if self.is_zero():
            return LaurentSeries.zero(order)
        if order is None:
            raise ValueError("dividing by a binomial needs a truncation order")
        m = order - self.offset + 1
        if m <= 0:
            return LaurentSeries.zero(order)
        out = self.coeffs[:m]
        apply_binomials_into(out, (), ((c, e),), m)
        return LaurentSeries._adopt(self.offset, out, order)

    def truncate(self, order: int | None) -> "LaurentSeries":
        """Restrict the knowledge horizon to ``order`` (drops higher terms)."""
        _check_optional_order(order)
        if order is None:
            if self.order is None:
                return self
            raise ValueError("cannot extend a truncated series to an exact one")
        if self.order is not None and self.order <= order:
            return self
        keep = max(0, order - self.offset + 1)
        return LaurentSeries._adopt(self.offset, self.coeffs[:keep], order)

    def dilate_shift(self, t: int, s: int) -> "LaurentSeries":
        """Return q**s * f(q**t): exponent e maps to t*e + s."""
        check_int(t, "t")
        check_int(s, "s")
        if t < 1:
            raise ValueError("dilation factor must be a positive integer")
        order = None if self.order is None else t * self.order + s
        if not self.coeffs:
            return LaurentSeries.zero(order)
        out: list[Coeff] = [0] * ((len(self.coeffs) - 1) * t + 1)
        out[::t] = self.coeffs
        return LaurentSeries._adopt(t * self.offset + s, out, order)

    def alternate(self) -> "LaurentSeries":
        """Substitute q -> -q (negate coefficients at odd exponents)."""
        co = [(-c if (self.offset + i) % 2 else c) for i, c in enumerate(self.coeffs)]
        return LaurentSeries._adopt(self.offset, co, self.order)

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
    A coefficient a series does not store is returned as the int 0.
    """
    _check_optional_order(through, "through")
    horizon = _min_order(_min_order(a.order, b.order), through)
    lo_candidates = [v for v in (a.valuation(), b.valuation()) if v is not None]
    if not lo_candidates:
        return None
    lo = min(lo_candidates)
    his = [d for d in (a.degree(), b.degree()) if d is not None]
    hi = max(his)
    if horizon is not None:
        hi = min(hi, horizon)
    # cut [lo, hi] at both ends of both stored runs: on each piece a series
    # either stores every coefficient or none, and the latter are zero
    ends = {lo, hi + 1}
    for f in (a, b):
        ends.update((f.offset, f.offset + len(f.coeffs)))
    cuts = sorted(e for e in ends if lo <= e <= hi + 1)
    for s, t in zip(cuts, cuts[1:]):
        pa, pb = _stored(a, s, t), _stored(b, s, t)
        if pa is None or pb is None:
            if not any(pa or pb or ()):
                continue
        elif pa == pb:
            continue
        for e, ca, cb in zip(range(s, t), pa or repeat(0), pb or repeat(0)):
            if ca != cb:
                return (e, ca, cb)
    return None


def _stored(f: LaurentSeries, s: int, t: int) -> list[Coeff] | None:
    """The stored coefficients of q**s .. q**(t-1), or None if f stores
    none of them; [s, t) lies inside or outside f's stored run.  The whole
    run is f's own list, not a copy: the caller only reads it."""
    i = s - f.offset
    co = f.coeffs
    if not 0 <= i < len(co):
        return None
    return co if i == 0 and t - s == len(co) else co[i : i + t - s]
