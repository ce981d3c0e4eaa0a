"""Direct evaluation of the named q-series (SIGMA, L1..L12, Z2..Z5).

Every series here is summed straight from its defining single or double
sum, entirely in integer arithmetic.  Successive outer terms are produced
by exact term ratios (a monomial times a few binomials over binomials), so
no Pochhammer product is ever expanded twice.

A double sum is summed row by row: row n is sum_k T(n, k), and every
double sum here, direct or on the Bailey pipeline's left-hand side, has
terms T(n, k) = S_n * P_k / (q)_{n-k}, given by the factor ratios
S_(n+1)/S_n and P_(k+1)/P_k.  ``_row_totals`` walks the sum column by
column: it keeps the current term of every live column k as a plain int
list, moves each one row down with S_(n+1)/S_n / (1 - q^(n+1-k)) through
the series kernel's in-place list operations, and opens a new column only
at the diagonal.  The row-step binomials have exponents near n, so their
cost grows with the number of coefficients past the n-th, not with the
whole term; rows past half the horizon cost little beyond the additions.
A monomial only changes a
term's scalar factor (a sign, in every catalog ratio) and offset, the row
total is one int list, and each row becomes exactly one ``LaurentSeries``.

Two summation modes:

* ``classical_sum`` — stops once four consecutive outer terms vanish below
  the truncation horizon (valuations of these sums grow without bound);
* ``star_sum`` — for the four series whose outer terms do *not* die off, the
  partial sums eventually alternate between two values modulo q^(order+1);
  the star value is the average of the two.  Stabilization is detected by
  four consecutive vanishing consecutive-term sums T_n + T_{n-1}.

Each series also carries a proven lower bound for the valuation of its n-th
outer term; the bound is checked while summing (``InvariantViolation``, which
survives ``python -O``), so a transcription slip in a ratio cannot silently
produce plausible-looking output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import InvariantViolation, NoStabilization, NonTerminating, UnknownId
from .series import LaurentSeries, div_binomial_into, mul_binomial_into

_HALF = Fraction(1, 2)

__all__ = [
    "catalog_ids",
    "eval_named",
    "classical_sum",
    "star_sum",
    "normalize_id",
]

# a ratio is (c, e, num, den): multiply by c*q^e, then by (1 - cc*q^ee) for
# each (cc, ee) in num, then divide by the same for each entry of den
Ratio = tuple[int, int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


def _apply(f: LaurentSeries, order: int, ratio: Ratio) -> LaurentSeries:
    c, e, num, den = ratio
    f = f.mul_monomial(c, e)
    if f.order is not None and f.order > order:
        f = f.truncate(order)
    if f.is_zero():
        return f
    for cc, ee in num:
        f = f.mul_binomial(cc, ee)
    for cc, ee in den:
        f = f.div_binomial(cc, ee, order=order)
    return f


_VANISH_STREAK = 4


def classical_sum(terms: Iterable[LaurentSeries], order: int) -> LaurentSeries:
    """Sum outer terms until four in a row vanish below the horizon.

    Raises NonTerminating if terms are still visible after 4*order + 64 of them.
    """
    budget = 4 * order + 64
    total = LaurentSeries.zero(order)
    streak = 0
    count = 0
    for t in terms:
        count += 1
        total = total + t
        v = t.valuation()
        if v is None or v > order:
            streak += 1
            if streak >= _VANISH_STREAK:
                return total
        else:
            streak = 0
        if count > budget:
            raise NonTerminating(
                f"outer terms still visible after {count} of them (order {order})"
            )
    return total


def star_sum(
    terms: Iterable[LaurentSeries], order: int, budget: int | None = None
) -> LaurentSeries:
    """Averaged limit of eventually 2-periodic partial sums.

    Once T_n + T_(n-1) == 0 (mod q^(order+1)) holds for four consecutive n,
    the partial sums alternate between S and S + T_n; the star value is
    their average.  Raises NoStabilization if the budget runs out first.
    """
    if budget is None:
        budget = 4 * order + 64
    total = LaurentSeries.zero(order)
    prev_total = total
    prev_term: LaurentSeries | None = None
    streak = 0
    count = 0
    for t in terms:
        count += 1
        prev_total = total
        total = total + t
        if prev_term is not None:
            s = t + prev_term
            v = s.valuation()
            if v is None or v > order:
                streak += 1
                if streak >= _VANISH_STREAK:
                    return (total + prev_total).scale(_HALF)
            else:
                streak = 0
        prev_term = t
        if count > budget:
            raise NoStabilization(
                f"partial sums not 2-periodic after {count} terms (order {order})",
                n_limit=count,
            )
    raise NoStabilization(
        f"term stream ended after {count} terms without stabilizing", n_limit=count
    )


# ---------------------------------------------------------------- catalogue

# each single-sum entry: (n0, start_coeff, start_exp, start_den, ratio(n))
# where start = start_coeff * q^start_exp / prod (1 - c q^e) for (c,e) in den

_Single = tuple[int, int, int, tuple[tuple[int, int], ...], Callable[[int], Ratio]]

_SINGLES: dict[str, tuple[_Single, Callable[[int], int]]] = {
    "SIGMA": (
        (0, 1, 0, (), lambda n: (1, n + 1, (), ((-1, n + 1),))),
        lambda n: n * (n + 1) // 2,
    ),
    "Z2": (
        (1, 1, 1, ((-1, 1),), lambda n: (1, 1, ((-1, 2 * n),), ((-1, 2 * n + 1),))),
        lambda n: n,
    ),
    "Z3": (
        (
            1,
            -1,
            2,
            ((-1, 1), (-1, 2)),
            lambda n: (-1, 2 * n + 2, ((1, 2 * n),), ((-1, 2 * n + 1), (-1, 2 * n + 2))),
        ),
        lambda n: n * n + n,
    ),
    "Z4": (
        (
            0,
            1,
            0,
            ((-1, 1),),
            lambda n: (-1, 2 * n + 2, ((1, 2 * n + 2),), ((-1, 2 * n + 2), (-1, 2 * n + 3))),
        ),
        lambda n: n * n + n,
    ),
    "Z5": (
        (1, -1, 1, ((1, 1),), lambda n: (-1, 1, ((1, n),), ((1, 2 * n + 1),))),
        lambda n: n,
    ),
}


class _Double(NamedTuple):
    """The double sum of T(n, k) = S_n * P_k / (q)_{n-k} over n >= k >= k0.

    T(k0, k0) = c0 * q^e0 / (1 - q), ``s_ratio(n)`` is S_(n+1) / S_n and
    ``p_ratio(k)`` is P_(k+1) / P_k; ``bound(n)`` is a proven lower bound for
    the valuation of row n.  The series is ``scale`` times the sum (starred
    if ``starred``) plus ``const``.
    """

    k0: int
    c0: int
    e0: int
    s_ratio: Callable[[int], Ratio]
    p_ratio: Callable[[int], Ratio]
    bound: Callable[[int], int]
    starred: bool = False
    scale: int = 1
    const: int = 0


_DOUBLES: dict[str, _Double] = {
    "L1": _Double(
        1, 1, 2,
        lambda n: (-1, n + 1, ((1, n),), ()),
        lambda k: (-1, k + 1, ((1, 2 * k - 1),), ((1, k), (1, 2 * k + 1))),
        lambda n: n * (n + 1) // 2,
    ),
    "L2": _Double(
        0, 1, 0,
        lambda n: (-1, n + 1, ((1, n + 1),), ()),
        lambda k: (-1, k + 1, ((1, 2 * k + 1),), ((1, k + 1), (1, 2 * k + 3))),
        lambda n: n * (n + 1) // 2,
    ),
    "L3": _Double(
        1, 1, 2,
        lambda n: (-1, n + 1, ((1, n),), ()),
        lambda k: (-1, k, ((1, 2 * k - 1),), ((1, k), (1, 2 * k + 1))),
        lambda n: n * (n + 1) // 2,
    ),
    "L4": _Double(
        0, 1, 0,
        lambda n: (-1, n + 1, ((1, n + 1),), ()),
        lambda k: (-1, k, ((1, 2 * k + 1),), ((1, k + 1), (1, 2 * k + 3))),
        lambda n: n * (n + 1) // 2,
        const=-1,
    ),
    "L5": _Double(
        1, 2, 2,
        lambda n: (-1, 1, ((1, 2 * n),), ()),
        lambda k: (-1, 2 * k, ((1, 2 * k - 1),), ((1, 2 * k), (1, 2 * k + 1))),
        lambda n: n,
    ),
    "L6": _Double(
        1, 2, 2,
        lambda n: (-1, 1, ((1, 2 * n),), ()),
        lambda k: (-1, 2 * k + 1, ((1, 2 * k - 1),), ((1, 2 * k), (1, 2 * k + 1))),
        lambda n: n,
    ),
    "L7": _Double(
        0, 1, 0,
        lambda n: (-1, 0, ((1, 2 * n + 2),), ()),
        lambda k: (-1, 2 * k + 2, ((1, 2 * k + 1),), ((1, 2 * k + 2), (1, 2 * k + 3))),
        lambda n: 0,
        starred=True, scale=2,
    ),
    "L8": _Double(
        0, 1, 0,
        lambda n: (-1, 0, ((1, 2 * n + 2),), ()),
        lambda k: (-1, 2 * k + 1, ((1, 2 * k + 1),), ((1, 2 * k + 2), (1, 2 * k + 3))),
        lambda n: 0,
        starred=True, scale=2, const=-1,
    ),
    "L9": _Double(
        1, 2, 2,
        lambda n: (-1, 1, ((1, 2 * n),), ()),
        lambda k: (-1, k + 1, ((1, 2 * k - 1),), ((1, k), (1, 2 * k + 1))),
        lambda n: n,
    ),
    "L10": _Double(
        1, 2, 2,
        lambda n: (-1, 1, ((1, 2 * n),), ()),
        lambda k: (-1, k, ((1, 2 * k - 1),), ((1, k), (1, 2 * k + 1))),
        lambda n: n,
    ),
    "L11": _Double(
        0, 1, 0,
        lambda n: (-1, 0, ((1, 2 * n + 2),), ()),
        lambda k: (-1, k + 1, ((1, 2 * k + 1),), ((1, k + 1), (1, 2 * k + 3))),
        lambda n: 0,
        starred=True, scale=2,
    ),
    "L12": _Double(
        0, 1, 0,
        lambda n: (-1, 0, ((1, 2 * n + 2),), ()),
        lambda k: (-1, k, ((1, 2 * k + 1),), ((1, k + 1), (1, 2 * k + 3))),
        lambda n: 0,
        starred=True, scale=2, const=-2,
    ),
}


def _single_terms(entry: _Single, bound: Callable[[int], int], order: int) -> Iterator[LaurentSeries]:
    n0, c0, e0, den, ratio = entry
    term = LaurentSeries.monomial(c0, e0, order)
    for cc, ee in den:
        term = term.div_binomial(cc, ee, order=order)
    n = n0
    while True:
        v = term.valuation()
        if v is not None and v < bound(n):
            raise InvariantViolation(f"term valuation below bound at n={n}")
        yield term
        term = _apply(term, order, ratio(n))
        n += 1


class _Term:
    """The term ``c * q**offset * sum(buf[i] * q**i)``, known through q**horizon.

    The column walker's working state: ``apply`` does what ``_apply`` does, but
    on the one list ``buf`` in place, and its monomial only changes the
    scalars ``c`` and ``offset``.  ``buf[0]`` is nonzero unless ``buf`` is
    empty, which is how a vanished term shows.
    """

    __slots__ = ("c", "offset", "buf", "horizon")

    def __init__(self, c: int, offset: int, buf: list, horizon: int):
        self.c = c
        self.offset = offset
        self.buf = buf
        self.horizon = horizon

    def copy(self) -> "_Term":
        return _Term(self.c, self.offset, self.buf[:], self.horizon)

    def apply(self, ratio: Ratio, order: int) -> None:
        c, e, num, den = ratio
        self.c *= c
        self.offset += e
        self.horizon += e
        buf = self.buf
        if not self.c:
            buf.clear()
        if self.horizon > order:
            del buf[max(0, order - self.offset + 1):]
            self.horizon = order
        if not buf:
            return
        m = self.horizon - self.offset + 1
        for cc, ee in num:
            mul_binomial_into(buf, cc, ee, m)
        for cc, ee in den:
            div_binomial_into(buf, cc, ee, m)

    def add_into(self, total: list, low: int) -> int:
        """Add this term to ``total`` (index i is q**(low + i)); return the new low."""
        buf = self.buf
        if not buf:
            return low
        a = self.offset - low
        if a < 0:
            total[:0] = repeat(0, -a)
            low, a = self.offset, 0
        b = a + len(buf)
        if b > len(total):
            total.extend(repeat(0, b - len(total)))
        if self.c == 1:
            total[a:b] = map(add, total[a:b], buf)
        elif self.c == -1:
            total[a:b] = map(sub, total[a:b], buf)
        else:
            total[a:b] = map(add, total[a:b], map(mul, repeat(self.c), buf))
        return low


def _factor_ratio(ratio: Ratio) -> Ratio:
    """``ratio``, once its monomial exponent is checked to be >= 0.

    The column walker relies on it: with no negative exponent a vanished
    term stays vanished along both n and k, and a term's horizon,
    min(order, start horizon + exponents so far), is the same whichever
    path builds it.
    """
    if ratio[1] < 0:
        raise InvariantViolation(f"factor ratio {ratio} has a negative monomial exponent")
    return ratio


def _row_totals(
    start: LaurentSeries,
    order: int,
    k0: int,
    p_ratio: Callable[[int], Ratio],
    s_ratio: Callable[[int], Ratio],
) -> Iterator[LaurentSeries]:
    """Rows sum_{k=k0}^{n} T(n, k) of T(n, k) = S_n * P_k / (q)_{n-k}, for n = k0, k0 + 1, ...

    T(k0, k0) is ``start`` (which must carry a finite horizon), S_(n+1) is
    S_n times ``s_ratio(n)`` and P_(k+1) is P_k times ``p_ratio(k)``.  The
    walker keeps one term per live column k and moves each from row n to
    row n + 1 with the n-step s_ratio(n) / (1 - q^(n+1-k)), whose binomials
    have exponents near n and so touch few coefficients.  A column is opened
    only at the diagonal: T(n, n) is T(n, n - 1) times p_ratio(n - 1) * (1 - q).
    A vanished column stays vanished and every column right of it has
    vanished too, so vanished columns are dropped from the right; column k0
    is kept, because its horizon is the row's.  The row sum is one int list
    and becomes one series.  Raises InvariantViolation for a ratio with a
    negative monomial exponent.
    """
    # copy: ``start.coeffs`` may be shared with other series
    cols = [_Term(1, start.offset, list(start.coeffs), start.order)]
    n = k0
    while True:
        total: list = []
        low = cols[0].offset
        for term in cols:
            low = term.add_into(total, low)
        horizon = cols[0].horizon
        yield LaurentSeries(low, total[:max(0, horizon - low + 1)], horizon)
        c, e, num, den = _factor_ratio(s_ratio(n))
        for k, term in enumerate(cols, k0):
            term.apply((c, e, num, den + ((1, n + 1 - k),)), order)
        while len(cols) > 1 and not cols[-1].buf:
            cols.pop()
        if k0 + len(cols) - 1 == n and cols[-1].buf:
            c, e, num, den = _factor_ratio(p_ratio(n))
            term = cols[-1].copy()
            term.apply((c, e, num + ((1, 1),), den), order)
            cols.append(term)
        n += 1


def _double_terms(entry: _Double, order: int) -> Iterator[LaurentSeries]:
    start = LaurentSeries.monomial(entry.c0, entry.e0, order).div_binomial(1, 1, order=order)
    rows = _row_totals(start, order, entry.k0, entry.p_ratio, entry.s_ratio)
    for n, total in enumerate(rows, entry.k0):
        v = total.valuation()
        if v is not None and v < entry.bound(n):
            raise InvariantViolation(f"row valuation below bound at n={n}")
        yield total


def normalize_id(series_id: str) -> str:
    """Case-insensitive lookup key for a catalog id; raises UnknownId."""
    key = str(series_id).strip().upper()
    if key in _SINGLES or key in _DOUBLES:
        return key
    raise UnknownId(f"unknown series id {series_id!r}")


def catalog_ids() -> tuple[str, ...]:
    return tuple(sorted(_SINGLES)) + tuple(sorted(_DOUBLES))


def eval_named(series_id: str, order: int, star_budget: int | None = None) -> LaurentSeries:
    """Evaluate a named series exactly through q**order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    key = normalize_id(series_id)
    if key in _SINGLES:
        entry, bound = _SINGLES[key]
        return classical_sum(_single_terms(entry, bound, order), order)
    entry = _DOUBLES[key]
    terms = _double_terms(entry, order)
    if entry.starred:
        total = star_sum(terms, order, budget=star_budget)
    else:
        total = classical_sum(terms, order)
    if entry.scale != 1:
        total = total.scale(entry.scale)
    if entry.const:
        total = total + LaurentSeries.monomial(entry.const, 0, order)
    return total
