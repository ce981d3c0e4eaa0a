"""Direct evaluation of the named q-series (SIGMA, L1..L12, Z2..Z5).

Every series here is summed straight from its defining single or double
sum, entirely in integer arithmetic.  Successive outer terms are produced
by exact term ratios (a monomial times a few binomials over binomials), so
no Pochhammer product is ever expanded twice.

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
from typing import Callable, Iterable, Iterator

from .errors import InvariantViolation, NoStabilization, NonTerminating, UnknownId
from .series import LaurentSeries

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


def classical_sum(
    terms: Iterable[LaurentSeries], order: int, budget: int | None = None
) -> LaurentSeries:
    """Sum outer terms until four in a row vanish below the horizon."""
    if budget is None:
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

# each double-sum entry:
#   (n0, k0, start_coeff, start_exp, start_ratio(n), k_ratio(n, k),
#    val_bound(n), starred, scale, const)
# start = start_coeff * q^start_exp / (1-q) is the k = k0 term at n = n0

_Double = tuple


def _d(n0, k0, c0, e0, start_ratio, k_ratio, val_bound, starred=False, scale=1, const=0):
    return (n0, k0, c0, e0, start_ratio, k_ratio, val_bound, starred, scale, const)


_DOUBLES: dict[str, _Double] = {
    "L1": _d(
        1, 1, 1, 2,
        lambda n: (-1, n + 1, (), ()),
        lambda n, k: (-1, k + 1, ((1, n - k), (1, 2 * k - 1)), ((1, k), (1, 2 * k + 1))),
        lambda n: n * (n + 1) // 2,
    ),
    "L2": _d(
        0, 0, 1, 0,
        lambda n: (-1, n + 1, (), ()),
        lambda n, k: (-1, k + 1, ((1, n - k), (1, 2 * k + 1)), ((1, k + 1), (1, 2 * k + 3))),
        lambda n: n * (n + 1) // 2,
    ),
    "L3": _d(
        1, 1, 1, 2,
        lambda n: (-1, n + 1, (), ()),
        lambda n, k: (-1, k, ((1, n - k), (1, 2 * k - 1)), ((1, k), (1, 2 * k + 1))),
        lambda n: n * (n + 1) // 2,
    ),
    "L4": _d(
        0, 0, 1, 0,
        lambda n: (-1, n + 1, (), ()),
        lambda n, k: (-1, k, ((1, n - k), (1, 2 * k + 1)), ((1, k + 1), (1, 2 * k + 3))),
        lambda n: n * (n + 1) // 2,
        const=-1,
    ),
    "L5": _d(
        1, 1, 2, 2,
        lambda n: (-1, 1, ((-1, n),), ()),
        lambda n, k: (-1, 2 * k, ((1, n - k), (1, 2 * k - 1)), ((1, 2 * k), (1, 2 * k + 1))),
        lambda n: n,
    ),
    "L6": _d(
        1, 1, 2, 2,
        lambda n: (-1, 1, ((-1, n),), ()),
        lambda n, k: (-1, 2 * k + 1, ((1, n - k), (1, 2 * k - 1)), ((1, 2 * k), (1, 2 * k + 1))),
        lambda n: n,
    ),
    "L7": _d(
        0, 0, 1, 0,
        lambda n: (-1, 0, ((-1, n + 1),), ()),
        lambda n, k: (-1, 2 * k + 2, ((1, n - k), (1, 2 * k + 1)), ((1, 2 * k + 2), (1, 2 * k + 3))),
        lambda n: 0,
        starred=True, scale=2,
    ),
    "L8": _d(
        0, 0, 1, 0,
        lambda n: (-1, 0, ((-1, n + 1),), ()),
        lambda n, k: (-1, 2 * k + 1, ((1, n - k), (1, 2 * k + 1)), ((1, 2 * k + 2), (1, 2 * k + 3))),
        lambda n: 0,
        starred=True, scale=2, const=-1,
    ),
    "L9": _d(
        1, 1, 2, 2,
        lambda n: (-1, 1, ((-1, n),), ()),
        lambda n, k: (-1, k + 1, ((1, n - k), (1, 2 * k - 1)), ((1, k), (1, 2 * k + 1))),
        lambda n: n,
    ),
    "L10": _d(
        1, 1, 2, 2,
        lambda n: (-1, 1, ((-1, n),), ()),
        lambda n, k: (-1, k, ((1, n - k), (1, 2 * k - 1)), ((1, k), (1, 2 * k + 1))),
        lambda n: n,
    ),
    "L11": _d(
        0, 0, 1, 0,
        lambda n: (-1, 0, ((-1, n + 1),), ()),
        lambda n, k: (-1, k + 1, ((1, n - k), (1, 2 * k + 1)), ((1, k + 1), (1, 2 * k + 3))),
        lambda n: 0,
        starred=True, scale=2,
    ),
    "L12": _d(
        0, 0, 1, 0,
        lambda n: (-1, 0, ((-1, n + 1),), ()),
        lambda n, k: (-1, k, ((1, n - k), (1, 2 * k + 1)), ((1, k + 1), (1, 2 * k + 3))),
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


def _double_terms(entry: _Double, order: int) -> Iterator[LaurentSeries]:
    n0, k0, c0, e0, start_ratio, k_ratio, bound, _starred, _scale, _const = entry
    start = LaurentSeries.monomial(c0, e0, order).div_binomial(1, 1, order=order)
    n = n0
    while True:
        term = start
        total = term
        for k in range(k0, n):
            term = _apply(term, order, k_ratio(n, k))
            if term.is_zero():
                break
            total = total + term
        v = total.valuation()
        if v is not None and v < bound(n):
            raise InvariantViolation(f"row valuation below bound at n={n}")
        yield total
        start = _apply(start, order, start_ratio(n))
        n += 1


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
    starred, scale, const = entry[7], entry[8], entry[9]
    terms = _double_terms(entry, order)
    if starred:
        total = star_sum(terms, order, budget=star_budget)
    else:
        total = classical_sum(terms, order)
    if scale != 1:
        total = total.scale(scale)
    if const:
        total = total + LaurentSeries.monomial(const, 0, order)
    return total
