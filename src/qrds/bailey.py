"""Bailey pairs, the iteration step, and bounded limit transforms.

A pair (alpha, beta) relative to ``a`` (here always a = 1 or a = q) satisfies

    beta_n = sum_{k=0}^{n} alpha_k / ( (q)_{n-k} (aq)_{n+k} ).

The eight catalog pairs are four families (``_PairFamily``: BK, P1, P2, P3)
times two relations, a = 1 (BK1, P1A, P2A, P3A) and a = q (BK2, P1B, P2B,
P3B), with one alpha shape per relation (``_alpha_one``, ``_alpha_q``).
A pair is its closed forms of alpha_m and beta_m, and nothing else: every
beta ratio is the quotient of two closed forms (``BaileyPair.p_ratio``), so
each reader of beta reads the same forms.

Every side is built on bare int lists by one level builder, ``_level``:
the closed-form items of alpha_n or beta_n on a list through q**order,
times and divided by binomials in place.  Every binomial pass here, the
relation check's included, goes through the series' one list kernel,
``apply_binomials_into``.  ``verify_pair_relation`` checks
the relation coefficient-by-coefficient with both sides multiplied by the
unit (aq)_{2n}: the alpha side is then one Horner sum in k over the closed
forms of alpha_k, two binomial passes per k on one list that starts at the
least exponent of the alpha_k added so far, and a catalog beta_n cancels
the binomials its denominator shares with the unit before any list work.
A stepped pair is a ``BaileyPair`` with ``stepped`` set: its closed forms
are its catalog pair's, and the step adds the exponent u(n).

``bailey_step`` applies the standard iteration with both free parameters
sent to infinity,

    alpha'_n = a^n q^(n^2) alpha_n,
    beta'_n  = sum_k a^k q^(k^2) beta_k / (q)_{n-k},

which is the only step the double-sum pipelines need.

``limit_form`` applies one of four prepackaged n -> infinity transforms,
returning the two sides of the resulting identity as series.  Each form
is one record of ``catalog._FAMILIES``, the table the catalog's double
sums are summed from.  Forms A1 and A1ALSO require a = 1 and beta_0 = 0;
AQ and AQALSO require a = q.  The AQALSO form's beta side is the star
value of a series whose terms do not die off; its columns are summed in a
form that converges and gives them doubled.  Every alpha side decays
quadratically and is summed through a last index proven from the closed
forms of alpha_n.  ``alpha_side`` is that side as an int series, for
AQALSO written for the doubled sum, so it is the catalog series less its
constant: ``verify``'s pipeline leg compares the two as they are.
``limit_form`` is the one place that halves a starred form's sides, to
its star value.  The beta side of each theorem is the catalog's own double
sum (the same S ratio, and a seed and P-ratios pinned by the tests), so
comparing it with the series would repeat one sum; the alpha side checks
Bailey's lemma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import add
from typing import Callable, NamedTuple

from .catalog import _FAMILIES
from .chain import Family, Member, Ratio, cancel, factor_ratio, ratio_sum, sgn
from .errors import (Beta0NotZero, FormPairMismatch, InvariantViolation, UnknownId, UnknownPair,
                     check_int, check_order, lookup)
from .series import LaurentSeries, apply_binomials_into, first_mismatch

__all__ = [
    "BaileyPair",
    "pair_catalog",
    "pair_labels",
    "verify_pair_relation",
    "bailey_step",
    "limit_form",
    "alpha_side",
]


# ------------------------------------------------------------------- pairs


@dataclass(frozen=True)
class BaileyPair:
    """A catalog Bailey pair, given by closed forms.

    ``alpha_items(m)`` returns the exact (exponent, coefficient) list of
    alpha_m (for a = q, before the global 1/(1-q) factor).  beta_m is

        (-1)^m * q^(beta_exp(m)) * prod(beta_num(m)) / prod(beta_den(m))

    for m >= beta_first, and 0 below that; num/den entries (c, e) stand for
    binomials 1 - c q^e.  These closed forms are all the pair's beta data:
    ``p(m)`` and ``p_ratio(k)``, which every beta side reads, are built from
    them.

    A ``stepped`` pair (``bailey_step``) is the image of the catalog pair
    with the same closed forms under the step with both parameters at
    infinity: alpha'_n = q^(u(n)) alpha_n and
    beta'_n = sum_k q^(u(k)) beta_k / (q)_{n-k}.
    """

    label: str
    rel: str  # "1" or "q"
    alpha_items: Callable[[int], list[tuple[int, int]]]
    beta_first: int
    beta_exp: Callable[[int], int]
    beta_den: Callable[[int], list[tuple[int, int]]]
    beta_num: Callable[[int], list[tuple[int, int]]] = lambda m: []
    stepped: bool = False

    def u(self, k: int) -> int:
        """The step's exponent: k^2 (+ k for a = q) when stepped, else 0."""
        return k * k + (k if self.rel == "q" else 0) if self.stepped else 0

    def p(self, m: int) -> Ratio:
        """P_m = q^(u(m)) beta_m as the ratio (sign, exponent, num, den) of its
        closed form; the sign is 0 below ``beta_first``."""
        return (sgn(m) if m >= self.beta_first else 0, self.u(m) + self.beta_exp(m),
                tuple(self.beta_num(m)), tuple(self.beta_den(m)))

    def p_ratio(self, k: int) -> Ratio:
        """P_(k+1) / P_k, which ``limit_form``'s beta side chains with: the
        quotient of the two closed forms, in lowest terms (``cancel``).  At
        k = beta_first - 1 it is the quotient of the forms as written, P_k
        being 0; no sum reads a ratio below its form's k0."""
        _, e, num, den = self.p(k)
        _, e1, num1, den1 = self.p(k + 1)
        return cancel((-1, e1 - e, num1 + den, den1 + num))


class _PairFamily(NamedTuple):
    """An a = 1 / a = q couple of catalog pairs, ``labels`` in that order.

    Every alpha_m is a sum of terms c * q^e * sum_j q^(A j^2 + b j): ``_full``
    (b = ``b_full``, -n <= j <= n) or ``_off`` (b = ``b_off``, -n <= j < n,
    e raised by ``delta``), in the shapes of ``_alpha_one`` and ``_alpha_q``.
    The beta closed forms are the a = 1 pair's; the a = q pair's at m are
    these at m + 1, with beta_first 0 in place of 1.
    """

    labels: tuple[str, str]
    A: int
    b_full: int
    b_off: int
    delta: int
    beta_exp: Callable[[int], int]
    beta_den: Callable[[int], list[tuple[int, int]]]
    beta_num: Callable[[int], list[tuple[int, int]]] = lambda m: []


def _full(f: _PairFamily, c: int, e: int, n: int) -> list[tuple[int, int]]:
    return [(e + f.A * j * j + f.b_full * j, c) for j in range(-n, n + 1)]


def _off(f: _PairFamily, c: int, e: int, n: int) -> list[tuple[int, int]]:
    return [(e + f.delta + f.A * j * j + f.b_off * j, c) for j in range(-n, n)]


def _alpha_one(f: _PairFamily, m: int) -> list[tuple[int, int]]:
    """alpha_m of the a = 1 pair of ``f``, m = 2n + odd (alpha_0 = 0: no j at n = 0)."""
    n, odd = divmod(m, 2)
    if odd:
        return _full(f, -1, 2 * n * n, n) + _full(f, 1, 2 * n * n + 4 * n + 2, n)
    return _off(f, 1, 2 * n * n - 2 * n, n) + _off(f, -1, 2 * n * n + 2 * n, n)


def _alpha_q(f: _PairFamily, m: int) -> list[tuple[int, int]]:
    """alpha_m of the a = q pair of ``f``, m = 2n + odd."""
    n, odd = divmod(m, 2)
    if odd:
        return _off(f, -1, 2 * n * n + 2 * n, n + 1) + _full(f, -1, 2 * n * n + 4 * n + 2, n)
    return _full(f, 1, 2 * n * n, n) + _off(f, 1, 2 * n * n + 2 * n, n)


def _range_factors(count: int, step: int, start: int) -> list[tuple[int, int]]:
    return [(1, start + step * i) for i in range(count)]


_PAIR_FAMILIES = (
    _PairFamily(("BK1", "BK2"), A=-2, b_full=0, b_off=-2, delta=0,
                beta_exp=lambda m: 0,
                beta_num=lambda m: _range_factors(m - 1, 2, 1),
                beta_den=lambda m: _range_factors(2 * m - 1, 1, 1)),
    _PairFamily(("P1A", "P1B"), A=-2, b_full=-2, b_off=0, delta=1,
                beta_exp=lambda m: 1 - m,
                beta_den=lambda m: _range_factors(m - 1, 2, 2) + [(1, 2 * m - 1)]),
    _PairFamily(("P2A", "P2B"), A=-4, b_full=-1, b_off=-3, delta=0,
                beta_exp=lambda m: -(m * (m - 1) // 2),
                beta_den=lambda m: _range_factors(m - 1, 1, 1) + [(1, 2 * m - 1)]),
    _PairFamily(("P3A", "P3B"), A=-4, b_full=-3, b_off=-1, delta=1,
                beta_exp=lambda m: 1 - m * (m + 1) // 2,
                beta_den=lambda m: _range_factors(m - 1, 1, 1) + [(1, 2 * m - 1)]),
)


def _pairs(f: _PairFamily) -> tuple[BaileyPair, BaileyPair]:
    """The a = 1 and a = q pairs of ``f``."""
    def at_next(g: Callable) -> Callable:
        return lambda m: g(m + 1)

    beta = (f.beta_exp, f.beta_den, f.beta_num)
    return (BaileyPair(f.labels[0], "1", partial(_alpha_one, f), 1, *beta),
            BaileyPair(f.labels[1], "q", partial(_alpha_q, f), 0, *map(at_next, beta)))


_PAIRS: dict[str, BaileyPair] = {p.label: p for f in _PAIR_FAMILIES for p in _pairs(f)}


def pair_labels() -> tuple[str, ...]:
    return tuple(sorted(_PAIRS))


def pair_catalog(label: str) -> BaileyPair:
    return lookup(_PAIRS, label, UnknownPair, "unknown Bailey pair")[1]


# -------------------------------------------------------------- the relation


def _level(items, num, den, order: int) -> tuple[int, list]:
    """(v, buf): the sum of c * q^e over ``items``, times the ``num`` binomials
    and divided by the ``den`` binomials, through q**order.

    buf[i] is the coefficient of q^(v + i), v is the least item exponent and
    len(buf) = max(0, order + 1 - v); empty items give (order + 1, []).
    """
    if not items:
        return order + 1, []
    v = min(e for e, _ in items)
    m = max(0, order + 1 - v)
    buf = [0] * min(m, max(e for e, _ in items) - v + 1)  # grows with the num product
    _add_items(buf, v, items)
    apply_binomials_into(buf, num, den, m)
    buf.extend(repeat(0, m - len(buf)))
    return v, buf


def _add_items(buf: list, v: int, items) -> None:
    """Add c * q^e for each (e, c) of ``items`` to ``buf``, whose index i is q^(v + i)."""
    for e, c in items:
        if e - v < len(buf):
            buf[e - v] += c


def _same(va: int, a: list, vb: int, b: list) -> bool:
    """True when the lists a (from q^va) and b (from q^vb), both through one order, agree."""
    if va > vb:
        va, a, vb, b = vb, b, va, a
    return not any(a[:vb - va]) and a[vb - va:] == b


def verify_pair_relation(pair, n_max: int = 25, order: int = 300) -> list[tuple[int, tuple]]:
    """Check beta_n = sum_k alpha_k / ((q)_{n-k} (aq)_{n+k}) for n <= n_max.

    ``pair`` is a catalog pair or a stepped one, with alpha'_k =
    q^(u(k)) alpha_k.  At each n both sides are multiplied by the unit
    U_n = (aq)_{2n}, times 1 - q for a = q (which clears the global
    1/(1 - q) of alpha_k).  U_n has constant term 1, so the scaled sides
    agree through q**order exactly when the sides do.  The scaled alpha side,
    sum_k alpha_k (aq^(n+k+1))_{n-k} / (q)_{n-k}, is one Horner sum in k on
    one int list: from alpha_0, each step multiplies by 1 - aq^(n+k),
    divides by 1 - q^(n-k+1) and adds alpha_k's closed-form items, so no
    alpha_k is ever a list of its own.  Both binomials have constant term 1,
    so the list starts at the least exponent of alpha'_0 .. alpha'_k and
    gains leading zeros only when alpha'_k reaches lower; no pass runs over
    the zeros below it.  Each alpha'_k's items, shifted by u(k) and cut at
    q**order, are built once per call.  A catalog beta_n comes from its
    closed form, with the binomials its denominator shares with U_n
    cancelled first; a stepped beta'_n = sum_k q^(u(k)) beta_k / (q)_{n-k}
    keeps one list per beta_k, divided by 1 - q^(n-k) in place as n
    advances, and multiplies their sum by U_n.  Only at a failing n are the
    sides divided by U_n again.  Returns a list of (n, (exponent, beta, sum))
    mismatches; empty means the relation holds through q**order for every
    checked n.
    """
    if not isinstance(pair, BaileyPair):
        raise TypeError(f"verify_pair_relation needs a catalog pair or a stepped one, got {pair!r}")
    check_int(n_max, "n_max")
    check_int(order, "order")
    if n_max < 0 or order < 0:
        raise ValueError("n_max and order must be >= 0")
    a_exp, u = (0 if pair.rel == "1" else 1), pair.u
    alphas = []  # (least exponent, items) of alpha'_k through q**order
    for k in range(n_max + 1):
        items = [(e + u(k), c) for e, c in pair.alpha_items(k) if e + u(k) <= order]
        alphas.append((min((e for e, _ in items), default=order + 1), items))
    betas: list[tuple[int, list]] = []
    failures = []
    for n in range(n_max + 1):
        unit = tuple((1, a_exp + i) for i in range(1 - a_exp, 2 * n + 1))  # U_n
        alpha, va = [], order + 1  # alpha[i] is the coefficient of q^(va + i), through q**order
        for k, (vk, items) in enumerate(alphas[:n + 1]):
            if k:
                apply_binomials_into(alpha, ((1, a_exp + n + k),), ((1, n - k + 1),), len(alpha))
            if vk < va:
                alpha[:0] = repeat(0, va - vk)
                va = vk
            _add_items(alpha, va, items)
        c, e, num, den = pair.p(n)
        items = [(e, c)] if c else []
        if not pair.stepped:  # U_n joins beta_n's closed form, less the binomials they share
            betas, rest = [_level(items, *cancel((1, 0, num + unit, den))[2:], order)], ()
        else:  # beta'_n sums every beta_k, so U_n multiplies the sum
            for k, (_, buf) in enumerate(betas):
                apply_binomials_into(buf, (), ((1, n - k),), len(buf))
            betas.append(_level(items, num, den, order))
            rest = unit
        vb = min(v for v, _ in betas)
        beta = [0] * max(0, order + 1 - vb)
        for v, buf in betas:
            beta[v - vb:] = map(add, beta[v - vb:], buf)
        apply_binomials_into(beta, rest, (), len(beta))
        if not _same(va, alpha, vb, beta):
            apply_binomials_into(alpha, (), unit, len(alpha))
            apply_binomials_into(beta, (), unit, len(beta))
            failures.append((n, first_mismatch(LaurentSeries(vb, beta, order),
                                               LaurentSeries(va, alpha, order), through=order)))
    return failures


# ------------------------------------------------------------------ stepping


def bailey_step(pair: BaileyPair) -> BaileyPair:
    """Apply one iteration step with both free parameters at infinity: the
    catalog pair ``pair``, stepped and labelled with a trailing "*"."""
    if not isinstance(pair, BaileyPair) or pair.stepped:
        raise TypeError(f"bailey_step needs a catalog pair, got {pair!r}")
    return replace(pair, label=pair.label + "*", stepped=True)


# ---------------------------------------------------------------- limit forms


def _checked_form(pair, form_id: str, order: int) -> Family:
    """The limit form ``form_id``, once ``pair`` and ``order`` are checked
    fit for it: ``pair`` must be a stepped catalog pair relative to the
    form's a, ``order`` >= 0, and a form summed from n = 1 needs beta_0 = 0."""
    key, form = lookup(_FAMILIES, form_id, UnknownId, "unknown limit form")
    if not isinstance(pair, BaileyPair) or not pair.stepped:
        raise TypeError(f"a limit form needs a stepped catalog pair, got {pair!r}")
    check_order(order)
    if pair.rel != form.rel:
        raise FormPairMismatch(
            f"form {key} needs a pair relative to a = {form.rel}, "
            f"got {pair.label} (a = {pair.rel})"
        )
    if form.k0 > 0 and pair.beta_first == 0:  # beta'_0 = beta_0
        raise Beta0NotZero(f"form {key} needs beta_0 = 0, {pair.label} has not")
    return form


def alpha_side(pair: BaileyPair, form_id: str, order: int) -> LaurentSeries:
    """The alpha side of the limit form ``form_id`` for the stepped pair
    ``pair``, sum_{n >= k0} rhs_term(n) * q^(u(n)) * alpha_n, through
    q**order, with the form's fields read from ``catalog._FAMILIES``; for a
    starred form, the side of the doubled sum.

    Level n is alpha_n's closed form, shifted, multiplied by the form's
    coefficient and divided by its binomial on one int list; for a = q the
    form's (1 - q) cancels the global 1/(1 - q) of alpha_n.  The sum stays
    in the integers and the series adopts its list.  The last index is proven: an
    item is c * q^(e + A j^2 + b j) with A < 0, least at an end of its j
    range, so val(q^(u(n)) alpha_n), for the a = 1 / a = q pair of each
    family, is n^2 / n^2 + n for BK, n^2 - n + 1 / n^2 for P1, n(n + 1)/2
    for both P2 and n(n - 1)/2 + 1 / n(n - 1)/2 for P3, never below
    n(n - 1)/2 (checked at every level: InvariantViolation).  The form's
    exponent is >= 0 (checked) and every binomial has constant term 1, so
    no level from the first n with n(n - 1)/2 > order on reaches q**order.
    """
    form = _checked_form(pair, form_id, order)
    total, n = [0] * (order + 1), form.k0
    while n * (n - 1) // 2 <= order:
        items = pair.alpha_items(n)
        sign, e, num, den = factor_ratio(form.rhs_term(n))
        shift = pair.u(n)
        v = min(x for x, _ in items) + shift
        if v < n * (n - 1) // 2:
            raise InvariantViolation(f"alpha side of {pair.label}: valuation {v} below n(n-1)/2 at n={n}")
        v, level = _level([(x + shift + e, sign * c) for x, c in items], num, den, order)
        total[v:] = map(add, total[v:], level)
        n += 1
    return LaurentSeries._adopt(0, total, order)


def limit_form(pair, form_id: str, order: int):
    """Both sides of a limit transform applied to a stepped catalog pair.

    Returns (lhs, rhs); for a matching pair/form combination the two agree
    through q**order.  rhs is ``alpha_side``.  lhs, the beta side
    sum_n w_n beta'_n, is the double sum of terms
    w_n * q^(u(k)) beta_k / (q)_{n-k}, summed inside out as a one-member
    ``chain.ratio_sum`` of the form's record with P_k = q^(u(k)) beta_k.
    The form lives in ``catalog._FAMILIES``: the n-step is its S ratio and
    its columns are summed by its column ratio, the same ones the catalog's
    double sums use, and every row is checked against its valuation bound.
    The k-step is the pair's ``p_ratio`` and the seed is w_k0 times
    P_k0 = beta'_k0, both read off the pair's beta closed forms apart from
    the catalog's P-ratios and seeds, so lhs = rhs also checks those forms
    at every k the chain walks.  Both sides are the form's value: a starred
    form's sides come doubled from the engine and are halved here, the one
    place they are.  ``verify`` reads only the alpha side: its pipeline leg
    checks that side against the catalog series, and the tests check
    lhs = rhs.
    """
    form = _checked_form(pair, form_id, order)
    (wc, we), (c, e, num, den) = form.w_seed, pair.p(form.k0)
    [lhs] = ratio_sum(form, [Member(order, (c * wc, we + e, num, den), pair.p_ratio)])
    rhs = alpha_side(pair, form_id, order)
    return (lhs.scale(Fraction(1, 2)), rhs.scale(Fraction(1, 2))) if form.starred else (lhs, rhs)
