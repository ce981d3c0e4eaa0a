"""Bailey pairs, the iteration step, and bounded limit transforms.

A pair (alpha, beta) relative to ``a`` (here always a = 1 or a = q) satisfies

    beta_n = sum_{k=0}^{n} alpha_k / ( (q)_{n-k} (aq)_{n+k} ).

``verify_pair_relation`` checks that relation coefficient-by-coefficient,
keeping one row per k and dividing in the two new Pochhammer factors as n
advances, so nothing is ever recomputed from scratch.

``bailey_step`` specializes the two free parameters of the standard
iteration.  With both sent to infinity,

    alpha'_n = a^n q^(n^2) alpha_n,
    beta'_n  = sum_k a^k q^(k^2) beta_k / (q)_{n-k},

which is the only step the double-sum pipelines need; finite monomial
specializations (rho = -1, q, -q) are supported generically.

``limit_form`` applies one of four prepackaged n -> infinity transforms,
returning the two sides of the resulting identity as series.  Forms A1 and
A1ALSO require a = 1 and beta_0 = 0; AQ and AQALSO require a = q.  The
AQALSO form has non-decaying terms on both sides and is summed with the
averaged (starred) summation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .catalog import Ratio, _apply, classical_sum, star_sum
from .errors import (
    Beta0NotZero,
    FormPairMismatch,
    UnknownId,
    UnknownPair,
    UnsupportedRho,
)
from .series import LaurentSeries, first_mismatch

__all__ = [
    "RhoSpec",
    "RHO_INFINITY",
    "BaileyPair",
    "SteppedPair",
    "pair_catalog",
    "pair_labels",
    "verify_pair_relation",
    "bailey_step",
    "limit_form",
    "form_labels",
]


# ------------------------------------------------------------------- pairs


def _jsum(c: int, e: int, jlo: int, jhi: int, A: int, B: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) items of c * q^e * sum_{j=jlo}^{jhi} q^(A j^2 + B j)."""
    return [(e + A * j * j + B * j, c) for j in range(jlo, jhi + 1)]


@dataclass(frozen=True)
class BaileyPair:
    """A catalog Bailey pair, given by closed forms.

    ``alpha_items(m)`` returns the exact (exponent, coefficient) list of
    alpha_m (for a = q, before the global 1/(1-q) factor).  beta_m is

        (-1)^m * q^(beta_exp(m)) * prod(beta_num(m)) / prod(beta_den(m))

    for m >= beta_first, and 0 below that; num/den entries (c, e) stand for
    binomials 1 - c q^e.  ``beta_ratio(m)`` maps beta_m -> beta_{m+1} and is
    what the row engines chain with.
    """

    label: str
    rel: str  # "1" or "q"
    alpha_items: Callable[[int], list[tuple[int, int]]]
    beta_first: int
    beta_exp: Callable[[int], int]
    beta_den: Callable[[int], list[tuple[int, int]]]
    beta_ratio: Callable[[int], Ratio]
    beta_num: Callable[[int], list[tuple[int, int]]] = lambda m: []

    def alpha(self, m: int, order: int) -> LaurentSeries:
        f = LaurentSeries.from_items(self.alpha_items(m), None)
        if self.rel == "q":
            f = f.div_binomial(1, 1, order=order)
        elif f.order is None or f.order > order:
            f = f.truncate(order) if f.degree() is not None and f.degree() > order else f
        return f

    def beta(self, m: int, order: int) -> LaurentSeries:
        if m < self.beta_first:
            return LaurentSeries.zero(order)
        c = -1 if m % 2 else 1
        f = LaurentSeries.monomial(c, self.beta_exp(m), None)
        for cc, ee in self.beta_num(m):
            f = f.mul_binomial(cc, ee)
        for cc, ee in self.beta_den(m):
            f = f.div_binomial(cc, ee, order=order)
        if f.order is None:
            f = f.truncate(order) if f.degree() is not None and f.degree() > order else f
        return f


def _bk1_alpha(m: int) -> list[tuple[int, int]]:
    if m == 0:
        return []
    n, odd = divmod(m, 2)
    if odd:
        return _jsum(-1, 2 * n * n, -n, n, -2, 0) + _jsum(1, 2 * n * n + 4 * n + 2, -n, n, -2, 0)
    return _jsum(1, 2 * n * n - 2 * n, -n, n - 1, -2, -2) + _jsum(-1, 2 * n * n + 2 * n, -n, n - 1, -2, -2)


def _bk2_alpha(m: int) -> list[tuple[int, int]]:
    n, odd = divmod(m, 2)
    if odd:
        return _jsum(-1, 2 * n * n + 4 * n + 2, -n, n, -2, 0) + _jsum(-1, 2 * n * n + 2 * n, -n - 1, n, -2, -2)
    return _jsum(1, 2 * n * n + 2 * n, -n, n - 1, -2, -2) + _jsum(1, 2 * n * n, -n, n, -2, 0)


def _p1a_alpha(m: int) -> list[tuple[int, int]]:
    if m == 0:
        return []
    n, odd = divmod(m, 2)
    if odd:
        return _jsum(-1, 2 * n * n, -n, n, -2, -2) + _jsum(1, 2 * n * n + 4 * n + 2, -n, n, -2, -2)
    return _jsum(1, 2 * n * n - 2 * n + 1, -n, n - 1, -2, 0) + _jsum(-1, 2 * n * n + 2 * n + 1, -n, n - 1, -2, 0)


def _p1b_alpha(m: int) -> list[tuple[int, int]]:
    n, odd = divmod(m, 2)
    if odd:
        return _jsum(-1, 2 * n * n + 2 * n + 1, -n - 1, n, -2, 0) + _jsum(-1, 2 * n * n + 4 * n + 2, -n, n, -2, -2)
    return _jsum(1, 2 * n * n, -n, n, -2, -2) + _jsum(1, 2 * n * n + 2 * n + 1, -n, n - 1, -2, 0)


def _p2a_alpha(m: int) -> list[tuple[int, int]]:
    if m == 0:
        return []
    n, odd = divmod(m, 2)
    if odd:
        return _jsum(-1, 2 * n * n, -n, n, -4, -1) + _jsum(1, 2 * n * n + 4 * n + 2, -n, n, -4, -1)
    return _jsum(1, 2 * n * n - 2 * n, -n, n - 1, -4, -3) + _jsum(-1, 2 * n * n + 2 * n, -n, n - 1, -4, -3)


def _p2b_alpha(m: int) -> list[tuple[int, int]]:
    n, odd = divmod(m, 2)
    if odd:
        return _jsum(-1, 2 * n * n + 2 * n, -n - 1, n, -4, -3) + _jsum(-1, 2 * n * n + 4 * n + 2, -n, n, -4, -1)
    return _jsum(1, 2 * n * n, -n, n, -4, -1) + _jsum(1, 2 * n * n + 2 * n, -n, n - 1, -4, -3)


def _p3a_alpha(m: int) -> list[tuple[int, int]]:
    if m == 0:
        return []
    n, odd = divmod(m, 2)
    if odd:
        return _jsum(-1, 2 * n * n, -n, n, -4, -3) + _jsum(1, 2 * n * n + 4 * n + 2, -n, n, -4, -3)
    return _jsum(1, 2 * n * n - 2 * n + 1, -n, n - 1, -4, -1) + _jsum(-1, 2 * n * n + 2 * n + 1, -n, n - 1, -4, -1)


def _p3b_alpha(m: int) -> list[tuple[int, int]]:
    n, odd = divmod(m, 2)
    if odd:
        return _jsum(-1, 2 * n * n + 2 * n + 1, -n - 1, n, -4, -1) + _jsum(-1, 2 * n * n + 4 * n + 2, -n, n, -4, -3)
    return _jsum(1, 2 * n * n, -n, n, -4, -3) + _jsum(1, 2 * n * n + 2 * n + 1, -n, n - 1, -4, -1)


def _range_factors(count: int, step: int, start: int) -> list[tuple[int, int]]:
    return [(1, start + step * i) for i in range(count)]


_PAIRS: dict[str, BaileyPair] = {}


def _register(pair: BaileyPair) -> None:
    _PAIRS[pair.label] = pair


_register(BaileyPair(
    label="BK1", rel="1", alpha_items=_bk1_alpha, beta_first=1,
    beta_exp=lambda m: 0,
    beta_num=lambda m: _range_factors(m - 1, 2, 1),
    beta_den=lambda m: _range_factors(2 * m - 1, 1, 1),
    beta_ratio=lambda m: (-1, 0, ((1, 2 * m - 1),), ((1, 2 * m), (1, 2 * m + 1))),
))
_register(BaileyPair(
    label="BK2", rel="q", alpha_items=_bk2_alpha, beta_first=0,
    beta_exp=lambda m: 0,
    beta_num=lambda m: _range_factors(m, 2, 1),
    beta_den=lambda m: _range_factors(2 * m + 1, 1, 1),
    beta_ratio=lambda m: (-1, 0, ((1, 2 * m + 1),), ((1, 2 * m + 2), (1, 2 * m + 3))),
))
_register(BaileyPair(
    label="P1A", rel="1", alpha_items=_p1a_alpha, beta_first=1,
    beta_exp=lambda m: 1 - m,
    beta_den=lambda m: _range_factors(m - 1, 2, 2) + [(1, 2 * m - 1)],
    beta_ratio=lambda m: (-1, -1, ((1, 2 * m - 1),), ((1, 2 * m), (1, 2 * m + 1))),
))
_register(BaileyPair(
    label="P1B", rel="q", alpha_items=_p1b_alpha, beta_first=0,
    beta_exp=lambda m: -m,
    beta_den=lambda m: _range_factors(m, 2, 2) + [(1, 2 * m + 1)],
    beta_ratio=lambda m: (-1, -1, ((1, 2 * m + 1),), ((1, 2 * m + 2), (1, 2 * m + 3))),
))
_register(BaileyPair(
    label="P2A", rel="1", alpha_items=_p2a_alpha, beta_first=1,
    beta_exp=lambda m: -(m * (m - 1) // 2),
    beta_den=lambda m: _range_factors(m - 1, 1, 1) + [(1, 2 * m - 1)],
    beta_ratio=lambda m: (-1, -m, ((1, 2 * m - 1),), ((1, m), (1, 2 * m + 1))),
))
_register(BaileyPair(
    label="P2B", rel="q", alpha_items=_p2b_alpha, beta_first=0,
    beta_exp=lambda m: -(m * (m + 1) // 2),
    beta_den=lambda m: _range_factors(m, 1, 1) + [(1, 2 * m + 1)],
    beta_ratio=lambda m: (-1, -m - 1, ((1, 2 * m + 1),), ((1, m + 1), (1, 2 * m + 3))),
))
_register(BaileyPair(
    label="P3A", rel="1", alpha_items=_p3a_alpha, beta_first=1,
    beta_exp=lambda m: 1 - m * (m + 1) // 2,
    beta_den=lambda m: _range_factors(m - 1, 1, 1) + [(1, 2 * m - 1)],
    beta_ratio=lambda m: (-1, -m - 1, ((1, 2 * m - 1),), ((1, m), (1, 2 * m + 1))),
))
_register(BaileyPair(
    label="P3B", rel="q", alpha_items=_p3b_alpha, beta_first=0,
    beta_exp=lambda m: -(m * (m + 3) // 2),
    beta_den=lambda m: _range_factors(m, 1, 1) + [(1, 2 * m + 1)],
    beta_ratio=lambda m: (-1, -m - 2, ((1, 2 * m + 1),), ((1, m + 1), (1, 2 * m + 3))),
))


def pair_labels() -> tuple[str, ...]:
    return tuple(sorted(_PAIRS))


def pair_catalog(label: str) -> BaileyPair:
    key = str(label).strip().upper()
    try:
        return _PAIRS[key]
    except KeyError:
        raise UnknownPair(f"unknown Bailey pair {label!r}") from None


# -------------------------------------------------------------- the relation


def verify_pair_relation(pair, n_max: int = 25, order: int = 300) -> list[tuple[int, tuple]]:
    """Check beta_n = sum_k alpha_k / ((q)_{n-k} (aq)_{n+k}) for n <= n_max.

    Returns a list of (n, (exponent, beta, sum)) mismatches; empty means the
    relation holds through q**order for every checked n.
    """
    a_exp = 0 if pair.rel == "1" else 1
    rows: list[LaurentSeries] = []
    failures = []
    for n in range(n_max + 1):
        for k in range(len(rows)):
            rows[k] = rows[k].div_binomial(1, n - k, order).div_binomial(
                1, a_exp + n + k, order
            )
        g = pair.alpha(n, order)
        for i in range(1, 2 * n + 1):
            g = g.div_binomial(1, a_exp + i, order)
        rows.append(g)
        rhs = LaurentSeries.zero(order)
        for r in rows:
            rhs = rhs + r
        mm = first_mismatch(pair.beta(n, order), rhs, through=order)
        if mm is not None:
            failures.append((n, mm))
    return failures


# ------------------------------------------------------------------ stepping


@dataclass(frozen=True)
class RhoSpec:
    """A specialization value for one free parameter of the iteration step:
    either the infinite limit or a monomial sign * q**power."""

    kind: str  # "infinity" | "monomial"
    sign: int = 1
    power: int = 0

    def __post_init__(self):
        if self.kind not in ("infinity", "monomial"):
            raise ValueError("kind must be 'infinity' or 'monomial'")
        if self.kind == "monomial":
            if self.sign not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            if self.power < 0:
                raise ValueError("power must be >= 0")


RHO_INFINITY = RhoSpec("infinity")


class SteppedPair:
    """The image of a pair under the step with both parameters at infinity."""

    def __init__(self, base):
        self.base = base
        self.label = f"{base.label}*"
        self.rel = base.rel
        self._states: dict[int, tuple[list[LaurentSeries], list[LaurentSeries]]] = {}

    def _u_exp(self, k: int) -> int:
        return k * k + (k if self.rel == "q" else 0)

    def alpha(self, m: int, order: int) -> LaurentSeries:
        f = self.base.alpha(m, order).mul_monomial(1, self._u_exp(m))
        if f.order is not None and f.order > order:
            f = f.truncate(order)
        return f

    def beta(self, m: int, order: int) -> LaurentSeries:
        rows, betas = self._states.setdefault(order, ([], []))
        while len(betas) <= m:
            n = len(betas)
            for k in range(len(rows)):
                rows[k] = rows[k].div_binomial(1, n - k, order)
            h = self.base.beta(n, order).mul_monomial(1, self._u_exp(n))
            if h.order is not None and h.order > order:
                h = h.truncate(order)
            rows.append(h)
            total = LaurentSeries.zero(order)
            for r in rows:
                total = total + r
            betas.append(total)
        return betas[m]


class GenericSteppedPair:
    """The step with at least one finite monomial parameter.

    Computed straight from the transform, term by term; meant for small n.
    """

    def __init__(self, base, rho1: RhoSpec, rho2: RhoSpec):
        self.base = base
        self.rho1 = rho1
        self.rho2 = rho2
        self.label = f"{base.label}*rho"
        self.rel = base.rel
        a_exp = 0 if base.rel == "1" else 1
        # x = aq / (rho1 rho2); y_i = aq / rho_i  (as sign * q^power)
        sign = 1
        xe = a_exp + 1
        self._ys: list[tuple[int, int]] = []
        for rho in (rho1, rho2):
            if rho.kind == "infinity":
                continue
            sign *= rho.sign
            xe -= rho.power
            ye = a_exp + 1 - rho.power
            if ye < 0 or (ye == 0 and rho.sign == 1):
                raise UnsupportedRho(
                    f"specialization rho = {rho.sign:+d} q^{rho.power} degenerates "
                    f"the transform for a = {'1' if a_exp == 0 else 'q'}"
                )
            self._ys.append((rho.sign, ye))
        self._n_inf = sum(1 for rho in (rho1, rho2) if rho.kind == "infinity")
        self._x = (sign, xe)
        if self._n_inf == 0 and xe < 0:
            raise UnsupportedRho(
                "combined specialization pushes the transform argument below q^0"
            )

    def _rho_poly(self, rho: RhoSpec, count: int) -> LaurentSeries:
        # (rho; q)_count as an exact polynomial
        f = LaurentSeries.one()
        for i in range(count):
            e = rho.power + i
            if e == 0:
                f = f.scale(1 - rho.sign)
            else:
                f = f.mul_binomial(rho.sign, e)
        return f

    def _x_pochhammer(self, count: int, order: int) -> LaurentSeries:
        # with any infinite slot the product's argument tends to 0
        if self._n_inf:
            return LaurentSeries.one()
        cx, ex = self._x
        f = LaurentSeries.one()
        for i in range(count):
            e = ex + i
            if e == 0:
                f = f.scale(1 - cx)
            else:
                f = f.mul_binomial(cx, e)
        return f

    def _div_y_factors(self, f: LaurentSeries, n: int, order: int) -> LaurentSeries:
        for cy, ey in self._ys:
            for i in range(n):
                e = ey + i
                if e == 0:
                    f = f.scale(Fraction(1, 1 - cy))
                else:
                    f = f.div_binomial(cy, e, order=order)
        return f

    def _limit_weight(self, k: int) -> tuple[int, int]:
        # each infinite parameter contributes (-1)^k q^(k(k-1)/2) x_partial^k;
        # combined with x^k the exponents below come out right for 0, 1 or 2
        # infinite slots.
        cx, ex = self._x
        c = (cx ** k) * ((-1) ** (k * self._n_inf))
        e = ex * k + self._n_inf * (k * (k - 1) // 2)
        return (c, e)

    def alpha(self, m: int, order: int) -> LaurentSeries:
        f = self.base.alpha(m, order)
        for rho in (self.rho1, self.rho2):
            if rho.kind == "monomial":
                f = f * self._rho_poly(rho, m)
        c, e = self._limit_weight(m)
        f = f.mul_monomial(c, e)
        f = self._div_y_factors(f, m, order)
        if f.order is not None and f.order > order:
            f = f.truncate(order)
        return f

    def beta(self, m: int, order: int) -> LaurentSeries:
        total = LaurentSeries.zero(order)
        for k in range(m + 1):
            t = self.base.beta(k, order)
            if t.is_zero():
                continue
            for rho in (self.rho1, self.rho2):
                if rho.kind == "monomial":
                    t = t * self._rho_poly(rho, k)
            c, e = self._limit_weight(k)
            t = t.mul_monomial(c, e)
            t = t * self._x_pochhammer(m - k, order)
            for i in range(1, m - k + 1):
                t = t.div_binomial(1, i, order=order)
            if t.order is not None and t.order > order:
                t = t.truncate(order)
            total = total + t
        return self._div_y_factors(total, m, order)


def bailey_step(pair, rho1: RhoSpec = RHO_INFINITY, rho2: RhoSpec = RHO_INFINITY):
    """Apply one iteration step, specializing the two free parameters."""
    if rho1.kind == "infinity" and rho2.kind == "infinity":
        return SteppedPair(pair)
    return GenericSteppedPair(pair, rho1, rho2)


# ---------------------------------------------------------------- limit forms


@dataclass(frozen=True)
class LimitForm:
    form_id: str
    rel: str
    starred: bool
    n0: int
    w_seed: tuple[int, int]  # weight w_{n0} as coeff, exponent
    w_ratio: Callable[[int], Ratio]  # w_n -> w_{n+1}
    rhs_term: Callable[[int], Ratio]  # applied to alpha_n
    rhs_scale_half: bool = False
    rhs_mul_one_minus_q: bool = False
    rhs_scale_two: bool = False


def _sgn(n: int) -> int:
    return -1 if n % 2 else 1


_FORMS: dict[str, LimitForm] = {
    "A1": LimitForm(
        form_id="A1", rel="1", starred=False, n0=1, w_seed=(-1, 1),
        w_ratio=lambda n: (-1, n + 1, ((1, n),), ()),
        rhs_term=lambda n: (_sgn(n), n * (n + 1) // 2, (), ((1, n),)),
    ),
    "A1ALSO": LimitForm(
        form_id="A1ALSO", rel="1", starred=False, n0=1, w_seed=(-2, 1),
        w_ratio=lambda n: (-1, 1, ((1, 2 * n),), ()),
        rhs_term=lambda n: (_sgn(n), n, (), ((1, 2 * n),)),
        rhs_scale_two=True,
    ),
    "AQ": LimitForm(
        form_id="AQ", rel="q", starred=False, n0=0, w_seed=(1, 0),
        w_ratio=lambda n: (-1, n + 1, ((1, n + 1),), ()),
        rhs_term=lambda n: (_sgn(n), n * (n + 1) // 2, (), ()),
        rhs_mul_one_minus_q=True,
    ),
    "AQALSO": LimitForm(
        form_id="AQALSO", rel="q", starred=True, n0=0, w_seed=(1, 0),
        w_ratio=lambda n: (-1, 0, ((1, 2 * n + 2),), ()),
        rhs_term=lambda n: (_sgn(n), 0, (), ()),
        rhs_mul_one_minus_q=True,
        rhs_scale_half=True,
    ),
}


def form_labels() -> tuple[str, ...]:
    return tuple(sorted(_FORMS))


def _lookup_form(form_id: str) -> LimitForm:
    key = str(form_id).strip().upper()
    try:
        return _FORMS[key]
    except KeyError:
        raise UnknownId(f"unknown limit form {form_id!r}") from None


def _compose(*ratios: Ratio) -> Ratio:
    """Combine ratios, cancelling binomials shared by num and den."""
    c, e = 1, 0
    num: list[tuple[int, int]] = []
    den: list[tuple[int, int]] = []
    for cc, ee, nn, dd in ratios:
        c *= cc
        e += ee
        num.extend(nn)
        den.extend(dd)
    for f in list(num):
        if f in den:
            num.remove(f)
            den.remove(f)
    return (c, e, tuple(num), tuple(den))


def _stepped_lhs_terms(stepped: SteppedPair, form: LimitForm, order: int) -> Iterator[LaurentSeries]:
    """Outer terms of sum_n w_n beta'_n for a double-infinity stepped pair.

    Row (n, k) is w_n * q^(u(k)) beta_k / (q)_{n-k}; the walk along k uses
    ratios composed from the base pair's beta ratio, so this path shares no
    transcription with the direct double-sum catalog.
    """
    base = stepped.base
    k0 = form.n0
    wc, we = form.w_seed
    seed = base.beta(k0, order).mul_monomial(wc, we + stepped._u_exp(k0))
    if seed.order is not None and seed.order > order:
        seed = seed.truncate(order)
    start = seed
    n = form.n0
    while True:
        term = start
        total = term
        for k in range(k0, n):
            u_step = (1, 2 * k + 1 + (1 if stepped.rel == "q" else 0), (), ())
            term = _apply(
                term, order,
                _compose(u_step, base.beta_ratio(k), (1, 0, ((1, n - k),), ())),
            )
            if term.is_zero():
                break
            total = total + term
        yield total
        start = _apply(start, order, _compose(form.w_ratio(n), (1, 0, (), ((1, n + 1 - k0),))))
        n += 1


def _generic_lhs_terms(pair, form: LimitForm, order: int) -> Iterator[LaurentSeries]:
    w = LaurentSeries.monomial(*form.w_seed, order=order)
    n = form.n0
    while True:
        t = w * pair.beta(n, order)
        if t.order is not None and t.order > order:
            t = t.truncate(order)
        yield t
        w = _apply(w, order, form.w_ratio(n))
        n += 1


def _rhs_terms(pair, form: LimitForm, order: int) -> Iterator[LaurentSeries]:
    n = form.n0
    while True:
        yield _apply(pair.alpha(n, order), order, form.rhs_term(n))
        n += 1


def limit_form(pair, form_id: str, order: int, star_budget: int | None = None):
    """Both sides of a limit transform applied to a pair, as series.

    Returns (lhs, rhs).  lhs sums the beta side, rhs the alpha side; for a
    matching pair/form combination the two agree through q**order.
    """
    form = _lookup_form(form_id)
    if pair.rel != form.rel:
        raise FormPairMismatch(
            f"form {form.form_id} needs a pair relative to a = {form.rel}, "
            f"got {pair.label} (a = {pair.rel})"
        )
    if form.n0 > 0 and not pair.beta(0, 0).is_zero():
        raise Beta0NotZero(f"form {form.form_id} needs beta_0 = 0, {pair.label} has not")
    if isinstance(pair, SteppedPair) and isinstance(pair.base, BaileyPair):
        lhs_terms = _stepped_lhs_terms(pair, form, order)
    else:
        lhs_terms = _generic_lhs_terms(pair, form, order)
    rhs_terms = _rhs_terms(pair, form, order)
    if form.starred:
        lhs = star_sum(lhs_terms, order, budget=star_budget)
        rhs = star_sum(rhs_terms, order, budget=star_budget)
    else:
        lhs = classical_sum(lhs_terms, order)
        rhs = classical_sum(rhs_terms, order)
    if form.rhs_scale_two:
        rhs = rhs.scale(2)
    if form.rhs_mul_one_minus_q:
        rhs = rhs.mul_binomial(1, 1)
    if form.rhs_scale_half:
        rhs = rhs.scale(Fraction(1, 2))
    return lhs, rhs
