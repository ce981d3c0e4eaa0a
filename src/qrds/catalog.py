"""The named q-series (SIGMA, L1..L12, Z2..Z5): the tables they are summed from.

Every series here is summed straight from its defining single or double
sum, entirely in integer arithmetic, by the ratio-chain engine of ``chain``;
this module holds what that engine sums.  A single sum is one row of
``_SINGLES``: its first index, its first term, the ratio of successive terms
and a proven lower bound for the valuation of each term.

S_n depends only on the limit form and P_k only on the stepped Bailey pair
(P_k is its beta_k), so the twelve double sums are four form families
(``_FAMILIES``, each one ``chain.Family`` record) times eight P-ratios
(``_P_RATIOS``): A1 holds L1 and L3, AQ L2 and L4, A1ALSO L5, L6, L9 and
L10, AQALSO L7, L8, L11 and L12; P2A serves L1/L9, P3A L3/L10, P2B L2/L11,
P3B L4/L12, and P1A, BK1, BK2 and P1B L5..L8.  A family is its limit form's
one record: its S side is the form's own, which ``bailey``'s beta side reads
from here, and the record also holds the form's alpha side.  The seeds
(c0, e0) and the P-ratios are written apart from ``bailey``'s pair closed
forms (the tests pin the two); ``pipeline`` reads an id's pair, form and
constant off the same table, and ``verify`` checks each double sum, less
its constant, against that pipeline's alpha side, which no ratio chain
computes.  The starred sums L7, L8, L11 and L12 are kept doubled, as their
series are, and AQALSO's alpha side is written for the doubled sum, so
neither side is scaled on this path.

The A1 and AQ columns step term by term, with ratio S_(n+1) / S_n /
(1 - q^(n+1-k)).  The A1ALSO and AQALSO columns are 2phi1 series with
c = 0, summed in their quadratic 2phi2 form (Gasper and Rahman, (III.4)),
which needs about sqrt(2h) levels through q**h in place of about h and
gives the column times (-q;q)_k.  Each family's three-term relation, by
which the engine derives every column after its first, is proved above
``_FAMILIES``, from k0 - 1 on, where column k0 - 1 is a constant.

``eval_plan`` sums all the series a plan asks for, the double sums of one
family in one ``chain.ratio_sum`` call, whose columns are computed once;
``eval_named`` of a double sum is the one-member case, and of a single sum
one ``chain.single_sum``.

``classical_sum`` and ``star_sum`` add a stream of term series until a
streak of vanishing terms (or term pairs) ends it.  No sum of the package
calls them: every catalog sum and beta side stops at a proven last level
(``chain``), and the Bailey pipeline's alpha side at a proven last index
(``bailey``).  They remain because the benchmark's tracer
(``qbench/tracer.py``) binds them at import to count outer terms, and as
the term-by-term reference the tests check the engine against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from . import chain
from .errors import NoStabilization, UnknownId, check_int, check_order, lookup
from .series import LaurentSeries

_HALF = Fraction(1, 2)

__all__ = [
    "catalog_ids",
    "eval_named",
    "eval_plan",
    "normalize_id",
    "pipeline",
]

_VANISH_STREAK = 4


def classical_sum(terms: Iterable[LaurentSeries], order: int) -> LaurentSeries:
    """Sum outer terms until four in a row vanish below the horizon.

    Raises NoStabilization if terms are still visible after
    ``chain.level_cap(order, None)`` of them.
    """
    budget = chain.level_cap(order, None)
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
            raise NoStabilization(
                f"outer terms still visible after {count} of them (order {order})",
                n_limit=count,
            )
    return total


def star_sum(
    terms: Iterable[LaurentSeries], order: int, budget: int | None = None
) -> LaurentSeries:
    """Averaged limit of eventually 2-periodic partial sums.

    Once T_n + T_(n-1) == 0 (mod q^(order+1)) holds for four consecutive n,
    the partial sums alternate between S and S + T_n; the star value is
    their average.  Raises NoStabilization if the budget
    (``chain.level_cap(order, budget)``) runs out first.
    """
    budget = chain.level_cap(order, budget)
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

# each single-sum entry: (n0, seed, ratio(n)), the series being the chain
# seed * (1 + ratio(n0) * (1 + ratio(n0 + 1) * (...))), with its bound
#
# Z2 = sum_{n >= 1} q^n (-q^2; q^2)_(n-1) / (-q; q^2)_n steps by q per term.
# In base p = q^2 it is q / (1 + q) * sum_{n >= 0} (-p; p)_n q^n / (-qp; p)_n,
# and the Rogers-Fine identity (Fine, Basic Hypergeometric Series and
# Applications, 1988, (14.1)) turns that sum into one whose term n has
# valuation 2n^2 + 2n, so Z2's row is
#   Z2 = sum_{n >= 0} (-1)^n q^(2n^2 + 2n + 1) (1 + q^(4n+3)) (q^4; q^4)_n / (q^2; q^4)_(n+1).

_SINGLES: dict[str, tuple[tuple[int, chain.Ratio, Callable[[int], chain.Ratio]], Callable[[int], int]]] = {
    "SIGMA": (
        (0, (1, 0, (), ()), lambda n: (1, n + 1, (), ((-1, n + 1),))),
        lambda n: n * (n + 1) // 2,
    ),
    "Z2": (
        (
            0,
            (1, 1, ((-1, 3),), ((1, 2),)),
            lambda n: (-1, 4 * n + 4, ((1, 4 * n + 4), (-1, 4 * n + 7)), ((1, 4 * n + 6), (-1, 4 * n + 3))),
        ),
        lambda n: 2 * n * n + 2 * n + 1,
    ),
    "Z3": (
        (
            1,
            (-1, 2, (), ((-1, 1), (-1, 2))),
            lambda n: (-1, 2 * n + 2, ((1, 2 * n),), ((-1, 2 * n + 1), (-1, 2 * n + 2))),
        ),
        lambda n: n * n + n,
    ),
    "Z4": (
        (
            0,
            (1, 0, (), ((-1, 1),)),
            lambda n: (-1, 2 * n + 2, ((1, 2 * n + 2),), ((-1, 2 * n + 2), (-1, 2 * n + 3))),
        ),
        lambda n: n * n + n,
    ),
    "Z5": (
        (1, (-1, 1, (), ((1, 1),)), lambda n: (-1, 1, ((1, n),), ((1, 2 * n + 1),))),
        lambda n: n,
    ),
}


# A1 and AQ sum their columns term by term, rho_k(n) = s_ratio(n) /
# (1 - q^(n+1-k)).  A1ALSO's column is the 2phi1 with c = 0
# U_k = 2phi1(q^k, -q^k; 0; q, -q), and AQALSO's (doubled) column is the star
# value of 2phi1(q^(k+1), -q^(k+1); 0; q, -1); both are summed in the form
#   2phi1(a, b; 0; q, z) = (az)_inf / (z)_inf
#       * sum_m (a)_m (-bz)^m q^(m(m-1)/2) / ((q)_m (az)_m)
# (Gasper and Rahman, Basic Hypergeometric Series, 2nd ed., (III.4)), whose
# prefactor is 1 / (-q;q)_k, or 1 / (2 (-q;q)_k) for AQALSO.  Level m = n - k
# has valuation (k + 1) m + m(m - 1)/2, so a column has at most sqrt(2h)
# levels through q**h, converges q-adically and meets bound(n) as well.
#
# Every family's columns obey U_k = A_k U_(k+1) + B_k U_(k+2) for k >= k0 - 1,
# a three-term contiguous relation (Gasper and Rahman, ch. 1).  Proof: with
# x = q^k, u = q^m, a = 1 (A1, A1ALSO) or q (AQ, AQALSO), column k's chain sums
# C_k = X_k U_k = sum_{m >= 0} t_m(k), X_k = 1 for A1 and AQ, where
#   A1: t_m(k) = (-1)^m q^(m(m+1)/2) x^m (x)_m / (q)_m, AQ: the same with (qx)_m,
#   ALSO: t_m(k) = (-1)^m q^(m(m-1)/2) (qx)^m (ax)_m / ((q)_m (-qx)_m).
# Let r_m = t_m(k) / (1 - ax), read with the first factor of (ax)_m cancelled,
# s_k = X_(k+1) / X_k (1, or 1 + qx for ALSO), and
#   A1:   A_k = 1 - qx + qx^2 + q^2 x^2,    B_k = q^4 x^3 (1 - qx),
#         g_m = (1 - u)(-(1 - x) + x (1 + q^2 x) u - q^2 x^3 u^2) r_m,
#   AQ:   A_k = 1 - qx + q^2 x^2 + q^3 x^2, B_k = q^5 x^3 (1 - q^2 x),
#         g_m = (1 - u)(-(1 - qx) + qx (1 + q^2 x) u - q^4 x^3 u^2) r_m,
#   ALSO: A_k = 1 + a (1 + q) q x^2,        B_k = q^3 x^2 (1 - a^2 q^2 x^2),
#         g_m = -s_k s_(k+1) (1 - u)(1 - ax - ax (1 + qx + q^2 x) u
#               + a^2 q^2 x^3 u^2) r_m / (1 + qxu).
# With t_m(k+1) / r_m and t_m(k+2) / r_m the rational functions of (q, x, u)
# the product form gives, clearing denominators shows
#   s_k s_(k+1) t_m(k) - A_k s_(k+1) t_m(k+1) - B_k t_m(k+2) = g_(m+1) - g_m,
# at k = k0 - 1 too, where ax = 1.  g_0 = 0 and g_m -> 0 q-adically (r_m's
# valuation grows as m^2 / 2, and 1 + qxu has constant term 1 for m >= 1), so
# summing over m gives s_k s_(k+1) C_k = A_k s_(k+1) C_(k+1) + B_k C_(k+2);
# divided by X_(k+2), that is the relation.  At k0 - 1, t_m = 0 for m >= 1, so
# U_(k0-1) = 1 / X_(k0-1): 1, and 2 for AQALSO, whose X_0 = 1 = 2 X_(-1).
_FAMILIES: dict[str, chain.Family] = {f.name: f for f in (
    chain.Family(name="A1", rel="1", k0=1, w_seed=(-1, 1), c0=1, e0=2,
                 s_ratio=lambda n: (-1, n + 1, ((1, n),), ()),
                 column=lambda k, n: (-1, n + 1, ((1, n),), ((1, n - k + 1),)),
                 relation=lambda k: (((1, 0), (-1, k + 1), (1, 2 * k + 1), (1, 2 * k + 2)), 3 * k + 4, k + 1),
                 u_below=1, bound=lambda n: n * (n + 1) // 2,
                 rhs_term=lambda n: (chain.sgn(n), n * (n + 1) // 2, (), ((1, n),))),
    chain.Family(name="AQ", rel="q", k0=0, w_seed=(1, 0), c0=1, e0=0,
                 s_ratio=lambda n: (-1, n + 1, ((1, n + 1),), ()),
                 column=lambda k, n: (-1, n + 1, ((1, n + 1),), ((1, n - k + 1),)),
                 relation=lambda k: (((1, 0), (-1, k + 1), (1, 2 * k + 2), (1, 2 * k + 3)), 3 * k + 5, k + 2),
                 u_below=1, bound=lambda n: n * (n + 1) // 2,
                 rhs_term=lambda n: (chain.sgn(n), n * (n + 1) // 2, (), ())),
    chain.Family(name="A1ALSO", rel="1", k0=1, w_seed=(-2, 1), c0=2, e0=2,
                 s_ratio=lambda n: (-1, 1, ((1, 2 * n),), ()),
                 column=lambda k, n: (-1, n + 1, ((1, n),), ((1, n - k + 1), (-1, n + 1))),
                 column_scale=lambda k: ((-1, k + 1),), u_below=1,
                 relation=lambda k: (((1, 0), (1, 2 * k + 1), (1, 2 * k + 2)), 2 * k + 3, 2 * k + 2),
                 bound=lambda n: n,
                 rhs_term=lambda n: (2 * chain.sgn(n), n, (), ((1, 2 * n),))),
    chain.Family(name="AQALSO", rel="q", k0=0, w_seed=(1, 0), c0=1, e0=0,
                 s_ratio=lambda n: (-1, 0, ((1, 2 * n + 2),), ()),
                 column=lambda k, n: (-1, n + 1, ((1, n + 1),), ((1, n - k + 1), (-1, n + 1))),
                 column_scale=lambda k: ((-1, k + 1),), u_below=2,
                 relation=lambda k: (((1, 0), (1, 2 * k + 2), (1, 2 * k + 3)), 2 * k + 3, 2 * k + 4),
                 bound=lambda n: 0,
                 rhs_term=lambda n: (chain.sgn(n), 0, (), ()), starred=True),
)}

# P_(k+1) / P_k of each pair, P_k being its stepped beta_k
_P_RATIOS: dict[str, Callable[[int], chain.Ratio]] = {
    "BK1": lambda k: (-1, 2 * k + 1, ((1, 2 * k - 1),), ((1, 2 * k), (1, 2 * k + 1))),
    "BK2": lambda k: (-1, 2 * k + 2, ((1, 2 * k + 1),), ((1, 2 * k + 2), (1, 2 * k + 3))),
    "P1A": lambda k: (-1, 2 * k, ((1, 2 * k - 1),), ((1, 2 * k), (1, 2 * k + 1))),
    "P1B": lambda k: (-1, 2 * k + 1, ((1, 2 * k + 1),), ((1, 2 * k + 2), (1, 2 * k + 3))),
    "P2A": lambda k: (-1, k + 1, ((1, 2 * k - 1),), ((1, k), (1, 2 * k + 1))),
    "P2B": lambda k: (-1, k + 1, ((1, 2 * k + 1),), ((1, k + 1), (1, 2 * k + 3))),
    "P3A": lambda k: (-1, k, ((1, 2 * k - 1),), ((1, k), (1, 2 * k + 1))),
    "P3B": lambda k: (-1, k, ((1, 2 * k + 1),), ((1, k + 1), (1, 2 * k + 3))),
}

# each double sum: (family, pair of its P-ratio, constant added to the sum)
_DOUBLES: dict[str, tuple[str, str, int]] = {
    "L1": ("A1", "P2A", 0),
    "L2": ("AQ", "P2B", 0),
    "L3": ("A1", "P3A", 0),
    "L4": ("AQ", "P3B", -1),
    "L5": ("A1ALSO", "P1A", 0),
    "L6": ("A1ALSO", "BK1", 0),
    "L7": ("AQALSO", "BK2", 0),
    "L8": ("AQALSO", "P1B", -1),
    "L9": ("A1ALSO", "P2A", 0),
    "L10": ("A1ALSO", "P3A", 0),
    "L11": ("AQALSO", "P2B", 0),
    "L12": ("AQALSO", "P3B", -2),
}


def normalize_id(series_id: str) -> str:
    """Case-insensitive lookup key for a catalog id; raises UnknownId."""
    return lookup(_SINGLES | _DOUBLES, series_id, UnknownId, "unknown series id")[0]


def catalog_ids() -> tuple[str, ...]:
    return tuple(sorted(_SINGLES)) + tuple(sorted(_DOUBLES))


def pipeline(series_id: str) -> tuple[str, str, int]:
    """(pair label, limit form, constant) of a double sum: the series is the
    limit form's alpha side for the stepped pair (``bailey.alpha_side``,
    doubled for a starred form, as the series is), plus the constant.
    Raises UnknownId for an id that is not a double sum."""
    key = normalize_id(series_id)
    if key not in _DOUBLES:
        raise UnknownId(f"{key} is not a double sum")
    form, label, const = _DOUBLES[key]
    return label, form, const


def eval_named(series_id: str, order: int, star_budget: int | None = None) -> LaurentSeries:
    """Evaluate a named series exactly through q**order.

    ``star_budget`` (None: ``chain.level_cap``'s default, 4 * order + 64;
    0 is zero levels) caps the levels of any one ratio chain: a single sum,
    a fold, or a column, walked at the horizon its fold needs.  A family's
    one chained column is summed through the higher horizon its derived
    columns need, and the cap counts that longer chain.  A chain that needs
    more raises NoStabilization.
    """
    check_order(order)
    if star_budget is not None:
        check_int(star_budget, "star_budget")
        if star_budget < 0:
            raise ValueError("star_budget must be >= 0")
    key = normalize_id(series_id)
    if key in _SINGLES:
        return chain.single_sum(*_SINGLES[key], order, star_budget)
    return _family_sums(_DOUBLES[key][0], {key: order}, star_budget)[key]


def _family_sums(form: str, horizons: dict[str, int],
                 cap: int | None = None) -> dict[str, LaurentSeries]:
    """The double sums ``horizons`` names, all of the family ``form``, each
    through its own horizon, in one ``chain.ratio_sum``: their columns are
    summed once, in a store that lives for this call only."""
    fam = _FAMILIES[form]
    seed = (fam.c0, fam.e0, (), ((1, 1),))
    members = [chain.Member(order, seed, _P_RATIOS[_DOUBLES[sid][1]]) for sid, order in horizons.items()]
    out = {}
    for (sid, order), total in zip(horizons.items(), chain.ratio_sum(fam, members, cap)):
        const = _DOUBLES[sid][2]
        out[sid] = total + LaurentSeries.monomial(const, 0, order) if const else total
    return out


def eval_plan(horizons: dict[str, int]) -> dict[str, LaurentSeries]:
    """Every series ``horizons`` names, through its own horizon, keyed by id.

    Two keys that name one id ask for it through the higher of their
    horizons.  A single sum goes through ``eval_named``; the double sums of
    one family are summed together, so each of their columns is summed once,
    at the highest horizon any of them needs.
    """
    plan: dict[str, int] = {}
    for series_id, order in horizons.items():
        key = normalize_id(series_id)
        check_order(order)
        plan[key] = max(plan.get(key, order), order)
    out = {}
    families: dict[str, dict[str, int]] = {}
    for key, order in plan.items():
        if key in _SINGLES:
            out[key] = eval_named(key, order)
        else:
            families.setdefault(_DOUBLES[key][0], {})[key] = order
    for form, members in families.items():
        out.update(_family_sums(form, members))
    return out
