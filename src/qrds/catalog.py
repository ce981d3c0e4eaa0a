"""Direct evaluation of the named q-series (SIGMA, L1..L12, Z2..Z5).

Every series here is summed straight from its defining single or double
sum, entirely in integer arithmetic.  Successive terms are given by exact
ratios (a monomial times a few binomials over binomials), so no Pochhammer
product is ever expanded.

Every sum is a ratio chain, summed inside out by Horner's rule.  A single
sum is 1 + r(n0) * (1 + r(n0 + 1) * (...)) times its first term.  A double
sum, direct or on the Bailey pipeline's beta side, has terms
T(n, k) = S_n * P_k / (q)_{n-k}; its column k is such a chain, and the
columns fold outwards the same way, column k + 1 entering column k with the
ratio of the diagonal terms.  The A1 and AQ columns step term by term, with
ratio S_(n+1) / S_n / (1 - q^(n+1-k)).  The A1ALSO and AQALSO columns are
2phi1 series with c = 0, summed in their quadratic 2phi2 form (Gasper and
Rahman, (III.4)), which needs about sqrt(2h) levels through q**h in place
of about h and gives the column times (-q;q)_k.  Each family sums one
column as a chain, its first, U_k0, divided by that scale once.  Every later
column follows from the two before it by a three-term contiguous relation,
proved here for each family from k0 - 1 on, where column k0 - 1 is a
constant: about five list passes a column, each checking that its division
by the relation's q^b is exact (``InvariantViolation``).  Every chain that
is summed, column or fold, takes its ratios in lowest terms (``_cancel``),
so A1's and AQ's first columns are plain monomial chains.
Each level works on one plain int list in place with the series kernel's
list operations; nothing is added row by row.

S_n depends only on the limit form and P_k only on the stepped Bailey pair
(P_k is its beta_k), so the twelve are four form families (``_Family``)
times eight P-ratios: A1 holds L1 and L3, AQ L2 and L4, A1ALSO L5, L6, L9
and L10, AQALSO L7, L8, L11 and L12; P2A serves L1/L9, P3A L3/L10, P2B
L2/L11, P3B L4/L12, and P1A, BK1, BK2 and P1B L5..L8.  A family is its
limit form's one record: its S side is the form's own, which ``bailey``'s
beta side reads from here, and the record also holds the form's alpha side.
The seeds (c0, e0) and the P-ratios are written apart from ``bailey``'s
pair closed forms (the tests pin the two); ``pipeline`` reads an id's pair,
form, scale and constant off the same table, and ``verify`` checks each
double sum against that pipeline's alpha side, which no ratio chain here
computes.

The double sums of one family therefore have the same columns, and only the
fold with P_k tells them apart.  ``_ratio_sum`` sums double sums of one
family, read off its record; ``eval_plan`` sums all those a plan asks for
in one call, whose column store lives for that call only: each column is
computed once, through the highest horizon any member needs it at (raised,
for the chained column, to what the columns derived from it need), and
each member folds truncated copies.  ``eval_named`` of a double sum is the one-member
case, and so is ``bailey.limit_form``'s beta side; a single sum is its seed
times one chain (``_seeded`` holds the seed step of both kinds).

The last level comes from a proof, not from a streak of vanishing terms:
every binomial has constant term 1 and every monomial exponent is >= 0
(checked), so each level's valuation is known exactly before any
arithmetic, and the chain stops at the last level that reaches the
truncation horizon.  The four starred sums (L7, L8, L11, L12) are star
values of series whose terms do not die off, but their columns in the
(III.4) form converge q-adically, and the transform's prefactor
1 / (2 (-q;q)_k) makes each column the doubled one: the sums come doubled
and stay in the integers, with no star tail to detect.

Each series also carries a proven lower bound for the valuation of its n-th
term, checked against every level's derived valuation, outermost first
(``InvariantViolation``, which survives ``python -O``), so a transcription
slip in a ratio cannot silently produce plausible-looking output.

``classical_sum`` and ``star_sum`` add a stream of term series until a
streak of vanishing terms (or term pairs) ends it.  No sum of the package
calls them: the Bailey pipeline's alpha side, a sum of closed forms rather
than a ratio chain, also stops at a proven last index (``bailey``).  They
remain as the term-by-term reference the tests check the engine against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import add, sub
from typing import Callable, Iterable, NamedTuple

from .errors import InvariantViolation, NoStabilization, UnknownId, check_order, lookup
from .series import LaurentSeries, div_binomial_into, mul_binomial_into

_HALF = Fraction(1, 2)

__all__ = [
    "catalog_ids",
    "eval_named",
    "eval_plan",
    "normalize_id",
    "pipeline",
]

# a ratio is (c, e, num, den): multiply by c*q^e, then by (1 - cc*q^ee) for
# each (cc, ee) in num, then divide by the same for each entry of den
Ratio = tuple[int, int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


_VANISH_STREAK = 4


def classical_sum(terms: Iterable[LaurentSeries], order: int) -> LaurentSeries:
    """Sum outer terms until four in a row vanish below the horizon.

    Raises NoStabilization if terms are still visible after 4*order + 64 of them.
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

# each single-sum entry: (n0, seed, ratio(n)), the series being the chain
# seed * (1 + ratio(n0) * (1 + ratio(n0 + 1) * (...))), with its bound
#
# Z2 = sum_{n >= 1} q^n (-q^2; q^2)_(n-1) / (-q; q^2)_n steps by q per term.
# In base p = q^2 it is q / (1 + q) * sum_{n >= 0} (-p; p)_n q^n / (-qp; p)_n,
# and the Rogers-Fine identity (Fine, Basic Hypergeometric Series and
# Applications, 1988, (14.1)) turns that sum into one whose term n has
# valuation 2n^2 + 2n, so Z2's row is
#   Z2 = sum_{n >= 0} (-1)^n q^(2n^2 + 2n + 1) (1 + q^(4n+3)) (q^4; q^4)_n / (q^2; q^4)_(n+1).

_Single = tuple[int, Ratio, Callable[[int], Ratio]]

_SINGLES: dict[str, tuple[_Single, Callable[[int], int]]] = {
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


def _sgn(n: int) -> int:
    return -1 if n % 2 else 1


class _Family(NamedTuple):
    """One limit form, keyed by its ``name``, read by the catalog's double
    sums and by ``bailey``'s limit transform alike.

    The form's beta side sums w_n beta'_n over n >= k0 for a stepped pair
    relative to a = ``rel``, with w_k0 = ``w_seed`` (coeff, exponent) and
    ``s_ratio(n)`` = S_(n+1) / S_n = w_(n+1) / w_n.  T(k0, k0) = c0 *
    q^e0 / (1 - q) is the catalog's seed, w_k0 * beta'_k0 written apart
    from the pair closed forms.  Column k, U_k = sum_{n >= k} T(n, k) /
    T(k, k), is what the fold reads.  Its chain, whose level n steps to level
    n + 1 by ``column(k, n)``, gives X_k U_k, X_k being the product of the
    ``column_scale(j)`` binomials over j < k.  One column, U_k0, is summed
    by its chain and divided by X_k0; every other column follows from
    U_k = A_k U_(k+1) + B_k U_(k+2), which holds for every k >= k0 - 1,
    ``relation(k)`` = (a, b, c) giving A_k = sum of s q^e over the signed
    terms (s, e) of a and B_k = q^b (1 - q^c), and U_(k0-1) = ``u_below``
    is a constant.  ``bound(n)`` is a proven lower bound for the valuation
    of every term of row n; a ``starred`` family's series is twice its sum's
    star value.  The alpha side is ``rhs_scale`` * sum_{n >= k0}
    ``rhs_term(n)`` * alpha'_n.
    """

    name: str
    rel: str
    k0: int
    w_seed: tuple[int, int]
    c0: int
    e0: int
    s_ratio: Callable[[int], Ratio]
    column: Callable[[int, int], Ratio]
    relation: Callable[[int], tuple[tuple[tuple[int, int], ...], int, int]]
    u_below: int
    bound: Callable[[int], int]
    rhs_term: Callable[[int], Ratio]
    rhs_scale: int | Fraction = 1
    starred: bool = False
    column_scale: Callable[[int], tuple[tuple[int, int], ...]] = lambda k: ()


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
_FAMILIES: dict[str, _Family] = {f.name: f for f in (
    _Family(name="A1", rel="1", k0=1, w_seed=(-1, 1), c0=1, e0=2,
            s_ratio=lambda n: (-1, n + 1, ((1, n),), ()),
            column=lambda k, n: (-1, n + 1, ((1, n),), ((1, n - k + 1),)),
            relation=lambda k: (((1, 0), (-1, k + 1), (1, 2 * k + 1), (1, 2 * k + 2)), 3 * k + 4, k + 1),
            u_below=1, bound=lambda n: n * (n + 1) // 2,
            rhs_term=lambda n: (_sgn(n), n * (n + 1) // 2, (), ((1, n),))),
    _Family(name="AQ", rel="q", k0=0, w_seed=(1, 0), c0=1, e0=0,
            s_ratio=lambda n: (-1, n + 1, ((1, n + 1),), ()),
            column=lambda k, n: (-1, n + 1, ((1, n + 1),), ((1, n - k + 1),)),
            relation=lambda k: (((1, 0), (-1, k + 1), (1, 2 * k + 2), (1, 2 * k + 3)), 3 * k + 5, k + 2),
            u_below=1, bound=lambda n: n * (n + 1) // 2,
            rhs_term=lambda n: (_sgn(n), n * (n + 1) // 2, (), ())),
    _Family(name="A1ALSO", rel="1", k0=1, w_seed=(-2, 1), c0=2, e0=2,
            s_ratio=lambda n: (-1, 1, ((1, 2 * n),), ()),
            column=lambda k, n: (-1, n + 1, ((1, n),), ((1, n - k + 1), (-1, n + 1))),
            column_scale=lambda k: ((-1, k + 1),), u_below=1,
            relation=lambda k: (((1, 0), (1, 2 * k + 1), (1, 2 * k + 2)), 2 * k + 3, 2 * k + 2),
            bound=lambda n: n,
            rhs_term=lambda n: (_sgn(n), n, (), ((1, 2 * n),)), rhs_scale=2),
    _Family(name="AQALSO", rel="q", k0=0, w_seed=(1, 0), c0=1, e0=0,
            s_ratio=lambda n: (-1, 0, ((1, 2 * n + 2),), ()),
            column=lambda k, n: (-1, n + 1, ((1, n + 1),), ((1, n - k + 1), (-1, n + 1))),
            column_scale=lambda k: ((-1, k + 1),), u_below=2,
            relation=lambda k: (((1, 0), (1, 2 * k + 2), (1, 2 * k + 3)), 2 * k + 3, 2 * k + 4),
            bound=lambda n: 0,
            rhs_term=lambda n: (_sgn(n), 0, (), ()), rhs_scale=_HALF, starred=True),
)}

# P_(k+1) / P_k of each pair, P_k being its stepped beta_k
_P_RATIOS: dict[str, Callable[[int], Ratio]] = {
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


def _factor_ratio(ratio: Ratio) -> Ratio:
    """``ratio``, once its monomial exponent is checked to be >= 0.

    The proven last level relies on it: with no negative exponent the
    valuations along a chain never fall.
    """
    if ratio[1] < 0:
        raise InvariantViolation(f"factor ratio {ratio} has a negative monomial exponent")
    return ratio


def _cancel(ratio: Ratio) -> Ratio:
    """``ratio`` in lowest terms: the binomials its numerator and denominator
    share removed, counted with multiplicity."""
    c, e, num, den = ratio
    den = list(den)
    kept = [b for b in num if b not in den or den.remove(b)]  # remove() gives None
    return c, e, tuple(kept), tuple(den)


def _horner(ratios: list[Ratio], heads: list[list], buf: list, h: int) -> list:
    """W_0 of W_i = heads[i] + ratios[i] * W_(i+1), from the innermost W_L = ``buf``.

    ``buf`` is W_L through q**h, index i standing for q**i.  Each level works
    on ``buf`` in place: the binomials through the inner horizon, then the
    monomial as a front insert.  The value is kept as a sign times ``buf``,
    so a unit multiplier only flips the sign.
    """
    sgn = 1
    for (c, e, num, den), head in zip(reversed(ratios), reversed(heads)):
        m = h + 1
        for cc, ee in num:
            mul_binomial_into(buf, cc, ee, m)
        for cc, ee in den:
            div_binomial_into(buf, cc, ee, m)
        buf[:0] = repeat(0, e)
        h += e
        if c == 1 or c == -1:
            sgn *= c
        else:
            buf[:] = [sgn * c * x for x in buf]
            sgn = 1
        buf.extend(repeat(0, len(head) - len(buf)))
        buf[:len(head)] = map(add if sgn == 1 else sub, buf, head)
    return buf if sgn == 1 else [-x for x in buf]


def _walk(ratio: Callable[[int], Ratio], j: int, h: int, v: int, cap: int,
          bound: Callable[[int], int] | None = None) -> tuple[list[Ratio], list[tuple[int, int, int]]]:
    """The levels (n, h_n, v_n) of a chain from level j and the ratios between them.

    Every binomial has constant term 1 and every exponent is >= 0, so level n
    has valuation exactly v_n = v + e_j + ... + e_(n-1) and is needed through
    h_n = h - (e_j + ... + e_(n-1)), both known before any arithmetic.  The
    last level is the last with h_n >= 0, or one whose ratio is 0.  Each
    level is checked against ``bound(n)`` as it is reached, outermost first
    (InvariantViolation); more than ``cap`` levels raise NoStabilization.
    """
    ratios: list[Ratio] = []
    levels = []
    while True:
        if bound is not None and v < bound(j):
            raise InvariantViolation(f"valuation {v} below its bound {bound(j)} at n={j}")
        levels.append((j, h, v))
        c, e, num, den = r = _factor_ratio(ratio(j))
        if not c or e > h:
            return ratios, levels
        if len(ratios) >= cap:
            raise NoStabilization(f"no last level within {cap} levels from n={j - cap}", n_limit=cap)
        ratios.append(r)
        h -= e
        v += e
        j += 1


def _chain(walk: tuple[list[Ratio], list[tuple[int, int, int]]],
           head: Callable[[int, int], list] = lambda n, hn: [1]) -> list:
    """W_j through q**h_j of the chain W_n = head(n, h_n) + ratio(n) * W_(n+1)
    (every head 1 by default), whose ratios and levels (n, h_n, v_n) from
    level j are ``walk``, one ``_walk``.  The last level's value is its head."""
    ratios, levels = walk
    heads = [head(n, hn) for n, hn, _ in levels]
    return _horner(ratios, heads, heads.pop(), levels[-1][1])


def _column(column: Callable[[int, int], Ratio], k: int, h: int, v: int, cap: int,
            bound: Callable[[int], int]) -> list:
    """Column k through q**h, the chain 1 + column(k, k) * (1 + column(k, k + 1)
    * (...)), its level n at row n and level k at valuation v, each ratio in
    lowest terms."""
    return _chain(_walk(lambda n: _cancel(column(k, n)), k, h, v, cap, bound))


def _derived(fam: _Family, k: int, low: list, high: list, h: int) -> list:
    """Column k + 2 of ``fam`` through q**h from its columns k (``low``) and
    k + 1 (``high``) by ``fam.relation(k)``:
    U_(k+2) = (U_k - A_k U_(k+1)) / B_k, A_k's signed terms applied as
    shifted subtractions or additions.  B_k's monomial q^b is divided out
    by dropping the numerator's b lowest coefficients, which must be 0
    (InvariantViolation), so a wrong column or relation shows here.  The
    relation is proved above ``_FAMILIES``."""
    a, b, c = fam.relation(k)
    m = h + b + 1
    num = low[:m]
    num.extend(repeat(0, m - len(num)))
    for sign, e in a:
        part = high[:m - e]
        num[e:e + len(part)] = map(sub if sign > 0 else add, num[e:e + len(part)], part)
    if any(num[:b]):
        raise InvariantViolation(
            f"{fam.name} column {k + 2} from columns {k} and {k + 1}: numerator not divisible by q^{b}")
    del num[:b]
    div_binomial_into(num, 1, c, h + 1)
    return num


def _columns(fam: _Family, need: dict[int, tuple[int, int]], cap: int) -> dict[int, list]:
    """Column U_k of ``fam`` through at least q**h, for each k: (h, v) of
    ``need``, whose keys run k0, k0 + 1, ... without a gap.

    Each column's chain is walked at its own (h, v), in k order, so every
    bound and level-cap check fires as if that column were summed by its
    chain.  Only U_k0 is summed so (``_column``), and divided by its X_k0
    once.  Every later column is derived from the two before it
    (``_derived``), about five list passes in place of about sqrt(2h)
    levels: U_(k0+1) from the constant U_(k0-1) and U_k0.  Deriving column
    k + 2 loses b_k = ``relation(k)[1]`` of horizon, so the horizons are
    raised first, in one backward pass: columns k and k + 1 are needed
    through the horizon of column k + 2 plus b_k.
    """
    ks = sorted(need)
    top = {k: h for k, (h, _) in need.items()}
    for k in reversed(ks[1:]):
        b = fam.relation(k - 2)[1]
        for j in (k - 2, k - 1):
            top[j] = max(top.get(j, 0), top[k] + b)
    columns = {}
    for k in ks:
        h, v = need[k]
        if k == fam.k0:
            columns[k] = col = _column(fam.column, k, top[k], v, cap, fam.bound)
            for cc, ee in (b for j in range(k) for b in fam.column_scale(j)):  # X_k0
                div_binomial_into(col, cc, ee, top[k] + 1)
        else:
            _walk(partial(fam.column, k), k, h, v, cap, fam.bound)
    for k in ks[1:]:
        columns[k] = _derived(fam, k - 2, columns.get(k - 2, [fam.u_below]), columns[k - 1], top[k])
    return columns


def _seeded(seed: Ratio, order: int, chain: Callable[[int, int], list]) -> LaurentSeries:
    """``seed`` times ``chain(h, v)``, h and v being what the seed leaves of
    q**order and its exponent; 0, with no chain summed, if the seed is 0 or
    above q**order."""
    c, v = _factor_ratio(seed)[:2]
    if order < v or not c:
        return LaurentSeries.zero(order)
    return LaurentSeries(0, _horner([seed], [[]], chain(order - v, v), order - v), order)


def _diagonal(fam: _Family, p_ratio: Callable[[int], Ratio]) -> Callable[[int], Ratio]:
    """D_k -> D_(k+1): ``fam.s_ratio(k)`` times ``p_ratio(k)``, in lowest terms."""
    def step(k: int) -> Ratio:
        cs, es, ns, ds = _factor_ratio(fam.s_ratio(k))
        cp, ep, np, dp = _factor_ratio(p_ratio(k))
        return _cancel((cs * cp, es + ep, ns + np, ds + dp))
    return step


class _Member(NamedTuple):
    """One double sum of a ``_ratio_sum`` call: through q**order, first
    term ``seed`` and P_(k+1) / P_k ``p_ratio``."""

    order: int
    seed: Ratio
    p_ratio: Callable[[int], Ratio]


def _ratio_sum(fam: _Family, members: list[_Member], cap: int | None = None) -> list[LaurentSeries]:
    """Double sums of the family ``fam``, each through its own q**order,
    summed inside out.

    Each is the sum of T(n, k) = S_n * P_k / (q)_{n-k} over n >= k >= k0,
    where T(k0, k0) is ``seed``, S_(n+1) / S_n is ``fam.s_ratio(n)`` and
    P_(k+1) / P_k is ``p_ratio(k)``: column k is D_k * U_k with D_k = T(k, k)
    and U_k = sum_{n >= k} T(n, k) / D_k.  ``_columns`` gives U_k itself,
    and the columns fold as the chain V_k = U_k + (D_(k+1) / D_k) * V_(k+1)
    (``_diagonal``), the sum being seed * V_k0.

    The columns depend on neither ``seed`` nor ``p_ratio``, so the members
    share them: every member's diagonal is walked first, once, which gives
    the horizon and valuation each needs column k at, and column k is
    computed once (``_columns``), through at least the highest of those
    horizons, at the least of those valuations.
    Each member then folds truncated copies by the ratios and levels of that
    walk, so no member sees another's work.  ``fam.bound(n)`` is checked against
    the valuation of every level n of a column; at the least valuation the
    check is at least as strict as each member's own.  ``cap`` (default
    4 * the highest order + 64) bounds the levels of one chain.
    """
    if cap is None:
        cap = 4 * max(m.order for m in members) + 64
    need: dict[int, tuple[int, int]] = {}  # k -> (highest horizon, least valuation)
    walks = []
    for order, seed, p_ratio in members:
        c, v = _factor_ratio(seed)[:2]
        walks.append(_walk(_diagonal(fam, p_ratio), fam.k0, order - v, v, cap) if order >= v and c else ([], []))
        for k, h, vk in walks[-1][1]:
            top, low = need.get(k, (h, vk))
            need[k] = max(top, h), min(low, vk)
    columns = _columns(fam, need, cap)
    return [_seeded(seed, order, lambda h, v, walk=walk: _chain(walk, lambda k, hk: columns[k][:hk + 1]))
            for (order, seed, _), walk in zip(members, walks)]


def normalize_id(series_id: str) -> str:
    """Case-insensitive lookup key for a catalog id; raises UnknownId."""
    return lookup(_SINGLES | _DOUBLES, series_id, UnknownId, "unknown series id")[0]


def catalog_ids() -> tuple[str, ...]:
    return tuple(sorted(_SINGLES)) + tuple(sorted(_DOUBLES))


def pipeline(series_id: str) -> tuple[str, str, int, int]:
    """(pair label, limit form, scale, constant) of a double sum: the series
    is scale times the limit form's value for the stepped pair, plus the
    constant.  The scale is 2 for a starred family, whose sum is doubled.
    Raises UnknownId for an id that is not a double sum."""
    key = normalize_id(series_id)
    if key not in _DOUBLES:
        raise UnknownId(f"{key} is not a double sum")
    form, label, const = _DOUBLES[key]
    return label, form, 2 if _FAMILIES[form].starred else 1, const


def eval_named(series_id: str, order: int, star_budget: int | None = None) -> LaurentSeries:
    """Evaluate a named series exactly through q**order.

    ``star_budget`` (None: 4 * order + 64; 0 is zero levels) caps the levels
    of any one ratio chain: a single sum, a fold, or a column, walked at the
    horizon its fold needs.  A family's one chained column is summed through
    the higher horizon its derived columns need, and the cap counts that
    longer chain.  A chain that needs more raises NoStabilization.
    """
    check_order(order)
    if star_budget is not None and star_budget < 0:
        raise ValueError("star_budget must be >= 0")
    key = normalize_id(series_id)
    if key in _SINGLES:
        (n0, seed, ratio), bound = _SINGLES[key]
        cap = 4 * order + 64 if star_budget is None else star_budget
        return _seeded(seed, order, lambda h, v: _chain(_walk(ratio, n0, h, v, cap, bound)))
    return _family_sums(_DOUBLES[key][0], {key: order}, star_budget)[key]


def _family_sums(form: str, horizons: dict[str, int],
                 cap: int | None = None) -> dict[str, LaurentSeries]:
    """The double sums ``horizons`` names, all of the family ``form``, each
    through its own horizon, in one ``_ratio_sum``: their columns are
    summed once, in a store that lives for this call only."""
    fam = _FAMILIES[form]
    seed = (fam.c0, fam.e0, (), ((1, 1),))
    members = [_Member(order, seed, _P_RATIOS[_DOUBLES[sid][1]]) for sid, order in horizons.items()]
    sums = _ratio_sum(fam, members, cap)
    out = {}
    for (sid, order), total in zip(horizons.items(), sums):
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
