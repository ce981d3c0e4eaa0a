"""The ratio-chain engine that sums every catalog series and Bailey beta side.

Successive terms are given by exact ratios (a monomial times a few binomials
over binomials), so no Pochhammer product is ever expanded, and every sum is
a ratio chain, summed inside out by Horner's rule (``horner``).  A single
sum is 1 + r(n0) * (1 + r(n0 + 1) * (...)) times its first term
(``single_sum``).  A double sum, direct or on the Bailey pipeline's beta
side, has terms T(n, k) = S_n * P_k / (q)_{n-k}; its column k is such a
chain, and the columns fold outwards the same way, column k + 1 entering
column k with the ratio of the diagonal terms (``ratio_sum``).  Each level
works on one plain int list in place; every binomial pass, a level's
ratio, a column's scale or a derived column's division, goes through the
series' one list kernel, ``apply_binomials_into``, and nothing is added row
by row.

A family (``Family``) is one limit form's record: its S ratio, its column
ratio and scale, the three-term relation of its columns, its valuation
bound and its alpha side.  Each family sums one column as a chain, its
first, U_k0, and divides it by its scale once.  Every later column follows
from the two before it by the family's three-term contiguous relation
(``derived``), from the constant column k0 - 1 on: about five list passes a
column, each checking that its division by the relation's q^b is exact and
that the relation's exponents are ones the division can take
(``InvariantViolation``).  Every chain that is summed, column or fold, takes
its ratios in lowest terms (``cancel``), so A1's and AQ's first columns are
plain monomial chains.  The double sums of one family have the same columns
and only the fold with P_k tells them apart, so ``ratio_sum`` computes the
columns its members share once per call, each through the highest horizon
any member needs it at.

The last level comes from a proof, not from a streak of vanishing terms:
every binomial has constant term 1 and every monomial exponent is >= 0
(checked), so each level's valuation is known exactly before any
arithmetic, and the chain stops at the last level that reaches the
truncation horizon (``walk``).  Each series also carries a proven lower
bound for the valuation of its n-th term, checked against every level's
derived valuation, outermost first (``InvariantViolation``, which survives
``python -O``), so a transcription slip in a ratio cannot silently produce
plausible-looking output.

The four starred sums (L7, L8, L11, L12) are star values of series whose
terms do not die off, but their columns, in the quadratic 2phi2 form of
Gasper and Rahman's (III.4), converge q-adically, and the transform's
prefactor 1 / (2 (-q;q)_k) makes each column the doubled one: the sums come
doubled and stay in the integers, with no star tail to detect.  The doubled
value is the one the engine keeps; only ``bailey.limit_form`` halves it.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import add, sub
from typing import Callable, NamedTuple

from .errors import InvariantViolation, NoStabilization
from .series import LaurentSeries, apply_binomials_into

# a ratio is (c, e, num, den): multiply by c*q^e, then by (1 - cc*q^ee) for
# each (cc, ee) in num, then divide by the same for each entry of den
Ratio = tuple[int, int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


def sgn(n: int) -> int:
    return -1 if n % 2 else 1


class Family(NamedTuple):
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
    of every term of row n.  The alpha side is sum_{n >= k0} ``rhs_term(n)``
    * alpha'_n.  A ``starred`` family's beta side sums every column doubled,
    so its series and its alpha side are both twice its sum's star value;
    only ``bailey.limit_form`` halves them.
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
    starred: bool = False
    column_scale: Callable[[int], tuple[tuple[int, int], ...]] = lambda k: ()


def factor_ratio(ratio: Ratio) -> Ratio:
    """``ratio``, once its monomial exponent is checked to be >= 0.

    The proven last level relies on it: with no negative exponent the
    valuations along a chain never fall.
    """
    if ratio[1] < 0:
        raise InvariantViolation(f"factor ratio {ratio} has a negative monomial exponent")
    return ratio


def cancel(ratio: Ratio) -> Ratio:
    """``ratio`` in lowest terms: the binomials its numerator and denominator
    share removed, counted with multiplicity."""
    c, e, num, den = ratio
    den = list(den)
    kept = [b for b in num if b not in den or den.remove(b)]  # remove() gives None
    return c, e, tuple(kept), tuple(den)


def horner(ratios: list[Ratio], heads: list[list], buf: list, h: int) -> list:
    """W_0 of W_i = heads[i] + ratios[i] * W_(i+1), from the innermost W_L = ``buf``.

    ``buf`` is W_L through q**h, index i standing for q**i.  Each level works
    on ``buf`` in place: the binomials through the inner horizon, then the
    monomial as a front insert.  The value is kept as a sign times ``buf``,
    so a unit multiplier only flips the sign.
    """
    sign = 1
    for (c, e, num, den), head in zip(reversed(ratios), reversed(heads)):
        apply_binomials_into(buf, num, den, h + 1)
        buf[:0] = repeat(0, e)
        h += e
        if c == 1 or c == -1:
            sign *= c
        else:
            buf[:] = [sign * c * x for x in buf]
            sign = 1
        buf.extend(repeat(0, len(head) - len(buf)))
        buf[:len(head)] = map(add if sign == 1 else sub, buf, head)
    return buf if sign == 1 else [-x for x in buf]


def walk(ratio: Callable[[int], Ratio], j: int, h: int, v: int, cap: int,
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
        c, e, num, den = r = factor_ratio(ratio(j))
        if not c or e > h:
            return ratios, levels
        if len(ratios) >= cap:
            raise NoStabilization(f"no last level within {cap} levels from n={j - cap}", n_limit=cap)
        ratios.append(r)
        h -= e
        v += e
        j += 1


def chain(walked: tuple[list[Ratio], list[tuple[int, int, int]]],
          head: Callable[[int, int], list] = lambda n, hn: [1]) -> list:
    """W_j through q**h_j of the chain W_n = head(n, h_n) + ratio(n) * W_(n+1)
    (every head 1 by default), whose ratios and levels (n, h_n, v_n) from
    level j are ``walked``, one ``walk``.  The last level's value is its head."""
    ratios, levels = walked
    heads = [head(n, hn) for n, hn, _ in levels]
    return horner(ratios, heads, heads.pop(), levels[-1][1])


def column(ratio: Callable[[int, int], Ratio], k: int, h: int, v: int, cap: int,
           bound: Callable[[int], int]) -> list:
    """Column k through q**h, the chain 1 + ratio(k, k) * (1 + ratio(k, k + 1)
    * (...)), its level n at row n and level k at valuation v, each ratio in
    lowest terms."""
    return chain(walk(lambda n: cancel(ratio(k, n)), k, h, v, cap, bound))


def derived(fam: Family, k: int, low: list, high: list, h: int) -> list:
    """Column k + 2 of ``fam`` through q**h from its columns k (``low``) and
    k + 1 (``high``) by ``fam.relation(k)``:
    U_(k+2) = (U_k - A_k U_(k+1)) / B_k, A_k's signed terms applied as
    shifted subtractions or additions.  Every exponent of A_k and q^b must
    be >= 0 and B_k's binomial exponent c >= 1 (InvariantViolation), as
    ``factor_ratio`` asks of a ratio.  B_k's monomial q^b is divided out by
    dropping the numerator's b lowest coefficients, which must be 0
    (InvariantViolation), so a wrong column or relation shows here.  The
    relation is proved above ``catalog._FAMILIES``."""
    a, b, c = fam.relation(k)
    if b < 0 or c < 1 or any(e < 0 for _, e in a):
        raise InvariantViolation(f"{fam.name} column {k + 2}: relation at k={k} has an exponent < 0 or c < 1")
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
    apply_binomials_into(num, (), ((1, c),), h + 1)
    return num


def columns(fam: Family, need: dict[int, tuple[int, int]], cap: int) -> dict[int, list]:
    """Column U_k of ``fam`` through at least q**h, for each k: (h, v) of
    ``need``, whose keys run k0, k0 + 1, ... without a gap.

    Each column's chain is walked at its own (h, v), in k order, so every
    bound and level-cap check fires as if that column were summed by its
    chain.  Only U_k0 is summed so (``column``), and divided by its X_k0
    once.  Every later column is derived from the two before it
    (``derived``), about five list passes in place of about sqrt(2h)
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
    store = {}
    for k in ks:
        if k == fam.k0:
            store[k] = col = column(fam.column, k, top[k], need[k][1], cap, fam.bound)
            apply_binomials_into(col, (), [b for j in range(k) for b in fam.column_scale(j)], top[k] + 1)  # X_k0
        else:
            walk(partial(fam.column, k), k, *need[k], cap, fam.bound)
    for k in ks[1:]:
        store[k] = derived(fam, k - 2, store.get(k - 2, [fam.u_below]), store[k - 1], top[k])
    return store


def seeded(seed: Ratio, order: int, inner: Callable[[int, int], list]) -> LaurentSeries:
    """``seed`` times ``inner(h, v)``, h and v being what the seed leaves of
    q**order and its exponent; 0, with no chain summed, if the seed is 0 or
    above q**order.  ``inner`` hands over a list no one else holds, which
    ``horner`` works on in place and the series adopts uncopied."""
    c, v = factor_ratio(seed)[:2]
    if order < v or not c:
        return LaurentSeries.zero(order)
    return LaurentSeries._adopt(0, horner([seed], [[]], inner(order - v, v), order - v), order)


def level_cap(order: int, cap: int | None) -> int:
    """The most levels one chain of a sum through q**order may take:
    ``cap``, or 4 * order + 64 if it is None."""
    return 4 * order + 64 if cap is None else cap


def single_sum(row: tuple, bound: Callable[[int], int], order: int, cap: int | None) -> LaurentSeries:
    """seed * (1 + ratio(n0) * (1 + ratio(n0 + 1) * (...))) through q**order,
    ``row`` being (n0, seed, ratio), each level n checked against
    ``bound(n)``; more than ``level_cap(order, cap)`` levels raise
    NoStabilization."""
    n0, seed, ratio = row
    return seeded(seed, order, lambda h, v: chain(walk(ratio, n0, h, v, level_cap(order, cap), bound)))


def diagonal(fam: Family, p_ratio: Callable[[int], Ratio]) -> Callable[[int], Ratio]:
    """D_k -> D_(k+1): ``fam.s_ratio(k)`` times ``p_ratio(k)``, in lowest terms."""
    def step(k: int) -> Ratio:
        cs, es, ns, ds = factor_ratio(fam.s_ratio(k))
        cp, ep, np, dp = factor_ratio(p_ratio(k))
        return cancel((cs * cp, es + ep, ns + np, ds + dp))
    return step


class Member(NamedTuple):
    """One double sum of a ``ratio_sum`` call: through q**order, first
    term ``seed`` and P_(k+1) / P_k ``p_ratio``."""

    order: int
    seed: Ratio
    p_ratio: Callable[[int], Ratio]


def ratio_sum(fam: Family, members: list[Member], cap: int | None = None) -> list[LaurentSeries]:
    """Double sums of the family ``fam``, each through its own q**order,
    summed inside out.

    Each is the sum of T(n, k) = S_n * P_k / (q)_{n-k} over n >= k >= k0,
    where T(k0, k0) is ``seed``, S_(n+1) / S_n is ``fam.s_ratio(n)`` and
    P_(k+1) / P_k is ``p_ratio(k)``: column k is D_k * U_k with D_k = T(k, k)
    and U_k = sum_{n >= k} T(n, k) / D_k.  ``columns`` gives U_k itself,
    and the columns fold as the chain V_k = U_k + (D_(k+1) / D_k) * V_(k+1)
    (``diagonal``), the sum being seed * V_k0.

    The columns depend on neither ``seed`` nor ``p_ratio``, so the members
    share them: every member's diagonal is walked first, once, which gives
    the horizon and valuation each needs column k at, and column k is
    computed once (``columns``), through at least the highest of those
    horizons, at the least of those valuations.
    Each member then folds truncated copies by the ratios and levels of that
    walk, so no member sees another's work.  ``fam.bound(n)`` is checked against
    the valuation of every level n of a column; at the least valuation the
    check is at least as strict as each member's own.
    ``level_cap(highest order, cap)`` bounds the levels of one chain.
    """
    cap = level_cap(max(m.order for m in members), cap)
    need: dict[int, tuple[int, int]] = {}  # k -> (highest horizon, least valuation)
    walks = []
    for order, seed, p_ratio in members:
        c, v = factor_ratio(seed)[:2]
        walks.append(walk(diagonal(fam, p_ratio), fam.k0, order - v, v, cap) if order >= v and c else ([], []))
        for k, h, vk in walks[-1][1]:
            top, low = need.get(k, (h, vk))
            need[k] = max(top, h), min(low, vk)
    store = columns(fam, need, cap)
    return [seeded(seed, order, lambda h, v, w=w: chain(w, lambda k, hk: store[k][:hk + 1]))
            for (order, seed, _), w in zip(members, walks)]
