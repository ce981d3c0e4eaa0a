"""Indefinite-theta ("Hecke-type") double sums over slope-one wedges.

A block is the sum

    coeff * sum_{n >= n0}  sum_{j = -n+p}^{n+r}  q^(A n^2 + B n + C + D j^2 + E j)

with one nonzero integer ``coeff``, and optionally an extra factor
``(1 - q^(G n + H))`` attached to every term; such a block is evaluated as
two factor-free ones, the second with ``B + G``, ``C + H`` and ``-coeff``.
The quadratic form is indefinite in the wedge direction: A > 0 and D < 0,
with A + D > 0 so the exponent still runs off to infinity along the window
edges.  Because D < 0 the exponent is concave in j, so its minimum over a
row sits at one of the two edges j = -n + p and j = n + r.  Each edge
exponent is a quadratic in n with leading coefficient A + D > 0, so the sum
stops at the first row where both edges are above the horizon and neither
falls to the next row: every later row is above the horizon too.

``eval_blocks`` adds every term into one list of ints that starts at the
least exponent of the block set (the least row edge, or a constant), and
visits of each row only the j at or below the horizon: two tails, j <= a
and j >= b (see ``_eval_block``).

A block set bundles blocks with constant monomials, and the catalog maps
the public series ids (SIGMA, L1..L12) to their block sets.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from math import isqrt
from typing import Iterator

from .errors import UnknownId, check_order, lookup
from .series import LaurentSeries

__all__ = [
    "HeckeBlock",
    "HeckeBlockSet",
    "eval_blocks",
    "hecke_catalog",
]


@dataclass(frozen=True)
class HeckeBlock:
    n0: int
    p: int
    r: int
    A: int
    B: int
    C: int
    D: int
    E: int
    coeff: int = 1
    factor: tuple[int, int] | None = None

    def __post_init__(self):
        if self.A <= 0 or self.D >= 0:
            raise ValueError("need A > 0 and D < 0")
        if self.A + self.D <= 0:
            raise ValueError("need A + D > 0 for exponents to grow")
        if not self.coeff:
            raise ValueError("coeff must be nonzero")

    def exponent(self, n: int, j: int) -> int:
        return self.A * n * n + self.B * n + self.C + self.D * j * j + self.E * j

    def to_payload(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HeckeBlockSet:
    blocks: tuple[HeckeBlock, ...]
    constants: tuple[tuple[int, int], ...] = ()  # (coefficient, exponent)

    def to_payload(self) -> dict:
        return {
            "blocks": [b.to_payload() for b in self.blocks],
            "constants": [{"coeff": c, "exp": e} for c, e in self.constants],
        }


def _rows(block: HeckeBlock, order: int) -> Iterator[tuple[int, int, int, int]]:
    """``(row, jlo, jhi, least)`` for every row n the sum of ``block``
    visits whose window jlo <= j <= jhi is not empty: row = A n^2 + B n + C
    and least is the row's least exponent."""
    edge = block.exponent
    n = block.n0
    while True:
        jlo, jhi = -n + block.p, n + block.r
        lo, hi = edge(n, jlo), edge(n, jhi)
        # A row's minimum is at an edge (concave in j), and each edge is a
        # quadratic in n with leading coefficient A + D > 0: once its forward
        # difference is >= 0 it stays >= 0, so every later row is above too.
        if lo > order and hi > order and edge(n + 1, jlo - 1) >= lo and edge(n + 1, jhi + 1) >= hi:
            return
        if jlo <= jhi:
            yield block.A * n * n + block.B * n + block.C, jlo, jhi, min(lo, hi)
        n += 1


def _eval_block(block: HeckeBlock, rows: list, order: int, acc: list[int], base: int) -> None:
    """Add the factor-free sum of ``block`` through q**order into ``acc``,
    whose entry i is the coefficient of q**(base + i); ``rows`` are its
    ``_rows``.

    In a row, e(j) = D j^2 + E j <= room = order - row is
    P j^2 - E j + room >= 0 with P = -D > 0, whose discriminant is
    disc = E^2 - 4 P room.  If disc <= 0 that holds for every j, and the
    whole window is summed.  Otherwise it holds outside the roots
    r1 < r2 = (E -+ sqrt(disc)) / (2 P).  With s = ceil(sqrt(disc)), one
    ``isqrt`` rounded up by an exact test of s^2 against disc, an integer j
    has j <= r1 exactly when E - 2 P j >= s, and j >= r2 exactly when
    2 P j - E >= s.  So a = floor((E - s) / (2 P)) and
    b = ceil((E + s) / (2 P)), and only the two tails j <= a and j >= b are
    visited.  When a + 1 < b, e(a) <= room < e(a + 1) and
    e(b - 1) > room >= e(b), and the j strictly between a and b are skipped
    safely: e is concave, so on [a + 1, b - 1] it is at least
    min(e(a + 1), e(b - 1)) > room.  The tails need no test either: e rises
    by at least e(a + 1) - e(a) > 0 at each step left of a + 1 and falls at
    each step right of b - 1.
    """
    if not rows:
        return
    D, E, coeff = block.D, block.E, block.coeff
    P2, EE = -2 * D, E * E
    # the window widens by one at each end per row, so the last row's window
    # holds every other; col[j - j0] is the j part D j^2 + E j of the exponent
    _, j0, j1, _ = rows[-1]
    col = [D * j * j + E * j for j in range(j0, j1 + 1)]
    for row, jlo, jhi, _ in rows:
        i = row - base
        lo, hi = jlo - j0, jhi - j0 + 1
        disc = EE - 2 * P2 * (order - row)
        if disc <= 0:
            for t in col[lo:hi]:
                acc[i + t] += coeff
            continue
        s = isqrt(disc)
        s += s * s < disc
        a, b = (E - s) // P2, -((-E - s) // P2)
        for t in col[lo : max(lo, min(a - j0 + 1, hi))]:
            acc[i + t] += coeff
        for t in col[max(lo, b - j0) : hi]:
            acc[i + t] += coeff


def eval_blocks(blockset: HeckeBlockSet, order: int) -> LaurentSeries:
    """Evaluate a block set exactly through q**order.

    Every term at or below the horizon is added into one list of ints over
    [base, order], where base is the least exponent the block set reaches:
    the least row edge of any block (a row's minimum sits at an edge) or a
    constant's exponent.  Of each row only the two tails j <= a and j >= b
    of ``_eval_block`` are visited; D < 0 makes the exponent concave in j,
    so every j strictly between them lies above the horizon.
    """
    check_order(order)
    blocks = []
    for block in blockset.blocks:
        blocks.append(block)
        if block.factor is not None:
            g, h = block.factor
            blocks.append(replace(block, B=block.B + g, C=block.C + h, coeff=-block.coeff, factor=None))
    plan = [(block, list(_rows(block, order))) for block in blocks]
    constants = [(c, e) for c, e in blockset.constants if e <= order]
    base = min([e for _, e in constants] + [least for _, rows in plan for *_, least in rows], default=order + 1)
    acc = [0] * (order + 1 - base)
    for c, e in constants:
        acc[e - base] += c
    for block, rows in plan:
        _eval_block(block, rows, order, acc, base)
    return LaurentSeries._adopt(base, acc, order)


# ------------------------------------------------------------------ catalog


_CATALOG: dict[str, HeckeBlockSet] = {
    # sigma's wedge has a (1 - q^(2n+1)) factor and a (-1)^(n+j) sign; both
    # parities of n and j are split out, so each piece has a constant coeff.
    "SIGMA": HeckeBlockSet(
        blocks=(
            HeckeBlock(0, 0, 0, 6, 1, 0, -4, 0, coeff=1, factor=(4, 1)),
            HeckeBlock(0, 0, -1, 6, 1, -1, -4, -4, coeff=-1, factor=(4, 1)),
            HeckeBlock(0, 0, 0, 6, 7, 2, -4, 0, coeff=-1, factor=(4, 3)),
            HeckeBlock(0, -1, 0, 6, 7, 1, -4, -4, coeff=1, factor=(4, 3)),
        ),
    ),
    "L1": HeckeBlockSet(
        blocks=(
            HeckeBlock(1, 0, -1, 8, -1, 0, -4, -3),
            HeckeBlock(1, 0, -1, 8, 1, 0, -4, -3),
            HeckeBlock(0, 0, 0, 8, 7, 2, -4, -1),
            HeckeBlock(0, 0, 0, 8, 9, 3, -4, -1),
        ),
    ),
    "L2": HeckeBlockSet(
        blocks=(
            HeckeBlock(0, 0, 0, 8, 3, 0, -4, -1),
            HeckeBlock(0, 0, 0, 8, 13, 5, -4, -1),
            HeckeBlock(0, -1, 0, 8, 11, 3, -4, -3),
            HeckeBlock(0, -1, 0, 8, 21, 13, -4, -3),
        ),
    ),
    "L3": HeckeBlockSet(
        blocks=(
            HeckeBlock(1, 0, -1, 8, -1, 1, -4, -1),
            HeckeBlock(1, 0, -1, 8, 1, 1, -4, -1),
            HeckeBlock(0, 0, 0, 8, 7, 2, -4, -3),
            HeckeBlock(0, 0, 0, 8, 9, 3, -4, -3),
        ),
    ),
    "L4": HeckeBlockSet(
        blocks=(
            HeckeBlock(0, 0, 0, 8, 3, 0, -4, -3),
            HeckeBlock(0, 0, 0, 8, 13, 5, -4, -3),
            HeckeBlock(0, -1, 0, 8, 11, 4, -4, -1),
            HeckeBlock(0, -1, 0, 8, 21, 14, -4, -1),
        ),
        constants=((-1, 0),),
    ),
    "L5": HeckeBlockSet(
        blocks=(
            HeckeBlock(1, 0, -1, 6, 0, 1, -2, 0, coeff=2),
            HeckeBlock(0, 0, 0, 6, 6, 2, -2, -2, coeff=2),
        ),
    ),
    "L6": HeckeBlockSet(
        blocks=(
            HeckeBlock(1, 0, -1, 6, 0, 0, -2, -2, coeff=2),
            HeckeBlock(0, 0, 0, 6, 6, 2, -2, 0, coeff=2),
        ),
    ),
    "L7": HeckeBlockSet(
        blocks=(
            HeckeBlock(0, -1, 0, 6, 16, 10, -2, -2),
            HeckeBlock(0, -1, 0, 6, 8, 2, -2, -2),
            HeckeBlock(0, 0, 0, 6, 2, 0, -2, 0),
            HeckeBlock(0, 0, 0, 6, 10, 4, -2, 0),
        ),
    ),
    "L8": HeckeBlockSet(
        blocks=(
            HeckeBlock(0, 0, 0, 6, 2, 0, -2, -2),
            HeckeBlock(0, 0, 0, 6, 10, 4, -2, -2),
            HeckeBlock(0, -1, 0, 6, 16, 11, -2, 0),
            HeckeBlock(0, -1, 0, 6, 8, 3, -2, 0),
        ),
        constants=((-1, 0),),
    ),
    "L9": HeckeBlockSet(
        blocks=(
            HeckeBlock(1, 0, -1, 6, 0, 0, -4, -3, coeff=2),
            HeckeBlock(0, 0, 0, 6, 6, 2, -4, -1, coeff=2),
        ),
    ),
    "L10": HeckeBlockSet(
        blocks=(
            HeckeBlock(1, 0, -1, 6, 0, 1, -4, -1, coeff=2),
            HeckeBlock(0, 0, 0, 6, 6, 2, -4, -3, coeff=2),
        ),
    ),
    "L11": HeckeBlockSet(
        blocks=(
            HeckeBlock(0, 0, 0, 6, 2, 0, -4, -1),
            HeckeBlock(0, 0, 0, 6, 10, 4, -4, -1),
            HeckeBlock(0, -1, 0, 6, 16, 10, -4, -3),
            HeckeBlock(0, -1, 0, 6, 8, 2, -4, -3),
        ),
    ),
    "L12": HeckeBlockSet(
        blocks=(
            HeckeBlock(0, 0, 0, 6, 2, 0, -4, -3),
            HeckeBlock(0, 0, 0, 6, 10, 4, -4, -3),
            HeckeBlock(0, -1, 0, 6, 16, 11, -4, -1),
            HeckeBlock(0, -1, 0, 6, 8, 3, -4, -1),
        ),
        constants=((-2, 0),),
    ),
}


def hecke_catalog(series_id: str) -> HeckeBlockSet:
    """Block set for a public series id (case-insensitive)."""
    return lookup(_CATALOG, series_id, UnknownId, "no block set for id")[1]
