"""Indefinite-theta ("Hecke-type") double sums over slope-one wedges.

A block is the sum

    sum_{n >= n0}  sum_{j = -n+p}^{n+r}  sgn * q^(A n^2 + B n + C + D j^2 + E j)

with ``sgn = sign * (-1)^(sn*n + sj*j)``, and optionally an extra factor
``(1 - q^(G n + H))`` attached to every term.  The quadratic form is
indefinite in the wedge direction: A > 0 and D < 0, with A + D > 0 so the
exponent still runs off to infinity along the window edges.  Because D < 0
the exponent is concave in j, so its minimum over a window sits at one of
the two endpoints; that is what the termination test inspects.

A block set bundles blocks with constant monomials, and the catalog maps
the public series ids (SIGMA, L1..L12) to their block sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonTerminating, UnknownId
from .series import LaurentSeries

__all__ = [
    "HeckeBlock",
    "HeckeBlockSet",
    "eval_blocks",
    "flip_j",
    "hecke_catalog",
    "hecke_ids",
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
    sign: int = 1
    sign_n: int = 0
    sign_j: int = 0
    factor: tuple[int, int] | None = None

    def __post_init__(self):
        if self.A <= 0 or self.D >= 0:
            raise ValueError("need A > 0 and D < 0")
        if self.A + self.D <= 0:
            raise ValueError("need A + D > 0 for exponents to grow")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.sign_n not in (0, 1) or self.sign_j not in (0, 1):
            raise ValueError("parity-sign flags must be 0 or 1")

    def exponent(self, n: int, j: int) -> int:
        return self.A * n * n + self.B * n + self.C + self.D * j * j + self.E * j

    def term_sign(self, n: int, j: int) -> int:
        s = self.sign
        if (self.sign_n * n + self.sign_j * j) % 2:
            s = -s
        return s

    def to_payload(self) -> dict:
        return {
            "n0": self.n0,
            "p": self.p,
            "r": self.r,
            "A": self.A,
            "B": self.B,
            "C": self.C,
            "D": self.D,
            "E": self.E,
            "sign": self.sign,
            "sn": self.sign_n,
            "sj": self.sign_j,
            "factor": list(self.factor) if self.factor else None,
        }


@dataclass(frozen=True)
class HeckeBlockSet:
    blocks: tuple[HeckeBlock, ...]
    constants: tuple[tuple[int, int], ...] = ()  # (coefficient, exponent)

    def to_payload(self) -> dict:
        return {
            "blocks": [b.to_payload() for b in self.blocks],
            "constants": [{"coeff": c, "exp": e} for c, e in self.constants],
        }


def flip_j(block: HeckeBlock) -> HeckeBlock:
    """The same block summed over j -> -j (an exact symmetry of the wedge)."""
    return HeckeBlock(
        n0=block.n0,
        p=-block.r,
        r=-block.p,
        A=block.A,
        B=block.B,
        C=block.C,
        D=block.D,
        E=-block.E,
        sign=block.sign,
        sign_n=block.sign_n,
        sign_j=block.sign_j,
        factor=block.factor,
    )


_STOP_STREAK = 4


def _eval_block(block: HeckeBlock, order: int, acc: dict[int, int]) -> None:
    budget = block.n0 + 4 * order + 64
    streak = 0
    n = block.n0
    while True:
        if n > budget:
            raise NonTerminating(
                f"block {block.to_payload()} still inside the window at n = {n}"
            )
        jlo = -n + block.p
        jhi = n + block.r
        if jlo <= jhi:
            # concave in j, so the window minimum is at an endpoint
            wmin = min(block.exponent(n, jlo), block.exponent(n, jhi))
            if wmin > order:
                streak += 1
                if streak >= _STOP_STREAK:
                    return
            else:
                streak = 0
                for j in range(jlo, jhi + 1):
                    e = block.exponent(n, j)
                    if e > order:
                        continue
                    s = block.term_sign(n, j)
                    acc[e] = acc.get(e, 0) + s
                    if block.factor is not None:
                        g, h = block.factor
                        e2 = e + g * n + h
                        if e2 <= order:
                            acc[e2] = acc.get(e2, 0) - s
        n += 1


def eval_blocks(blockset: HeckeBlockSet, order: int) -> LaurentSeries:
    """Evaluate a block set exactly through q**order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    acc: dict[int, int] = {}
    for c, e in blockset.constants:
        if e <= order:
            acc[e] = acc.get(e, 0) + c
    for block in blockset.blocks:
        _eval_block(block, order, acc)
    return LaurentSeries.from_items(acc.items(), order)


# ------------------------------------------------------------------ catalog


def _b(n0, p, r, A, B, C, D, E, sign=1, factor=None) -> HeckeBlock:
    return HeckeBlock(n0=n0, p=p, r=r, A=A, B=B, C=C, D=D, E=E, sign=sign, factor=factor)


_CATALOG: dict[str, HeckeBlockSet] = {
    # sigma's wedge has a (1 - q^(2n+1)) factor and a (-1)^(n+j) sign; both
    # parities of n and j are split out so every piece fits the block shape.
    "SIGMA": HeckeBlockSet(
        blocks=(
            _b(0, 0, 0, 6, 1, 0, -4, 0, sign=+1, factor=(4, 1)),
            _b(0, 0, -1, 6, 1, -1, -4, -4, sign=-1, factor=(4, 1)),
            _b(0, 0, 0, 6, 7, 2, -4, 0, sign=-1, factor=(4, 3)),
            _b(0, -1, 0, 6, 7, 1, -4, -4, sign=+1, factor=(4, 3)),
        ),
    ),
    "L1": HeckeBlockSet(
        blocks=(
            _b(1, 0, -1, 8, -1, 0, -4, -3),
            _b(1, 0, -1, 8, 1, 0, -4, -3),
            _b(0, 0, 0, 8, 7, 2, -4, -1),
            _b(0, 0, 0, 8, 9, 3, -4, -1),
        ),
    ),
    "L2": HeckeBlockSet(
        blocks=(
            _b(0, 0, 0, 8, 3, 0, -4, -1),
            _b(0, 0, 0, 8, 13, 5, -4, -1),
            _b(0, -1, 0, 8, 11, 3, -4, -3),
            _b(0, -1, 0, 8, 21, 13, -4, -3),
        ),
    ),
    "L3": HeckeBlockSet(
        blocks=(
            _b(1, 0, -1, 8, -1, 1, -4, -1),
            _b(1, 0, -1, 8, 1, 1, -4, -1),
            _b(0, 0, 0, 8, 7, 2, -4, -3),
            _b(0, 0, 0, 8, 9, 3, -4, -3),
        ),
    ),
    "L4": HeckeBlockSet(
        blocks=(
            _b(0, 0, 0, 8, 3, 0, -4, -3),
            _b(0, 0, 0, 8, 13, 5, -4, -3),
            _b(0, -1, 0, 8, 11, 4, -4, -1),
            _b(0, -1, 0, 8, 21, 14, -4, -1),
        ),
        constants=((-1, 0),),
    ),
    "L5": HeckeBlockSet(
        blocks=(
            _b(1, 0, -1, 6, 0, 1, -2, 0),
            _b(1, 0, -1, 6, 0, 1, -2, 0),
            _b(0, 0, 0, 6, 6, 2, -2, -2),
            _b(0, 0, 0, 6, 6, 2, -2, -2),
        ),
    ),
    "L6": HeckeBlockSet(
        blocks=(
            _b(1, 0, -1, 6, 0, 0, -2, -2),
            _b(1, 0, -1, 6, 0, 0, -2, -2),
            _b(0, 0, 0, 6, 6, 2, -2, 0),
            _b(0, 0, 0, 6, 6, 2, -2, 0),
        ),
    ),
    "L7": HeckeBlockSet(
        blocks=(
            _b(0, -1, 0, 6, 16, 10, -2, -2),
            _b(0, -1, 0, 6, 8, 2, -2, -2),
            _b(0, 0, 0, 6, 2, 0, -2, 0),
            _b(0, 0, 0, 6, 10, 4, -2, 0),
        ),
    ),
    "L8": HeckeBlockSet(
        blocks=(
            _b(0, 0, 0, 6, 2, 0, -2, -2),
            _b(0, 0, 0, 6, 10, 4, -2, -2),
            _b(0, -1, 0, 6, 16, 11, -2, 0),
            _b(0, -1, 0, 6, 8, 3, -2, 0),
        ),
        constants=((-1, 0),),
    ),
    "L9": HeckeBlockSet(
        blocks=(
            _b(1, 0, -1, 6, 0, 0, -4, -3),
            _b(1, 0, -1, 6, 0, 0, -4, -3),
            _b(0, 0, 0, 6, 6, 2, -4, -1),
            _b(0, 0, 0, 6, 6, 2, -4, -1),
        ),
    ),
    "L10": HeckeBlockSet(
        blocks=(
            _b(1, 0, -1, 6, 0, 1, -4, -1),
            _b(1, 0, -1, 6, 0, 1, -4, -1),
            _b(0, 0, 0, 6, 6, 2, -4, -3),
            _b(0, 0, 0, 6, 6, 2, -4, -3),
        ),
    ),
    "L11": HeckeBlockSet(
        blocks=(
            _b(0, 0, 0, 6, 2, 0, -4, -1),
            _b(0, 0, 0, 6, 10, 4, -4, -1),
            _b(0, -1, 0, 6, 16, 10, -4, -3),
            _b(0, -1, 0, 6, 8, 2, -4, -3),
        ),
    ),
    "L12": HeckeBlockSet(
        blocks=(
            _b(0, 0, 0, 6, 2, 0, -4, -3),
            _b(0, 0, 0, 6, 10, 4, -4, -3),
            _b(0, -1, 0, 6, 16, 11, -4, -1),
            _b(0, -1, 0, 6, 8, 3, -4, -1),
        ),
        constants=((-2, 0),),
    ),
}


def hecke_ids() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def hecke_catalog(series_id: str) -> HeckeBlockSet:
    """Block set for a public series id (case-insensitive)."""
    key = str(series_id).strip().upper()
    try:
        return _CATALOG[key]
    except KeyError:
        raise UnknownId(f"no block set for id {series_id!r}") from None
