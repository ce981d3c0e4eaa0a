"""Domain-level exceptions shared across the package, and its input rules.

The one arithmetic-level error, UnknownCoefficient, lives in ``series``;
everything tied to catalogs, summation control, field data, or internal
invariants is collected here so modules can share them without import cycles.

The input rules are written once, here: ``lookup`` reads a name in a registry
case- and space-insensitively, ``check_int`` refuses anything but an int
and ``check_exact`` anything but an int or a Fraction (``TypeError``, a bool
included), and ``check_order`` refuses a horizon that is not an int or is
below 0.
"""

from fractions import Fraction

__all__ = [
    "UnknownId",
    "UnknownPair",
    "NoStabilization",
    "FormPairMismatch",
    "Beta0NotZero",
    "UnsupportedField",
    "InvariantViolation",
]


class UnknownId(KeyError):
    """An identity id outside the registry (and thus likely a typo)."""


class UnknownPair(KeyError):
    """A Bailey-pair label outside the catalog."""


class NoStabilization(RuntimeError):
    """A sum did not stop within its budget: the levels of a catalog ratio
    chain, or the terms of the tests' reference sums ``classical_sum`` and
    ``star_sum``.  ``n_limit`` is the count at which it gave up."""

    def __init__(self, message: str, n_limit: int | None = None):
        super().__init__(message)
        self.n_limit = n_limit


class FormPairMismatch(ValueError):
    """A limit form applied to a pair with the wrong defining relation."""


class Beta0NotZero(ValueError):
    """A limit form that starts at n = 1 needs beta_0 = 0, and it is not."""


class UnsupportedField(ValueError):
    """A quadratic field outside the supported discriminant list."""


class InvariantViolation(RuntimeError):
    """A proven bound failed while computing: an internal fault, not bad input.

    Raised explicitly rather than asserted, so the check survives ``python -O``.
    """


def lookup(table: dict, name, error: type[Exception], what: str) -> tuple:
    """(key, entry) of ``name`` in ``table``: the key is ``name`` as a string,
    stripped and upper-cased.  An unknown name raises ``error(f"{what} {name!r}")``."""
    key = str(name).strip().upper()
    try:
        return key, table[key]
    except KeyError:
        raise error(f"{what} {name!r}") from None


def check_int(value, name: str) -> None:
    """``value`` must be an int; a bool, a float or a Fraction is not one."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")


def check_exact(value, name: str) -> None:
    """``value`` must be an int or a Fraction; a bool or a float is not one."""
    if type(value) not in (int, Fraction):
        raise TypeError(f"{name} must be an int or a Fraction, got {type(value).__name__}")


def check_order(order: int) -> None:
    """A horizon q**order needs an int order >= 0."""
    check_int(order, "order")
    if order < 0:
        raise ValueError("order must be >= 0")
