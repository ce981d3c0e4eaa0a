"""Domain-level exceptions shared across the package.

The one arithmetic-level error, UnknownCoefficient, lives in ``series``;
everything tied to catalogs, summation control, field data, or internal
invariants is collected here so modules can share them without import cycles.
"""

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
