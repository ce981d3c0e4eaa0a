"""qrds: exact q-series engine for double-sum identities.

Evaluates q-hypergeometric double sums, Bailey-pair transforms, Hecke-type
indefinite theta sums, and real-quadratic ideal-norm generating functions,
entirely in exact rational arithmetic, and cross-verifies them coefficient
by coefficient.
"""

from .bailey import (
    BaileyPair,
    bailey_step,
    limit_form,
    pair_catalog,
    pair_labels,
    verify_pair_relation,
)
from .catalog import catalog_ids, eval_named, normalize_id
from .errors import (
    Beta0NotZero,
    FormPairMismatch,
    InvariantViolation,
    NoStabilization,
    UnknownId,
    UnknownPair,
    UnsupportedField,
)
from .hecke import HeckeBlock, HeckeBlockSet, eval_blocks, hecke_catalog
from .ideals import (
    FieldSpec,
    IdealQuery,
    canonical_reps,
    field_spec,
    ideal_series,
    kronecker_symbol,
    sieve_counts,
)
from .series import LaurentSeries, UnknownCoefficient, first_mismatch
from .verify import (
    TheoremSpec,
    VerificationReport,
    check_support_residue,
    lacunarity_report,
    theorem_table,
    verify_all,
    verify_corollary,
    verify_sigma,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentSeries",
    "first_mismatch",
    "UnknownCoefficient",
    "HeckeBlock",
    "HeckeBlockSet",
    "eval_blocks",
    "hecke_catalog",
    "FieldSpec",
    "IdealQuery",
    "field_spec",
    "kronecker_symbol",
    "canonical_reps",
    "ideal_series",
    "sieve_counts",
    "catalog_ids",
    "normalize_id",
    "eval_named",
    "BaileyPair",
    "pair_catalog",
    "pair_labels",
    "bailey_step",
    "limit_form",
    "verify_pair_relation",
    "TheoremSpec",
    "theorem_table",
    "VerificationReport",
    "verify_theorem",
    "verify_corollary",
    "verify_sigma",
    "verify_all",
    "check_support_residue",
    "lacunarity_report",
    "UnknownId",
    "UnknownPair",
    "NoStabilization",
    "FormPairMismatch",
    "Beta0NotZero",
    "UnsupportedField",
    "InvariantViolation",
    "__version__",
]
