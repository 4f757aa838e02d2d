"""Few-weight binary linear codes from trace conditions over GF(2^m).

Exact construction of three code families from their defining sets, weight
distributions by per-x counts or one transform, closed-form conformance
checks, dual and minimality verdicts, and s-fold XOR sum-set tests for
derived point sets.
"""

from .analysis import (
    DualCounts,
    VerificationReport,
    ab_minimal,
    closed_form_distribution,
    griesmer_classify,
    is_minimal,
    is_projective,
    pless_dual_counts,
    verify,
)
from .charsums import (
    CharSumValue,
    CoefficientSets,
    coefficient_sets,
    conformance_sweep,
    family_char_sum_closed,
    plain_char_sum_closed,
)
from .codes import (
    FAMILIES,
    BinaryLinearCode,
    DefiningSet,
    enumerate_defining_set,
    generator_matrix,
    minimum_distance,
    weight_distribution,
)
from .field import DEFAULT_POLYS, GF2m, is_irreducible
from .sumsets import (
    OmegaSet,
    SumSetReport,
    build_omega,
    check_sum_set,
    representation_counts,
)
from .walsh import TooLargeError, walsh_hadamard

__all__ = [
    "BinaryLinearCode",
    "CharSumValue",
    "CoefficientSets",
    "DEFAULT_POLYS",
    "DefiningSet",
    "DualCounts",
    "FAMILIES",
    "GF2m",
    "OmegaSet",
    "SumSetReport",
    "TooLargeError",
    "VerificationReport",
    "ab_minimal",
    "build_omega",
    "check_sum_set",
    "closed_form_distribution",
    "coefficient_sets",
    "conformance_sweep",
    "enumerate_defining_set",
    "family_char_sum_closed",
    "generator_matrix",
    "griesmer_classify",
    "is_irreducible",
    "is_minimal",
    "is_projective",
    "minimum_distance",
    "pless_dual_counts",
    "plain_char_sum_closed",
    "representation_counts",
    "verify",
    "walsh_hadamard",
    "weight_distribution",
]
