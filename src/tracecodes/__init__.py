"""Few-weight binary linear codes from trace conditions over GF(2^m).

Exact construction of three code families from their defining sets, weight
distributions by one transform, closed-form conformance checks, dual and
minimality verdicts, and s-fold XOR sum-set tests for derived point sets.
"""

from .analysis import (
    DualCounts,
    VerificationReport,
    ab_minimal,
    brute_minimal,
    closed_form_distribution,
    dual_code,
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
    family_char_sum,
    family_char_sum_closed,
    plain_char_sum,
    plain_char_sum_closed,
    reciprocal_quadratic_roots,
    trace_pair_count,
)
from .codes import (
    FAMILIES,
    BinaryLinearCode,
    DefiningSet,
    codeword,
    enumerate_defining_set,
    generator_matrix,
    membership_element,
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
    representation_counts_by_convolution,
    representation_counts_naive,
    symmetric_three_weight,
    xor_convolve,
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
    "brute_minimal",
    "build_omega",
    "check_sum_set",
    "closed_form_distribution",
    "codeword",
    "coefficient_sets",
    "conformance_sweep",
    "dual_code",
    "enumerate_defining_set",
    "family_char_sum",
    "family_char_sum_closed",
    "generator_matrix",
    "griesmer_classify",
    "is_irreducible",
    "is_minimal",
    "is_projective",
    "membership_element",
    "minimum_distance",
    "pless_dual_counts",
    "plain_char_sum",
    "plain_char_sum_closed",
    "reciprocal_quadratic_roots",
    "representation_counts",
    "representation_counts_by_convolution",
    "representation_counts_naive",
    "symmetric_three_weight",
    "trace_pair_count",
    "verify",
    "walsh_hadamard",
    "weight_distribution",
    "xor_convolve",
]
