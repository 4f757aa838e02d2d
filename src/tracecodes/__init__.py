"""Few-weight binary linear codes from trace conditions over GF(2^m).

Exact construction of three code families from their defining sets, weight
distributions by per-x counts or one transform, closed-form conformance
checks, dual and minimality verdicts, and s-fold XOR sum-set tests for
derived point sets.
"""

from importlib import import_module

# public name -> the module that defines it; each module is imported on the
# first access to one of its names (PEP 562), so `import tracecodes.cli`
# compiles only what the chosen subcommand runs.  Records are NamedTuples or
# plain tuples, so no subcommand imports inspect, ast, dis or tokenize, whose
# loading takes longer than a small CLI run computes.
_HOMES = {
    "analysis": """
        DualCounts VerificationReport ab_minimal closed_form_distribution griesmer_classify
        is_minimal is_projective pless_dual_counts verify
    """,
    "charsums": """
        CharSumValue conformance_sweep family_char_sum_closed plain_char_sum_closed
        reciprocal_sums
    """,
    "codes": """
        FAMILIES BinaryLinearCode DefiningSet enumerate_defining_set generator_matrix
        minimum_distance weight_distribution
    """,
    "field": "DEFAULT_POLYS GF2m is_irreducible",
    "sumsets": "OmegaSet SumSetReport build_omega check_sum_set representation_counts",
    "walsh": "TooLargeError walsh_hadamard",
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
