"""The package's public names: exactly the production API, no test oracles."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import tracecodes

PUBLIC = """
    BinaryLinearCode CharSumValue DEFAULT_POLYS DefiningSet DualCounts FAMILIES GF2m
    OmegaSet SumSetReport TooLargeError VerificationReport ab_minimal build_omega
    check_sum_set closed_form_distribution conformance_sweep enumerate_defining_set
    family_char_sum_closed generator_matrix griesmer_classify is_irreducible is_minimal
    is_projective minimum_distance plain_char_sum_closed pless_dual_counts representation_counts
    verify walsh_hadamard weight_distribution
""".split()

# brute-force oracles that live in tests/oracles.py, and deleted dead code
NOT_IN_PACKAGE = """
    BRUTE_MINIMAL_MAX_DIM CoefficientSets Spectrum _nonzero_spectrum _spectrum_memo brute_minimal
    char_sum_table code_column_sum_sets code_spectrum codeword coefficient_sets
    distribution_json_dict dual_code family_char_sum matrix_rank membership_element
    paper_column_sum_sets plain_char_sum
    reciprocal_quadratic_roots reciprocal_sums representation_counts_by_convolution
    representation_counts_naive row_reduce sum_set_witness symmetric_three_weight trace_pair_count
    xor_convolve
""".split()

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_api_is_pinned():
    assert sorted(tracecodes.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(tracecodes, name) is not None, name
    modules = [tracecodes] + [
        importlib.import_module(f"tracecodes.{info.name}")
        for info in pkgutil.iter_modules(tracecodes.__path__)
    ]
    for module in modules:
        leaked = [name for name in NOT_IN_PACKAGE if hasattr(module, name)]
        assert not leaked, (module.__name__, leaked)


def test_readme_lists_exactly_the_public_api():
    # the list runs from "exactly these N names" to the next heading; every
    # name in backquotes there is public, and every public name is there
    text = README.read_text(encoding="utf-8")
    count, section = re.search(r"exactly these (\d+) names(.*?)\n## ", text, re.S).groups()
    listed = re.findall(r"`(\w+)(?:\(\w*\))?`", section)
    assert sorted(listed) == sorted(set(listed)) == sorted(tracecodes.__all__)
    assert int(count) == len(tracecodes.__all__)
