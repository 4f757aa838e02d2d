"""Shared test oracles."""

from __future__ import annotations

from collections import Counter

import pytest


def gray_weight_distribution(code) -> dict[int, int]:
    """Weight distribution by Gray-code enumeration of all 2^k row combinations.

    Single-process oracle for the transform route: consecutive Gray indices
    differ in one bit, so each codeword is the previous one XOR one row.
    """
    hist = Counter({0: 1})
    word = 0
    for i in range(1, 1 << code.k):
        word ^= code.rows[(i & -i).bit_length() - 1]
        hist[word.bit_count()] += 1
    return dict(sorted(hist.items()))


@pytest.fixture
def gray_oracle():
    return gray_weight_distribution
