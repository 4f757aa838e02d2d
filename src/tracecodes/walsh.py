"""Exact Walsh-Hadamard transform over F_2^k, the kernel behind a lone code's
weights, projectivity and minimality and behind sum-set counts, with the
one size guard that every 2^k-entry vector passes.

A vector is a list of 2^k ints indexed by k-bit masks; its transform is
f^(u) = sum over v of f(v) * (-1)^popcount(u & v).
"""

from __future__ import annotations

from operator import add, sub
from typing import Sequence

TRANSFORM_MAX_DIM = 20  # a 2^24-entry transform of Python ints needs about 1 GB


class TooLargeError(Exception):
    """Raised when an exact computation would exceed its desk-scale guard."""


def check_dimension(dim: int) -> None:
    """Refuse a vector over F_2^dim beyond the transform guard."""
    if dim > TRANSFORM_MAX_DIM:
        raise TooLargeError(f"dimension {dim} exceeds transform guard {TRANSFORM_MAX_DIM}")


def zero_vector(dim: int) -> list[int]:
    """All-zero vector over F_2^dim, refused beyond the transform guard."""
    check_dimension(dim)
    return [0] * (1 << dim)


def walsh_hadamard(values: Sequence[int]) -> list[int]:
    """Unnormalised transform, self-inverse up to division by the length.

    Each round butterflies the top index bit and interleaves the halves,
    rotating the index left by one bit; after k rounds every bit has been
    transformed once and the order is restored.
    """
    n = len(values)
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a power of two")
    out = list(values)
    half = n >> 1
    for _ in range(n.bit_length() - 1):
        top, bottom = out[:half], out[half:]
        out[::2] = map(add, top, bottom)
        out[1::2] = map(sub, top, bottom)
    return out
