"""Defining-set code construction and exact weight enumeration.

Three families of binary codes are built from pairs (x, y) with x nonzero.
For fixed x each family's trace condition is affine in y, trace(u*y + c) = 0;
`membership_form` is the one place the three conditions are written, and
`defining_columns` the one place a pair becomes its generator column
coords(x*y) | coords(x) << m.  Codeword (a, b) evaluates trace(a*x*y + b*x)
over the pairs and is a packed int (bit i = coordinate of pair i).  Weights
come from the Walsh spectrum of the column counts, which `Spectrum` keeps
for the projectivity and minimality verdicts too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Sequence

from .field import FieldElement, GF2m, mul_row, trace_coordinates, trace_table
from .walsh import TooLargeError, walsh_hadamard, zero_vector  # TooLargeError re-exported

FAMILIES = (1, 2, 3)

# A weight distribution is the exact multiset map weight -> codeword count.
WeightDistribution = dict[int, int]


@dataclass(frozen=True)
class DefiningSet:
    """Ordered pairs (x, y), x != 0, satisfying one family's trace condition."""

    family: int
    m: int
    pairs: tuple[tuple[FieldElement, FieldElement], ...]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class BinaryLinearCode:
    """Generator matrix as packed-bit rows (bit i of a row = column i)."""

    n: int
    k: int
    rows: tuple[int, ...]
    provenance: tuple[int, int] | None = None  # (family, m); None = external


def membership_form(ctx: GF2m, family: int, x: FieldElement) -> tuple[FieldElement, FieldElement]:
    """(u, c) such that (x, y) is in the family's defining set iff trace(u*y + c) = 0."""
    xx = ctx.mul(x, x)
    if family == 1:
        return xx ^ 1, 0
    if family == 2:
        return xx ^ 1, x
    if family == 3:
        return xx ^ x, 0
    raise ValueError(f"family must be one of {FAMILIES}, got {family}")


def enumerate_defining_set(ctx: GF2m, family: int) -> DefiningSet:
    """All qualifying pairs in ascending (x, y) order, one multiplication row per x."""
    tr = trace_table(ctx)
    pairs = []
    for x in ctx.units():
        u, c = membership_form(ctx, family, x)
        bit = tr[c]
        pairs.extend((x, y) for y, uy in enumerate(mul_row(ctx, u)) if tr[uy] == bit)
    return DefiningSet(family=family, m=ctx.m, pairs=tuple(pairs))


def defining_columns(ctx: GF2m, dset: DefiningSet) -> list[int]:
    """Generator column of each pair, in pair order: coords(x*y) | coords(x) << m.

    Bit j < m is trace(x^j * x*y), the coordinate of message (x^j, 0); bit
    m + j is trace(x^j * x), that of (0, x^j).
    """
    coords = trace_coordinates(ctx)
    columns = []
    for x, group in groupby(dset.pairs, key=itemgetter(0)):
        row, high = mul_row(ctx, x), coords[x] << ctx.m
        columns.extend(coords[row[y]] | high for _, y in group)
    return columns


def transpose(vectors: Sequence[int], width: int) -> list[int]:
    """Bit-matrix transpose: bit j of entry i is bit i of vectors[j], for i < width.

    Zipping the width-bit strings, last vector first, reads each entry as a
    string, highest entry first.
    """
    if not vectors or not width:
        return [0] * width
    strings = [format(v, f"0{width}b") for v in reversed(vectors)]
    return [int("".join(bits), 2) for bits in zip(*strings)][::-1]


def generator_matrix(ctx: GF2m, dset: DefiningSet) -> BinaryLinearCode:
    """2m generator rows: the codewords of the (a, b) polynomial-basis vectors.

    Row j < m is the codeword of (a, b) = (x^j, 0); row m + j is the codeword
    of (0, x^j).  The rows are the transpose of `defining_columns`.
    """
    rows = tuple(transpose(defining_columns(ctx, dset), 2 * ctx.m))
    return BinaryLinearCode(n=len(dset), k=len(rows), rows=rows, provenance=(dset.family, dset.m))


def generator_columns(code: BinaryLinearCode) -> list[int]:
    """Column j of the generator matrix as a k-bit int (bit i from row i)."""
    return transpose(code.rows, code.n)


@dataclass(frozen=True)
class Spectrum:
    """Column counts N over F_2^k and their transform, indexed by message u.

    transform[u] = N^(u) = n - 2 wt(u), so weights, projectivity and
    minimality are all read from one transform.
    """

    n: int
    k: int
    counts: list[int]
    transform: list[int]

    def distribution(self) -> WeightDistribution:
        """Exact counts over all 2^k messages, wt(u) = (n - N^(u)) / 2.

        Codewords that a rank-deficient matrix repeats count once per message.
        """
        wd: WeightDistribution = {}
        for value, count in Counter(self.transform).items():
            weight, odd = divmod(self.n - value, 2)
            if odd:
                raise AssertionError(f"spectrum value {value} has the wrong parity for n = {self.n}")
            wd[weight] = count
        if sum(wd.values()) != 1 << self.k:
            raise AssertionError(f"weight counts do not sum to 2^{self.k}")
        return dict(sorted(wd.items()))


def column_spectrum(columns: Sequence[int], k: int) -> Spectrum:
    """Counts of the k-bit generator columns over F_2^k and their one transform."""
    counts = zero_vector(k)
    for c in columns:
        counts[c] += 1
    return Spectrum(n=len(columns), k=k, counts=counts, transform=walsh_hadamard(counts))


def code_spectrum(code: BinaryLinearCode) -> Spectrum:
    """The generator-column counts of `code` and their one transform."""
    return column_spectrum(generator_columns(code), code.k)


def weight_distribution(code: BinaryLinearCode) -> WeightDistribution:
    """Exact counts over all 2^k messages; see `Spectrum.distribution`."""
    return code_spectrum(code).distribution()


def minimum_distance(wd: WeightDistribution) -> int:
    """Smallest nonzero weight with positive multiplicity."""
    nonzero = [w for w, c in wd.items() if w > 0 and c > 0]
    if not nonzero:
        raise ValueError("zero code has no minimum distance")
    return min(nonzero)


def matrix_text(code: BinaryLinearCode) -> str:
    """Plain-text export: one row per line, '0'/'1' characters, column 0 first."""
    return "\n".join(
        "".join("1" if (row >> i) & 1 else "0" for i in range(code.n)) for row in code.rows
    )
