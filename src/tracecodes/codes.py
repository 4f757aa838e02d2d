"""Defining-set code construction and exact weight enumeration.

Three families of binary codes are built from pairs (x, y) with x nonzero,
selected by a trace condition:

    family 1:  trace(y*x^2 + y) = 0
    family 2:  trace(y*x^2 + x + y) = 0
    family 3:  trace(y*x^2 + x*y) = 0

The code itself evaluates trace(a*x*y + b*x) over the selected pairs, one
coordinate per pair, as (a, b) ranges over the full 2m-dimensional message
space.  Codewords are packed ints (bit i = coordinate of pair i); weights
come from the Walsh spectrum of the counts of the generator columns, which
`Spectrum` keeps for the projectivity and minimality verdicts too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .field import FieldElement, GF2m, mul_table, trace_table
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


def membership_element(ctx: GF2m, family: int, x: FieldElement, y: FieldElement) -> FieldElement:
    """The field element whose trace decides membership of (x, y)."""
    xx = ctx.mul(x, x)
    if family == 1:
        return ctx.mul(y, xx) ^ y
    if family == 2:
        return ctx.mul(y, xx) ^ x ^ y
    if family == 3:
        return ctx.mul(y, xx) ^ ctx.mul(x, y)
    raise ValueError(f"family must be one of {FAMILIES}, got {family}")


def enumerate_defining_set(ctx: GF2m, family: int) -> DefiningSet:
    """All qualifying pairs in ascending (x, y) order."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family}")
    tr = trace_table(ctx)
    pairs = []
    for x in ctx.units():
        for y in ctx.elements():
            if tr[membership_element(ctx, family, x, y)] == 0:
                pairs.append((x, y))
    return DefiningSet(family=family, m=ctx.m, pairs=tuple(pairs))


def codeword(ctx: GF2m, dset: DefiningSet, a: FieldElement, b: FieldElement) -> int:
    """Packed evaluation of trace(a*x*y + b*x) over the defining set."""
    tr = trace_table(ctx)
    mt = mul_table(ctx)
    row_a = mt[a]
    row_b = mt[b]
    word = 0
    for i, (x, y) in enumerate(dset.pairs):
        word |= tr[mt[row_a[x]][y] ^ row_b[x]] << i
    return word


def generator_matrix(ctx: GF2m, dset: DefiningSet) -> BinaryLinearCode:
    """2m generator rows: the codewords of the (a, b) polynomial-basis vectors.

    Row j < m is the codeword of (a, b) = (x^j, 0); row m + j is the codeword
    of (0, x^j).
    """
    m = ctx.m
    mt = mul_table(ctx)
    tr = trace_table(ctx)
    rows = [0] * (2 * m)
    for i, (x, y) in enumerate(dset.pairs):
        xy = mt[x][y]
        bit = 1 << i
        for j in range(m):
            if tr[mt[1 << j][xy]]:
                rows[j] |= bit
            if tr[mt[1 << j][x]]:
                rows[m + j] |= bit
    return BinaryLinearCode(
        n=len(dset.pairs), k=2 * m, rows=tuple(rows), provenance=(dset.family, dset.m)
    )


def generator_columns(code: BinaryLinearCode) -> list[int]:
    """Column j of the generator matrix as a k-bit int (bit i from row i).

    Zipping the rows' binary strings, last row first, reads each column as a
    k-bit string, highest column first.
    """
    if not code.rows or not code.n:
        return [0] * code.n
    strings = [format(row, f"0{code.n}b") for row in reversed(code.rows)]
    return [int("".join(bits), 2) for bits in zip(*strings)][::-1]


def column_counts(code: BinaryLinearCode) -> list[int]:
    """N[c] = number of generator columns equal to c, for every c in F_2^k."""
    counts = zero_vector(code.k)
    for c in generator_columns(code):
        counts[c] += 1
    return counts


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


def code_spectrum(code: BinaryLinearCode) -> Spectrum:
    """The generator-column counts of `code` and their one transform."""
    counts = column_counts(code)
    return Spectrum(n=code.n, k=code.k, counts=counts, transform=walsh_hadamard(counts))


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


def distribution_json_dict(code: BinaryLinearCode, wd: WeightDistribution) -> dict:
    """JSON-ready export {"n": ..., "k": ..., "counts": {weight: count}}."""
    return {"n": code.n, "k": code.k, "counts": {str(w): c for w, c in sorted(wd.items())}}
