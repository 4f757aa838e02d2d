"""Defining-set code construction and exact weight enumeration.

Three families of binary codes are built from pairs (x, y) with x nonzero;
a family's `DefiningSet` is the ascending tuple of the pairs that meet its
trace condition.  For fixed x that condition is affine in y, trace(a*x*y + c) = 0
with slope a; `slope_form` is the one place the three conditions are written, and
`defining_columns` the one place a pair becomes its generator column
coords(x*y) | coords(x) << m.  Codeword (a, b) evaluates trace(a*x*y + b*x)
over the pairs and is a packed int (bit i = coordinate of pair i).  A
family's weights come in O(q) from its character sums, each family sum
counted over b from the size of its slope class alone, a class of more
than two units refused (`hyperplane_distribution`); a lone code's come
from the Walsh spectrum of its column counts, one list that the rank
and minimality verdicts read too.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from math import comb
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .field import FieldElement, GF2m, check_ints, mul_row, trace_coordinates, trace_table, unit_inverses
from .walsh import check_dimension, walsh_hadamard, zero_vector

FAMILIES = (1, 2, 3)


def paper_covers(family: int, m: int) -> bool:
    """Whether the paper states its results for the family at degree m: family 2 only at odd m."""
    return family != 2 or m % 2 == 1


def check_family(family: int, m: int | None = None, among: tuple[int, ...] = FAMILIES) -> None:
    """Refuse a family that is not an int in `among` or, given m, that the paper does not cover at m."""
    check_ints(family=family)
    if family not in among:
        raise ValueError(f"family must be one of {among}, got {family}")
    if m is not None and not paper_covers(family, m):
        raise ValueError(f"family {family} is stated for odd m only, got m = {m}")


# A weight distribution is the exact multiset map weight -> codeword count.
WeightDistribution = dict[int, int]


def check_distribution(wd: WeightDistribution) -> None:
    """Refuse a weight or count that is not an int (`check_ints`)."""
    for w, c in wd.items():
        check_ints(weight=w, count=c)


# One family's defining set: the pairs (x, y), x != 0, that satisfy its trace
# condition, in ascending (x, y) order.
DefiningSet = tuple[tuple[FieldElement, FieldElement], ...]


class _Code(NamedTuple):
    n: int
    rows: tuple[int, ...]


class BinaryLinearCode(_Code):
    """Generator matrix as packed-bit rows (bit i of a row = column i), k = len(rows)."""

    __slots__ = ()

    def __new__(cls, n: int, rows: Iterable[int]) -> BinaryLinearCode:
        check_ints(n=n)
        top = 1 << n  # ValueError for a negative n
        rows = tuple(rows)  # a caller's list could change after the check
        for row in rows:
            check_ints(row=row)
            if not 0 <= row < top:
                raise ValueError(f"row {row} outside the {n}-bit range")
        return super().__new__(cls, n, rows)

    @classmethod
    def _make(cls, iterable: Iterable) -> BinaryLinearCode:  # so that `_replace` validates too
        return cls(*iterable)

    @property
    def k(self) -> int:
        return len(self.rows)


def slope_form(ctx: GF2m, family: int, x: FieldElement) -> tuple[FieldElement, FieldElement]:
    """(a, c) such that (x, y) is in the family's defining set iff trace(a*x*y + c) = 0.

    The paper writes trace(u*y + c) with u = x^2 + 1 (families 1, 2) or x^2 + x
    (family 3), so a = u*x^-1 is x + x^-1 or x + 1; c is x for family 2, else 0.
    """
    check_family(family)
    if family == 3:
        return x ^ 1, 0
    return x ^ unit_inverses(ctx)[x], x if family == 2 else 0


def hyperplane_distribution(ctx: GF2m, family: int) -> tuple[int, WeightDistribution]:
    """Length n and exact weight distribution of the family's code, in O(q).

    Codeword (a, b) has weight (2n - P - F)/4, with P the plain and F the
    family character sum at (a, b): F = q * sum over x in R_a of
    (-1)^(trace(c) + trace(b*x)), R_a and trace(c) from `slope_classes`.
    Over b, F/q is a sum of |R_a| signs counted by `sign_sum_counts` when
    |R_a| <= 2, whatever the trace(c).  Three units may be dependent, so a
    larger class raises AssertionError.  P is q(q - 1) at (0, 0), -q at
    a = 0, b != 0 and 0 at a != 0, so n = q(q - 1 + F(0, 0)/q)/2.
    """
    q = ctx.size
    classes = slope_classes(ctx, family)
    f00 = sum(1 - 2 * t for _, t in classes.setdefault(0, []))  # F(0, 0)/q; a = 0 has P = -q
    n = q * (q - 1 + f00) // 2
    sizes: Counter[tuple[bool, int]] = Counter({(False, 0): q - len(classes)})  # empty R_a
    for a, members in classes.items():
        if len(members) > 2:
            raise AssertionError(f"slope {a} has {len(members)} units; counting needs at most two")
        sizes[a == 0, len(members)] += 1
    # q >= 4 and 2n, P and F are multiples of q, so every /4 and q/2^s is exact
    wd: Counter[int] = Counter()
    for (zero, s), classes_of_size in sizes.items():
        for f, count in sign_sum_counts(s, q).items():  # F/q = f; P = -q at a = 0 and 0 elsewhere
            wd[(2 * n + q * (zero - f)) // 4] += classes_of_size * count
    wd[q * q // 4] -= 1  # (0, 0) has P = q(q - 1), not -q: move it from q^2/4 to 0
    wd[0] += 1
    if sum(wd.values()) != q * q:
        raise AssertionError(f"weight counts do not sum to q^2 = {q * q}")
    return n, {w: count for w, count in sorted(wd.items()) if count}


def sign_sum_counts(s: int, q: int) -> dict[int, int]:
    """How many of q inputs give each sum of s independent +-1 signs: {s - 2j: comb(s, j)*q/2^s}.

    The signs are (-1)^trace(b*x_i) over the q elements b, for s units x_i
    independent over F_2 (any two distinct units are), so each of the 2^s
    sign patterns is taken q/2^s times; s <= m.
    """
    return {s - 2 * j: comb(s, j) * q >> s for j in range(s + 1)}


def slope_classes(ctx: GF2m, family: int) -> dict[FieldElement, list[tuple[FieldElement, int]]]:
    """The units x grouped by their slope a, with (a, c) = `slope_form` at x.

    Maps each slope a that some x has to R_a, the units x of that slope as
    pairs (x, trace(c)) in ascending x; R_0 holds the x with u = a*x = 0.
    """
    tr = trace_table(ctx)
    classes: dict[FieldElement, list[tuple[FieldElement, int]]] = {}
    for x in ctx.units():
        a, c = slope_form(ctx, family, x)
        classes.setdefault(a, []).append((x, tr[c]))
    return classes


def enumerate_defining_set(ctx: GF2m, family: int) -> DefiningSet:
    """All qualifying pairs in ascending (x, y) order, one product a*x and one row per x.

    The pairs are about q^2/2, with generator columns in F_2^(2m): refused
    beyond the transform guard before any is listed.
    """
    check_dimension(2 * ctx.m)
    tr = trace_table(ctx)
    pairs = []
    for x in ctx.units():
        a, c = slope_form(ctx, family, x)
        bit = tr[c]
        pairs.extend((x, y) for y, uy in enumerate(mul_row(ctx, ctx.mul(a, x))) if tr[uy] == bit)
    return tuple(pairs)


def defining_columns(ctx: GF2m, dset: DefiningSet) -> list[int]:
    """Generator column of each pair, in pair order: coords(x*y) | coords(x) << m.

    Bit j < m is trace(x^j * x*y), the coordinate of message (x^j, 0); bit
    m + j is trace(x^j * x), that of (0, x^j).
    """
    coords = trace_coordinates(ctx)
    columns = []
    for x, group in groupby(dset, key=itemgetter(0)):
        row, high = mul_row(ctx, x), coords[x] << ctx.m
        columns.extend(coords[row[y]] | high for _, y in group)
    return columns


def distinct_nonzero_columns(ctx: GF2m) -> bool:
    """Whether the family code's generator columns are nonzero and pairwise distinct.

    (x, y) -> (x*y, x) is injective for x != 0, so the columns
    coords(x*y) | coords(x) << m of distinct pairs are distinct, and nonzero
    (coords(x) != 0), exactly when `trace_coordinates` is injective; one
    q-entry table answers for every family.
    """
    return len(set(trace_coordinates(ctx))) == ctx.size


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
    return BinaryLinearCode(n=len(dset), rows=rows)


def generator_columns(code: BinaryLinearCode) -> list[int]:
    """Column j of the generator matrix as a k-bit int (bit i from row i)."""
    return transpose(code.rows, code.n)


def column_spectrum(columns: Sequence[int], k: int) -> list[int]:
    """Transform of the k-bit columns' counts over F_2^k: t[u] = N^(u) = n - 2 wt(u), n = t[0]."""
    counts = zero_vector(k)
    for c in columns:
        counts[c] += 1
    return walsh_hadamard(counts)


def spectrum_distribution(t: Sequence[int]) -> WeightDistribution:
    """Exact counts over all len(t) messages, wt(u) = (n - N^(u)) / 2 with n = t[0].

    Codewords that a rank-deficient matrix repeats count once per message.
    """
    n = t[0]
    wd: WeightDistribution = {}
    for value, count in Counter(t).items():
        weight, odd = divmod(n - value, 2)
        if odd:
            raise AssertionError(f"spectrum value {value} has the wrong parity for n = {n}")
        wd[weight] = count
    return dict(sorted(wd.items()))


def weight_distribution(code: BinaryLinearCode) -> WeightDistribution:
    """Exact counts over all 2^k messages; see `spectrum_distribution`."""
    return spectrum_distribution(column_spectrum(generator_columns(code), code.k))


def minimum_distance(wd: WeightDistribution) -> int:
    """Smallest nonzero weight with positive multiplicity."""
    check_distribution(wd)
    nonzero = [w for w, c in wd.items() if w > 0 and c > 0]
    if not nonzero:
        raise ValueError("zero code has no minimum distance")
    return min(nonzero)


def matrix_text(code: BinaryLinearCode) -> str:
    """Plain-text export: one row per line, '0'/'1' characters, column 0 first."""
    return "\n".join(format(row, f"0{code.n}b")[::-1] for row in code.rows)
