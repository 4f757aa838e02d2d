"""Exact arithmetic in GF(2^m) with a polynomial basis.

Field elements are plain ints: bit j is the coefficient of x^j in the
polynomial basis {1, x, x^2, ...}.  Addition is XOR, multiplication is
carry-less shift-and-reduce modulo an irreducible polynomial, and the
absolute trace maps onto {0, 1}.  Bulk products come one O(q) row at a
time from `mul_row`; the cached tables have q entries each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

FieldElement = int

# Lexicographically smallest irreducible polynomial of each degree,
# encoded as a coefficient bitmask (bit j = coefficient of x^j).
DEFAULT_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000000001001,
    13: 0b10000000011011,
    14: 0b100000000100001,
    15: 0b1000000000000011,
    16: 0b10000000000101011,
}

MIN_DEGREE = 2
MAX_DEGREE = 16


def poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of polynomial a by polynomial b."""
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def is_irreducible(poly: int, m: int) -> bool:
    """Trial division by every polynomial of degree 1..m//2."""
    for d in range(1, m // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(poly, q) == 0:
                return False
    return True


@dataclass(frozen=True)
class GF2m:
    """Immutable description of GF(2^m); all arithmetic flows through it.

    ``poly`` defaults to the lexicographically smallest irreducible
    polynomial of degree m, so results are reproducible across runs.
    """

    m: int
    poly: int = 0

    def __post_init__(self) -> None:
        if not MIN_DEGREE <= self.m <= MAX_DEGREE:
            raise ValueError(f"field degree must be in {MIN_DEGREE}..{MAX_DEGREE}, got {self.m}")
        if self.poly == 0:
            object.__setattr__(self, "poly", DEFAULT_POLYS[self.m])
        if self.poly.bit_length() != self.m + 1:
            raise ValueError(f"reduction polynomial must have degree exactly {self.m}")
        if not is_irreducible(self.poly, self.m):
            raise ValueError(f"reduction polynomial {bin(self.poly)} is reducible")

    @property
    def size(self) -> int:
        return 1 << self.m

    def elements(self) -> range:
        return range(self.size)

    def units(self) -> range:
        """Nonzero elements."""
        return range(1, self.size)

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        """Product modulo the reduction polynomial (shift-and-reduce)."""
        top = 1 << self.m
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.poly
        return r

    def power(self, a: FieldElement, e: int) -> FieldElement:
        """a^e by square-and-multiply (e >= 0)."""
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: FieldElement) -> FieldElement:
        """Multiplicative inverse, computed as a^(2^m - 2)."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.power(a, self.size - 2)

    def trace(self, a: FieldElement) -> int:
        """Absolute trace: sum of the m Frobenius conjugates, in {0, 1}."""
        t = a
        s = a
        for _ in range(self.m - 1):
            s = self.mul(s, s)
            t ^= s
        return t


@lru_cache(maxsize=None)
def trace_table(ctx: GF2m) -> tuple[int, ...]:
    """trace(z) for every z, indexed by element bitmask, from m traces.

    The trace is F_2-linear, so the table over z < 2^(j+1) is the table over
    z < 2^j followed by that table XOR trace(x^j).
    """
    table = [0]
    for j in range(ctx.m):
        bit = ctx.trace(1 << j)
        table += [t ^ bit for t in table]
    return tuple(table)


def unit_inverses(ctx: GF2m) -> list[int]:
    """x^-1 for every unit x, indexed by x (entry 0 is 0).

    Montgomery's simultaneous inversion: prefix products of the units, one
    `ctx.inv` of the last, then one backward pass; 3q - 5 products in all.
    """
    prefix = [1] * ctx.size  # prefix[x] = 1 * 2 * ... * x
    acc = 1
    for x in ctx.units():
        acc = prefix[x] = ctx.mul(acc, x)
    inverses = [0] * ctx.size
    acc = ctx.inv(acc)  # (1 * 2 * ... * x)^-1 for the x about to be inverted
    for x in range(ctx.size - 1, 1, -1):
        inverses[x] = ctx.mul(acc, prefix[x - 1])
        acc = ctx.mul(acc, x)
    inverses[1] = acc
    return inverses


def mul_row(ctx: GF2m, a: FieldElement) -> list[int]:
    """a*y for every y, indexed by y, in O(q) and uncached.

    By linearity the row over y < 2^(j+1) is the row over y < 2^j followed by
    that row XOR a*x^j, under any irreducible polynomial, primitive or not.
    """
    top = 1 << ctx.m
    row = [0, a]
    for _ in range(ctx.m - 1):
        a <<= 1
        if a & top:
            a ^= ctx.poly
        row += [r ^ a for r in row]
    return row


@lru_cache(maxsize=None)
def trace_coordinates(ctx: GF2m) -> tuple[int, ...]:
    """Packed coordinate vector (trace(x^j * z) for j < m) per element z.

    Bit j of entry z is trace(mu_j * z) where mu_j = x^j is the polynomial
    basis; this is the coordinate map used for matrix assembly and for
    spelling field elements as GF(2) column vectors.
    """
    tr = trace_table(ctx)
    rows = [mul_row(ctx, 1 << j) for j in range(ctx.m)]  # x^j * z for every z
    return tuple(sum(tr[row[z]] << j for j, row in enumerate(rows)) for z in ctx.elements())
