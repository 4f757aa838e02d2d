"""Exact arithmetic in GF(2^m) with a polynomial basis.

Field elements are plain ints: bit j is the coefficient of x^j in the
polynomial basis {1, x, x^2, ...}.  Addition is XOR, multiplication is
carry-less shift-and-reduce modulo an irreducible polynomial, and the
absolute trace maps onto {0, 1}.  Bulk products come one O(q) row at a
time from `mul_row`.  The cached tables have q entries each, and each is
one O(q) walk: inverses along the powers of a generator, trace
coordinates by doubling over the polynomial basis.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

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

# Fields whose tables each cache keeps: one per supported degree, so a loop
# over reduction polynomials holds a bounded number of q-entry tables.
CACHED_FIELDS = MAX_DEGREE - MIN_DEGREE + 1


def check_ints(**named: object) -> None:
    """Refuse each named value whose type is not exactly int: True and 3.0 would pass as 1 and 3."""
    for name, value in named.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


def poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of polynomial a by polynomial b."""
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def is_irreducible(poly: int) -> bool:
    """Trial division by every polynomial of degree 1..m//2, m = deg(poly); m must be in 2..16."""
    check_ints(poly=poly)
    m = poly.bit_length() - 1
    if poly < 0 or not MIN_DEGREE <= m <= MAX_DEGREE:  # poly_mod never terminates on a negative poly
        shown = "a negative int" if poly < 0 else f"degree {m}"  # a huge poly has too many digits to print
        raise ValueError(f"expected a polynomial of degree {MIN_DEGREE}..{MAX_DEGREE}, got {shown}")
    for d in range(1, m // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(poly, q) == 0:
                return False
    return True


class _Field(NamedTuple):
    m: int
    poly: int


class GF2m(_Field):
    """Immutable description of GF(2^m); all arithmetic flows through it.

    ``poly`` defaults to the lexicographically smallest irreducible
    polynomial of degree m, so results are reproducible across runs.
    Contexts are compared and hashed by (m, poly), which the cached tables key on.
    """

    __slots__ = ()

    def __new__(cls, m: int, poly: int = 0) -> GF2m:
        check_ints(m=m, poly=poly)
        if not MIN_DEGREE <= m <= MAX_DEGREE:
            raise ValueError(f"field degree must be in {MIN_DEGREE}..{MAX_DEGREE}, got {m}")
        poly = poly or DEFAULT_POLYS[m]
        if poly.bit_length() != m + 1:
            raise ValueError(f"reduction polynomial must have degree exactly {m}")
        if not is_irreducible(poly):
            raise ValueError(f"reduction polynomial {bin(poly)} is reducible")
        return super().__new__(cls, m, poly)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> GF2m:  # so that `_replace` validates too
        return cls(*iterable)

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
        if (a | b) >> self.m:  # a negative b never shifts down to 0
            raise ValueError(f"{a} and {b} are not both elements of GF(2^{self.m})")
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

    def trace(self, a: FieldElement) -> int:
        """Absolute trace: sum of the m Frobenius conjugates, in {0, 1}; `mul` refuses an a >= q or < 0."""
        t = s = a
        for _ in range(self.m - 1):
            s = self.mul(s, s)
            t ^= s
        return t


@lru_cache(maxsize=CACHED_FIELDS)
def trace_table(ctx: GF2m) -> tuple[int, ...]:
    """trace(z) for every z, indexed by element bitmask: bit 0 of `trace_coordinates`, as x^0 = 1."""
    return tuple(c & 1 for c in trace_coordinates(ctx))


@lru_cache(maxsize=CACHED_FIELDS)
def unit_inverses(ctx: GF2m) -> tuple[int, ...]:
    """x^-1 for every unit x, indexed by x (entry 0 is 0).

    Walks the powers of the least unit g of order q - 1, one `mul_row` per
    candidate g; the default polynomial need not be primitive, so g need
    not be x.  Then (g^i)^-1 = g^(q-1-i).
    """
    for g in range(2, ctx.size):  # the unit group is cyclic, so some g qualifies
        row = mul_row(ctx, g)
        powers = [1]  # g^i for i below the order of g
        z = g
        while z != 1:
            powers.append(z)
            z = row[z]
        if len(powers) == ctx.size - 1:
            break
    inverses = [0] * ctx.size
    for i, z in enumerate(powers):
        inverses[z] = powers[-i]  # g^(q-1-i); powers[-0] is g^0 = 1
    return tuple(inverses)


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


@lru_cache(maxsize=CACHED_FIELDS)
def trace_coordinates(ctx: GF2m) -> tuple[int, ...]:
    """Packed coordinate vector (trace(x^j * z) for j < m) per element z.

    Bit j of entry z is trace(mu_j * z) where mu_j = x^j is the polynomial
    basis; this is the coordinate map used for matrix assembly and for
    spelling field elements as GF(2) column vectors.  The map is F_2-linear
    in z, so the table over z < 2^(i+1) is the table over z < 2^i followed
    by that table XOR coords(x^i), whose bit j is trace(x^(i+j)): 2m - 1
    scalar traces in all.
    """
    traces = []  # trace(x^k) for k <= 2m - 2
    power = 1
    for _ in range(2 * ctx.m - 1):
        traces.append(ctx.trace(power))
        power = ctx.mul(power, 2)
    table = [0]
    for i in range(ctx.m):
        image = sum(traces[i + j] << j for j in range(ctx.m))
        table += [c ^ image for c in table]
    return tuple(table)
