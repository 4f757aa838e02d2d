"""XOR s-fold representation counts for derived point sets, by one transform.

A point set lives in F_2^K with vectors packed as K-bit ints.  The s-fold
count at h is the number of ordered s-tuples of members XORing to h,
computed by a Walsh-Hadamard transform, pointwise s-th power, inverse
transform.  The set is an s-sum set when the count is one constant on the
nonzero members and another constant on the nonzero non-members, with the
count at zero reported separately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .codes import WeightDistribution, defining_columns, enumerate_defining_set
from .field import GF2m, mul_row, trace_coordinates
from .walsh import TooLargeError, check_dimension, walsh_hadamard, zero_vector

VARIANTS = ("paper-column", "code-column")
POWER_MAX_BITS = 1 << 28  # guard on the estimated size of the powered spectrum


@dataclass(frozen=True)
class OmegaSet:
    """A set of K-bit vectors, with zero membership tracked as a flag.

    vectors holds the distinct nonzero members; include_zero says whether
    the zero vector is also a member.  family/m/variant record how the set
    was built (variant is one of VARIANTS, or 'external').
    """

    ambient_dim: int
    vectors: frozenset[int]
    include_zero: bool
    family: int
    m: int
    variant: str

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        check_dimension(self.ambient_dim)
        top = 1 << self.ambient_dim
        for v in self.vectors:
            if not 0 < v < top:
                raise ValueError(f"vector {v} outside nonzero {self.ambient_dim}-bit range")

    @property
    def size(self) -> int:
        return len(self.vectors) + (1 if self.include_zero else 0)

    def with_zero(self, flag: bool) -> OmegaSet:
        if flag == self.include_zero:
            return self
        return OmegaSet(
            self.ambient_dim, self.vectors, flag, self.family, self.m, self.variant
        )


def build_omega(ctx: GF2m, family: int, variant: str) -> OmegaSet:
    """Point set of the family's defining set under the chosen column map.

    paper-column expands each defining pair (x, y) through trace
    coordinates of (y*x^2, y) for family 1 and (y*x^2, x, y) for family 2;
    code-column expands (x*y, x), which reproduces the distinct generator
    matrix columns.  Duplicates collapse; a zero image sets include_zero.
    """
    if family not in (1, 2):
        raise ValueError("point sets are built for families 1 and 2 only")
    if family == 2 and ctx.m % 2 == 0:
        raise ValueError("family-2 point sets are built for odd m only")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    dset = enumerate_defining_set(ctx, family)
    m = ctx.m
    if variant == "code-column":
        raw = set(defining_columns(ctx, dset))
        dim = 2 * m
    else:
        coords = trace_coordinates(ctx)
        dim = 2 * m if family == 1 else 3 * m
        raw = set()
        for x, group in itertools.groupby(dset.pairs, key=itemgetter(0)):
            row = mul_row(ctx, ctx.mul(x, x))
            x_part = 0 if family == 1 else coords[x] << m
            raw.update(coords[row[y]] | x_part | coords[y] << (dim - m) for _, y in group)
    return OmegaSet(
        ambient_dim=dim,
        vectors=frozenset(raw - {0}),
        include_zero=0 in raw,
        family=family,
        m=m,
        variant=variant,
    )


def _indicator(omega: OmegaSet) -> list[int]:
    """0/1 membership vector over F_2^K."""
    vec = zero_vector(omega.ambient_dim)
    for v in omega.vectors:
        vec[v] = 1
    if omega.include_zero:
        vec[0] = 1
    return vec


def representation_counts(omega: OmegaSet, s: int) -> list[int]:
    """Exact s-fold XOR representation counts for every h, by transform."""
    if s < 1:
        raise ValueError("s must be at least 1")
    cost = (1 << omega.ambient_dim) * s * omega.size.bit_length()  # each |t^s| <= size^s
    if cost > POWER_MAX_BITS:
        raise TooLargeError(
            f"s = {s} over {omega.size} points in dimension {omega.ambient_dim}: powered spectrum"
            f" estimated at {cost} bits (2^K * s * bit_length(size)), guard {POWER_MAX_BITS}"
        )
    back = walsh_hadamard([t**s for t in walsh_hadamard(_indicator(omega))])
    if any(g & ((1 << omega.ambient_dim) - 1) for g in back):
        raise AssertionError("inverse transform did not divide evenly")
    return [g >> omega.ambient_dim for g in back]


@dataclass(frozen=True)
class SumSetReport:
    """Verdict for one (point set, s) pair."""

    family: int
    m: int
    s: int
    variant: str
    include_zero: bool
    set_size: int
    is_sum_set: bool
    sigma_members: int | None
    sigma_outside: int | None
    count_at_zero: int
    witness: tuple[int, int] | None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "m": self.m,
            "s": self.s,
            "variant": self.variant,
            "include_zero": self.include_zero,
            "is_sum_set": self.is_sum_set,
            "sigma0": self.sigma_members,
            "sigma1": self.sigma_outside,
            "count_at_zero": self.count_at_zero,
        }


def check_sum_set(omega: OmegaSet, s: int) -> SumSetReport:
    """Decide whether the set is an s-sum set over the nonzero vectors.

    s must be odd and greater than 1.  A witness is a pair of vectors in
    the same class whose counts differ; when one class is empty its sigma
    is reported equal to the other's.
    """
    if s <= 1 or s % 2 == 0:
        raise ValueError("s must be odd and greater than 1")
    counts = representation_counts(omega, s)
    members = omega.vectors

    def class_constant(vectors: list[int]) -> tuple[int | None, tuple[int, int] | None]:
        if not vectors:
            return None, None
        first = vectors[0]
        for v in vectors[1:]:
            if counts[v] != counts[first]:
                return None, (first, v)
        return counts[first], None

    inside = sorted(members)
    outside = [h for h in range(1, 1 << omega.ambient_dim) if h not in members]
    sigma_in, witness_in = class_constant(inside)
    sigma_out, witness_out = class_constant(outside)
    witness = witness_in or witness_out
    is_sum_set = witness is None
    if is_sum_set:
        if sigma_in is None:
            sigma_in = sigma_out
        if sigma_out is None:
            sigma_out = sigma_in
    return SumSetReport(
        family=omega.family,
        m=omega.m,
        s=s,
        variant=omega.variant,
        include_zero=omega.include_zero,
        set_size=omega.size,
        is_sum_set=is_sum_set,
        sigma_members=sigma_in if is_sum_set else None,
        sigma_outside=sigma_out if is_sum_set else None,
        count_at_zero=counts[0],
        witness=witness,
    )


def symmetric_three_weight(wd: WeightDistribution, n: int, q: int = 2) -> bool:
    """True iff exactly three nonzero weights, the middle one n(q-1)/q, the outer two averaging it."""
    weights = sorted(w for w in wd if w > 0)
    if len(weights) != 3:
        return False
    w1, w2, w3 = weights
    return w2 * q == n * (q - 1) and (w1 + w3) * q == 2 * n * (q - 1)
