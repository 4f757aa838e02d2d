"""XOR s-fold representation counts for derived point sets, by one transform.

A point set lives in F_2^K with vectors packed as K-bit ints.  The s-fold
count at h is the number of ordered s-tuples of members XORing to h,
computed by a Walsh-Hadamard transform, pointwise s-th power, inverse
transform.  The set is an s-sum set when the count is one constant on the
nonzero members and another constant on the nonzero non-members, with the
count at zero reported separately.

The forward transform is that of the nonzero members alone; the zero flag
adds 1 to every entry, so a set with and without zero share one spectrum.
When the spectrum has one nonzero magnitude off u = 0 the counts have a
closed form and no inverse transform is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .codes import defining_columns, enumerate_defining_set
from .field import GF2m, mul_row, trace_coordinates
from .walsh import TooLargeError, check_dimension, walsh_hadamard, zero_vector

VARIANTS = ("paper-column", "code-column")
POWER_MAX_BITS = 1 << 28  # guard on the estimated size of the powered spectrum

# the last point set's spectrum, keyed by (ambient_dim, vectors); one entry at most
_spectrum_memo: dict[tuple[int, frozenset[int]], list[int]] = {}


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


def _nonzero_spectrum(omega: OmegaSet) -> list[int]:
    """Transform of the nonzero members' indicator, memoised for the last set.

    With zero included the set's transform is this plus 1 at every u.
    """
    key = (omega.ambient_dim, omega.vectors)
    spectrum = _spectrum_memo.get(key)
    if spectrum is None:
        _spectrum_memo.clear()
        indicator = zero_vector(omega.ambient_dim)
        for v in omega.vectors:
            indicator[v] = 1
        spectrum = walsh_hadamard(indicator)
        shared = {t: t for t in spectrum}  # one int object per value: the memo is about its list
        spectrum = _spectrum_memo[key] = [shared[t] for t in spectrum]
    return spectrum


def _check_power_cost(omega: OmegaSet, s: int) -> None:
    if s < 1:
        raise ValueError("s must be at least 1")
    cost = (1 << omega.ambient_dim) * s * omega.size.bit_length()  # each |t^s| <= size^s
    if cost > POWER_MAX_BITS:
        raise TooLargeError(
            f"s = {s} over {omega.size} points in dimension {omega.ambient_dim}: powered spectrum"
            f" estimated at {cost} bits (2^K * s * bit_length(size)), guard {POWER_MAX_BITS}"
        )


def representation_counts(omega: OmegaSet, s: int) -> list[int]:
    """Exact s-fold XOR representation counts for every h, by transform."""
    _check_power_cost(omega, s)
    zero = int(omega.include_zero)
    spectrum = _nonzero_spectrum(omega)
    powers = {t: (t + zero) ** s for t in set(spectrum)}  # equal entries share one power
    back = walsh_hadamard([powers[t] for t in spectrum])
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

    Let T be the set's transform, T(0) = |set|.  When |T(u)| over u != 0
    takes at most one nonzero value lam, T^s = lam^(s-1) * T there for odd
    s, so count_s(h) = base + lam^(s-1) * [h in set] with
    base = (|set|^s - lam^(s-1) * |set|) / 2^K: a sum set, decided with no
    inverse transform.  Any other set is decided from
    `representation_counts`.
    """
    if s <= 1 or s % 2 == 0:
        raise ValueError("s must be odd and greater than 1")
    _check_power_cost(omega, s)
    zero = int(omega.include_zero)
    members = omega.vectors
    nonzero = (1 << omega.ambient_dim) - 1
    values = set(itertools.islice(_nonzero_spectrum(omega), 1, None))
    magnitudes = {abs(t + zero) for t in values} - {0}
    if len(magnitudes) <= 1:
        power = max(magnitudes, default=0) ** (s - 1)
        numerator = omega.size**s - power * omega.size
        if numerator & nonzero:
            raise AssertionError("closed-form numerator did not divide evenly")
        base = numerator >> omega.ambient_dim
        sigma_in = base + power if members else None
        sigma_out = base if len(members) < nonzero else None
        count_at_zero, witness = base + power * zero, None
    else:
        counts = representation_counts(omega, s)

        def class_constant(vectors: list[int]) -> tuple[int | None, tuple[int, int] | None]:
            if not vectors:
                return None, None
            first = vectors[0]
            for v in vectors[1:]:
                if counts[v] != counts[first]:
                    return None, (first, v)
            return counts[first], None

        inside = sorted(members)
        outside = [h for h in range(1, nonzero + 1) if h not in members]
        sigma_in, witness_in = class_constant(inside)
        sigma_out, witness_out = class_constant(outside)
        count_at_zero, witness = counts[0], witness_in or witness_out
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
        count_at_zero=count_at_zero,
        witness=witness,
    )
