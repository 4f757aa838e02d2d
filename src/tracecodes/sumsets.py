"""XOR s-fold representation counts for derived point sets, and s-sum-set verdicts.

A point set lives in F_2^K with vectors packed as K-bit ints.  The s-fold
count at h is the number of ordered s-tuples of members XORing to h,
computed by a Walsh-Hadamard transform, pointwise s-th power, inverse
transform.  The set is an s-sum set when the count is one constant on the
nonzero members and another constant on the nonzero non-members, with the
count at zero reported separately.

The verdict needs only the histogram of t, the transform of the nonzero
members, over u != 0: with T = t + [0 in set], the set is an s-sum set iff
T(u)^s = beta * t(u) + gamma at every u != 0, so it is read off the
distinct values of t, and the count at zero off their histogram.  The
zero flag adds 1 to every entry, so a set with and without zero share one
histogram.  There are two sources of it.  `check_sum_set` takes any
`OmegaSet` and runs one forward transform, no inverse.
`code_column_sum_sets` takes a family's code-column set, the distinct
nonzero generator columns of a code with n columns, whose transform is
t(u) = n - 2 wt(u) (Calderbank-Kantor), and reads the histogram off the
code's weight distribution: no vectors and no transform.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .codes import (
    defining_columns,
    distinct_nonzero_columns,
    enumerate_defining_set,
    hyperplane_distribution,
)
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


def _check_family(ctx: GF2m, family: int) -> None:
    if family not in (1, 2):
        raise ValueError("point sets are built for families 1 and 2 only")
    if family == 2 and ctx.m % 2 == 0:
        raise ValueError("family-2 point sets are built for odd m only")


def build_omega(ctx: GF2m, family: int, variant: str) -> OmegaSet:
    """Point set of the family's defining set under the chosen column map.

    paper-column expands each defining pair (x, y) through trace
    coordinates of (y*x^2, y) for family 1 and (y*x^2, x, y) for family 2;
    code-column expands (x*y, x), which reproduces the distinct generator
    matrix columns.  Duplicates collapse; a zero image sets include_zero.
    """
    _check_family(ctx, family)
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


def _check_power_cost(s: int, size: int, dim: int, values: int, basis: str) -> None:
    """Refuse an s whose powers of `values` spectrum entries are estimated above the guard.

    Each |T(u)^s| <= size^s, so each power takes at most s * bit_length(size) bits.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    cost = values * s * size.bit_length()
    if cost > POWER_MAX_BITS:
        raise TooLargeError(
            f"s = {s} over {size} points in dimension {dim}: powered spectrum"
            f" estimated at {cost} bits ({basis} * s * bit_length(size)), guard {POWER_MAX_BITS}"
        )


def representation_counts(omega: OmegaSet, s: int) -> list[int]:
    """Exact s-fold XOR representation counts for every h, by transform."""
    _check_power_cost(s, omega.size, omega.ambient_dim, 1 << omega.ambient_dim, "2^K")
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


def _power_line(powers: dict[int, int]) -> tuple[int, int] | None:
    """(beta, gamma) with powers[t] == beta * t + gamma at every t, or None.

    beta is read off the two smallest t; a single t gives beta = 0.
    """
    low, *rest = sorted(powers)
    if not rest:
        return 0, powers[low]
    rise, run = powers[rest[0]] - powers[low], rest[0] - low
    if rise % run:  # (a^s - b^s) is divisible by (a - b)
        raise AssertionError("slope numerator did not divide evenly")
    beta = rise // run
    gamma = powers[low] - beta * low
    return (beta, gamma) if all(p == beta * t + gamma for t, p in powers.items()) else None


def _check_odd_power(s: int) -> None:
    if s <= 1 or s % 2 == 0:
        raise ValueError("s must be odd and greater than 1")


def _report(
    family: int,
    m: int,
    variant: str,
    dim: int,
    members: int,
    include_zero: bool,
    histogram: dict[int, int],
    s: int,
) -> SumSetReport:
    """The verdict on a set of `members` nonzero vectors in F_2^dim, plus zero if
    include_zero, from the histogram of t over u != 0; see `check_sum_set`."""
    zero = int(include_zero)
    nonzero = (1 << dim) - 1
    powers = {t: (t + zero) ** s for t in histogram}
    total = (members + zero) ** s  # T(0)^s
    at_zero = total + sum(n * powers[t] for t, n in histogram.items())
    if at_zero & nonzero:
        raise AssertionError("count-at-zero numerator did not divide evenly")
    line = _power_line(powers)
    sigma_in = sigma_out = None
    if line is not None:
        beta, gamma = line
        numerator = total - beta * members - gamma
        if numerator & nonzero:
            raise AssertionError("alpha numerator did not divide evenly")
        sigma_out = numerator >> dim
        sigma_in = sigma_out + beta
    return SumSetReport(
        family=family,
        m=m,
        s=s,
        variant=variant,
        include_zero=include_zero,
        set_size=members + zero,
        is_sum_set=line is not None,
        sigma_members=sigma_in,
        sigma_outside=sigma_out,
        count_at_zero=at_zero >> dim,
    )


def check_sum_set(omega: OmegaSet, s: int) -> SumSetReport:
    """Decide whether the set is an s-sum set over the nonzero vectors.

    s must be odd and greater than 1.  When one class is empty its sigma is
    reported equal to the other's.

    With t the transform of the nonzero members and T = t + [0 in set], the
    counts are alpha + beta * [h a nonzero member] + gamma * [h = 0] exactly
    when T(u)^s = beta * t(u) + gamma at every u != 0; then
    alpha = (|set|^s - beta * |nonzero members| - gamma) / 2^K is the count
    outside and alpha + beta the count on members.  When t is constant off
    u = 0 the nonzero members are none or all of them and beta = 0.  The
    count at zero is 2^-K * sum of T(u)^s over the histogram of t.  It runs
    one forward transform and no inverse; `sum_set_witness` names a pair
    of vectors that shows a set is not a sum set.  The power guard counts
    the values of t before the transform: they lie in
    [-|nonzero members|, |nonzero members|] and share one parity, so there
    are at most min(2^K, |nonzero members| + 1) of them.
    """
    _check_odd_power(s)
    members = len(omega.vectors)
    values = min(1 << omega.ambient_dim, members + 1)
    _check_power_cost(s, omega.size, omega.ambient_dim, values, "min(2^K, |set minus 0| + 1)")
    histogram = Counter(itertools.islice(_nonzero_spectrum(omega), 1, None))  # over u != 0
    return _report(
        omega.family,
        omega.m,
        omega.variant,
        omega.ambient_dim,
        members,
        omega.include_zero,
        histogram,
        s,
    )


def code_column_sum_sets(
    ctx: GF2m, family: int, s: int, zero_flags: Sequence[bool] = (False, True)
) -> list[SumSetReport]:
    """`check_sum_set` of the family's code-column set, once per zero flag,
    from the code's weight distribution.

    The set is the code's n generator columns in F_2^(2m), with zero not a
    member as built.  When they are distinct and nonzero and the code has
    full rank, t(u) = n - 2 wt(u) at every u and only u = 0 has weight 0, so
    the histogram of t over u != 0 is {n - 2w: A_w} over the nonzero
    weights w of `hyperplane_distribution`, in O(q); AssertionError if
    either condition fails.  The power guard counts the distinct values of t.
    """
    _check_odd_power(s)
    _check_family(ctx, family)
    n, wd = hyperplane_distribution(ctx, family)
    if wd.get(0) != 1:
        raise AssertionError(f"family {family} code at m = {ctx.m} is rank deficient")
    if not distinct_nonzero_columns(ctx):
        raise AssertionError(f"family {family} code at m = {ctx.m} has a zero or repeated column")
    histogram = {n - 2 * w: count for w, count in wd.items() if w}
    dim, values = 2 * ctx.m, len(histogram)
    reports = []
    for include_zero in zero_flags:
        _check_power_cost(s, n + include_zero, dim, values, f"{values} values of t")
        reports.append(_report(family, ctx.m, "code-column", dim, n, include_zero, histogram, s))
    return reports


def sum_set_witness(omega: OmegaSet, s: int) -> tuple[int, int] | None:
    """Two vectors of one class whose s-fold counts differ, or None.

    The pair is the class's least vector and the first vector whose count
    differs from it, the nonzero members tried first, then the nonzero
    non-members; read off `representation_counts`.
    """
    counts = representation_counts(omega, s)
    outside = (h for h in range(1, len(counts)) if h not in omega.vectors)
    for vectors in (iter(sorted(omega.vectors)), outside):
        first = next(vectors, None)
        for v in vectors:
            if counts[v] != counts[first]:
                return first, v
    return None
