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
histogram.  `counted_sum_sets` makes every verdict from such a histogram.
`check_sum_set` counts it for any `OmegaSet` with one forward transform,
`codes.column_spectrum` of the nonzero members read as columns, and no
inverse.  A family's two sets need no vectors and no transform:
`code_column_counts` reads the histogram of the code-column set, the
distinct nonzero generator columns of a code with n columns, off the
code's weight distribution, t(u) = n - 2 wt(u) (Calderbank-Kantor), and
`paper_column_counts` counts that of the paper-column set from its vote cells.
`representation_counts` gives the full vector of counts by transform.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter
from typing import Iterable, NamedTuple

from .codes import (
    column_spectrum,
    defining_columns,
    distinct_nonzero_columns,
    enumerate_defining_set,
    hyperplane_distribution,
    paper_covers,
    sign_sum_counts,
    slope_form,
)
from .field import GF2m, mul_row, trace_coordinates
from .walsh import TooLargeError, check_dimension, walsh_hadamard

POWER_MAX_BITS = 1 << 28  # guard on the estimated size of the powered spectrum


class _PointSet(NamedTuple):
    ambient_dim: int
    vectors: frozenset[int]
    include_zero: bool


class OmegaSet(_PointSet):
    """A set of K-bit vectors, with zero membership tracked as a flag.

    vectors holds the distinct nonzero members; include_zero says whether
    the zero vector is also a member.
    """

    __slots__ = ()

    def __new__(cls, ambient_dim: int, vectors: Iterable[int], include_zero: bool) -> OmegaSet:
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        check_dimension(ambient_dim)
        if not isinstance(include_zero, bool):  # an int flag would be counted as that many zeros
            raise TypeError(f"include_zero must be a bool, got {include_zero!r}")
        vectors = frozenset(vectors)  # a caller's set could change after the check
        top = 1 << ambient_dim
        for v in vectors:
            if not isinstance(v, int):  # 1.0 would pass the range check
                raise TypeError(f"vector {v!r} is not an int")
            if not 0 < v < top:
                raise ValueError(f"vector {v} outside nonzero {ambient_dim}-bit range")
        return super().__new__(cls, ambient_dim, vectors, include_zero)

    @classmethod
    def _make(cls, iterable: Iterable) -> OmegaSet:  # so that `_replace` validates too
        return cls(*iterable)

    @property
    def size(self) -> int:
        return len(self.vectors) + (1 if self.include_zero else 0)

    def with_zero(self, flag: bool) -> OmegaSet:
        return self if flag == self.include_zero else self._replace(include_zero=flag)


def _check_family(ctx: GF2m, family: int) -> None:
    if family not in (1, 2):
        raise ValueError("point sets are built for families 1 and 2 only")
    if not paper_covers(family, ctx.m):
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
        for x, group in itertools.groupby(dset, key=itemgetter(0)):
            row = mul_row(ctx, ctx.mul(x, x))
            x_part = 0 if family == 1 else coords[x] << m
            raw.update(coords[row[y]] | x_part | coords[y] << (dim - m) for _, y in group)
    return OmegaSet(ambient_dim=dim, vectors=frozenset(raw - {0}), include_zero=0 in raw)


def _check_power_cost(s: int, size: int, dim: int, values: int, basis: str) -> None:
    """Refuse an s whose powers of `values` spectrum entries are estimated above the guard.

    Each |T(u)^s| <= size^s, so each power takes at most s * bit_length(size) bits.
    """
    if not isinstance(s, int):  # 3.0 would pass the range checks
        raise TypeError(f"s must be an int, got {s!r}")
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
    # only the transform is kept, so the count vector is freed before the inverse
    spectrum = column_spectrum(omega.vectors, omega.ambient_dim).transform
    powers = {t: (t + zero) ** s for t in set(spectrum)}  # equal entries share one power
    back = walsh_hadamard([powers[t] for t in spectrum])
    if any(g & ((1 << omega.ambient_dim) - 1) for g in back):
        raise AssertionError("inverse transform did not divide evenly")
    return [g >> omega.ambient_dim for g in back]


class SumSetReport(NamedTuple):
    """Verdict for one (point set, s) pair."""

    include_zero: bool
    set_size: int
    is_sum_set: bool
    sigma_members: int | None
    sigma_outside: int | None
    count_at_zero: int

    def to_json_dict(self) -> dict:
        return {
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
    if not isinstance(s, int):
        raise TypeError(f"s must be an int, got {s!r}")
    if s <= 1 or s % 2 == 0:
        raise ValueError("s must be odd and greater than 1")


def check_sum_set(omega: OmegaSet, s: int) -> SumSetReport:
    """Decide whether the set is an s-sum set over the nonzero vectors.

    s must be odd and greater than 1.  It runs one forward transform, of the
    nonzero members, and no inverse, and decides the histogram of that
    transform over u != 0 as `counted_sum_sets` does.  The power guard counts
    the values of t before the transform: they lie in
    [-|nonzero members|, |nonzero members|] and share one parity, so there
    are at most min(2^K, |nonzero members| + 1) of them.
    """
    _check_odd_power(s)
    members = len(omega.vectors)
    values = min(1 << omega.ambient_dim, members + 1)
    _check_power_cost(s, omega.size, omega.ambient_dim, values, "min(2^K, |set minus 0| + 1)")
    spectrum = column_spectrum(omega.vectors, omega.ambient_dim).transform
    histogram = Counter(itertools.islice(spectrum, 1, None))  # over u != 0
    counted = CountedSet(omega.ambient_dim, members, histogram)
    return _counted_report(counted, s, omega.include_zero)


class CountedSet(NamedTuple):
    """A point set known by counting: its K, its nonzero members and the
    histogram of t over u != 0."""

    dim: int
    members: int
    histogram: dict[int, int]


def code_column_counts(ctx: GF2m, family: int) -> CountedSet:
    """The family's code-column set from the code's weight distribution.

    The set is the code's n generator columns in F_2^(2m).  When they are
    distinct and nonzero and the code has full rank, t(u) = n - 2 wt(u) at
    every u and only u = 0 has weight 0, so the histogram of t over u != 0
    is {n - 2w: A_w} over the nonzero weights w of `hyperplane_distribution`,
    in O(q); AssertionError if either condition fails.
    """
    _check_family(ctx, family)
    n, wd = hyperplane_distribution(ctx, family)
    if wd.get(0) != 1:
        raise AssertionError(f"family {family} code at m = {ctx.m} is rank deficient")
    if not distinct_nonzero_columns(ctx):
        raise AssertionError(f"family {family} code at m = {ctx.m} has a zero or repeated column")
    histogram = {n - 2 * w: count for w, count in wd.items() if w}
    return CountedSet(2 * ctx.m, n, histogram)


def paper_column_counts(ctx: GF2m, family: int) -> CountedSet:
    """The family's paper-column set counted from its vote cells, with no vectors or transform.

    A message, its m-bit parts read as field elements (alpha, beta), or
    (alpha, gamma, beta) for family 2, takes the value
    trace((alpha x^2 + beta) y [+ gamma x]) at the image of pair (x, y).
    `slope_form` must give u_x = a*x = x^2 + 1 and c_x = 0 (family 1) or x
    (family 2), and `distinct_nonzero_columns` must hold, so that distinct
    pairs with y != 0 have distinct nonzero images; AssertionError
    otherwise.  For x not in {0, 1} the sum over the y of x is
    (q/2)([alpha x^2 = beta] + (-1)^trace(c_x) [(alpha + 1) x^2 = beta + 1]):
    x votes in cell (alpha, beta) when either holds, never both.  x = 1 has
    u_x = 0: its sum is q [alpha = beta] for family 1; for family 2 it has no
    y at odd m.  Squaring is a bijection, so every x votes in the two cells
    alpha = beta in {0, 1}; no x in the q cells (0, 1), (1, 0) and
    alpha = beta not in {0, 1}; one x in 4(q - 2) cells and two in
    (q - 2)(q - 3).  The histogram depends only on q:
    - Family 1: every pair (x, 0) maps to zero, so
      t = (q/2) votes + q [alpha = beta] - (q - 1).
    - Family 2: no pair maps to zero.  In an all-vote cell x votes with sign
      (-1)^trace((gamma + beta) x), so t = (q/2)(q [gamma = beta] - 1 -
      (-1)^trace(gamma + beta)).  In the others each of at most two distinct
      x votes with sign (-1)^trace(gamma x) times a constant, so t = (q/2) f
      with f counted over gamma by `sign_sum_counts`.
    """
    _check_family(ctx, family)
    if not distinct_nonzero_columns(ctx):
        raise AssertionError(f"trace coordinates at m = {ctx.m} are not a bijection")
    for x in ctx.units():
        a, c = slope_form(ctx, family, x)
        if (ctx.mul(a, x), c) != (ctx.mul(x, x) ^ 1, x if family == 2 else 0):
            raise AssertionError(f"family {family} membership at m = {ctx.m} is not the paper's")
    q, half = ctx.size, ctx.size >> 1
    cells = {0: q, 1: 4 * (q - 2), 2: (q - 2) * (q - 3)}  # by votes, less the two all-vote cells
    # t at u = 0, the pairs with a nonzero image: q/2 per x not in {0, 1}, less
    # (x, 0) and plus the q - 1 nonzero y of x = 1 for family 1
    members = half * (q - 2) + (family == 1)
    if family == 1:
        # no votes: 1 - q at (0, 1) and (1, 0), 1 at alpha = beta not in {0, 1};
        # two votes: 1; all votes, at alpha = beta = 1 (alpha = beta = 0 is u = 0): members
        histogram = Counter({1 - q: 2, 1 - half: cells[1], members: 1, 1: (q - 2) ** 2})
        return CountedSet(2 * ctx.m, members, histogram)
    # over gamma, each all-vote cell: members once, -q on q/2 - 1, 0 on q/2; less u = 0
    histogram = Counter({members: 1, -q: q - 2, 0: q})
    for votes, count in cells.items():
        for f, patterns in sign_sum_counts(votes, q).items():
            histogram[half * f] += count * patterns
    return CountedSet(3 * ctx.m, members, histogram)


def counted_sum_sets(counted: CountedSet, s: int) -> list[SumSetReport]:
    """The s-sum-set verdicts on a counted set, without zero, then with it.

    s must be odd and greater than 1.  When one class is empty its sigma is
    reported equal to the other's.  The power guard counts the distinct
    values of t.

    With t the transform of the nonzero members and T = t + [0 in set], the
    counts are alpha + beta * [h a nonzero member] + gamma * [h = 0] exactly
    when T(u)^s = beta * t(u) + gamma at every u != 0; then
    alpha = (|set|^s - beta * |nonzero members| - gamma) / 2^K is the count
    outside and alpha + beta the count on members.  When t is constant off
    u = 0 the nonzero members are none or all of them and beta = 0.  The
    count at zero is 2^-K * sum of T(u)^s over the histogram of t.
    """
    _check_odd_power(s)
    return [_counted_report(counted, s, include_zero) for include_zero in (False, True)]


def _counted_report(counted: CountedSet, s: int, include_zero: bool) -> SumSetReport:
    """The verdict of `counted_sum_sets` for one zero flag; s is checked by the caller."""
    dim, members, histogram = counted
    values = len(histogram)
    nonzero = (1 << dim) - 1
    _check_power_cost(s, members + include_zero, dim, values, f"{values} values of t")
    zero = int(include_zero)
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
        include_zero=include_zero,
        set_size=members + zero,
        is_sum_set=line is not None,
        sigma_members=sigma_in,
        sigma_outside=sigma_out,
        count_at_zero=at_zero >> dim,
    )


COUNTED_VARIANTS = {"paper-column": paper_column_counts, "code-column": code_column_counts}
VARIANTS = tuple(COUNTED_VARIANTS)
