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
no inverse.  A family's two sets need no vectors and no transform:
`code_column_counts` reads the histogram of the code-column set, the
distinct nonzero generator columns of a code with n columns, off the
code's weight distribution, t(u) = n - 2 wt(u) (Calderbank-Kantor), and
`paper_column_counts` counts that of the paper-column set per x.
`representation_counts` gives the full vector of counts by transform.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .codes import (
    defining_columns,
    distinct_nonzero_columns,
    enumerate_defining_set,
    hyperplane_distribution,
    paper_covers,
    slope_form,
)
from .field import GF2m, mul_row, trace_coordinates
from .walsh import TooLargeError, check_dimension, walsh_hadamard, zero_vector

POWER_MAX_BITS = 1 << 28  # guard on the estimated size of the powered spectrum


class _PointSet(NamedTuple):
    ambient_dim: int
    vectors: frozenset[int]
    include_zero: bool


def _check_zero_flag(include_zero: bool) -> None:
    if not isinstance(include_zero, bool):  # an int flag would be counted as that many zeros
        raise TypeError(f"include_zero must be a bool, got {include_zero!r}")


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
        _check_zero_flag(include_zero)
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


def _nonzero_spectrum(omega: OmegaSet) -> list[int]:
    """Transform of the nonzero members' indicator.

    With zero included the set's transform is this plus 1 at every u.
    """
    indicator = zero_vector(omega.ambient_dim)
    for v in omega.vectors:
        indicator[v] = 1
    return walsh_hadamard(indicator)


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
    spectrum = _nonzero_spectrum(omega)
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
    transform over u != 0 with `counted_sum_sets`.  The power guard counts
    the values of t before the transform: they lie in
    [-|nonzero members|, |nonzero members|] and share one parity, so there
    are at most min(2^K, |nonzero members| + 1) of them.
    """
    _check_odd_power(s)
    members = len(omega.vectors)
    values = min(1 << omega.ambient_dim, members + 1)
    _check_power_cost(s, omega.size, omega.ambient_dim, values, "min(2^K, |set minus 0| + 1)")
    histogram = Counter(itertools.islice(_nonzero_spectrum(omega), 1, None))  # over u != 0
    counted = CountedSet(omega.ambient_dim, members, omega.include_zero, histogram)
    return counted_sum_sets(counted, s, (omega.include_zero,))[0]


class CountedSet(NamedTuple):
    """A point set known by counting: its K, its nonzero members, whether zero
    is a member as built, and the histogram of t over u != 0."""

    dim: int
    members: int
    zero_as_built: bool
    histogram: dict[int, int]


def code_column_counts(ctx: GF2m, family: int) -> CountedSet:
    """The family's code-column set from the code's weight distribution.

    The set is the code's n generator columns in F_2^(2m), with zero not a
    member as built.  When they are distinct and nonzero and the code has
    full rank, t(u) = n - 2 wt(u) at every u and only u = 0 has weight 0, so
    the histogram of t over u != 0 is {n - 2w: A_w} over the nonzero
    weights w of `hyperplane_distribution`, in O(q); AssertionError if
    either condition fails.
    """
    _check_family(ctx, family)
    n, wd = hyperplane_distribution(ctx, family)
    if wd.get(0) != 1:
        raise AssertionError(f"family {family} code at m = {ctx.m} is rank deficient")
    if not distinct_nonzero_columns(ctx):
        raise AssertionError(f"family {family} code at m = {ctx.m} has a zero or repeated column")
    histogram = {n - 2 * w: count for w, count in wd.items() if w}
    return CountedSet(2 * ctx.m, n, False, histogram)


def paper_column_counts(ctx: GF2m, family: int) -> CountedSet:
    """The family's paper-column set counted per x, with no vectors and no transform.

    A message, its m-bit parts read as field elements (alpha, beta), or
    (alpha, gamma, beta) for family 2, takes the value
    trace((alpha x^2 + beta) y [+ gamma x]) at the image of pair (x, y).
    `slope_form` must give u_x = a*x = x^2 + 1 and c_x = 0 (family 1) or x
    (family 2), and `distinct_nonzero_columns` must hold, so that distinct
    pairs with y != 0 have distinct nonzero images; AssertionError
    otherwise.  For x not in {0, 1} the sum over the y of x is
    (q/2)([alpha x^2 = beta] + (-1)^trace(c_x) [alpha x^2 + u_x = beta]):
    x votes for two betas.  x = 1 has u_x = 0: its sum is q [alpha = beta]
    for family 1; for family 2 it has no y at odd m.
    - Family 1: every pair (x, 0) maps to zero, a member as built, so
      t = (q/2) votes + q [alpha = beta] - (q - 1).
    - Family 2: no pair maps to zero.  At alpha = beta in {0, 1} every x
      votes, with sign trace(beta x), so t = (q/2)(q [gamma = beta] - 1 -
      (-1)^trace(gamma + beta)).  Elsewhere at most two distinct x vote,
      and over gamma their signs take each pattern q / 2^votes times.
    Squaring is a bijection, so for alpha not in {0, 1} the votes depend on
    beta only through beta in {0, 1, alpha}: that histogram is counted once,
    at alpha = 2, and weighted q - 2.  O(q) in all.
    """
    _check_family(ctx, family)
    if not distinct_nonzero_columns(ctx):
        raise AssertionError(f"trace coordinates at m = {ctx.m} are not a bijection")
    q, half = ctx.size, ctx.size >> 1
    squares = {}  # u_x = x^2 + 1 -> x^2, for the x not in {0, 1}
    for x in ctx.units():
        a, c = slope_form(ctx, family, x)
        u, xx = ctx.mul(a, x), ctx.mul(x, x)
        if (u, c) != (xx ^ 1, x if family == 2 else 0):
            raise AssertionError(f"family {family} membership at m = {ctx.m} is not the paper's")
        squares[u] = xx
    del squares[0]
    patterns = [{half * (votes - 2 * j): comb(votes, j) * q >> votes for j in range(votes + 1)}
                for votes in range(3)]
    flat = {half * (q - 2): 1, -q: half - 1, 0: half}  # t over gamma where every x votes
    histogram: Counter[int] = Counter()
    for alpha, copies in ((0, 1), (1, 1), (2, q - 2)):
        row = mul_row(ctx, alpha)
        votes = Counter(row[xx] ^ b for u, xx in squares.items() for b in (0, u))
        for beta in ctx.elements():
            if family == 1:
                values = {half * votes[beta] + q * (alpha == beta) - q + 1: 1}
            else:
                values = flat if alpha == beta < 2 else patterns[votes[beta]]
            for t, count in values.items():
                histogram[t] += count * copies
    # t at u = 0, the pairs with a nonzero image: q/2 per x not in {0, 1}, less
    # (x, 0) and plus the q - 1 nonzero y of x = 1 for family 1
    members = half * (q - 2) + (family == 1)
    histogram[members] -= 1
    dim = 2 * ctx.m if family == 1 else 3 * ctx.m
    return CountedSet(dim, members, family == 1, +histogram)


def counted_sum_sets(
    counted: CountedSet, s: int, zero_flags: Sequence[bool] = (False, True)
) -> list[SumSetReport]:
    """The s-sum-set verdict on a counted set, once per zero flag.

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
    dim, members, _, histogram = counted
    values = len(histogram)
    nonzero = (1 << dim) - 1
    reports = []
    for include_zero in zero_flags:
        _check_zero_flag(include_zero)
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
        reports.append(
            SumSetReport(
                include_zero=include_zero,
                set_size=members + zero,
                is_sum_set=line is not None,
                sigma_members=sigma_in,
                sigma_outside=sigma_out,
                count_at_zero=at_zero >> dim,
            )
        )
    return reports


COUNTED_VARIANTS = {"paper-column": paper_column_counts, "code-column": code_column_counts}
VARIANTS = tuple(COUNTED_VARIANTS)
