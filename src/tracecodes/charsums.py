"""Character sums over GF(2^m), one a at a time, and their closed forms.

Every sum here is an exact integer: summands are (-1)^t with t a trace bit.
For fixed x the sum over y of (-1)^trace((u + a*x)*y) is q at the one a with
a*x = u and 0 at every other a, so the observed row of a sum at a, over b,
is q * sum over x in R_a of (-1)^(trace(c) + trace(b*x)), with R_a the
units that `codes.slope_classes` groups at a.  The closed form at a depends
on b only through [b = 0] and one trace bit trace(ell*b) (`case_rule`).
For families 1 and 2 it splits on whether a != 0 is in the reciprocal-sum
set {r + 1/r}, that is whether z^2 + a*z + 1 has a root: z = a*w gives
w^2 + w = a^-2, which has one exactly when trace(a^-2) = trace(1/a) = 0
(Lidl-Niederreiter, Finite Fields, Thm 2.25), so the split reads no slope
of `codes`.
Closed forms with a genuinely undetermined sign return both candidates,
and conformance means membership.
"""

from __future__ import annotations

from operator import add
from typing import Iterator, NamedTuple

from .codes import FAMILIES, check_family, paper_covers, slope_classes
from .field import FieldElement, GF2m, check_ints, mul_row, trace_table, unit_inverses


class CharSumValue(NamedTuple):
    """Closed-form value of a character sum: one candidate, or a sign-ambiguous pair."""

    candidates: tuple[int, ...]
    case: str

    @property
    def ambiguous(self) -> bool:
        return len(self.candidates) > 1

    @property
    def value(self) -> int:
        if self.ambiguous:
            raise ValueError(f"case {self.case!r} only constrains the value to {self.candidates}")
        return self.candidates[0]

    def matches(self, observed: int) -> bool:
        return observed in self.candidates


class CaseRule(NamedTuple):
    """Closed form of one sum at one a, for every b with (a, b) != (0, 0).

    The value at b is by_bit[trace(ell*b)], except at b = 0 where at_zero
    is given; ell = 0 when the value does not depend on b.
    """

    ell: FieldElement
    by_bit: tuple[CharSumValue, CharSumValue]
    at_zero: CharSumValue | None = None

    @property
    def values(self) -> tuple[CharSumValue, ...]:
        """by_bit, then at_zero if the rule has one: the values `picks` indexes."""
        return self.by_bit if self.at_zero is None else self.by_bit + (self.at_zero,)

    def picks(self, ctx: GF2m) -> list[int]:
        """Index into `values` of the closed form at each b, in O(q)."""
        tr = trace_table(ctx)
        picks = [tr[z] for z in mul_row(ctx, self.ell)]
        if self.at_zero is not None:
            picks[0] = 2
        return picks

    def value(self, ctx: GF2m, b: FieldElement) -> CharSumValue:
        if b == 0 and self.at_zero is not None:
            return self.at_zero
        return self.by_bit[trace_table(ctx)[ctx.mul(self.ell, b)]]


def _constant(value: CharSumValue) -> CaseRule:
    return CaseRule(0, (value, value))


def case_rule(ctx: GF2m, family: int | None, a: FieldElement) -> CaseRule:
    """The case table of the plain sum (family None) or a family sum at a.

    ell is 1 at a = 0, a for families 1 and 2 at a in the reciprocal-sum
    set, the units with trace(1/a) = 0, and a + 1 for family 3 at a unit
    a != 1; every other rule is constant in b.  Family 2 reads
    trace(a*(b + 1)) = trace(a*b) + trace(a), so trace(a) orders its two
    values; it requires odd m.
    """
    q = ctx.size
    if family is None:
        return _constant(CharSumValue((-q,), "a=0, b!=0") if a == 0 else CharSumValue((0,), "a!=0"))
    check_family(family, ctx.m)
    if a == 0:
        s = -q if family == 2 else q
        return CaseRule(
            1, (CharSumValue((s,), "a=0, trace(b)=0"), CharSumValue((-s,), "a=0, trace(b)=1"))
        )
    if family == 3:
        if a == 1:
            return _constant(CharSumValue((0,), "a=1"))
        return CaseRule(
            a ^ 1,
            (
                CharSumValue((q,), "a unit !=1, trace((a+1)*b)=0"),
                CharSumValue((-q,), "a unit !=1, trace((a+1)*b)=1"),
            ),
        )
    if trace_table(ctx)[unit_inverses(ctx)[a]]:
        return _constant(CharSumValue((0,), "a outside reciprocal-sum set"))
    if family == 1:
        return CaseRule(
            a,
            (
                CharSumValue((-2 * q, 2 * q), "a in reciprocal-sum set, trace(a*b)=0"),
                CharSumValue((0,), "a in reciprocal-sum set, trace(a*b)=1"),
            ),
            CharSumValue((2 * q,), "a in reciprocal-sum set, b=0"),
        )
    by_bit = (
        CharSumValue((-2 * q, 2 * q), "a in reciprocal-sum set, trace(a*(b+1))=0"),
        CharSumValue((0,), "a in reciprocal-sum set, trace(a*(b+1))=1"),
    )
    return CaseRule(a, by_bit[::-1] if trace_table(ctx)[a] else by_bit)


def _require_nonzero_pair(ctx: GF2m, a: FieldElement, b: FieldElement) -> None:
    check_ints(a=a, b=b)
    if not (0 <= a < ctx.size and 0 <= b < ctx.size):
        raise ValueError(f"(a, b) = ({a}, {b}) is not a pair of elements of GF(2^{ctx.m})")
    if a == 0 and b == 0:
        raise ValueError("closed form is stated for (a, b) != (0, 0)")


def plain_char_sum_closed(ctx: GF2m, a: FieldElement, b: FieldElement) -> CharSumValue:
    _require_nonzero_pair(ctx, a, b)
    return case_rule(ctx, None, a).value(ctx, b)


def family_char_sum_closed(ctx: GF2m, family: int, a: FieldElement, b: FieldElement) -> CharSumValue:
    """Case table for the family sum; family 2 requires odd m."""
    if family is None:  # `case_rule` reads None as the plain sum
        raise ValueError(f"family must be one of {FAMILIES}, got None")
    _require_nonzero_pair(ctx, a, b)
    return case_rule(ctx, family, a).value(ctx, b)


def _observed_row(ctx: GF2m, members: list[tuple[FieldElement, int]]) -> list[int]:
    """q * sum over (x, t) in members of (-1)^(t + trace(b*x)), for every b."""
    q, tr = ctx.size, trace_table(ctx)
    row = [0] * q
    for x, t in members:
        sign = -q if t else q
        row = list(map(add, row, [-sign if tr[bx] else sign for bx in mul_row(ctx, x)]))
    return row


def conformance_rows(ctx: GF2m) -> Iterator[tuple[FieldElement, list[tuple]]]:
    """Each a in order, with a (name, observed, values, picks, matches) row per sum.

    The rows are of the plain sum and of each in-scope family sum: the
    family-2 closed form is only defined for odd m and is skipped for even
    m.  matches[b] says whether observed[b] is a candidate of
    values[picks[b]].  Every unit x is in R_0 for the plain sum.  Each list
    has q entries, so no vector over the pairs (a, b) is built.
    """
    families = [f for f in FAMILIES if paper_covers(f, ctx.m)]
    sums = [("plain", None, {0: [(x, 0) for x in ctx.units()]})] + [
        (f"family{f}", f, slope_classes(ctx, f)) for f in families
    ]
    for a in ctx.elements():
        rows = []
        for name, family, classes in sums:
            rule = case_rule(ctx, family, a)
            observed, picks = _observed_row(ctx, classes.get(a, [])), rule.picks(ctx)
            matches = [rule.values[p].matches(o) for o, p in zip(observed, picks)]
            rows.append((name, observed, rule.values, picks, matches))
        yield a, rows


class SweepRecord(NamedTuple):
    """One (sum, a, b) conformance check: oracle value vs closed-form case."""

    sum_name: str
    a: int
    b: int
    oracle: int
    case: str
    candidates: tuple[int, ...]
    match: bool


def conformance_sweep(ctx: GF2m) -> Iterator[SweepRecord]:
    """Audit every (a, b) != (0, 0) for the plain sum and each in-scope family sum.

    Records come in (a, b) order, the plain sum first, then the families in
    order; each is one entry of `conformance_rows`.
    """
    for a, rows in conformance_rows(ctx):
        for b in range(0 if a else 1, ctx.size):
            for name, observed, values, picks, matches in rows:
                closed = values[picks[b]]
                yield SweepRecord(name, a, b, observed[b], closed.case, closed.candidates, matches[b])
