"""Character sums over GF(2^m), one pass over x, and their closed forms.

Every sum here is an exact integer: summands are (-1)^t with t a trace bit.
The conformance sweep reads every (a, b) from one table per sum, built in
one pass over the units x with the family's `codes.membership_form`.
Closed forms with a genuinely undetermined sign return both candidates,
and conformance means membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import add
from typing import Iterator, NamedTuple

from .codes import membership_form
from .field import FieldElement, GF2m, mul_row, trace_table, unit_inverses
from .walsh import zero_vector


@dataclass(frozen=True)
class CharSumValue:
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


class CoefficientSets(NamedTuple):
    """Coefficients for which the two auxiliary quadratics have nonzero roots."""

    reciprocal_sums: frozenset[int]  # a = r + 1/r: z^2 + a*z + 1 has two nonzero roots
    units_except_one: frozenset[int]  # z^2 + (a+1)*z has a nonzero root iff a != 1


@lru_cache(maxsize=None)
def coefficient_sets(ctx: GF2m) -> CoefficientSets:
    recip = frozenset(r ^ ctx.inv(r) for r in ctx.units() if r != 1)
    units = frozenset(a for a in ctx.units() if a != 1)
    return CoefficientSets(reciprocal_sums=recip, units_except_one=units)


def char_sum_table(ctx: GF2m, family: int | None = None) -> list[int]:
    """S(a, b) at index a | b << m for every (a, b); family None is the plain sum.

    S(a, b) sums (-1)^(trace(u*y + c) + trace(a*x*y + b*x)) over x != 0 and
    every y, with (u, c) the family's `membership_form` at x, or (0, 0) for
    the plain sum.  For fixed x the sum over y is q at the one a with a*x = u and 0 at
    every other a, so each x adds q * (-1)^(trace(c) + trace(b*x)) over b at
    a = u*x^-1 only.
    """
    q, tr = ctx.size, trace_table(ctx)
    inverses = unit_inverses(ctx)
    table = zero_vector(2 * ctx.m)
    for x in ctx.units():
        u, c = (0, 0) if family is None else membership_form(ctx, family, x)
        a = ctx.mul(u, inverses[x])
        sign = -q if tr[c] else q
        row = [-sign if tr[bx] else sign for bx in mul_row(ctx, x)]  # over b
        table[a::q] = map(add, table[a::q], row)
    return table


def _require_nonzero_pair(a: FieldElement, b: FieldElement) -> None:
    if a == 0 and b == 0:
        raise ValueError("closed form is stated for (a, b) != (0, 0)")


def plain_char_sum_closed(ctx: GF2m, a: FieldElement, b: FieldElement) -> CharSumValue:
    _require_nonzero_pair(a, b)
    if a == 0:
        return CharSumValue((-ctx.size,), "a=0, b!=0")
    return CharSumValue((0,), "a!=0")


def family_char_sum_closed(ctx: GF2m, family: int, a: FieldElement, b: FieldElement) -> CharSumValue:
    """Case table for the family sum; family 2 requires odd m."""
    _require_nonzero_pair(a, b)
    return _family_case(ctx, family, a, b, trace_table(ctx), coefficient_sets(ctx).reciprocal_sums)


def _family_case(
    ctx: GF2m,
    family: int,
    a: FieldElement,
    b: FieldElement,
    tr: tuple[int, ...],
    split: frozenset[int],
) -> CharSumValue:
    """`family_char_sum_closed` at (a, b) != (0, 0), given the field's trace table and reciprocal sums."""
    q = ctx.size
    if family == 1:
        if a == 0:
            if tr[b]:
                return CharSumValue((-q,), "a=0, trace(b)=1")
            return CharSumValue((q,), "a=0, trace(b)=0")
        if a not in split:
            return CharSumValue((0,), "a outside reciprocal-sum set")
        if b == 0:
            return CharSumValue((2 * q,), "a in reciprocal-sum set, b=0")
        if tr[ctx.mul(a, b)]:
            return CharSumValue((0,), "a in reciprocal-sum set, trace(a*b)=1")
        return CharSumValue((-2 * q, 2 * q), "a in reciprocal-sum set, trace(a*b)=0")
    if family == 2:
        if ctx.m % 2 == 0:
            raise ValueError("family-2 closed form is stated for odd m only")
        if a == 0:
            if tr[b]:
                return CharSumValue((q,), "a=0, trace(b)=1")
            return CharSumValue((-q,), "a=0, trace(b)=0")
        if a not in split:
            return CharSumValue((0,), "a outside reciprocal-sum set")
        if tr[ctx.mul(a, b ^ 1)]:
            return CharSumValue((0,), "a in reciprocal-sum set, trace(a*(b+1))=1")
        return CharSumValue((-2 * q, 2 * q), "a in reciprocal-sum set, trace(a*(b+1))=0")
    if family == 3:
        if a == 1:
            return CharSumValue((0,), "a=1")
        if a == 0:
            if tr[b]:
                return CharSumValue((-q,), "a=0, trace(b)=1")
            return CharSumValue((q,), "a=0, trace(b)=0")
        if tr[ctx.mul(a ^ 1, b)]:
            return CharSumValue((-q,), "a unit !=1, trace((a+1)*b)=1")
        return CharSumValue((q,), "a unit !=1, trace((a+1)*b)=0")
    raise ValueError(f"family must be 1, 2 or 3, got {family}")


@dataclass(frozen=True)
class SweepRecord:
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

    The family-2 closed form is only defined for odd m and is skipped for
    even m; the other three sums cover every m.  Records come in (a, b)
    order, the plain sum first, then the families in order.
    """
    families = (1, 2, 3) if ctx.m % 2 == 1 else (1, 3)
    tr, split = trace_table(ctx), coefficient_sets(ctx).reciprocal_sums  # read once, not per (a, b)
    sums = [("plain", char_sum_table(ctx), partial(plain_char_sum_closed, ctx))] + [
        (f"family{f}", char_sum_table(ctx, f), partial(_family_case, ctx, f, tr=tr, split=split))
        for f in families
    ]
    for a in ctx.elements():
        for b in ctx.elements():
            if a == 0 and b == 0:
                continue
            for name, table, closed_form in sums:
                observed = table[a | b << ctx.m]
                closed = closed_form(a=a, b=b)
                yield SweepRecord(
                    name, a, b, observed, closed.case, closed.candidates, closed.matches(observed)
                )
