"""Character sums over GF(2^m), by transform, and their closed forms.

Every sum here is an exact integer: summands are (-1)^t with t a trace bit.
The conformance sweep reads every (a, b) from one Walsh-Hadamard transform
per sum of the family's generator columns (`codes.defining_columns`).
Closed forms with a genuinely undetermined sign return both candidates,
and conformance means membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, NamedTuple

from .codes import defining_columns, enumerate_defining_set
from .field import FieldElement, GF2m, trace_table
from .walsh import walsh_hadamard, zero_vector


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

    Tr(a*z) = popcount(a & coords[z]) mod 2, so a sum over pairs (x, y), x != 0,
    is the transform of their column counts (`codes.defining_columns`).  All
    q^2 - q columns are distinct, with nonzero high m bits: the plain sum is
    the transform of their indicator P, a family sum that of 2N - P, N the
    counts of the family's columns (+1 on members, -1 off).
    """
    q = ctx.size
    counts = zero_vector(2 * ctx.m)
    counts[q:] = [1] * (q * q - q)
    if family is not None:
        counts = [-p for p in counts]
        for c in defining_columns(ctx, enumerate_defining_set(ctx, family)):
            counts[c] += 2
    return walsh_hadamard(counts)


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
    q = ctx.size
    tr = trace_table(ctx)
    split = coefficient_sets(ctx).reciprocal_sums
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
    sums = [("plain", char_sum_table(ctx), plain_char_sum_closed)] + [
        (f"family{f}", char_sum_table(ctx, f), partial(family_char_sum_closed, family=f))
        for f in families
    ]
    for a in ctx.elements():
        for b in ctx.elements():
            if a == 0 and b == 0:
                continue
            for name, table, closed_form in sums:
                observed = table[a | b << ctx.m]
                closed = closed_form(ctx, a=a, b=b)
                yield SweepRecord(
                    name, a, b, observed, closed.case, closed.candidates, closed.matches(observed)
                )
