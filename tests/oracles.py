"""Brute-force oracles the tests pin the package's exact routes to, and shared helpers.

Each oracle recomputes a result by direct enumeration, with no
Walsh-Hadamard transform, so it is independent of the route it checks.
None of them is used by the package itself.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from operator import add, itemgetter
from typing import Iterator, Sequence

from tracecodes.codes import (
    BinaryLinearCode,
    DefiningSet,
    Spectrum,
    WeightDistribution,
    column_spectrum,
    defining_columns,
    enumerate_defining_set,
    generator_matrix,
)
from tracecodes.charsums import family_char_sum_closed, plain_char_sum_closed
from tracecodes.field import FieldElement, GF2m, is_irreducible, mul_row, trace_table
from tracecodes.sumsets import OmegaSet, SumSetReport
from tracecodes.walsh import TooLargeError, zero_vector

BRUTE_MINIMAL_MAX_DIM = 14


def irreducibles(m: int) -> list[int]:
    """Every irreducible polynomial of degree m, in integer order."""
    return [p for p in range(1 << m, 1 << (m + 1)) if is_irreducible(p)]


def largest_irreducible(m: int) -> int:
    return irreducibles(m)[-1]


def family_code(family: int, m: int, poly: int = 0) -> BinaryLinearCode:
    ctx = GF2m(m, poly)
    return generator_matrix(ctx, enumerate_defining_set(ctx, family))


def family_spectrum(ctx: GF2m, family: int) -> Spectrum:
    """The transform of the defining set's column counts, the oracle behind
    `hyperplane_distribution`."""
    return column_spectrum(defining_columns(ctx, enumerate_defining_set(ctx, family)), 2 * ctx.m)


def paper_form(ctx: GF2m, family: int, x: FieldElement) -> tuple[FieldElement, FieldElement]:
    """The paper's (u, c): (x, y) is in the family's defining set iff trace(u*y + c) = 0.

    u = x^2 + 1 for families 1 and 2 and x^2 + x for family 3; c = x for
    family 2 and 0 otherwise.  The oracle of `codes.slope_form`.
    """
    xx = ctx.mul(x, x)
    if family == 1:
        return xx ^ 1, 0
    if family == 2:
        return xx ^ 1, x
    if family == 3:
        return xx ^ x, 0
    raise ValueError(f"family must be 1, 2 or 3, got {family}")


def membership_element(ctx: GF2m, family: int, x: FieldElement, y: FieldElement) -> FieldElement:
    """The field element whose trace decides membership of (x, y), from `paper_form`."""
    u, c = paper_form(ctx, family, x)
    return ctx.mul(u, y) ^ c


def codeword(ctx: GF2m, dset: DefiningSet, a: FieldElement, b: FieldElement) -> int:
    """Packed evaluation of trace(a*x*y + b*x) over the defining set."""
    tr = trace_table(ctx)
    row_a, row_b = mul_row(ctx, a), mul_row(ctx, b)
    bits = []
    for x, group in itertools.groupby(dset, key=itemgetter(0)):
        row_ax, bx = mul_row(ctx, row_a[x]), row_b[x]
        bits.extend("01"[tr[row_ax[y] ^ bx]] for _, y in group)
    return int("".join(reversed(bits)) or "0", 2)


def gray_codewords(code: BinaryLinearCode) -> Iterator[int]:
    """The codeword of every message, message 0 first, by Gray-code enumeration.

    Consecutive Gray indices differ in one bit, so each codeword is the
    previous one XOR one row.
    """
    word = 0
    yield word
    for i in range(1, 1 << code.k):
        word ^= code.rows[(i & -i).bit_length() - 1]
        yield word


def gray_weight_distribution(code: BinaryLinearCode) -> dict[int, int]:
    """Weight distribution over all 2^k messages, one codeword at a time."""
    return dict(sorted(Counter(word.bit_count() for word in gray_codewords(code)).items()))


def row_reduce(rows: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """RREF over GF(2) for rows given as bitmasks on n columns.

    Returns (nonzero reduced rows, pivot column indices).
    """
    work = list(rows)
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, len(work)) if (work[i] >> col) & 1), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> col) & 1:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def matrix_rank(rows: Sequence[int], n: int) -> int:
    return len(row_reduce(rows, n)[1])


def dual_code(code: BinaryLinearCode) -> BinaryLinearCode:
    """Basis of the orthogonal complement, via the standard RREF construction."""
    reduced, pivots = row_reduce(code.rows, code.n)
    pivot_set = set(pivots)
    rows = []
    for free in range(code.n):
        if free in pivot_set:
            continue
        v = 1 << free
        for i, p in enumerate(pivots):
            if (reduced[i] >> free) & 1:
                v |= 1 << p
        rows.append(v)
    return BinaryLinearCode(n=code.n, rows=tuple(rows))


@cache  # several tests ask about the same k = 12 codes
def brute_minimal(code: BinaryLinearCode) -> bool:
    """Exhaustive minimality check: no nonzero codeword's support strictly contains another's.

    The oracle for `analysis.is_minimal`.  Containment between
    distinct binary words forces strictly smaller weight, so only pairs
    from different weight classes are compared; the zero word that a
    rank-deficient matrix gives a nonzero message is skipped.
    """
    if code.k > BRUTE_MINIMAL_MAX_DIM:
        raise TooLargeError(f"dimension {code.k} exceeds brute-force cap {BRUTE_MINIMAL_MAX_DIM}")
    by_weight: dict[int, list[int]] = {}
    for word in gray_codewords(code):
        if word:
            by_weight.setdefault(word.bit_count(), []).append(word)
    weights = sorted(by_weight)
    for lo_idx, wlo in enumerate(weights):
        for whi in weights[lo_idx + 1 :]:
            for small in by_weight[wlo]:
                for big in by_weight[whi]:
                    if small & ~big == 0:
                        return False
    return True


def reciprocal_quadratic_roots(ctx: GF2m, a: FieldElement) -> frozenset[int]:
    """Nonzero roots of z^2 + a*z + 1, found by scanning all units.

    Either empty or an inverse pair {r, 1/r} with r + 1/r = a.
    """
    if a == 0:
        raise ValueError("coefficient must be nonzero")
    row_a = mul_row(ctx, a)
    return frozenset(r for r in ctx.units() if ctx.mul(r, r) ^ row_a[r] ^ 1 == 0)


def char_sum(ctx: GF2m, a: FieldElement, b: FieldElement, family: int | None = None) -> int:
    """sum over x != 0, all y of (-1)^(trace(u*y + c) + trace(a*x*y + b*x)).

    (u, c) is the family's `paper_form`, or (0, 0) for the plain sum,
    family None.  By additivity of the trace each
    x needs one row, that of u + a*x.
    """
    tr = trace_table(ctx)
    row_a, row_b = mul_row(ctx, a), mul_row(ctx, b)
    q = ctx.size
    total = 0
    for x in ctx.units():
        u, c = (0, 0) if family is None else paper_form(ctx, family, x)
        shift = c ^ row_b[x]
        total += q - 2 * sum([tr[z ^ shift] for z in mul_row(ctx, u ^ row_a[x])])
    return total


def char_sum_table(ctx: GF2m, family: int | None = None) -> list[int]:
    """S(a, b) at index a | b << m for every (a, b); family None is the plain sum.

    The table oracle, refused beyond the transform guard like any vector
    over F_2^(2m).  For fixed x the sum over y is q at the one a with
    a*x = u and 0 at every other a, so each x adds
    q * (-1)^(trace(c) + trace(b*x)) over b at that a only, found by a
    search of x's multiplication row rather than by `unit_inverses`.
    """
    q, tr = ctx.size, trace_table(ctx)
    table = zero_vector(2 * ctx.m)
    for x in ctx.units():
        u, c = (0, 0) if family is None else paper_form(ctx, family, x)
        row_x = mul_row(ctx, x)
        a = row_x.index(u)
        sign = -q if tr[c] else q
        row = [-sign if tr[bx] else sign for bx in row_x]  # over b
        table[a::q] = map(add, table[a::q], row)
    return table


def charsums_output(ctx: GF2m, fmt: str) -> str:
    """`charsums` stdout at ctx, rendered one record at a time from the table oracle.

    Each (a, b) != (0, 0), in order, has one record per in-scope sum: the
    plain sum, then the families (family 2 at odd m only), its oracle value
    read from `char_sum_table` and its case from `plain_char_sum_closed` or
    `family_char_sum_closed`.
    """
    m = ctx.m
    families = (1, 2, 3) if m % 2 else (1, 3)
    sums = [("plain", char_sum_table(ctx), partial(plain_char_sum_closed, ctx))] + [
        (f"family{f}", char_sum_table(ctx, f), partial(family_char_sum_closed, ctx, f))
        for f in families
    ]
    lines = []
    mismatches = 0
    for a in ctx.elements():
        for b in ctx.elements():
            if a == 0 and b == 0:
                continue
            for name, table, closed_form in sums:
                oracle, closed = table[a | b << m], closed_form(a, b)
                match = oracle in closed.candidates
                mismatches += not match
                record = {
                    "sum": name,
                    "a": a,
                    "b": b,
                    "oracle": oracle,
                    "case": closed.case,
                    "candidates": list(closed.candidates),
                    "match": match,
                }
                if fmt == "json":
                    lines.append(json.dumps(record, sort_keys=True))
                else:
                    lines.append(
                        f"{name} a={a} b={b}: oracle={oracle} [{closed.case}]"
                        f" candidates={record['candidates']} {'ok' if match else 'MISMATCH'}"
                    )
    total = len(lines)
    skipped = [] if m % 2 else ["family2"]
    if fmt == "json":
        summary = {"m": m, "total": total, "mismatches": mismatches, "skipped": skipped}
        lines.append(json.dumps(summary, sort_keys=True))
    else:
        lines.extend(f"{name}: skipped, closed form stated for odd m only" for name in skipped)
        lines.append(f"total {total} cases, {mismatches} mismatches")
    return "\n".join(lines) + "\n"


def pless_dual_counts_by_fractions(
    wd: WeightDistribution, n: int, k: int, q: int = 2
) -> tuple[int, int]:
    """The first two dual weight counts solved from the Pless power moments in
    `Fraction`s; ValueError naming the first non-integral or negative solution."""
    total = sum(wd.values())
    if total != q**k:
        raise ValueError(f"distribution sums to {total}, expected {q**k}")
    s1 = sum(w * c for w, c in wd.items())
    s2 = sum(w * w * c for w, c in wd.items())
    a1 = q * n - n - Fraction(s1) / Fraction(q) ** (k - 1)
    lhs2 = Fraction(s2) / Fraction(q) ** (k - 2)
    a2 = (lhs2 - (q - 1) * n * (q * n - n + 1) + (2 * q * n - q - 2 * n + 2) * a1) / 2
    for name, val in (("weight-1", a1), ("weight-2", a2)):
        if val.denominator != 1 or val < 0:
            raise ValueError(f"inconsistent distribution: {name} dual count solves to {val}")
    return int(a1), int(a2)


def representation_counts_naive(omega: OmegaSet, s: int) -> list[int]:
    """s-fold XOR representation counts by looping over all |set|^s ordered tuples."""
    if s < 1:
        raise ValueError("s must be at least 1")
    members = sorted(omega.vectors) + ([0] if omega.include_zero else [])
    counts = [0] * (1 << omega.ambient_dim)
    for tup in itertools.product(members, repeat=s):
        acc = 0
        for v in tup:
            acc ^= v
        counts[acc] += 1
    return counts


def xor_convolve(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Quadratic-time XOR convolution."""
    if len(f) != len(g):
        raise ValueError("lengths differ")
    out = [0] * len(f)
    for u, fu in enumerate(f):
        if fu:
            for v, gv in enumerate(g):
                if gv:
                    out[u ^ v] += fu * gv
    return out


def representation_counts_by_convolution(omega: OmegaSet, s: int) -> list[int]:
    """Same counts by folding the indicator (the 1-fold count) with XOR convolutions.

    A second oracle, usable where the tuple loop is not.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    counts = indicator = representation_counts_naive(omega, 1)
    for _ in range(s - 1):
        counts = xor_convolve(counts, indicator)
    return counts


def count_classes(omega: OmegaSet, length: int) -> tuple[list[int], list[int]]:
    """The nonzero members and the nonzero non-members, each in ascending order."""
    return sorted(omega.vectors), [h for h in range(1, length) if h not in omega.vectors]


def sum_set_report_from_counts(omega: OmegaSet, counts: Sequence[int]) -> SumSetReport:
    """The s-sum-set verdict read off a full vector of s-fold counts.

    Each class (nonzero members, nonzero non-members) must carry one count,
    and an empty class inherits the other's count.
    """
    classes = count_classes(omega, len(counts))
    sigmas = [counts[vectors[0]] if vectors else None for vectors in classes]
    is_sum_set = all(counts[v] == sigma for vectors, sigma in zip(classes, sigmas) for v in vectors)
    sigma_in, sigma_out = sigmas if is_sum_set else (None, None)
    if sigma_in is None:
        sigma_in = sigma_out
    if sigma_out is None:
        sigma_out = sigma_in
    return SumSetReport(
        include_zero=omega.include_zero,
        set_size=omega.size,
        is_sum_set=is_sum_set,
        sigma_members=sigma_in,
        sigma_outside=sigma_out,
        count_at_zero=counts[0],
    )


def sum_set_witness_from_counts(omega: OmegaSet, counts: Sequence[int]) -> tuple[int, int] | None:
    """A class's least vector and its first vector of another count, members first, or None."""
    for vectors in count_classes(omega, len(counts)):
        differing = [v for v in vectors if counts[v] != counts[vectors[0]]]
        if differing:
            return vectors[0], differing[0]
    return None


def symmetric_three_weight(wd: WeightDistribution, n: int, q: int = 2) -> bool:
    """True iff exactly three nonzero weights, the middle one n(q-1)/q, the outer two averaging it."""
    weights = sorted(w for w in wd if w > 0)
    if len(weights) != 3:
        return False
    w1, w2, w3 = weights
    return w2 * q == n * (q - 1) and (w1 + w3) * q == 2 * n * (q - 1)
