"""Code-level verdicts: dual counts, projectivity, Griesmer class, minimality.

Everything is exact.  The first two dual weight counts are the first two
moments of the spectrum values t = n - 2w over the 2^k messages: the sum of
t is 2^k times the number of zero columns, and the sum of t^2 is 2^k times
the number of ordered pairs of equal columns.  Both are solved in integers,
so a distribution that is not consistent with any binary linear code is
rejected rather than rounded.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .codes import (
    BinaryLinearCode,
    WeightDistribution,
    check_distribution,
    check_family,
    column_spectrum,
    distinct_nonzero_columns,
    enumerate_defining_set,
    generator_columns,
    generator_matrix,
    hyperplane_distribution,
    minimum_distance,
    paper_covers,
    spectrum_distribution,
)
from .field import GF2m, check_ints
from .walsh import walsh_hadamard

class DualCounts(NamedTuple):
    weight1: int
    weight2: int


def pless_dual_counts(wd: WeightDistribution, n: int, k: int) -> DualCounts:
    """Numbers of dual words of weight 1 and 2, from the first two moments of t = n - 2w.

    Each generator column c adds (-1)^(u.c) to the t of message u, so over
    the 2^k messages sum t = 2^k A1 (the zero columns) and
    sum t^2 = 2^k (n + 2 A2) (the pairs i < j of equal columns): these are
    the first two binary Pless identities.  A non-integral or negative
    solution means the distribution is not that of a binary [n, k] code.
    """
    check_ints(n=n, k=k)
    check_distribution(wd)
    for w, c in wd.items():  # a weight above n or a negative count can still solve to counts
        if not 0 <= w <= n or c < 0:
            raise ValueError(f"weight {w} with count {c}: weights lie in 0..{n}, counts are not negative")
    total = sum(wd.values())
    if total != 1 << k:
        raise ValueError(f"distribution sums to {total}, expected {1 << k}")
    s1 = sum((n - 2 * w) * c for w, c in wd.items())
    s2 = sum((n - 2 * w) ** 2 * c for w, c in wd.items())
    return DualCounts(
        _solved_count("weight-1", s1, 1 << k), _solved_count("weight-2", s2 - (n << k), 2 << k)
    )


def _solved_count(name: str, numerator: int, denominator: int) -> int:
    """numerator / denominator (> 0) as a count, or ValueError naming the reduced fraction."""
    count, rest = divmod(numerator, denominator)
    if rest or count < 0:
        g = gcd(numerator, denominator)
        shown = str(numerator // g) + ("" if g == denominator else f"/{denominator // g}")
        raise ValueError(f"inconsistent distribution: {name} dual count solves to {shown}")
    return count


def is_projective(code: BinaryLinearCode) -> bool:
    """True iff generator columns are nonzero and pairwise distinct.

    Requires full row rank, i.e. N^(u) = n (a zero codeword) at u = 0 only;
    columns of a rank-deficient matrix do not determine the dual distance.
    """
    columns = generator_columns(code)
    if column_spectrum(columns, code.k).count(code.n) > 1:
        raise ValueError(f"generator matrix is rank deficient (k={code.k})")
    return 0 not in columns and len(set(columns)) == code.n


def griesmer_length(k: int, d: int) -> int:
    """Least n the Griesmer bound allows a binary [n, k, d] code: sum over i < k of ceil(d / 2^i)."""
    # for d >= 1 the terms from i = bit_length(d - 1) on are all 1: count them, do not sum them
    ones = max(0, k - (d - 1).bit_length()) if d > 0 else 0
    return sum((d + (1 << i) - 1) >> i for i in range(k - ones)) + ones


def griesmer_classify(n: int, k: int, d: int) -> str:
    """'optimal', 'almost-optimal', or 'inconclusive' for a binary [n, k, d] code.

    Optimal here means no binary [n, k, d+1] code passes the Griesmer bound;
    almost-optimal means no [n, k, d+2] code does.
    """
    check_ints(n=n, k=k, d=d)
    if min(k, d) < 1 or n < griesmer_length(k, d):  # n < 1 fails the second test
        raise ValueError(f"no binary [{n}, {k}, {d}] code: k and d must be positive, n at least g(k, d)")
    if griesmer_length(k, d + 1) > n:
        return "optimal"
    if griesmer_length(k, d + 2) > n:
        return "almost-optimal"
    return "inconclusive"


def ab_minimal(wd: WeightDistribution) -> bool:
    """Ashikhmin-Barg sufficient condition for a binary code: 2 wmin > wmax."""
    check_distribution(wd)
    nonzero = [w for w in wd if w > 0]
    if not nonzero:
        raise ValueError("zero code has no nonzero weights")
    return 2 * min(nonzero) > max(nonzero)


def minimality_triples(wd: WeightDistribution) -> list[tuple[int, int, int]]:
    """Nonzero weights wi <= wj whose sum wi + wj is also a weight of the code.

    supp(c) strictly inside supp(c') for nonzero c != c' means exactly that
    d = c + c' is nonzero and wt(c') = wt(c) + wt(d), so a code without such
    a triple is minimal.  The ratio condition 2 wmin > wmax rules out every
    triple.
    """
    check_distribution(wd)
    weights = sorted(w for w, c in wd.items() if w and c)
    present = set(weights)
    return [
        (wi, wj, wi + wj)
        for i, wi in enumerate(weights)
        for wj in weights[i:]
        if wi + wj in present
    ]


def is_minimal(code: BinaryLinearCode) -> bool:
    """Exact minimality: no nonzero codeword's support strictly contains another's.

    With w(u) the weight of message u's codeword, the code is minimal iff no
    messages u, v have w(u) = wi, w(v) = wj and w(u ^ v) = wi + wj for a
    triple from `minimality_triples`.  Those pairs number
    2^-k * sum over t of A_i^(t) * A_j^(t) * A_{i+j}^(t), where A_w is the
    indicator of the class {u : w(u) = w}; one transform per class in a triple,
    after the one transform of the code's column counts.
    """
    t = column_spectrum(generator_columns(code), code.k)
    triples = minimality_triples(spectrum_distribution(t))
    hat: dict[int, list[int]] = {}
    for w in {w for triple in triples for w in triple}:
        value = code.n - 2 * w  # N^(u) on the class
        hat[w] = walsh_hadamard([1 if s == value else 0 for s in t])
    return not any(
        sum(x * y * z for x, y, z in zip(hat[wi], hat[wj], hat[wk])) for wi, wj, wk in triples
    )


def closed_form_distribution(family: int, m: int) -> WeightDistribution:
    """Predicted weight distribution of the family's code, including weight 0."""
    check_ints(m=m)
    check_family(family, m)
    if m < 2:
        raise ValueError("m must be at least 2")
    h = 1 << (m - 1)  # 2^(m-1)
    if family == 1:
        return {
            0: 1,
            h * (h - 1): (h // 2) * (h - 1),
            h * h: 3 * h * h - 1,
            h * (h + 1): (h // 2) * (h + 1),
        }
    if family == 2:
        return {
            0: 1,
            2 * h * (h // 2 - 1): (h // 2) * (h - 1),
            h * (h - 1): 3 * h * h,
            h * h: (h // 2) * (h + 1) - 1,
        }
    return {
        0: 1,
        (h // 2) * (2 * h - 1): 2 * h * (h - 1),
        h * h: 2 * h + h - 1,
        (h // 2) * (2 * h + 1): 2 * h * (h - 1),
        h * (h + 1): h,
    }


class VerificationReport(NamedTuple):
    """Every per-code verdict, plus an overall ok flag over the claimed properties."""

    family: int
    m: int
    n: int
    k: int
    d: int
    counts: WeightDistribution
    table_match: bool
    dual_counts: DualCounts
    projective: bool
    griesmer: str
    ab_minimal: bool
    brute_minimal: bool
    ok: bool
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """The fields by name, dual_counts split in two and weights as string keys."""
        row = self._asdict()
        row["dual_weight1"], row["dual_weight2"] = row.pop("dual_counts")
        row.update(counts={str(w): c for w, c in sorted(self.counts.items())}, notes=list(self.notes))
        return row


def verify(family: int, m: int, poly: int = 0) -> VerificationReport:
    """Build the family's code and check every claimed property exactly.

    The weights come from the character-sum counts
    (`hyperplane_distribution`, O(q); no generator rows or column vector):
    full rank iff only message 0 has weight 0, dual counts by Pless, and the
    column half of projectivity from the injectivity of `trace_coordinates`.
    The exact minimality verdict (`brute_minimal` in the report) is true
    when `minimality_triples` finds no triple (every family code at m >= 4);
    otherwise `is_minimal` decides it from the generator matrix, under the
    transform guard.

    ok means: weight distribution matches the applicable closed form, the
    code is projective by both routes, and for m >= 3 the sufficient
    minimality condition wmin/wmax > 1/2 holds and the exact check agrees.
    A minimal code that fails the sufficient condition (family 2, m = 3,
    ratio exactly 1/2) is therefore not ok; both verdicts are reported and a
    note says so.  For family 2 with even m there is no closed form of its
    own; the comparison is against the family-1 table, which is the claimed
    coincidence, and a note records that reading.
    """
    check_family(family)
    ctx = GF2m(m, poly)
    n, wd = hyperplane_distribution(ctx, family)
    k = 2 * m
    if wd.get(0) != 1:
        raise ValueError(f"generator matrix is rank deficient (k={k})")
    d = minimum_distance(wd)
    notes: list[str] = []

    if not paper_covers(family, m):
        expected = closed_form_distribution(1, m)
        notes.append("even m: no closed form for family 2; compared against the family-1 table")
    else:
        expected = closed_form_distribution(family, m)
    table_match = wd == expected

    duals = pless_dual_counts(wd, n, k)
    projective_cols = distinct_nonzero_columns(ctx)
    projective = projective_cols and duals == (0, 0)
    if projective_cols != (duals == (0, 0)):
        notes.append("column check and dual-count check disagree on projectivity")

    gries = griesmer_classify(n, k, d)
    abm = ab_minimal(wd)
    minimal = True
    if minimality_triples(wd):
        minimal = is_minimal(generator_matrix(ctx, enumerate_defining_set(ctx, family)))

    minimal_ok = True
    if m >= 3:
        minimal_ok = abm and minimal
        if not abm:
            notes.append("sufficient minimality condition fails although claimed for m >= 3")
            if minimal:
                notes.append("exhaustive check still confirms minimality")
    ok = table_match and projective and minimal_ok

    return VerificationReport(
        family=family,
        m=m,
        n=n,
        k=k,
        d=d,
        counts=wd,
        table_match=table_match,
        dual_counts=duals,
        projective=projective,
        griesmer=gries,
        ab_minimal=abm,
        brute_minimal=minimal,
        ok=ok,
        notes=tuple(notes),
    )
