"""Code-level verdicts: dual counts, projectivity, Griesmer class, minimality.

Everything is exact.  The first two dual weight counts are solved from the
first two power moments with rational arithmetic, so a distribution that is
not consistent with any binary linear code is rejected rather than rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .codes import (
    BinaryLinearCode,
    Spectrum,
    WeightDistribution,
    code_spectrum,
    enumerate_defining_set,
    generator_matrix,
    minimum_distance,
)
from .field import GF2m
from .walsh import TooLargeError, walsh_hadamard

BRUTE_MINIMAL_MAX_DIM = 14


class DualCounts(NamedTuple):
    weight1: int
    weight2: int


def pless_dual_counts(wd: WeightDistribution, n: int, k: int, q: int = 2) -> DualCounts:
    """Numbers of dual words of weight 1 and 2, from the first two power moments.

    Solves the two Pless identities exactly; a non-integral or negative
    solution means the distribution is not that of an [n, k] code over F_q.
    """
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
    return DualCounts(int(a1), int(a2))


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
    return BinaryLinearCode(n=code.n, k=len(rows), rows=tuple(rows), provenance=None)


def is_projective(code: BinaryLinearCode) -> bool:
    """True iff generator columns are nonzero and pairwise distinct; see `spectrum_projective`."""
    return spectrum_projective(code_spectrum(code))


def spectrum_projective(spectrum: Spectrum) -> bool:
    """N[0] = 0 and all N[c] <= 1: no generator column is zero or repeated.

    Requires full row rank, i.e. N^(u) = n (a zero codeword) at u = 0 only;
    columns of a rank-deficient matrix do not determine the dual distance.
    """
    if spectrum.transform.count(spectrum.n) > 1:
        raise ValueError(f"generator matrix is rank deficient (k={spectrum.k})")
    return spectrum.counts[0] == 0 and max(spectrum.counts) <= 1


def griesmer_length(k: int, d: int, q: int = 2) -> int:
    return sum((d + q**i - 1) // q**i for i in range(k))


def griesmer_classify(n: int, k: int, d: int, q: int = 2) -> str:
    """'optimal', 'almost-optimal', or 'inconclusive' for an [n, k, d]_q code.

    Optimal here means no [n, k, d+1]_q code passes the Griesmer bound;
    almost-optimal means no [n, k, d+2]_q code does.
    """
    if min(n, k, d) < 1:
        raise ValueError("parameters must be positive")
    if griesmer_length(k, d + 1, q) > n:
        return "optimal"
    if griesmer_length(k, d + 2, q) > n:
        return "almost-optimal"
    return "inconclusive"


def ab_minimal(wd: WeightDistribution, q: int = 2) -> bool:
    """Ashikhmin-Barg sufficient condition: wmin/wmax > (q-1)/q, checked in integers."""
    nonzero = [w for w in wd if w > 0]
    if not nonzero:
        raise ValueError("zero code has no nonzero weights")
    return min(nonzero) * q > max(nonzero) * (q - 1)


def minimality_triples(wd: WeightDistribution) -> list[tuple[int, int, int]]:
    """Nonzero weights wi <= wj whose sum wi + wj is also a weight of the code.

    supp(c) strictly inside supp(c') for nonzero c != c' means exactly that
    d = c + c' is nonzero and wt(c') = wt(c) + wt(d), so a code without such
    a triple is minimal.  The ratio condition 2 wmin > wmax rules out every
    triple.
    """
    weights = sorted(w for w, c in wd.items() if w and c)
    present = set(weights)
    return [
        (wi, wj, wi + wj)
        for i, wi in enumerate(weights)
        for wj in weights[i:]
        if wi + wj in present
    ]


def spectrum_minimal(spectrum: Spectrum, wd: WeightDistribution) -> bool:
    """Exact minimality: no nonzero codeword's support strictly contains another's.

    With w(u) the weight of message u's codeword, the code is minimal iff no
    messages u, v have w(u) = wi, w(v) = wj and w(u ^ v) = wi + wj for a
    triple from `minimality_triples`.  Those pairs number
    2^-k * sum over t of A_i^(t) * A_j^(t) * A_{i+j}^(t), where A_w is the
    indicator of the class {u : w(u) = w}; one transform per class in a triple.
    """
    triples = minimality_triples(wd)
    hat: dict[int, list[int]] = {}
    for w in {w for triple in triples for w in triple}:
        value = spectrum.n - 2 * w  # N^(u) on the class
        hat[w] = walsh_hadamard([1 if s == value else 0 for s in spectrum.transform])
    return not any(
        sum(x * y * z for x, y, z in zip(hat[wi], hat[wj], hat[wk])) for wi, wj, wk in triples
    )


def is_minimal(code: BinaryLinearCode) -> bool:
    """Exact minimality from the code's weight spectrum; see `spectrum_minimal`."""
    spectrum = code_spectrum(code)
    return spectrum_minimal(spectrum, spectrum.distribution())


def brute_minimal(code: BinaryLinearCode) -> bool:
    """Exhaustive minimality check: no nonzero codeword's support strictly contains another's.

    The test oracle for `spectrum_minimal`.  Containment between distinct
    binary words forces strictly smaller weight, so only pairs from
    different weight classes are compared; the zero word that a
    rank-deficient matrix gives a nonzero message is skipped.
    """
    if code.k > BRUTE_MINIMAL_MAX_DIM:
        raise TooLargeError(f"dimension {code.k} exceeds brute-force cap {BRUTE_MINIMAL_MAX_DIM}")
    by_weight: dict[int, list[int]] = {}
    word = 0
    for i in range(1, 1 << code.k):
        word ^= code.rows[(i & -i).bit_length() - 1]
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


def closed_form_distribution(family: int, m: int) -> WeightDistribution:
    """Predicted weight distribution of the family's code, including weight 0."""
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
        if m % 2 == 0:
            raise ValueError("family-2 closed form is stated for odd m only")
        return {
            0: 1,
            2 * h * (h // 2 - 1): (h // 2) * (h - 1),
            h * (h - 1): 3 * h * h,
            h * h: (h // 2) * (h + 1) - 1,
        }
    if family == 3:
        return {
            0: 1,
            (h // 2) * (2 * h - 1): 2 * h * (h - 1),
            h * h: 2 * h + h - 1,
            (h // 2) * (2 * h + 1): 2 * h * (h - 1),
            h * (h + 1): h,
        }
    raise ValueError(f"family must be 1, 2 or 3, got {family}")


@dataclass(frozen=True)
class VerificationReport:
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
    notes: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "counts": {str(w): c for w, c in sorted(self.counts.items())},
            "table_match": self.table_match,
            "dual_weight1": self.dual_counts.weight1,
            "dual_weight2": self.dual_counts.weight2,
            "projective": self.projective,
            "griesmer": self.griesmer,
            "ab_minimal": self.ab_minimal,
            "brute_minimal": self.brute_minimal,
            "ok": self.ok,
            "notes": list(self.notes),
        }


def verify(family: int, m: int, poly: int = 0) -> VerificationReport:
    """Build the family's code and check every claimed property exactly.

    One column-count vector and its transform give the weights, the column
    half of projectivity and the exact minimality verdict (`brute_minimal`
    in the report, decided by `spectrum_minimal` at every size).

    ok means: weight distribution matches the applicable closed form, the
    code is projective by both routes, and for m >= 3 the sufficient
    minimality condition wmin/wmax > 1/2 holds and the exact check agrees.
    A minimal code that fails the sufficient condition (family 2, m = 3,
    ratio exactly 1/2) is therefore not ok; both verdicts are reported and a
    note says so.  For family 2 with even m there is no closed form of its
    own; the comparison is against the family-1 table, which is the claimed
    coincidence, and a note records that reading.
    """
    ctx = GF2m(m, poly)
    dset = enumerate_defining_set(ctx, family)
    code = generator_matrix(ctx, dset)
    spectrum = code_spectrum(code)
    wd = spectrum.distribution()
    d = minimum_distance(wd)
    notes: list[str] = []

    if family == 2 and m % 2 == 0:
        expected = closed_form_distribution(1, m)
        notes.append("even m: no closed form for family 2; compared against the family-1 table")
    else:
        expected = closed_form_distribution(family, m)
    table_match = wd == expected

    duals = pless_dual_counts(wd, code.n, code.k)
    projective_cols = spectrum_projective(spectrum)
    projective = projective_cols and duals == (0, 0)
    if projective_cols != (duals == (0, 0)):
        notes.append("column check and dual-count check disagree on projectivity")

    gries = griesmer_classify(code.n, code.k, d)
    abm = ab_minimal(wd)
    minimal = spectrum_minimal(spectrum, wd)

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
        n=code.n,
        k=code.k,
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
