"""Dual counts, projectivity, Griesmer class, minimality, closed-form tables."""

from __future__ import annotations

import random
from collections import Counter
from math import comb

import pytest

import tracecodes.analysis as analysis
import tracecodes.codes as codes
import tracecodes.walsh as walsh
from oracles import (
    brute_minimal,
    dual_code,
    family_code,
    gray_codewords,
    largest_irreducible,
    matrix_rank,
    pless_dual_counts_by_fractions,
    row_reduce,
)
from tracecodes import TooLargeError
from tracecodes.analysis import (
    DualCounts,
    ab_minimal,
    closed_form_distribution,
    griesmer_classify,
    griesmer_length,
    is_minimal,
    is_projective,
    minimality_triples,
    pless_dual_counts,
    verify,
)
from tracecodes.codes import (
    BinaryLinearCode,
    enumerate_defining_set,
    generator_columns,
    generator_matrix,
    minimum_distance,
    weight_distribution,
)
from tracecodes.field import GF2m


def test_pless_dual_counts_examples():
    wd = {0: 1, 2: 1, 4: 11, 6: 3}
    assert pless_dual_counts(wd, n=8, k=4) == DualCounts(0, 0)
    assert pless_dual_counts({0: 1, 1: 1}, n=1, k=1) == DualCounts(0, 0)
    wd3 = {0: 1, 14: 24, 16: 11, 18: 24, 20: 4}
    assert pless_dual_counts(wd3, n=32, k=6) == DualCounts(0, 0)


def test_pless_rejects_bad_total():
    with pytest.raises(ValueError):
        pless_dual_counts({0: 1, 2: 2}, n=4, k=2)
    # True passes as 1, and {0: 1, 1: 1} would solve to DualCounts(0, 0)
    for n, k, name in ((True, 1, "n"), (1, True, "k"), (1.0, 1, "n"), (1, 1.0, "k")):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            pless_dual_counts({0: 1, 1: 1}, n, k)
    # a float weight or count solves to float counts, DualCounts(0.0, 0.0)
    for wd, name in (({0: 1, 1.0: 1}, "weight"), ({0: 1, 1: 1.0}, "count"), ({0: 1, True: 1}, "weight")):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            pless_dual_counts(wd, 1, 1)


def test_pless_rejects_inconsistent_distribution():
    # sums to 2^k but solves to a negative weight-1 dual count
    with pytest.raises(ValueError):
        pless_dual_counts({2: 4}, n=2, k=2)
    # fractional solution
    with pytest.raises(ValueError):
        pless_dual_counts({0: 1, 1: 3}, n=1, k=2)
    # each sums to 2^k and solves to counts: DualCounts(2, 2) with A1 > n,
    # DualCounts(0, 2) from a weight above n and DualCounts(4, 1) from a negative count
    for wd, n, k in (({0: 1, -1: 1}, 1, 1), ({0: 2, 1: 1, 3: 1}, 2, 2), ({0: 3, 2: -1}, 2, 1)):
        with pytest.raises(ValueError, match="weights lie in"):
            pless_dual_counts(wd, n, k)


def random_distributions(rng: random.Random, count: int):
    """(wd, n, k): the weights of random binary codes, rank-deficient ones
    included, and random splits of 2^k over a few weights, mostly inconsistent."""
    for _ in range(count):
        k, n = rng.randint(0, 6), rng.randint(0, 12)
        if rng.random() < 0.4:
            rows = tuple(rng.getrandbits(n) for _ in range(k))
            yield weight_distribution(BinaryLinearCode(n=n, rows=rows)), n, k
            continue
        weights = rng.sample(range(n + 1), rng.randint(1, min(4, n + 1)))
        cuts = sorted(rng.randint(0, 1 << k) for _ in weights[1:])
        counts = [b - a for a, b in zip([0] + cuts, cuts + [1 << k])]
        if rng.random() < 0.1:
            counts[0] += 1  # a wrong total
        yield dict(zip(weights, counts)), n, k


def test_pless_dual_counts_match_the_fraction_oracle():
    def outcome(solve, *args):
        try:
            return tuple(solve(*args))
        except ValueError as exc:
            return str(exc)

    cases = [({0: 1, 1: 1}, 1, 1), ({0: 1, 1: 3}, 1, 2), ({2: 4}, 2, 2), ({0: 1}, 3, 0)]
    cases += random_distributions(random.Random(4099), 600)
    seen = set()
    for wd, n, k in cases:
        got = outcome(pless_dual_counts, wd, n, k)
        assert got == outcome(pless_dual_counts_by_fractions, wd, n, k, 2), (wd, n, k)
        seen.add(got if isinstance(got, str) else "solved")
    # solved, both counts refused, fractional and negative, and wrong totals
    kinds = {"solved", "weight-1", "weight-2", "/", "solves to -", "sums to"}
    assert all(any(kind in text for text in seen) for kind in kinds), seen


def test_pless_moment_identities_substitute_back():
    for family, m in ((1, 2), (1, 3), (2, 3), (3, 3)):
        code = family_code(family, m)
        wd = weight_distribution(code)
        n, k, q = code.n, code.k, 2
        a1, a2 = pless_dual_counts(wd, n, k)
        s1 = sum(w * c for w, c in wd.items())
        s2 = sum(w * w * c for w, c in wd.items())
        assert s1 == q ** (k - 1) * (q * n - n - a1)
        assert s2 == q ** (k - 2) * (
            (q - 1) * n * (q * n - n + 1) - (2 * q * n - q - 2 * n + 2) * a1 + 2 * a2
        )


def test_pless_dual_counts_are_the_zero_columns_and_equal_column_pairs():
    # columns drawn from the first r <= k coordinates: rank-deficient when r < k,
    # and zero or repeated columns are common
    rng = random.Random(6007)
    for _ in range(300):
        k, n = rng.randint(0, 6), rng.randint(0, 14)
        r = rng.randint(0, k)
        columns = [rng.getrandbits(r) for _ in range(n)]
        code = BinaryLinearCode(n=n, rows=codes.transpose(columns, k))
        columns = generator_columns(code)
        pairs = sum(comb(c, 2) for c in Counter(columns).values())
        expected = DualCounts(columns.count(0), pairs)
        assert pless_dual_counts(weight_distribution(code), n, k) == expected, (columns, k)


def test_row_reduce_and_rank():
    rows = [0b110, 0b011, 0b101]
    reduced, pivots = row_reduce(rows, 3)
    assert len(reduced) == 2
    assert pivots == [0, 1]
    assert matrix_rank(rows, 3) == 2
    assert matrix_rank([0b11, 0b11], 2) == 1
    assert matrix_rank([], 4) == 0


def test_dual_code_orthogonal_and_complementary():
    for family in (1, 3):
        code = family_code(family, 2)
        dual = dual_code(code)
        assert dual.n == code.n
        assert dual.k == code.n - code.k
        for g in code.rows:
            for h in dual.rows:
                assert (g & h).bit_count() % 2 == 0


def test_dual_distance_at_m2():
    # direct dual enumeration confirms no weight-1 or weight-2 dual words
    for family in (1, 3):
        dual = dual_code(family_code(family, 2))
        dwd = weight_distribution(dual)
        assert minimum_distance(dwd) == 3


def test_dual_of_dual_restores_row_space():
    code = family_code(1, 2)
    back = dual_code(dual_code(code))
    assert set(gray_codewords(back)) == set(gray_codewords(code))


def test_is_projective_families():
    for family, m in ((1, 2), (1, 3), (1, 4), (2, 3), (3, 2), (3, 3), (3, 4)):
        assert is_projective(family_code(family, m))


def test_is_projective_counterexamples():
    repeated = BinaryLinearCode(n=4, rows=(0b1011, 0b1100))
    assert generator_columns(repeated)[0] == generator_columns(repeated)[1]
    assert not is_projective(repeated)
    zero_col = BinaryLinearCode(n=3, rows=(0b110, 0b100))
    assert generator_columns(zero_col)[0] == 0
    assert not is_projective(zero_col)


def test_is_projective_requires_full_rank():
    with pytest.raises(ValueError):
        is_projective(BinaryLinearCode(n=2, rows=(0b11, 0b11)))


def test_griesmer_length_values():
    assert griesmer_length(4, 4) == 8
    assert griesmer_length(4, 5) == 11
    assert griesmer_length(4, 3) == 7
    # the terms equal to 1 are counted, not summed: exact against the direct sum,
    # and k = 10^12 needs no 10^12-bit shifts
    for k in range(60):
        for d in range(600):
            assert griesmer_length(k, d) == sum(-(-d // (1 << i)) for i in range(k)), (k, d)
    assert griesmer_length(10**12, 5) == 10**12 + 7


def test_griesmer_classify():
    assert griesmer_classify(8, 4, 3) == "almost-optimal"
    assert griesmer_classify(8, 4, 4) == "optimal"
    assert griesmer_classify(8, 4, 2) == "inconclusive"
    assert griesmer_classify(7, 3, 4) == "optimal"  # the [7, 3, 4] simplex code meets g(3, 4) = 7
    with pytest.raises(ValueError):
        griesmer_classify(8, 0, 3)
    for n in (0, 5, 6):  # below g(3, 4) = 7, so no binary [n, 3, 4] code exists
        with pytest.raises(ValueError):
            griesmer_classify(n, 3, 4)
    for params in ((8.0, 4, 3), (8, 4, 3.0), (True, 1, 1), (8, True, 3)):
        with pytest.raises(TypeError):
            griesmer_classify(*params)


def test_ab_minimal():
    assert ab_minimal({0: 1, 12: 6, 16: 47, 20: 10})  # 12*2 > 20
    assert not ab_minimal({0: 1, 2: 1, 4: 11, 6: 3})  # 2*2 <= 6
    assert ab_minimal({0: 1, 4: 3})  # single weight
    # boundary: ratio exactly one half does not satisfy the strict bound
    assert not ab_minimal({0: 1, 8: 6, 12: 48, 16: 9})
    with pytest.raises(ValueError):
        ab_minimal({0: 1})
    # 2 * 1.5 > 2 would call the weights minimal, and (1.0, 1.0, 2.0) would be a triple
    for wd, name in (
        ({0: 1, 1.5: 1, 2: 1}, "weight"),
        ({0: 1, 1.0: 1, 2: 1}, "weight"),
        ({0: 1, 2: 1, 3: 1.0}, "count"),
    ):
        for verdict in (ab_minimal, minimality_triples):
            with pytest.raises(TypeError, match=f"^{name} must be an int"):
                verdict(wd)


def test_brute_minimal():
    not_minimal = BinaryLinearCode(n=3, rows=(0b011, 0b111))
    assert not brute_minimal(not_minimal)
    # rank deficient: message 0b11 gives the zero word, and the one nonzero
    # codeword 0b111 is trivially minimal
    repeated = BinaryLinearCode(n=3, rows=(0b111, 0b111))
    assert brute_minimal(repeated)
    assert is_minimal(repeated)
    assert brute_minimal(family_code(1, 3))
    assert brute_minimal(family_code(3, 3))
    assert brute_minimal(family_code(2, 3))  # minimal in fact, though the ratio bound misses it
    with pytest.raises(TooLargeError):
        brute_minimal(BinaryLinearCode(n=2, rows=tuple([1] * 15)))


def test_minimality_triples():
    assert minimality_triples({0: 1, 2: 1, 4: 11, 6: 3}) == [(2, 2, 4), (2, 4, 6)]
    assert minimality_triples({0: 1, 3: 4, 4: 5, 5: 4, 6: 2}) == [(3, 3, 6)]
    assert minimality_triples({0: 1, 8: 6, 12: 48, 16: 9}) == [(8, 8, 16)]
    assert minimality_triples({0: 1, 12: 6, 16: 47, 20: 10}) == []
    # a weight with count 0 is not a weight of the code
    assert minimality_triples({0: 1, 3: 4, 6: 0}) == []
    assert minimality_triples({0: 4}) == []


def test_exact_minimality_matches_oracle_on_family_codes():
    for m in range(2, 7):
        for poly in (0, largest_irreducible(m)):
            for family in (1, 2, 3):
                code = family_code(family, m, poly)
                want = brute_minimal(code)
                assert is_minimal(code) == want, (family, m, poly)
                assert verify(family, m, poly).brute_minimal == want, (family, m, poly)
                if m >= 4:  # decided by the triple test alone
                    assert minimality_triples(weight_distribution(code)) == [], (family, m, poly)


def test_exact_minimality_both_triple_branches():
    # triples exist, and pairs realise one: not minimal
    for family in (1, 3):
        code = family_code(family, 2)
        assert minimality_triples(weight_distribution(code))
        assert not brute_minimal(code)
        assert not is_minimal(code)
    # 8 + 8 = 16 is a weight, but no two weight-8 words add to a weight-16 one
    code = family_code(2, 3)
    assert minimality_triples(weight_distribution(code)) == [(8, 8, 16)]
    assert brute_minimal(code)
    assert is_minimal(code)


def test_exact_minimality_matches_oracle_on_random_codes():
    rng = random.Random(20181)
    verdicts = set()
    rank_deficient = 0
    for _ in range(600):
        k = rng.randint(0, 7)
        n = rng.randint(1, 14)
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        code = BinaryLinearCode(n=n, rows=rows)
        want = brute_minimal(code)
        assert is_minimal(code) == want, code
        verdicts.add(want)
        rank_deficient += matrix_rank(rows, n) < k
    assert verdicts == {True, False}
    assert rank_deficient > 50


def test_verify_decides_minimality_beyond_the_oracle():
    for m in (7, 8):
        for family in (1, 2, 3):
            report = verify(family, m)
            assert report.brute_minimal is True, (family, m)
            assert report.ab_minimal
            assert not any("skipped" in note for note in report.notes), report.notes


def test_verify_past_the_transform_guard():
    for m in range(9, 13):
        for family in (1, 2, 3):
            report = verify(family, m)
            assert report.ok, (family, m, report.notes)
            assert report.table_match and report.projective
            assert report.dual_counts == (0, 0)
            assert report.brute_minimal is True


def test_verify_builds_no_column_vector_without_a_triple(monkeypatch):
    built = []

    def zero_vector(dim):  # every 2^dim count vector comes from here
        built.append(dim)
        assert dim < 8, f"2^{dim}-entry vector built"
        return [0] * (1 << dim)

    monkeypatch.setattr(walsh, "zero_vector", zero_vector)
    monkeypatch.setattr(codes, "zero_vector", zero_vector)
    for m in range(4, 9):
        for family in (1, 2, 3):
            assert verify(family, m).brute_minimal is True
    assert built == []
    # family 2 at m = 3 has the triple (8, 8, 16): the spectrum decides it
    assert verify(2, 3).brute_minimal is True
    assert built == [6]


def test_verify_triple_fallback_keeps_the_transform_guard(monkeypatch):
    monkeypatch.setattr(analysis, "minimality_triples", lambda wd: [(1, 1, 2)])
    with pytest.raises(TooLargeError, match="transform guard"):
        verify(1, 11)


def test_verify_rejects_a_rank_deficient_code(monkeypatch):
    # at m = 2, x = 1 and 2 have trace(c) = 1 and keep no y, and x = 3 keeps the two y
    # with trace(3y) = 0: n = 2 columns, so rank at most 2 < 2m; slopes hold at most two units
    forms = {1: (0, 2), 2: (0, 2), 3: (1, 0)}
    monkeypatch.setattr(codes, "slope_form", lambda ctx, family, x: forms[x])
    ctx = GF2m(2)
    assert ctx.trace(2) == 1
    with pytest.raises(ValueError, match=r"rank deficient \(k=4\)") as raised:
        verify(1, 2)
    with pytest.raises(ValueError) as matrix_raised:
        is_projective(generator_matrix(ctx, enumerate_defining_set(ctx, 1)))
    assert str(raised.value) == str(matrix_raised.value)


def test_closed_form_distribution_rows():
    assert closed_form_distribution(1, 2) == {0: 1, 2: 1, 4: 11, 6: 3}
    assert closed_form_distribution(1, 3) == {0: 1, 12: 6, 16: 47, 20: 10}
    assert closed_form_distribution(2, 3) == {0: 1, 8: 6, 12: 48, 16: 9}
    assert closed_form_distribution(2, 5) == {0: 1, 224: 120, 240: 768, 256: 135}
    assert closed_form_distribution(3, 2) == {0: 1, 3: 4, 4: 5, 5: 4, 6: 2}
    assert closed_form_distribution(3, 3) == {0: 1, 14: 24, 16: 11, 18: 24, 20: 4}


def test_closed_form_distribution_totals():
    for family in (1, 3):
        for m in range(2, 8):
            assert sum(closed_form_distribution(family, m).values()) == 1 << (2 * m)
    for m in (3, 5, 7):
        assert sum(closed_form_distribution(2, m).values()) == 1 << (2 * m)


def test_closed_form_distribution_scope():
    with pytest.raises(ValueError):
        closed_form_distribution(2, 4)
    with pytest.raises(ValueError):
        closed_form_distribution(4, 3)
    with pytest.raises(ValueError):
        closed_form_distribution(1, 1)
    # True and 2.0 would pass the range checks as 1 and 2
    for family, m in ((True, 3), (2.0, 3), (1, True)):
        with pytest.raises(TypeError):
            closed_form_distribution(family, m)


def test_verify_refuses_a_family_that_is_not_an_int():
    # True and 2.0 would pass as families 1 and 2, and be reported back as true and 2.0
    for family in (True, 2.0):
        with pytest.raises(TypeError):
            verify(family, 3)


def test_verify_family1_m3():
    report = verify(1, 3)
    assert (report.n, report.k, report.d) == (32, 6, 12)
    assert report.table_match
    assert report.projective
    assert report.dual_counts == (0, 0)
    assert report.ab_minimal
    assert report.brute_minimal
    assert report.ok


def test_verify_family2_m3_flags_failed_ratio_claim():
    report = verify(2, 3)
    assert (report.n, report.k, report.d) == (24, 6, 8)
    assert report.table_match
    assert report.projective
    assert not report.ab_minimal
    assert report.brute_minimal
    assert not report.ok
    assert any("sufficient minimality condition fails" in note for note in report.notes)


def test_verify_family3_m2():
    report = verify(3, 2)
    assert report.griesmer == "almost-optimal"
    assert report.ok


def test_verify_family2_even_m_compares_against_family1():
    report = verify(2, 4)
    assert report.table_match
    assert report.ok
    assert any("family-1 table" in note for note in report.notes)


def test_verify_report_json_shape():
    payload = verify(1, 2).to_json_dict()
    assert payload["counts"] == {"0": 1, "2": 1, "4": 11, "6": 3}
    assert payload["projective"] is True
    assert payload["griesmer"] == "inconclusive"
    assert set(payload) == {
        "family",
        "m",
        "n",
        "k",
        "d",
        "counts",
        "table_match",
        "dual_weight1",
        "dual_weight2",
        "projective",
        "griesmer",
        "ab_minimal",
        "brute_minimal",
        "ok",
        "notes",
    }
