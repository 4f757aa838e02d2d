"""Defining sets, generator matrices, and exact weight distributions."""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from math import comb

import pytest

from oracles import (
    char_sum,
    codeword,
    family_code,
    family_spectrum,
    gray_codewords,
    gray_weight_distribution,
    irreducibles,
    largest_irreducible,
    matrix_rank,
    membership_element,
    paper_form,
)
from tracecodes import TooLargeError
from tracecodes.analysis import verify
import tracecodes.codes as codes_module
from tracecodes.codes import (
    BinaryLinearCode,
    check_family,
    column_spectrum,
    defining_columns,
    enumerate_defining_set,
    generator_columns,
    generator_matrix,
    hyperplane_distribution,
    matrix_text,
    minimum_distance,
    sign_sum_counts,
    slope_classes,
    slope_form,
    spectrum_distribution,
    weight_distribution,
)
from tracecodes.field import GF2m, trace_coordinates
from tracecodes.sumsets import code_column_counts
from tracecodes.walsh import walsh_hadamard

# exact distributions, checked against the closed forms elsewhere
TABLE_ROWS = {
    (1, 2): {0: 1, 2: 1, 4: 11, 6: 3},
    (1, 3): {0: 1, 12: 6, 16: 47, 20: 10},
    (2, 3): {0: 1, 8: 6, 12: 48, 16: 9},
    (2, 5): {0: 1, 224: 120, 240: 768, 256: 135},
    (3, 2): {0: 1, 3: 4, 4: 5, 5: 4, 6: 2},
    (3, 3): {0: 1, 14: 24, 16: 11, 18: 24, 20: 4},
}


def test_membership_element_forms():
    ctx = GF2m(3)
    for x in ctx.units():
        for y in ctx.elements():
            xx = ctx.mul(x, x)
            assert membership_element(ctx, 1, x, y) == ctx.mul(y, xx) ^ y
            assert membership_element(ctx, 2, x, y) == ctx.mul(y, xx) ^ x ^ y
            assert membership_element(ctx, 3, x, y) == ctx.mul(y, xx) ^ ctx.mul(x, y)
    with pytest.raises(ValueError):
        membership_element(ctx, 4, 1, 1)


def test_slope_form_times_x_is_the_paper_form():
    # a*x = u and the same c at every unit under each irreducible polynomial of
    # degree 2..8, and at a seeded sample of 2000 units of GF(2^16)
    fields = [GF2m(m, poly) for m in range(2, 9) for poly in irreducibles(m)]
    assert len(fields) == 69
    cases = [(ctx, ctx.units()) for ctx in fields]
    ctx16 = GF2m(16)
    cases.append((ctx16, random.Random(16).sample(ctx16.units(), 2000)))
    for ctx, units in cases:
        for family in (1, 2, 3):
            for x in units:
                a, c = slope_form(ctx, family, x)
                assert (ctx.mul(a, x), c) == paper_form(ctx, family, x), (ctx, family, x)
    with pytest.raises(ValueError):
        slope_form(GF2m(3), 4, 1)
    # True equals 1 and hashes as 1, so a builder that took it would build family 1
    ctx = GF2m(3)
    for build in (enumerate_defining_set, hyperplane_distribution, code_column_counts):
        with pytest.raises(TypeError):
            build(ctx, True)
    with pytest.raises(TypeError):
        slope_form(ctx, True, 1)


def test_check_family_names_the_rule_it_refuses():
    for family, m in ((1, 2), (2, 3), (3, 4), (2, None)):
        check_family(family, m)
    check_family(2, 5, (1, 2))
    for family in (True, 1.0, None, "1"):
        with pytest.raises(TypeError, match="^family must be an int"):
            check_family(family)
    for family, among in ((0, (1, 2, 3)), (4, (1, 2, 3)), (3, (1, 2))):
        with pytest.raises(ValueError, match=f"^family must be one of {re.escape(str(among))}, got {family}$"):
            check_family(family, 3, among)
    with pytest.raises(ValueError, match="^family 2 is stated for odd m only, got m = 4$"):
        check_family(2, 4, (1, 2))


def test_defining_set_sizes():
    for m in (2, 3, 4, 5):
        ctx = GF2m(m)
        assert len(enumerate_defining_set(ctx, 1)) == 1 << (2 * m - 1)
        assert len(enumerate_defining_set(ctx, 3)) == 1 << (2 * m - 1)
        size2 = len(enumerate_defining_set(ctx, 2))
        if m % 2:
            assert size2 == (1 << m) * ((1 << (m - 1)) - 1)
        else:
            assert size2 == 1 << (2 * m - 1)


def test_defining_sets_compare_by_value():
    ctx = GF2m(4)
    dset = enumerate_defining_set(ctx, 1)
    assert type(dset) is tuple and len(dset) == hyperplane_distribution(ctx, 1)[0]
    assert dset == enumerate_defining_set(ctx, 1)
    assert dset != enumerate_defining_set(ctx, 3) and dset != enumerate_defining_set(GF2m(3), 1)


def test_defining_set_membership_and_order():
    for m in (2, 3, 4, 5):
        for poly in (0, largest_irreducible(m)):
            ctx = GF2m(m, poly)
            for family in (1, 2, 3):
                dset = enumerate_defining_set(ctx, family)
                assert list(dset) == sorted(dset)
                assert len(set(dset)) == len(dset)
                for x, y in dset:
                    assert x != 0
                    assert ctx.trace(membership_element(ctx, family, x, y)) == 0
                # completeness against a direct scan
                full = [
                    (x, y)
                    for x in ctx.units()
                    for y in ctx.elements()
                    if ctx.trace(membership_element(ctx, family, x, y)) == 0
                ]
                assert list(dset) == sorted(full), (family, m, poly)


def test_defining_columns_match_per_pair_oracle():
    # the one column map against a per-pair product, the generator rows and verify
    for m in range(2, 7):
        for poly in (0, largest_irreducible(m)):
            ctx = GF2m(m, poly)
            coords = trace_coordinates(ctx)
            for family in (1, 2, 3):
                dset = enumerate_defining_set(ctx, family)
                columns = defining_columns(ctx, dset)
                want = [coords[ctx.mul(x, y)] | coords[x] << m for x, y in dset]
                assert columns == want, (family, m, poly)
                code = generator_matrix(ctx, dset)
                assert generator_columns(code) == columns, (family, m, poly)
                wd = weight_distribution(code)
                assert verify(family, m, poly).counts == wd, (family, m, poly)


def test_family1_m2_pairs_exactly():
    # x=1 kills the condition (1+1)y = 0, so all four y appear; w and w^2
    # each admit the y making trace((x^2+1) y) = 0
    ctx = GF2m(2)
    dset = enumerate_defining_set(ctx, 1)
    assert dset == ((1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 3), (3, 0), (3, 2))


def test_codeword_zero_and_linearity():
    for family in (1, 2, 3):
        ctx = GF2m(2)
        dset = enumerate_defining_set(ctx, family)
        assert codeword(ctx, dset, 0, 0) == 0
        for a1 in ctx.elements():
            for b1 in ctx.elements():
                for a2 in ctx.elements():
                    for b2 in ctx.elements():
                        assert codeword(ctx, dset, a1 ^ a2, b1 ^ b2) == codeword(
                            ctx, dset, a1, b1
                        ) ^ codeword(ctx, dset, a2, b2)


def test_codeword_weights_family1_m2():
    ctx = GF2m(2)
    dset = enumerate_defining_set(ctx, 1)
    weights = sorted(
        codeword(ctx, dset, a, b).bit_count()
        for a in ctx.elements()
        for b in ctx.elements()
        if (a, b) != (0, 0)
    )
    assert set(weights) == {2, 4, 6}


def test_weight_equals_character_sum_combination():
    # enumerated weight must match half the set size minus a quarter of the
    # two relevant exponential sums, for every coefficient pair
    for m in (2, 3, 4, 5):
        ctx = GF2m(m)
        plain = {(a, b): char_sum(ctx, a, b) for a in ctx.elements() for b in ctx.elements()}
        for family in (1, 2, 3):
            dset = enumerate_defining_set(ctx, family)
            half = len(dset) // 2
            assert len(dset) % 2 == 0
            for a in ctx.elements():
                for b in ctx.elements():
                    if (a, b) == (0, 0):
                        continue
                    s_plain = plain[a, b]
                    s_fam = char_sum(ctx, a, b, family=family)
                    assert (s_plain + s_fam) % 4 == 0
                    wt = codeword(ctx, dset, a, b).bit_count()
                    assert wt == half - (s_plain + s_fam) // 4


def test_generator_matrix_shape_and_rows():
    for family in (1, 2, 3):
        for m in (2, 3):
            ctx = GF2m(m)
            dset = enumerate_defining_set(ctx, family)
            code = generator_matrix(ctx, dset)
            assert code.n == len(dset)
            assert code.k == 2 * m
            for row in code.rows:
                assert row < 1 << code.n
            for j in range(m):
                assert code.rows[j] == codeword(ctx, dset, 1 << j, 0)
                assert code.rows[m + j] == codeword(ctx, dset, 0, 1 << j)


def test_binary_linear_code_is_its_length_and_rows():
    code = BinaryLinearCode(n=3, rows=(0b011, 0b110))
    assert code == (3, (0b011, 0b110)) and code.k == 2
    assert BinaryLinearCode(n=3, rows=()).k == 0
    assert code._replace(rows=(0b111,)).k == 1
    # the record keeps its own copy, so a row it refuses cannot be appended later
    rows = [0b011]
    code = BinaryLinearCode(3, rows)
    rows.append(0b1111111)
    assert code.rows == (0b011,) and hash(code) == hash(BinaryLinearCode(3, (0b011,)))
    assert weight_distribution(code) == {0: 1, 2: 1}
    # a float row passes the range check, then fails in the transpose
    with pytest.raises(TypeError):
        BinaryLinearCode(3, [1.5])


def test_binary_linear_code_refuses_rows_it_cannot_represent():
    # a row with a bit at or past column n would count weight outside 0..n
    for n, rows in ((2, (0b111,)), (2, (0b100,)), (0, (1,)), (3, (0b011, -1))):
        with pytest.raises(ValueError, match="outside"):
            BinaryLinearCode(n=n, rows=rows)
    with pytest.raises(ValueError):
        BinaryLinearCode(n=-1, rows=())
    with pytest.raises(ValueError, match="outside"):
        BinaryLinearCode(n=3, rows=(0b011,))._replace(n=1)
    # True would be a length-1 code; a float fails in the shift with an unrelated message
    for n in (True, 3.0, 2.0):
        with pytest.raises(TypeError, match="n must be an int"):
            BinaryLinearCode(n, [1])
    # a bool row would be stored as it is; a float would pass the range check
    for row in (True, 1.5):
        with pytest.raises(TypeError, match="row must be an int"):
            BinaryLinearCode(2, [row])
    assert weight_distribution(BinaryLinearCode(n=3, rows=(0b111,))) == {0: 1, 3: 1}


def test_generator_matrix_full_rank():
    for family in (1, 2, 3):
        for m in (2, 3, 4):
            code = family_code(family, m)
            assert matrix_rank(code.rows, code.n) == 2 * m


def test_row_space_size():
    words = set(gray_codewords(family_code(1, 2)))
    assert len(words) == 1 << (2 * 2)


def test_weight_distribution_table_rows():
    for (family, m), expected in TABLE_ROWS.items():
        assert weight_distribution(family_code(family, m)) == expected


def test_weight_distribution_total_and_zero():
    for family in (1, 2, 3):
        code = family_code(family, 3)
        wd = weight_distribution(code)
        assert sum(wd.values()) == 1 << code.k
        assert wd[0] == 1


def test_weight_distribution_matches_gray_oracle():
    for m in range(2, 9):
        for family in (1, 2, 3):
            code = family_code(family, m)
            assert weight_distribution(code) == gray_weight_distribution(code), (family, m)
    # external codes: a repeated row gives the zero word a second message
    rows = family_code(1, 3).rows
    repeated = BinaryLinearCode(n=32, rows=rows + rows[:1])
    empty = BinaryLinearCode(n=3, rows=())
    zero_col = BinaryLinearCode(n=3, rows=(0b110, 0b100))
    for code in (repeated, empty, zero_col):
        assert weight_distribution(code) == gray_weight_distribution(code)
    assert weight_distribution(repeated)[0] == 2
    assert weight_distribution(empty) == {0: 1}


# irreducible but not primitive: x has order 5 and 9 respectively
NON_PRIMITIVE = {4: 0b11111, 6: 0b1001001}


def test_hyperplane_distribution_matches_spectrum_route():
    for m in range(2, 9):
        polys = {0, largest_irreducible(m), NON_PRIMITIVE.get(m, 0)}
        for poly in polys:
            ctx = GF2m(m, poly)
            for family in (1, 2, 3):
                t = family_spectrum(ctx, family)
                got = hyperplane_distribution(ctx, family)
                assert got == (t[0], spectrum_distribution(t)), (family, m, poly)
                # the column half of projectivity `verify` reads from trace_coordinates
                counts = Counter(defining_columns(ctx, enumerate_defining_set(ctx, family)))
                assert 0 not in counts and max(counts.values()) == 1, (family, m, poly)
                assert len(set(trace_coordinates(ctx))) == ctx.size


def test_slope_classes_hold_at_most_two_units():
    # the lemma `hyperplane_distribution` counts by: R_0 = {1}, and every other class
    # is two units x, 1/x (families 1, 2) or one unit x = a + 1 (family 3)
    for m in range(2, 13):
        for poly in (0, largest_irreducible(m)):
            ctx = GF2m(m, poly)
            q = ctx.size
            for family in (1, 2, 3):
                classes = slope_classes(ctx, family)
                assert [x for x, _ in classes.pop(0)] == [1], (family, m, poly)
                sizes = Counter(len(members) for members in classes.values())
                want = {2: q // 2 - 1} if family in (1, 2) else {1: q - 2}
                assert sizes == want, (family, m, poly)


def slope_form_of(forms):
    return lambda ctx, family, x: forms[x]


def test_hyperplane_distribution_is_generic_over_the_membership_form(monkeypatch):
    # seeded random slope forms with at most two units per slope, R_0 often
    # among them with both trace(c) values; both routes read the one patched form
    rng = random.Random(2024)
    for trial in range(120):
        m = 2 + trial % 4
        ctx = GF2m(m, rng.choice((0, largest_irreducible(m))))
        units, forms = Counter(), {}
        for x in ctx.units():
            free = [a for a in ctx.elements() if units[a] < 2]
            a = 0 if units[0] < 2 and rng.random() < 0.3 else rng.choice(free)
            units[a] += 1
            forms[x] = (a, rng.randrange(ctx.size))
        monkeypatch.setattr(codes_module, "slope_form", slope_form_of(forms))
        t = family_spectrum(ctx, 1)
        assert hyperplane_distribution(ctx, 1) == (t[0], spectrum_distribution(t)), trial


def test_hyperplane_distribution_matches_every_slope_form_at_m2(monkeypatch):
    # each unit of GF(4) takes one of 4 slopes and c in {0, e}, trace(e) = 1:
    # 8^3 = 512 forms, less the 4 * 2^3 that put all three units on one slope
    ctx = GF2m(2)
    e = next(c for c in ctx.elements() if ctx.trace(c))
    choices = [(a, c) for a in ctx.elements() for c in (0, e)]
    checked = 0
    for picks in itertools.product(choices, repeat=3):
        if len({a for a, _ in picks}) == 1:
            continue
        monkeypatch.setattr(codes_module, "slope_form", slope_form_of(dict(zip(ctx.units(), picks))))
        t = family_spectrum(ctx, 1)
        assert hyperplane_distribution(ctx, 1) == (t[0], spectrum_distribution(t)), picks
        checked += 1
    assert checked == 480


def test_hyperplane_distribution_refuses_a_class_of_three_units(monkeypatch):
    # x = 1, 2, 3 share slope 1 in GF(8), and 1 ^ 2 = 3: three units may be dependent
    forms = {x: (1 if x < 4 else x, 0) for x in range(1, 8)}
    monkeypatch.setattr(codes_module, "slope_form", slope_form_of(forms))
    with pytest.raises(AssertionError, match="slope 1 has 3 units"):
        hyperplane_distribution(GF2m(3), 1)


def test_sign_sum_counts_needs_independent_units():
    # over b, the sum of (-1)^trace(b*x) over 0, 1 or 2 distinct units x takes the
    # counted values; over a dependent triple it does not, so a class of three is refused
    for m in range(2, 7):
        for poly in (0, largest_irreducible(m)):
            ctx = GF2m(m, poly)
            q = ctx.size
            for x1, x2 in ((1, 2), (q - 1, q - 2)):
                for units in ((), (x1,), (x1, x2), (x1, x2, x1 ^ x2)):
                    sums = Counter(
                        sum((-1) ** ctx.trace(ctx.mul(b, x)) for x in units) for b in ctx.elements()
                    )
                    counts = sign_sum_counts(len(units), q)
                    assert (dict(sums) == counts) == (len(units) < 3), (m, poly, units)


def test_hyperplane_distribution_checks_its_total(monkeypatch):
    # q/2 values of b too many for every class of one unit: family 3 has only those
    monkeypatch.setattr(codes_module, "comb", lambda s, j: comb(s, j) + (s == 1 and j == 0))
    with pytest.raises(AssertionError, match=r"do not sum to q\^2 = 64"):
        hyperplane_distribution(GF2m(3), 3)


def bitwise_columns(code):
    return [
        sum(((row >> j) & 1) << i for i, row in enumerate(code.rows)) for j in range(code.n)
    ]


def test_generator_columns_and_counts():
    codes = [
        BinaryLinearCode(n=3, rows=()),
        BinaryLinearCode(n=4, rows=(0b1011, 0b1100)),
        BinaryLinearCode(n=5, rows=(0, 0b10000, 0b00001)),
    ]
    codes += [family_code(family, m) for family, m in ((1, 2), (2, 3), (3, 4))]
    for code in codes:
        cols = generator_columns(code)
        assert cols == bitwise_columns(code)
        counts = [cols.count(c) for c in range(1 << code.k)]
        assert column_spectrum(cols, code.k) == walsh_hadamard(counts)


def test_spectrum_distribution_refuses_the_wrong_parity():
    # every N^(u) = n - 2 wt(u) has the parity of n = t[0]
    assert spectrum_distribution([3, 1]) == {0: 1, 1: 1}
    for t in ([3, 2], [2, 2, 1, 0]):
        with pytest.raises(AssertionError, match="wrong parity"):
            spectrum_distribution(t)


def test_weight_distribution_guard():
    # one guard for every transform: 2^20 entries pass, 2^21 do not
    for k in (21, 25):
        big = BinaryLinearCode(n=2, rows=tuple([1] * k))
        with pytest.raises(TooLargeError, match="transform guard 20"):
            weight_distribution(big)


def test_even_m_family2_matches_family1():
    for m in (2, 4):
        assert weight_distribution(family_code(1, m)) == weight_distribution(family_code(2, m))


def test_distribution_invariant_under_reduction_polynomial():
    for family in (1, 2, 3):
        wds = []
        for poly in (0b10011, 0b11001, 0b11111):  # 0b11111 is not primitive: x^5 = 1
            wds.append(weight_distribution(family_code(family, 4, poly)))
        assert wds[0] == wds[1] == wds[2]


def test_minimum_distance():
    assert minimum_distance(TABLE_ROWS[(1, 3)]) == 12
    assert minimum_distance(TABLE_ROWS[(2, 3)]) == 8
    assert minimum_distance(TABLE_ROWS[(3, 2)]) == 3
    with pytest.raises(ValueError):
        minimum_distance({0: 1})
    # True would pass as weight 1, and 1.0 or a count of 1.0 would be returned as it is
    for wd, name in (({0: 1, True: 1}, "weight"), ({0: 1, 1.0: 1}, "weight"), ({0: 1, 2: 1.0}, "count")):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            minimum_distance(wd)


def test_matrix_text_layout():
    code = family_code(1, 2)
    text = matrix_text(code)
    lines = text.splitlines()
    assert len(lines) == code.k
    assert all(len(line) == code.n and set(line) <= {"0", "1"} for line in lines)
    # column 0 is printed first: line i starts with bit 0 of row i
    for i, line in enumerate(lines):
        assert line[0] == str(code.rows[i] & 1)
