"""Character-sum oracles against their closed-form case tables."""

from __future__ import annotations

from itertools import islice

import pytest

from oracles import char_sum, char_sum_table, largest_irreducible, reciprocal_quadratic_roots
from tracecodes import TooLargeError
from tracecodes.charsums import (
    CaseRule,
    CharSumValue,
    case_rule,
    conformance_sweep,
    family_char_sum_closed,
    plain_char_sum_closed,
)
from tracecodes.codes import slope_classes
from tracecodes.field import GF2m, trace_table, unit_inverses


def test_reciprocal_quadratic_roots_examples():
    assert reciprocal_quadratic_roots(GF2m(2), 1) == {2, 3}
    assert reciprocal_quadratic_roots(GF2m(3), 1) == frozenset()
    with pytest.raises(ValueError):
        reciprocal_quadratic_roots(GF2m(2), 0)


def test_reciprocal_quadratic_roots_vieta():
    for m in (2, 3, 4):
        ctx = GF2m(m)
        for a in ctx.units():
            roots = reciprocal_quadratic_roots(ctx, a)
            assert len(roots) in (0, 2)
            if roots:
                r1, r2 = sorted(roots)
                assert r1 ^ r2 == a
                assert ctx.mul(r1, r2) == 1


def reciprocal_sum_set(ctx: GF2m) -> set[int]:
    """The units a with trace(1/a) = 0."""
    tr, inv = trace_table(ctx), unit_inverses(ctx)
    return {a for a in ctx.units() if tr[inv[a]] == 0}


def test_reciprocal_sums_m2():
    assert reciprocal_sum_set(GF2m(2)) == {1}


def test_reciprocal_sum_set_sizes():
    # the trace set has q/2 - 1 members and is the set of nonzero family-1 slopes
    for m in range(2, 11):
        for poly in (0, largest_irreducible(m)):
            ctx = GF2m(m, poly)
            sums = reciprocal_sum_set(ctx)
            assert len(sums) == ctx.size // 2 - 1, (m, poly)
            assert sums == set(slope_classes(ctx, 1)) - {0}, (m, poly)


def test_reciprocal_sums_characterize_root_existence():
    # z^2 + a*z + 1 has a root r, so a = r + 1/r, exactly when trace(1/a) = 0
    # (Lidl-Niederreiter, Finite Fields, Thm 2.25); the trace set is checked
    # against the scanned roots and the case rule
    outside = CaseRule(0, (CharSumValue((0,), "a outside reciprocal-sum set"),) * 2)
    for m in range(2, 11):
        for poly in (0, largest_irreducible(m)):
            ctx = GF2m(m, poly)
            sums = reciprocal_sum_set(ctx)
            if m <= 6:
                roots = {a for a in ctx.units() if reciprocal_quadratic_roots(ctx, a)}
                assert sums == roots, (m, poly)
            for family in (1, 2) if m % 2 else (1,):
                for a in ctx.units():
                    assert (case_rule(ctx, family, a) == outside) == (a not in sums), (m, poly, a)


def test_plain_char_sum_values():
    gf4 = GF2m(2)
    assert char_sum(gf4, 0, 1) == -4
    assert char_sum(gf4, 1, 0) == 0
    assert char_sum(GF2m(3), 2, 4) == 0
    # all-ones sum at (0,0): every term is +1
    for m in (2, 3, 4):
        ctx = GF2m(m)
        assert char_sum(ctx, 0, 0) == ((1 << m) - 1) * (1 << m)


def test_char_sum_value_api():
    single = CharSumValue((8,), "case")
    assert not single.ambiguous
    assert single.value == 8
    assert single.matches(8)
    assert not single.matches(-8)
    both = CharSumValue((-8, 8), "case")
    assert both.ambiguous
    assert both.matches(-8) and both.matches(8)
    with pytest.raises(ValueError):
        _ = both.value
    parts = {single: "single", both: "both"}  # the CLI renders each distinct value once
    assert parts[CharSumValue((8,), "case")] == "single" and len(parts) == 2
    assert CharSumValue((8,), "other") not in parts


def test_closed_forms_reject_zero_pair():
    # and pairs outside GF(8): a = 8 would pass as a unit != 1, a = -1 as a != 0
    ctx = GF2m(3)
    for a, b in ((0, 0), (8, 1), (1, 8), (-1, 0)):
        with pytest.raises(ValueError):
            plain_char_sum_closed(ctx, a, b)
        for family in (1, 2, 3, None):
            with pytest.raises(ValueError):
                family_char_sum_closed(ctx, family, a, b)
    # and families outside FAMILIES: `case_rule` would read None as the plain sum
    for family in (None, 0, 4):
        with pytest.raises(ValueError):
            family_char_sum_closed(ctx, family, 1, 1)
    # and families and pairs that are not ints, which would pass the range
    # check and return a value; True equals 1 and is in FAMILIES
    with pytest.raises(TypeError):
        family_char_sum_closed(ctx, True, 1, 1)
    # `case_rule` itself, which would give family 1's rule for either
    for family in (True, 1.0):
        with pytest.raises(TypeError, match="family must be an int"):
            case_rule(ctx, family, 1)
    for a, b in ((1.0, 0), (0, 1.0), (True, False), (1, True)):
        with pytest.raises(TypeError):
            plain_char_sum_closed(ctx, a, b)
        for family in (1, 2, 3):
            with pytest.raises(TypeError):
                family_char_sum_closed(ctx, family, a, b)


def test_family2_closed_form_rejects_even_m():
    with pytest.raises(ValueError):
        family_char_sum_closed(GF2m(4), 2, 1, 0)
    # the brute-force evaluator still works at even m
    assert isinstance(char_sum(GF2m(4), 1, 0, family=2), int)


def test_family1_closed_examples():
    gf4 = GF2m(2)
    assert char_sum(gf4, 1, 0, family=1) == 8
    assert family_char_sum_closed(gf4, 1, 1, 0).value == 8
    gf8 = GF2m(3)
    assert char_sum(gf8, 0, 1, family=1) == -8  # trace(1)=1 for odd m
    assert family_char_sum_closed(gf8, 1, 0, 1).value == -8
    # sign-ambiguous case: a=1 in the reciprocal-sum set, b=1 nonzero, trace(a*b)=0
    closed = family_char_sum_closed(gf4, 1, 1, 1)
    assert closed.ambiguous
    assert closed.candidates == (-8, 8)
    assert closed.matches(char_sum(gf4, 1, 1, family=1))


def test_family2_closed_examples():
    gf8 = GF2m(3)
    assert family_char_sum_closed(gf8, 2, 0, 1).value == 8  # trace(1)=1
    assert char_sum(gf8, 0, 1, family=2) == 8
    sums = reciprocal_sum_set(gf8)
    outside = next(a for a in gf8.units() if a not in sums)
    for b in gf8.elements():
        if (outside, b) == (0, 0):
            continue
        assert family_char_sum_closed(gf8, 2, outside, b).value == 0
        assert char_sum(gf8, outside, b, family=2) == 0
    inside = min(sums)
    ambiguous = [
        b
        for b in gf8.elements()
        if gf8.trace(gf8.mul(inside, b ^ 1)) == 0
    ]
    for b in ambiguous:
        closed = family_char_sum_closed(gf8, 2, inside, b)
        assert closed.candidates == (-16, 16)
        assert closed.matches(char_sum(gf8, inside, b, family=2))


def test_family3_closed_examples():
    gf4 = GF2m(2)
    assert family_char_sum_closed(gf4, 3, 1, 2).value == 0
    assert char_sum(gf4, 1, 2, family=3) == 0
    assert family_char_sum_closed(gf4, 3, 0, 2).value == -4  # trace(w)=1
    assert char_sum(gf4, 0, 2, family=3) == -4
    gf8 = GF2m(3)
    assert family_char_sum_closed(gf8, 3, 2, 0).value == 8
    assert char_sum(gf8, 2, 0, family=3) == 8


def test_family_char_sum_rejects_bad_family():
    with pytest.raises(ValueError):
        char_sum(GF2m(2), 1, 1, family=0)
    with pytest.raises(ValueError):
        family_char_sum_closed(GF2m(2), 9, 1, 1)


# the default polynomial (0), then the largest irreducible one of each
# degree; x^2 + x + 1 is the only one of degree 2, and x^4 + x^3 + x^2 + x + 1
# is not primitive (x has order 5)
POLYS = {2: (0,), 3: (0, 0b1101), 4: (0, 0b11111), 5: (0, 0b111101)}


def test_char_sum_tables_match_brute_force_sums():
    for m, polys in POLYS.items():
        for poly in polys:
            ctx = GF2m(m, poly)
            tables = {family: char_sum_table(ctx, family) for family in (None, 1, 2, 3)}
            for a in ctx.elements():
                for b in ctx.elements():
                    index = a | b << m
                    assert tables[None][index] == char_sum(ctx, a, b), (m, poly, a, b)
                    for family in (1, 2, 3):
                        want = char_sum(ctx, a, b, family=family)
                        assert tables[family][index] == want, (m, poly, family, a, b)


def test_case_rule_matches_brute_force_sums():
    # the per-a rule, its O(q) row of picks and both per-(a, b) wrappers, at
    # every (a, b) != (0, 0), against the direct double sum
    for m, polys in POLYS.items():
        for poly in polys:
            ctx = GF2m(m, poly)
            for family in (None, 1, 3) + ((2,) if m % 2 else ()):
                for a in ctx.elements():
                    rule = case_rule(ctx, family, a)
                    picks = rule.picks(ctx)
                    for b in range(0 if a else 1, ctx.size):
                        closed = rule.value(ctx, b)
                        assert rule.values[picks[b]] == closed, (m, poly, family, a, b)
                        if family is None:
                            assert plain_char_sum_closed(ctx, a, b) == closed
                        else:
                            assert family_char_sum_closed(ctx, family, a, b) == closed
                        want = char_sum(ctx, a, b, family=family)
                        assert closed.matches(want), (m, poly, family, a, b, want, closed)


def test_conformance_sweep_runs_past_the_transform_guard():
    # at m = 11 a table over (a, b) would have 2^22 entries; the rows at a = 0
    # and a = 1 are read from R_0 and R_1 alone, four sums at odd m
    ctx = GF2m(11)
    records = list(islice(conformance_sweep(ctx), 4 * (2 * ctx.size - 1)))
    assert [(r.a, r.b) for r in records[::4]] == [(0, b) for b in ctx.units()] + [
        (1, b) for b in ctx.elements()
    ]
    assert [r.sum_name for r in records[:4]] == ["plain", "family1", "family2", "family3"]
    assert all(r.match for r in records)


def test_char_sum_table_keeps_the_transform_guard():
    ctx = GF2m(11)
    for family in (None, 1, 2, 3):
        with pytest.raises(TooLargeError, match="transform guard"):
            char_sum_table(ctx, family)


def test_conformance_sweep_reads_the_tables():
    ctx = GF2m(3, 0b1101)
    tables = {f"family{f}": char_sum_table(ctx, f) for f in (1, 2, 3)}
    tables["plain"] = char_sum_table(ctx)
    records = list(conformance_sweep(ctx))
    assert [(r.a, r.b) for r in records[:4]] == [(0, 1)] * 4
    assert [r.sum_name for r in records[:4]] == ["plain", "family1", "family2", "family3"]
    assert all(r.oracle == tables[r.sum_name][r.a | r.b << 3] for r in records)
    assert all(r.match for r in records)


def test_conformance_sweep_small_degrees():
    for m in (2, 3, 4):
        records = list(conformance_sweep(GF2m(m)))
        pair_count = (1 << (2 * m)) - 1
        sums = 4 if m % 2 else 3
        assert len(records) == pair_count * sums
        assert all(r.match for r in records)
        names = {r.sum_name for r in records}
        expected = {"plain", "family1", "family3"} | ({"family2"} if m % 2 else set())
        assert names == expected


def test_sweep_covers_ambiguous_cases():
    records = list(conformance_sweep(GF2m(3)))
    assert any(len(r.candidates) == 2 for r in records)
    # both signs actually occur among the ambiguous family-1 cases
    seen = {
        r.oracle
        for r in records
        if r.sum_name == "family1" and len(r.candidates) == 2
    }
    assert seen == {-16, 16}
