"""Point-set construction, XOR representation counts, and s-sum-set verdicts."""

from __future__ import annotations

import random
import time

import pytest

from oracles import (
    family_code,
    largest_irreducible,
    representation_counts_by_convolution,
    representation_counts_naive,
    sum_set_report_from_counts,
    sum_set_witness_from_counts,
    symmetric_three_weight,
    xor_convolve,
)
from tracecodes import TooLargeError, cli, codes, sumsets
from tracecodes.analysis import closed_form_distribution
from tracecodes.codes import (
    defining_columns,
    enumerate_defining_set,
    generator_columns,
    hyperplane_distribution,
)
from tracecodes.field import GF2m, unit_inverses
from tracecodes.sumsets import (
    OmegaSet,
    build_omega,
    check_sum_set,
    code_column_counts,
    counted_sum_sets,
    paper_column_counts,
    representation_counts,
)
from tracecodes.walsh import walsh_hadamard


def hand_set(dim: int, vectors, include_zero: bool = False) -> OmegaSet:
    return OmegaSet(ambient_dim=dim, vectors=frozenset(vectors), include_zero=include_zero)


@pytest.fixture
def transform_calls(monkeypatch) -> list[int]:
    """Lengths of the transforms `sumsets` runs, its own and those of `codes.column_spectrum`."""
    calls: list[int] = []

    def counted(values):
        calls.append(len(values))
        return walsh_hadamard(values)

    monkeypatch.setattr(sumsets, "walsh_hadamard", counted)
    monkeypatch.setattr(codes, "walsh_hadamard", counted)
    return calls


def spectrum_magnitudes(omega: OmegaSet) -> set[int]:
    """The nonzero |T(u)| over u != 0, T the transform of the whole set's indicator."""
    return {abs(t) for t in walsh_hadamard(representation_counts_naive(omega, 1))[1:]} - {0}


def test_omega_set_validation():
    with pytest.raises(ValueError):
        hand_set(0, ())
    with pytest.raises(TooLargeError):
        hand_set(21, ())
    with pytest.raises(ValueError):
        hand_set(2, (0,))  # zero belongs in the flag, not the vector set
    with pytest.raises(ValueError):
        hand_set(2, (4,))
    omega = hand_set(2, (1, 2), include_zero=False)
    assert omega.size == 2
    with pytest.raises(ValueError):
        omega._replace(vectors=frozenset({4}))
    assert omega.with_zero(True).size == 3
    assert omega.with_zero(False) is omega
    # the record keeps its own copy, so a vector it refuses cannot be added later
    vectors = {1, 2}
    omega = OmegaSet(3, vectors, False)
    vectors.add(9)
    assert omega.vectors == frozenset({1, 2}) and hash(omega) == hash(hand_set(3, (1, 2)))
    assert check_sum_set(omega, 3) == check_sum_set(hand_set(3, (1, 2)), 3)
    # a float passes the range checks, then fails inside the transform
    with pytest.raises(TypeError):
        OmegaSet(2, [1.0], False)
    # a bool vector would be stored as it is, beside the int it equals
    with pytest.raises(TypeError, match="vector must be an int"):
        OmegaSet(2, [True, 2], False)
    # True would pass as dimension 1; 2.0 fails in a shift with an unrelated message
    for dim in (True, 2.0):
        with pytest.raises(TypeError, match="^ambient_dim must be an int"):
            OmegaSet(dim, [1], False)
    # True would be taken as s = 1: counted by `representation_counts`, refused as s = 1 by the others
    for s in (3.0, True):
        for call in (check_sum_set, representation_counts):
            with pytest.raises(TypeError):
                call(omega, s)
        with pytest.raises(TypeError):
            counted_sum_sets(code_column_counts(GF2m(3), 1), s)


def test_omega_set_refuses_a_zero_flag_that_is_not_a_bool():
    # include_zero=2 would be counted as two zeros: set_size 3 and count_at_zero 14, not 2 and 4
    for flag in (2, 1, 0, None, "yes"):
        with pytest.raises(TypeError):
            hand_set(3, (1,), include_zero=flag)
    omega = hand_set(3, (1,), include_zero=True)
    assert omega.size == 2 and check_sum_set(omega, 3).count_at_zero == 4
    assert sum(representation_counts(omega, 3)) == 2**3
    with pytest.raises(TypeError):
        omega._replace(include_zero=2)
    with pytest.raises(TypeError):
        omega.with_zero(2)
    # a flag equal to the set's own, but not a bool, is refused too, not answered with the set
    for include_zero, flag in ((True, 1), (True, 1.0), (False, 0), (False, 0.0)):
        with pytest.raises(TypeError):
            hand_set(3, (1,), include_zero=include_zero).with_zero(flag)


def test_hand_case_all_nonzero_vectors_of_dim2():
    omega = hand_set(2, (1, 2, 3))
    counts = representation_counts(omega, 3)
    assert counts == [6, 7, 7, 7]
    report = check_sum_set(omega, 3)
    assert report.is_sum_set
    assert report.sigma_members == 7
    assert report.sigma_outside == 7  # empty outside class inherits
    assert report.count_at_zero == 6
    assert sum_set_witness_from_counts(omega, counts) is None


def test_counts_s1_is_indicator():
    omega = hand_set(3, (1, 4, 6), include_zero=True)
    counts = representation_counts(omega, 1)
    assert counts == [1, 1, 0, 0, 1, 0, 1, 0]


def test_counts_total_is_size_power_s():
    omega = hand_set(3, (1, 2, 4, 7))
    for s in (1, 2, 3, 4, 5):
        assert sum(representation_counts(omega, s)) == omega.size**s


def test_counts_reject_bad_s():
    omega = hand_set(2, (1,))
    with pytest.raises(ValueError):
        representation_counts(omega, 0)
    with pytest.raises(ValueError):
        representation_counts_naive(omega, 0)
    with pytest.raises(ValueError):
        representation_counts_by_convolution(omega, 0)


def test_walsh_hadamard_requires_power_of_two():
    with pytest.raises(ValueError):
        walsh_hadamard([1, 2, 3])
    with pytest.raises(ValueError):
        walsh_hadamard([])


def test_walsh_hadamard_self_inverse():
    values = [3, -1, 4, 1, -5, 9, 2, 6]
    twice = walsh_hadamard(walsh_hadamard(values))
    assert twice == [v * 8 for v in values]


def test_walsh_hadamard_matches_definition():
    values = [3, -1, 4, 1, -5, 9, 2, 6, 0, 0, 7, -2, 1, 1, 8, -8]
    direct = [
        sum(v * (-1) ** (u & i).bit_count() for i, v in enumerate(values))
        for u in range(len(values))
    ]
    assert walsh_hadamard(values) == direct
    assert walsh_hadamard([5]) == [5]


def test_huge_s_is_refused_before_any_transform(monkeypatch):
    omega = hand_set(4, (1, 2, 3))
    start = time.monotonic()
    with pytest.raises(TooLargeError, match="estimated at"):
        representation_counts(omega, 10**9 + 1)
    with pytest.raises(TooLargeError):
        check_sum_set(omega, 10**9 + 1)
    assert time.monotonic() - start < 1.0
    # the estimate is 2^K * s * bit_length(size), here 16 * s * 2 bits
    monkeypatch.setattr(sumsets, "POWER_MAX_BITS", 16 * 7 * 2)
    assert sum(representation_counts(omega, 7)) == 3**7
    with pytest.raises(TooLargeError, match="estimated at 288 bits"):
        representation_counts(omega, 9)


def test_power_guard_counts_the_values_each_route_powers(monkeypatch, transform_calls):
    # 4 points (3 bits); t takes at most min(2^4, 3 + 1) = 4 values
    omega = hand_set(4, (1, 2, 3), include_zero=True)
    monkeypatch.setattr(sumsets, "POWER_MAX_BITS", 4 * 7 * 3)
    check_sum_set(omega, 7)
    with pytest.raises(TooLargeError, match=r"estimated at 108 bits \(min\(2\^K, "):
        check_sum_set(omega, 9)
    assert transform_calls == [16]  # the refused check ran none
    # family 1 at m = 3: 32 columns (33 points with zero, 6 bits), t takes 3 values
    monkeypatch.setattr(sumsets, "POWER_MAX_BITS", 3 * 7 * 6)
    counted = code_column_counts(GF2m(3), 1)
    assert len(counted_sum_sets(counted, 7)) == 2
    with pytest.raises(TooLargeError, match=r"estimated at 162 bits \(3 values of t \*"):
        counted_sum_sets(counted, 9)
    assert transform_calls == [16]


def test_transform_counts_match_naive_oracle():
    cases = [
        hand_set(3, (1, 2, 4, 7)),
        hand_set(3, (3, 5), include_zero=True),
        hand_set(4, (1, 2, 3, 8, 12)),
    ]
    ctx = GF2m(2)
    cases.append(build_omega(ctx, 1, "code-column"))
    cases.append(build_omega(ctx, 1, "paper-column"))
    for omega in cases:
        for s in (1, 2, 3, 5):
            assert representation_counts(omega, s) == representation_counts_naive(omega, s)


def test_transform_counts_match_convolution_oracle():
    for variant in ("code-column", "paper-column"):
        omega = build_omega(GF2m(3), 1, variant)
        for s in (3, 5):
            fast = representation_counts(omega, s)
            assert fast == representation_counts_by_convolution(omega, s)


def test_xor_convolve_composes():
    omega = build_omega(GF2m(2), 1, "code-column")
    c2 = representation_counts(omega, 2)
    c3 = representation_counts(omega, 3)
    assert xor_convolve(c2, c3) == representation_counts(omega, 5)
    with pytest.raises(ValueError):
        xor_convolve([1, 2], [1, 2, 3, 4])


def test_defining_set_is_refused_before_it_is_listed():
    # about q^2/2 pairs with columns in F_2^(2m): at m = 11, 2^21 pairs (230 MB)
    ctx = GF2m(11)
    for family in (1, 2, 3):
        with pytest.raises(TooLargeError, match="dimension 22 exceeds transform guard 20"):
            enumerate_defining_set(ctx, family)
    for variant in sumsets.VARIANTS:
        with pytest.raises(TooLargeError, match="dimension 22 exceeds transform guard 20"):
            build_omega(ctx, 1, variant)


def test_build_omega_family1_m2_sizes():
    ctx = GF2m(2)
    code_set = build_omega(ctx, 1, "code-column")
    assert code_set.ambient_dim == 4
    assert len(code_set.vectors) == 8
    assert not code_set.include_zero
    paper_set = build_omega(ctx, 1, "paper-column")
    assert paper_set.ambient_dim == 4
    assert len(paper_set.vectors) == 5
    assert paper_set.include_zero
    assert paper_set.size == 6


def test_build_omega_code_columns_match_generator():
    for family, m in ((1, 2), (1, 3), (2, 3)):
        ctx = GF2m(m)
        omega = build_omega(ctx, family, "code-column")
        code = family_code(family, m)
        assert omega.vectors == frozenset(generator_columns(code))
        assert not omega.include_zero
        assert len(omega.vectors) == code.n


def test_build_omega_family2_m3_dims():
    ctx = GF2m(3)
    assert build_omega(ctx, 2, "code-column").ambient_dim == 6
    assert build_omega(ctx, 2, "paper-column").ambient_dim == 9


def test_build_omega_rejections():
    ctx = GF2m(3)
    with pytest.raises(ValueError):
        build_omega(ctx, 3, "code-column")
    with pytest.raises(ValueError):
        build_omega(GF2m(4), 2, "code-column")
    with pytest.raises(ValueError):
        build_omega(ctx, 1, "columns")


def test_check_sum_set_rejects_even_or_unit_s():
    omega = hand_set(2, (1, 2, 3))
    for s in (1, 2, 4):
        with pytest.raises(ValueError):
            check_sum_set(omega, s)


SUM_SET_EXPECTED = {
    (1, 2, 3): (40, 24, 24),
    (1, 2, 5): (2176, 1920, 1920),
    (1, 3, 3): (544, 480, 480),
    (1, 3, 5): (526336, 522240, 522240),
    (2, 3, 3): (256, 192, 192),
    (2, 3, 5): (126976, 122880, 122880),
}


def test_code_column_sets_without_zero_are_sum_sets():
    for (family, m, s), (sig_in, sig_out, at_zero) in SUM_SET_EXPECTED.items():
        omega = build_omega(GF2m(m), family, "code-column").with_zero(False)
        report = check_sum_set(omega, s)
        assert report.is_sum_set, (family, m, s)
        assert (report.sigma_members, report.sigma_outside) == (sig_in, sig_out)
        assert report.count_at_zero == at_zero


def test_code_column_sets_from_weights_match_the_transform_route(transform_calls):
    for family, degrees in ((1, range(2, 8)), (2, (3, 5, 7))):
        for m in degrees:
            for poly in (0, largest_irreducible(m)):
                ctx = GF2m(m, poly)
                base = build_omega(ctx, family, "code-column")
                for s in (3, 5, 7, 9, 11):
                    before = len(transform_calls)
                    counted = code_column_counts(ctx, family)
                    from_weights = counted_sum_sets(counted, s)
                    assert len(transform_calls) == before  # no transform
                    from_vectors = [check_sum_set(base.with_zero(z), s) for z in (False, True)]
                    assert from_weights == from_vectors, (family, m, poly, s)


def test_code_column_route_checks_the_conditions_of_its_identity(monkeypatch):
    with pytest.raises(ValueError, match="odd m"):
        code_column_counts(GF2m(4), 2)
    with pytest.raises(ValueError, match="odd"):
        counted_sum_sets(code_column_counts(GF2m(3), 1), 4)
    monkeypatch.setattr(sumsets, "distinct_nonzero_columns", lambda ctx: False)
    with pytest.raises(AssertionError, match="zero or repeated column"):
        code_column_counts(GF2m(3), 1)
    monkeypatch.undo()
    # a code of rank 3 < 2m at m = 2 (see test_verify_rejects_a_rank_deficient_code), so
    # t(u) = n - 2 wt(u) misses the u != 0 of weight 0
    forms = {1: (0, 2), 2: (0, 2), 3: (1, 0)}
    monkeypatch.setattr(codes, "slope_form", lambda ctx, family, x: forms[x])
    with pytest.raises(AssertionError, match="family 1 code at m = 2 is rank deficient"):
        code_column_counts(GF2m(2), 1)


def test_paper_column_sets_from_counts_match_the_transform_route(transform_calls):
    for family, degrees in ((1, range(2, 9)), (2, (3, 5))):
        for m in degrees:
            for poly in (0, largest_irreducible(m)):
                ctx = GF2m(m, poly)
                base = build_omega(ctx, family, "paper-column")
                counted = paper_column_counts(ctx, family)
                assert (counted.dim, counted.members) == (
                    base.ambient_dim, len(base.vectors)
                ), (family, m, poly)
                # the values of T = t + [0 in set] number at least 4: no odd s >= 3 fits a line
                assert len(counted.histogram) >= 4, (family, m, poly)
                for s in (3, 5, 7, 9, 11):
                    before = len(transform_calls)
                    from_counts = counted_sum_sets(paper_column_counts(ctx, family), s)
                    assert len(transform_calls) == before  # no transform
                    from_vectors = [check_sum_set(base.with_zero(z), s) for z in (False, True)]
                    assert from_counts == from_vectors, (family, m, poly, s)


def test_paper_column_route_checks_the_conditions_of_its_identity(monkeypatch):
    with pytest.raises(ValueError, match="odd m"):
        paper_column_counts(GF2m(4), 2)
    with pytest.raises(ValueError, match="odd"):
        counted_sum_sets(paper_column_counts(GF2m(3), 1), 4)

    def slope_form_of(u_of):  # the slope form (u * x^-1, c) of a membership form (u, 0)
        return lambda ctx, family, x: (ctx.mul(u_of(ctx, x), unit_inverses(ctx)[x]), 0)

    forms = (
        slope_form_of(lambda ctx, x: ctx.mul(x, x) ^ x),  # family 3's u
        slope_form_of(lambda ctx, x: ctx.mul(x, x) ^ 1),  # family 1's c for family 2
    )
    for family, form in zip((1, 2), forms):
        monkeypatch.setattr(codes, "slope_form", form)
        monkeypatch.setattr(sumsets, "slope_form", form)
        with pytest.raises(AssertionError, match="not the paper's"):
            paper_column_counts(GF2m(3), family)
    monkeypatch.undo()
    # a trace-coordinate table that sends two elements to one vector
    monkeypatch.setattr(codes, "trace_coordinates", lambda ctx: (0,) + tuple(range(ctx.size - 1)))
    with pytest.raises(AssertionError, match="not a bijection"):
        paper_column_counts(GF2m(3), 1)


def test_code_column_sets_with_zero_are_not_sum_sets():
    for family, m in ((1, 2), (1, 3), (2, 3)):
        omega = build_omega(GF2m(m), family, "code-column").with_zero(True)
        assert not check_sum_set(omega, 3).is_sum_set
        counts = representation_counts(omega, 3)
        a, b = sum_set_witness_from_counts(omega, counts)
        assert counts[a] != counts[b]


def test_paper_column_sets_are_not_sum_sets():
    for family, m in ((1, 2), (1, 3), (2, 3)):
        for include_zero in (False, True):
            omega = build_omega(GF2m(m), family, "paper-column").with_zero(include_zero)
            for s in (3, 5):
                assert not check_sum_set(omega, s).is_sum_set


def test_full_nonzero_space_is_trivially_a_sum_set():
    omega = hand_set(3, range(1, 8))
    report = check_sum_set(omega, 3)
    assert report.is_sum_set
    assert report.sigma_members == report.sigma_outside


def test_sum_set_report_json_shape():
    omega = build_omega(GF2m(2), 1, "code-column")
    payload = check_sum_set(omega, 3).to_json_dict()
    # the CLI adds family, m, s and variant (tests/test_cli.py::test_sumset_json_report_shape)
    assert set(payload) == {"include_zero", "is_sum_set", "sigma0", "sigma1", "count_at_zero"}
    assert payload["sigma0"] == 40
    assert payload["sigma1"] == 24


def test_symmetric_three_weight():
    assert symmetric_three_weight(closed_form_distribution(1, 3), n=32)
    assert symmetric_three_weight(closed_form_distribution(2, 3), n=24)
    assert not symmetric_three_weight(closed_form_distribution(3, 3), n=20)
    for m in range(2, 7):
        h = 1 << (m - 1)
        assert symmetric_three_weight(closed_form_distribution(1, m), n=2 * h * h)
    for m in (3, 5):
        h = 1 << (m - 1)
        assert symmetric_three_weight(closed_form_distribution(2, m), n=2 * h * h - 2 * h)
    # two nonzero weights never qualify
    assert not symmetric_three_weight({0: 1, 2: 3, 4: 4}, n=4)


def one_magnitude_sets():
    """(family, m, set): family and m are None for the hand-made sets."""
    hand_sets = (
        hand_set(2, (1, 2, 3)),
        hand_set(3, range(1, 8)),  # the full nonzero space
        hand_set(3, range(1, 8), include_zero=True),  # the whole space: no nonzero magnitude
        hand_set(2, ()),  # the empty set: no nonzero magnitude, no members to inherit from
        hand_set(3, (1, 2, 3), include_zero=True),  # a plane: zero is a member, magnitude 4
    )
    for omega in hand_sets:
        yield None, None, omega
    for family, degrees in ((1, range(2, 9)), (2, (3, 5, 7))):
        for m in degrees:
            for poly in (0, largest_irreducible(m)):
                yield family, m, build_omega(GF2m(m, poly), family, "code-column").with_zero(False)


def test_one_magnitude_sets_are_decided_in_closed_form(transform_calls):
    for family, m, omega in one_magnitude_sets():
        assert len(spectrum_magnitudes(omega)) <= 1, omega
        before = len(transform_calls)
        reports = {s: check_sum_set(omega, s) for s in (3, 5, 7)}
        assert len(transform_calls) == before + 3  # one forward transform each, no inverse
        for s, report in reports.items():
            assert report.is_sum_set, (family, m, s)
            expected = sum_set_report_from_counts(omega, representation_counts(omega, s))
            assert report == expected, (family, m, s)
            if m is None or m <= 4:
                counts = representation_counts_by_convolution(omega, s)
                assert report == sum_set_report_from_counts(omega, counts)
            if omega.size**s <= 40000:  # the tuple loop is feasible
                counts = representation_counts_naive(omega, s)
                assert report == sum_set_report_from_counts(omega, counts)


def affine_rule_point_sets():
    """Family point sets (both variants) and seeded random hand sets at K <= 8, zero excluded."""
    for family, degrees in ((1, range(2, 6)), (2, (3, 5))):
        for m in degrees:
            for variant in ("code-column", "paper-column"):
                yield build_omega(GF2m(m), family, variant).with_zero(False)
    rng = random.Random(1009)
    for dim in range(1, 9):
        for _ in range(6):
            size = rng.randrange(1 << dim)
            yield hand_set(dim, rng.sample(range(1, 1 << dim), size))


def test_transform_route_matches_the_report_from_counts(transform_calls):
    """The affine rule on the forward spectrum against the counts of every route."""
    for base in affine_rule_point_sets():
        cases = [(base.with_zero(zero), s) for zero in (False, True) for s in (3, 5, 7, 9, 11)]
        before = len(transform_calls)
        reports = [check_sum_set(omega, s) for omega, s in cases]
        # one forward transform each, no inverse
        assert transform_calls[before:] == [1 << base.ambient_dim] * len(cases)
        for (omega, s), report in zip(cases, reports):
            counts = representation_counts(omega, s)
            assert report == sum_set_report_from_counts(omega, counts), (omega, s)
            assert (sum_set_witness_from_counts(omega, counts) is None) == report.is_sum_set
            if omega.ambient_dim <= 8 and s <= 5:
                counts = representation_counts_by_convolution(omega, s)
                assert report == sum_set_report_from_counts(omega, counts), (omega, s)
            if omega.size**s <= 40000:  # the tuple loop is feasible
                counts = representation_counts_naive(omega, s)
                assert report == sum_set_report_from_counts(omega, counts), (omega, s)


def test_power_line_holds_for_one_odd_power_and_not_the_next():
    # -3 + 1 + 2 = 0 puts the cubes on one line: 7 * x - 6; the fifth powers are on none
    assert sumsets._power_line({x: x**3 for x in (-3, 1, 2)}) == (7, -6)
    assert sumsets._power_line({x: x**5 for x in (-3, 1, 2)}) is None
    with pytest.raises(AssertionError, match="slope"):  # -5 / 13 is no chord slope of x^s
        sumsets._power_line({-4: 7, 9: 2})
    assert sumsets._power_line({4: 5}) == (0, 5)  # one value: beta = 0


def test_sumset_cli_runs_no_transform_and_builds_no_vectors(transform_calls, capsys, monkeypatch):
    def refused(*args):
        raise AssertionError("point-set vectors built")

    # `sumset` imports from `sumsets` when it runs, so it would get the patched names
    for name in ("build_omega", "enumerate_defining_set", "defining_columns"):
        monkeypatch.setattr(sumsets, name, refused)
    for family, m in ((1, 4), (1, 8), (2, 5)):
        for fmt in ("text", "json"):
            argv = ["sumset", "--family", str(family), "--m", str(m), "--format", fmt]
            assert cli.main(argv) == 0, argv
            out = capsys.readouterr().out
            if (family, m, fmt) == (1, 4, "text"):
                assert "code-column, zero excluded, size 128: sum set" in out
                assert "NOT a sum set (T^s is not affine in t over t in [-15, -7, 1, 113])" in out
    assert transform_calls == []  # both variants are counted, with no transform


def test_one_magnitude_iff_symmetric_three_weight():
    for family, degrees in ((1, range(2, 9)), (2, (3, 5, 7)), (3, range(2, 9))):
        for m in degrees:
            ctx = GF2m(m)
            if family == 3:  # not a point set of the paper; its columns are built the same way
                columns = defining_columns(ctx, enumerate_defining_set(ctx, family))
                omega = hand_set(2 * m, columns)
            else:
                omega = build_omega(ctx, family, "code-column").with_zero(False)
            n, wd = hyperplane_distribution(ctx, family)
            assert n == len(omega.vectors)  # projective: one point per column
            one_magnitude = len(spectrum_magnitudes(omega)) == 1
            assert one_magnitude == symmetric_three_weight(wd, n) == (family != 3), (family, m)
