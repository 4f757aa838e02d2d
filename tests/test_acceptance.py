"""Numbered end-to-end acceptance checks, one printed verdict line each.

Every comparison is exact integer equality.  Each test evaluates its whole
criterion first, prints one 'ACCEPTANCE <n>: PASS|FAIL' line, then asserts.
Run with -s (or read captured output) to see the verdict lines.
"""

from __future__ import annotations

import time
from functools import lru_cache

from oracles import (
    brute_minimal,
    dual_code,
    family_code,
    gray_weight_distribution,
    representation_counts_by_convolution,
    representation_counts_naive,
)
from tracecodes.analysis import (
    ab_minimal,
    closed_form_distribution,
    griesmer_classify,
    is_projective,
    pless_dual_counts,
    verify,
)
from tracecodes.charsums import conformance_sweep
from tracecodes.codes import hyperplane_distribution, minimum_distance, weight_distribution
from tracecodes.field import GF2m
from tracecodes.sumsets import VARIANTS, build_omega, check_sum_set, representation_counts

NAIVE_TUPLE_LIMIT = 1_000_000

SMALL_CASES = tuple((1, m) for m in range(2, 7)) + ((2, 3), (2, 5)) + tuple(
    (3, m) for m in range(2, 7)
)
LARGE_CASES = ((1, 7), (2, 7), (3, 7))

FROZEN_SMALL_CODES = {
    (1, 2): (8, 4, 2, {0: 1, 2: 1, 4: 11, 6: 3}),
    (1, 3): (32, 6, 12, {0: 1, 12: 6, 16: 47, 20: 10}),
    (2, 3): (24, 6, 8, {0: 1, 8: 6, 12: 48, 16: 9}),
    (2, 5): (480, 10, 224, {0: 1, 224: 120, 240: 768, 256: 135}),
    (3, 2): (8, 4, 3, {0: 1, 3: 4, 4: 5, 5: 4, 6: 2}),
    (3, 3): (32, 6, 14, {0: 1, 14: 24, 16: 11, 18: 24, 20: 4}),
}


def _verdict(number: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {tag}{suffix}", flush=True)


@lru_cache(maxsize=None)
def _code(family: int, m: int):
    return family_code(family, m)


@lru_cache(maxsize=None)
def _wd(family: int, m: int):
    return weight_distribution(_code(family, m))


def test_01_six_frozen_parameter_rows():
    start = time.monotonic()
    bad = []
    for (family, m), (n, k, d, counts) in FROZEN_SMALL_CODES.items():
        code = _code(family, m)
        wd = _wd(family, m)
        got = (code.n, code.k, minimum_distance(wd))
        if got != (n, k, d) or wd != counts:
            bad.append((family, m, got, wd))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 5.0
    _verdict(1, ok, f"6 codes rebuilt and matched in {elapsed:.2f}s")
    assert not bad, bad
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_02_closed_form_distributions_through_m7():
    bad = []
    for family, m in SMALL_CASES:
        if _wd(family, m) != closed_form_distribution(family, m):
            bad.append((family, m))
    start = time.monotonic()
    for family, m in LARGE_CASES:
        if _wd(family, m) != closed_form_distribution(family, m):
            bad.append((family, m))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    _verdict(
        2,
        ok,
        f"{len(SMALL_CASES)} small cases, m=7 for all families in {elapsed:.2f}s",
    )
    assert not bad, bad
    assert elapsed < 60.0, f"m=7 enumeration took {elapsed:.2f}s, budget 60s"


def test_03_character_sum_conformance_m2_to_m6():
    total = 0
    mismatches = []
    for m in range(2, 7):
        records = list(conformance_sweep(GF2m(m)))
        expected = ((1 << (2 * m)) - 1) * (4 if m % 2 else 3)
        assert len(records) == expected, (m, len(records), expected)
        total += len(records)
        mismatches.extend((m, r.sum_name, r.a, r.b) for r in records if not r.match)
    ok = not mismatches
    _verdict(3, ok, f"{total} coefficient pairs swept, {len(mismatches)} mismatches")
    assert not mismatches, mismatches[:10]


def test_04_projectivity_both_routes_and_dual_distance():
    bad = []
    for family, m in SMALL_CASES + LARGE_CASES:
        code = _code(family, m)
        duals = pless_dual_counts(_wd(family, m), code.n, code.k)
        if not is_projective(code) or duals != (0, 0):
            bad.append((family, m, duals))
    dual_distances = {}
    for family in (1, 3):
        dwd = weight_distribution(dual_code(_code(family, 2)))
        dual_distances[family] = minimum_distance(dwd)
    distance_ok = all(d >= 3 for d in dual_distances.values())
    ok = not bad and distance_ok
    _verdict(
        4,
        ok,
        f"{len(SMALL_CASES + LARGE_CASES)} cases projective; "
        f"m=2 dual distances {dual_distances[1]} and {dual_distances[3]}",
    )
    assert not bad, bad
    assert distance_ok, dual_distances


def test_05_griesmer_class_of_the_8_4_3_code():
    got = griesmer_classify(8, 4, 3)
    ok = got == "almost-optimal"
    _verdict(5, ok, f"griesmer_classify(8,4,3) = {got}")
    assert ok, got


# Ashikhmin-Barg verdicts at m = 3..6, from the closed forms with h = 2^(m-1):
# wmin/wmax is (h-1)/(h+1) for family 1, (h-2)/h for family 2 at odd m and
# (2h-1)/(2h+2) for family 3; family 2 at even m follows the family-1 table.
# Each ratio exceeds 1/2 for h >= 4 except (h-2)/h, which is exactly 1/2 at
# h = 4.  So the strict condition fails only for family 2 at m = 3, whose
# weights are 8, 12, 16: 2*8 = 16 is not > 16, yet the code is minimal.
SUFFICIENT_CONDITION_FAILS = {(2, 3)}


def test_06_minimality_for_all_families_at_m3_to_m6():
    bad = []
    sufficient_fails = set()
    for family in (1, 2, 3):
        for m in range(3, 7):
            if brute_minimal(_code(family, m)) is not True:
                bad.append(f"family {family} m={m}: exhaustive check false")
            if verify(family, m).brute_minimal is not True:
                bad.append(f"family {family} m={m}: verify's exact check false")
            if not ab_minimal(_wd(family, m)):
                sufficient_fails.add((family, m))
    boundary_weights = tuple(sorted(w for w in _wd(2, 3) if w))
    if boundary_weights != (8, 12, 16):
        bad.append(f"family 2 m=3: weights {boundary_weights}, expected (8, 12, 16)")
    if sufficient_fails != SUFFICIENT_CONDITION_FAILS:
        bad.append(f"sufficient condition fails for {sorted(sufficient_fails)}, expected only (2, 3)")
    ok = not bad
    _verdict(
        6,
        ok,
        "; ".join(bad)
        if bad
        else "12 cases minimal by exhaustive check and by verify's exact check; "
        "sufficient condition holds in 11, "
        "fails at the ratio-1/2 boundary family 2 m=3 (2*8 = 16 is not > 16)",
    )
    assert ok, bad


def _independent_counts(omega, s):
    if omega.size**s <= NAIVE_TUPLE_LIMIT:
        return representation_counts_naive(omega, s)
    return representation_counts_by_convolution(omega, s)


def test_07_sum_set_property_for_some_configuration():
    cases = [(1, 2), (1, 3), (2, 3)]
    bad = []
    passing_log = []
    for family, m in cases:
        for s in (3, 5):
            start = time.monotonic()
            passing = []
            for variant in VARIANTS:
                base = build_omega(GF2m(m), family, variant)
                for include_zero in (False, True):
                    omega = base.with_zero(include_zero)
                    counts = representation_counts(omega, s)
                    if counts != _independent_counts(omega, s):
                        bad.append((family, m, s, variant, include_zero, "count cross-check"))
                    if check_sum_set(omega, s).is_sum_set:
                        passing.append(f"{variant}/zero-{'in' if include_zero else 'ex'}cluded")
            elapsed = time.monotonic() - start
            if not passing:
                bad.append((family, m, s, "no configuration passes"))
            if elapsed >= 10.0:
                bad.append((family, m, s, f"took {elapsed:.2f}s, budget 10s"))
            passing_log.append(f"family {family} m={m} s={s}: {', '.join(passing) or 'none'}")
    ok = not bad
    _verdict(7, ok, "; ".join(passing_log))
    assert not bad, bad


def test_08_invariance_under_reduction_polynomial():
    bad = []
    for family in (1, 2, 3):
        per_poly = []
        for poly in (0b10011, 0b11001):
            code = family_code(family, 4, poly)
            per_poly.append(weight_distribution(code))
            if per_poly[-1] != gray_weight_distribution(code):
                bad.append((family, poly, "transform != Gray enumeration"))
            if hyperplane_distribution(GF2m(4, poly), family) != (code.n, per_poly[-1]):
                bad.append((family, poly, "hyperplane counts != transform"))
        if per_poly[0] != per_poly[1]:
            bad.append((family, "polynomial"))
    ok = not bad
    _verdict(
        8,
        ok,
        "3 families stable under reduction polynomial; "
        "transform == Gray enumeration == hyperplane counts",
    )
    assert not bad, bad


def test_09_even_m_family2_coincidence_recorded():
    verdicts = {}
    for m in (2, 4):
        verdicts[m] = _wd(2, m) == _wd(1, m)
    detail = ", ".join(
        f"m={m}: distributions {'equal' if same else 'DIFFER'}" for m, same in verdicts.items()
    )
    _verdict(9, True, f"recorded, informational; {detail}")
    assert set(verdicts) == {2, 4}
