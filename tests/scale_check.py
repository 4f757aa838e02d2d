"""Library `verify` for every family at m = 9..16, past the transform guard,
and under every irreducible polynomial of degree 2..10, the
character-sum conformance sweep at m = 7..10 and under every irreducible
polynomial of degree 2..7, the paper-column counts under every irreducible
polynomial of degree 2..10, and sum sets past the
CLI's cap: family-1 sets at m = 9 and 10 by transform, code-column sets of
family 1 at m = 9..16 and family 2 at odd m = 11..15 from the code's
weights, and paper-column sets of family 1 at m = 9..16 and family 2 at
odd m = 7..15 counted from their vote cells.

Asserts each report is ok, that the report under every irreducible
polynomial equals the one under the default polynomial, at m = 9 and 10
that the per-x hyperplane counts agree with the transform of the defining
set's column counts and that those columns are nonzero and pairwise
distinct, and that every sweep record matches its closed form.
Under every irreducible polynomial the sweep's record counts per (sum, case)
and the `paper_column_counts` set (family 1, and family 2 at odd m) equal
the default polynomial's: these read the slope classes and the trace of
1/a that `verify` does not.  At m = 11..16 under the default polynomial the
units a with trace(1/a) = 0, where the family-1 and family-2 closed forms
depend on b, are asserted to be the nonzero family-1 slopes.
For the family-1 code-column set at m = 9 and 10, and the paper-column set
at m = 9, at s = 3 with zero excluded and included, it asserts that `check_sum_set`
runs one forward transform per call and no inverse, that the code-column
set without zero is a sum set, at m = 9 that every verdict equals the one
read off `representation_counts`, and that `counted_sum_sets` gives the
same reports without a transform, from `code_column_counts` at m = 9 and
10 and from `paper_column_counts` at m = 9.  From m = 11 on,
`counted_sum_sets` of `code_column_counts` alone decides the code-column
sets at s = 3, with no transform: the set without zero is a sum set and
the set with zero is not.  `paper_column_counts` alone, with
no transform, gives each paper-column set at least 4 distinct values of t
over u != 0, so that set is no s-sum set for any odd s >= 3 (the third
divided difference of x^s over 4 distinct reals is positive); its reports
at s = 3 say so.  Prints the wall time of each step.  pytest does
not collect this file.  Run:

    PYTHONPATH=src python tests/scale_check.py
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from collections import Counter

from oracles import irreducibles, sum_set_report_from_counts
from tracecodes import codes, sumsets
from tracecodes.analysis import verify
from tracecodes.charsums import conformance_sweep
from tracecodes.codes import (
    column_spectrum,
    defining_columns,
    enumerate_defining_set,
    hyperplane_distribution,
    paper_covers,
    slope_classes,
    spectrum_distribution,
)
from tracecodes.field import GF2m, trace_table, unit_inverses
from tracecodes.sumsets import (
    build_omega,
    check_sum_set,
    code_column_counts,
    counted_sum_sets,
    paper_column_counts,
    representation_counts,
)

FAMILIES = (1, 2, 3)
DEGREES = range(9, 17)
POLY_DEGREES = range(2, 11)
CONFORMANCE_POLY_DEGREES = range(2, 8)
SPECTRUM_DEGREES = (9, 10)
SWEEP_DEGREES = (7, 8, 9, 10)
RECIPROCAL_SUM_DEGREES = range(11, 17)
SUMSET_CASES = ((9, "code-column"), (9, "paper-column"), (10, "code-column"))
SUMSET_ORACLE_DEGREES = (9,)
WEIGHTS_ROUTE_CASES = tuple((1, m) for m in range(11, 17)) + tuple((2, m) for m in (11, 13, 15))
COUNTING_ROUTE_CASES = tuple((1, m) for m in range(9, 17)) + tuple((2, m) for m in range(7, 16, 2))


@contextmanager
def counted_transforms() -> Iterator[list[int]]:
    """Lengths of the transforms `sumsets` and `codes` run inside the block."""
    transforms: list[int] = []
    transform = sumsets.walsh_hadamard

    def counted(values):
        transforms.append(len(values))
        return transform(values)

    sumsets.walsh_hadamard = codes.walsh_hadamard = counted
    try:
        yield transforms
    finally:
        sumsets.walsh_hadamard = codes.walsh_hadamard = transform


def check_sum_sets(m: int, variant: str) -> None:
    with counted_transforms() as transforms:
        start = time.perf_counter()
        ctx = GF2m(m)
        base = build_omega(ctx, 1, variant)
        print(f"m={m}: family-1 {variant} set of {base.size} points built in"
              f" {time.perf_counter() - start:.2f}s", flush=True)
        reports = []
        for include_zero in (False, True):
            start = time.perf_counter()
            before = len(transforms)
            omega = base.with_zero(include_zero)
            report = check_sum_set(omega, 3)
            reports.append(report)
            assert transforms[before:] == [1 << omega.ambient_dim], (m, variant, transforms)
            if variant == "code-column" and not include_zero:
                assert report.is_sum_set, m
            label = f"{variant}, zero {'included' if include_zero else 'excluded'}"
            print(f"m={m}: {label}, sum set {report.is_sum_set} in {time.perf_counter() - start:.2f}s",
                  flush=True)
            if m in SUMSET_ORACLE_DEGREES:
                start = time.perf_counter()
                expected = sum_set_report_from_counts(omega, representation_counts(omega, 3))
                assert report == expected, (m, variant, include_zero)
                print(f"m={m}: {label}, report == representation_counts' in"
                      f" {time.perf_counter() - start:.2f}s", flush=True)
        if variant == "code-column":
            start = time.perf_counter()
            before = len(transforms)
            assert counted_sum_sets(code_column_counts(ctx, 1), 3) == reports, m
            assert transforms[before:] == [], (m, transforms)
            print(f"m={m}: code-column reports from the weights == the transform's in"
                  f" {time.perf_counter() - start:.2f}s", flush=True)
        else:
            start = time.perf_counter()
            before = len(transforms)
            assert counted_sum_sets(paper_column_counts(ctx, 1), 3) == reports, m
            assert transforms[before:] == [], (m, transforms)
            print(f"m={m}: paper-column reports counted from vote cells == the transform's in"
                  f" {time.perf_counter() - start:.2f}s", flush=True)


def check_weights_route(family: int, m: int) -> None:
    with counted_transforms() as transforms:
        start = time.perf_counter()
        without, with_zero = counted_sum_sets(code_column_counts(GF2m(m), family), 3)
        assert transforms == [], (family, m, transforms)
    assert without.is_sum_set and not with_zero.is_sum_set, (family, m)
    print(f"m={m}: family-{family} code-column sets of {without.set_size} points from the"
          f" weights, sum set without zero only, no transform, in"
          f" {time.perf_counter() - start:.2f}s", flush=True)


def check_counting_route(family: int, m: int) -> None:
    with counted_transforms() as transforms:
        start = time.perf_counter()
        counted = paper_column_counts(GF2m(m), family)
        reports = counted_sum_sets(counted, 3)
        assert transforms == [], (family, m, transforms)
    # P, the values of T = t + [0 in set], has as many values as t
    assert len(counted.histogram) >= 4, (family, m, counted.histogram)
    assert not any(r.is_sum_set for r in reports), (family, m)
    print(f"m={m}: family-{family} paper-column set of {counted.members} nonzero points counted"
          f" from vote cells, {len(counted.histogram)} values of t, no sum set, no transform, in"
          f" {time.perf_counter() - start:.2f}s", flush=True)


def check_every_polynomial(m: int) -> None:
    start = time.perf_counter()
    polys = irreducibles(m)
    for family in FAMILIES:
        expected = verify(family, m)
        for poly in polys:
            assert verify(family, m, poly) == expected, (family, m, poly)
    print(f"m={m}: verify families 1-3 equal under all {len(polys)} irreducible polynomials in"
          f" {time.perf_counter() - start:.2f}s", flush=True)


def conformance_counts(ctx: GF2m) -> Counter[tuple[str, str]]:
    """Sweep records per (sum, case); asserts that every record matches."""
    counts: Counter[tuple[str, str]] = Counter()
    for record in conformance_sweep(ctx):
        assert record.match, (ctx, record)
        counts[record.sum_name, record.case] += 1
    return counts


def check_every_polynomial_conformance(m: int) -> None:
    start = time.perf_counter()
    polys = irreducibles(m)
    expected = conformance_counts(GF2m(m))
    for poly in polys:
        assert conformance_counts(GF2m(m, poly)) == expected, (m, poly)
    print(f"m={m}: charsums {sum(expected.values())} records, 0 mismatches and equal counts per"
          f" (sum, case) under all {len(polys)} irreducible polynomials in"
          f" {time.perf_counter() - start:.2f}s", flush=True)


def check_every_polynomial_paper_column(m: int) -> None:
    start = time.perf_counter()
    polys = irreducibles(m)
    families = [f for f in (1, 2) if paper_covers(f, m)]
    for family in families:
        expected = paper_column_counts(GF2m(m), family)
        for poly in polys:
            assert paper_column_counts(GF2m(m, poly), family) == expected, (family, m, poly)
    print(f"m={m}: paper-column counts of families {families} equal under all {len(polys)}"
          f" irreducible polynomials in {time.perf_counter() - start:.2f}s", flush=True)


def check_reciprocal_sum_set(m: int) -> None:
    start = time.perf_counter()
    ctx = GF2m(m)
    tr, inv = trace_table(ctx), unit_inverses(ctx)
    sums = {a for a in ctx.units() if tr[inv[a]] == 0}
    assert len(sums) == ctx.size // 2 - 1, m
    assert sums == set(slope_classes(ctx, 1)) - {0}, m
    print(f"m={m}: the {len(sums)} units with trace(1/a) = 0 are the nonzero family-1 slopes in"
          f" {time.perf_counter() - start:.2f}s", flush=True)


def main() -> None:
    for m in POLY_DEGREES:
        check_every_polynomial(m)
        check_every_polynomial_paper_column(m)
    for m in CONFORMANCE_POLY_DEGREES:
        check_every_polynomial_conformance(m)
    for m, variant in SUMSET_CASES:
        check_sum_sets(m, variant)
    for family, m in WEIGHTS_ROUTE_CASES:
        check_weights_route(family, m)
    for family, m in COUNTING_ROUTE_CASES:
        check_counting_route(family, m)
    for m in RECIPROCAL_SUM_DEGREES:
        check_reciprocal_sum_set(m)
    for m in SWEEP_DEGREES:
        start = time.perf_counter()
        records = mismatches = 0
        for record in conformance_sweep(GF2m(m)):  # streamed: 3.1 million records at m = 10
            records += 1
            mismatches += not record.match
        assert mismatches == 0, (m, mismatches)
        elapsed = time.perf_counter() - start
        print(f"m={m}: charsums {records} records, 0 mismatches in {elapsed:.2f}s", flush=True)
    for m in DEGREES:
        start = time.perf_counter()
        for family in FAMILIES:
            report = verify(family, m)
            assert report.ok, (family, m, report.notes)
        elapsed = time.perf_counter() - start
        print(f"m={m}: verify families 1-3 ok in {elapsed:.2f}s", flush=True)
        if m in SPECTRUM_DEGREES:
            ctx = GF2m(m)
            for family in FAMILIES:
                columns = defining_columns(ctx, enumerate_defining_set(ctx, family))
                t = column_spectrum(columns, 2 * m)
                got = hyperplane_distribution(ctx, family)
                assert got == (t[0], spectrum_distribution(t)), (family, m)
                # the column half of projectivity `verify` reads from trace_coordinates
                assert 0 not in columns and len(set(columns)) == len(columns), (family, m)
            print(f"m={m}: hyperplane counts == column spectrum, distinct nonzero columns", flush=True)


if __name__ == "__main__":
    main()
