"""Library `verify` for every family at m = 9..16, past the transform guard,
the character-sum conformance sweep at m = 7 and 8, and family-1 sum sets
at m = 9 and 10, each past the CLI's cap.

Asserts each report is ok, at m = 9 and 10 that the per-x hyperplane
counts agree with the transform of the defining set's column counts, and
that every sweep record matches its closed form.  For the family-1
code-column set at m = 9 and 10, and the paper-column set at m = 9, at
s = 3 with zero excluded and included, it asserts that `check_sum_set`
runs one forward transform per point set and no inverse, that the
code-column set without zero is a sum set, and at m = 9 that every
verdict equals the one read off `representation_counts`.  Prints the wall
time of each step.  pytest does not collect this file.  Run:

    PYTHONPATH=src python tests/scale_check.py
"""

from __future__ import annotations

import time

from oracles import family_spectrum, sum_set_report_from_counts
from tracecodes import sumsets
from tracecodes.analysis import verify
from tracecodes.charsums import conformance_sweep
from tracecodes.codes import hyperplane_distribution
from tracecodes.field import GF2m
from tracecodes.sumsets import build_omega, check_sum_set, representation_counts

FAMILIES = (1, 2, 3)
DEGREES = range(9, 17)
SPECTRUM_DEGREES = (9, 10)
SWEEP_DEGREES = (7, 8)
SUMSET_CASES = ((9, "code-column"), (9, "paper-column"), (10, "code-column"))
SUMSET_ORACLE_DEGREES = (9,)


def check_sum_sets(m: int, variant: str) -> None:
    transforms: list[int] = []
    transform = sumsets.walsh_hadamard

    def counted(values):
        transforms.append(len(values))
        return transform(values)

    sumsets.walsh_hadamard = counted
    try:
        start = time.perf_counter()
        base = build_omega(GF2m(m), 1, variant)
        print(f"m={m}: family-1 {variant} set of {base.size} points built in"
              f" {time.perf_counter() - start:.2f}s", flush=True)
        for include_zero in (False, True):
            start = time.perf_counter()
            before = len(transforms)
            omega = base.with_zero(include_zero)
            report = check_sum_set(omega, 3)
            forward = [] if include_zero else [1 << omega.ambient_dim]  # shared with zero
            assert transforms[before:] == forward, (m, variant, transforms)  # no inverse
            if variant == "code-column" and not include_zero:
                assert report.is_sum_set, m
            label = f"{variant}, zero {'included' if include_zero else 'excluded'}"
            print(f"m={m}: {label}, sum set {report.is_sum_set} in {time.perf_counter() - start:.2f}s",
                  flush=True)
            if m in SUMSET_ORACLE_DEGREES:
                start = time.perf_counter()
                expected = sum_set_report_from_counts(omega, 3, representation_counts(omega, 3))
                assert report == expected, (m, variant, include_zero)
                print(f"m={m}: {label}, report == representation_counts' in"
                      f" {time.perf_counter() - start:.2f}s", flush=True)
    finally:
        sumsets.walsh_hadamard = transform
        sumsets._spectrum_memo.clear()  # the memo pins the last set and its 2^K spectrum


def main() -> None:
    for m, variant in SUMSET_CASES:
        check_sum_sets(m, variant)
    for m in SWEEP_DEGREES:
        start = time.perf_counter()
        records = list(conformance_sweep(GF2m(m)))
        mismatches = sum(not r.match for r in records)
        assert mismatches == 0, (m, mismatches)
        elapsed = time.perf_counter() - start
        print(f"m={m}: charsums {len(records)} records, 0 mismatches in {elapsed:.2f}s", flush=True)
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
                spectrum = family_spectrum(ctx, family)
                got = hyperplane_distribution(ctx, family)
                assert got == (spectrum.n, spectrum.distribution()), (family, m)
            print(f"m={m}: hyperplane counts == column spectrum for families 1-3", flush=True)


if __name__ == "__main__":
    main()
