"""Library `verify` for every family at m = 9..16, past the transform guard,
and the character-sum conformance sweep at m = 7 and 8, past the CLI's cap.

Asserts each report is ok, at m = 9 and 10 that the per-x hyperplane
counts agree with the transform of the defining set's column counts, and
that every sweep record matches its closed form; prints the wall time of
each step.  pytest does not collect this file.  Run:

    PYTHONPATH=src python tests/scale_check.py
"""

from __future__ import annotations

import time

from oracles import family_spectrum
from tracecodes.analysis import verify
from tracecodes.charsums import conformance_sweep
from tracecodes.codes import hyperplane_distribution
from tracecodes.field import GF2m

FAMILIES = (1, 2, 3)
DEGREES = range(9, 17)
SPECTRUM_DEGREES = (9, 10)
SWEEP_DEGREES = (7, 8)


def main() -> None:
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
