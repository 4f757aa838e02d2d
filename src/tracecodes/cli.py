"""Command-line front end.

Subcommands: construct (defining set and generator matrix), verify (full
per-code report), charsums (closed-form conformance dump), sumset (s-fold
XOR verdicts), sweep (verify across families and field degrees).

Exit codes: 0 all checked claims hold, 1 a claim failed, 2 bad usage,
3 instance too large for exact computation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis import VerificationReport, verify
from .charsums import conformance_sweep
from .codes import WeightDistribution, enumerate_defining_set, generator_matrix, matrix_text
from .field import GF2m
from .sumsets import VARIANTS, build_omega, check_sum_set
from .walsh import TooLargeError


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def json_line(obj: object) -> str:
    return json.dumps(obj, sort_keys=True)


def enumerator_string(wd: WeightDistribution) -> str:
    """Render a weight distribution as '1 + 4x^3 + 5x^4 + ...'."""
    terms = []
    for w in sorted(wd):
        count = wd[w]
        if count == 0:
            continue
        if w == 0:
            terms.append(str(count))
        else:
            coeff = "" if count == 1 else str(count)
            terms.append(f"{coeff}x^{w}")
    return " + ".join(terms) if terms else "0"


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _verify_lines(report: VerificationReport) -> list[str]:
    lines = [
        f"family {report.family}, m={report.m}: [{report.n}, {report.k}, {report.d}] code",
        f"weight enumerator: {enumerator_string(report.counts)}",
        f"table match: {'yes' if report.table_match else 'NO'}",
        f"projective: {'yes' if report.projective else 'NO'}"
        f" (dual weight-1/weight-2 counts: {report.dual_counts.weight1}, {report.dual_counts.weight2})",
        f"griesmer: {report.griesmer}",
        f"minimal, sufficient condition: {'yes' if report.ab_minimal else 'no'}",
        f"minimal, exhaustive: {'yes' if report.brute_minimal else 'no'}",
    ]
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append("result: ok" if report.ok else "result: FAILED")
    return lines


def _cmd_construct(args: argparse.Namespace) -> int:
    ctx = GF2m(args.m)
    dset = enumerate_defining_set(ctx, args.family)
    code = generator_matrix(ctx, dset)
    if args.family == 2 and args.m % 2 == 0:
        print("note: even m; closed-form results do not cover this code", file=sys.stderr)
    if args.format == "json":
        payload = {
            "family": args.family,
            "m": args.m,
            "n": code.n,
            "k": code.k,
            "defining_pairs": len(dset),
            "rows": matrix_text(code).splitlines(),
        }
        _emit(args, canonical_json(payload))
    else:
        header = f"family {args.family} m={args.m}: n={code.n} k={code.k}, {len(dset)} defining pairs"
        _emit(args, header + "\n" + matrix_text(code))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(args.family, args.m)
    if args.format == "json":
        _emit(args, canonical_json(report.to_json_dict()))
    else:
        _emit(args, "\n".join(_verify_lines(report)))
    return 0 if report.ok else 1


def _cmd_charsums(args: argparse.Namespace) -> int:
    ctx = GF2m(args.m)
    records = list(conformance_sweep(ctx))
    mismatch_count = sum(1 for r in records if not r.match)
    skipped = [] if args.m % 2 else ["family2"]
    if args.format == "json":
        lines = [
            json_line(
                {
                    "sum": r.sum_name,
                    "a": r.a,
                    "b": r.b,
                    "oracle": r.oracle,
                    "case": r.case,
                    "candidates": list(r.candidates),
                    "match": r.match,
                }
            )
            for r in records
        ]
        lines.append(
            json_line(
                {
                    "m": args.m,
                    "total": len(records),
                    "mismatches": mismatch_count,
                    "skipped": skipped,
                }
            )
        )
        _emit(args, "\n".join(lines))
    else:
        lines = [
            f"{r.sum_name} a={r.a} b={r.b}: oracle={r.oracle} [{r.case}]"
            f" candidates={list(r.candidates)} {'ok' if r.match else 'MISMATCH'}"
            for r in records
        ]
        for name in skipped:
            lines.append(f"{name}: skipped, closed form stated for odd m only")
        lines.append(f"total {len(records)} cases, {mismatch_count} mismatches")
        _emit(args, "\n".join(lines))
    return 0 if mismatch_count == 0 else 1


def _cmd_sumset(args: argparse.Namespace) -> int:
    if args.family == 2 and args.m % 2 == 0:
        print("error: family-2 point sets are built for odd m only", file=sys.stderr)
        return 2
    ctx = GF2m(args.m)
    variants = list(VARIANTS) if args.variant == "both" else [args.variant]
    reports = []
    for variant in variants:
        base = build_omega(ctx, args.family, variant)
        if args.zero == "both":
            batch = [base.with_zero(False), base.with_zero(True)]
        elif args.zero == "as-built":
            batch = [base]
        else:
            batch = [base.with_zero(args.zero == "with")]
        for omega in batch:
            reports.append(check_sum_set(omega, args.s))
    if args.format == "json":
        payload = {
            "family": args.family,
            "m": args.m,
            "s": args.s,
            "reports": [r.to_json_dict() for r in reports],
            "any_sum_set": any(r.is_sum_set for r in reports),
        }
        _emit(args, canonical_json(payload))
    else:
        lines = []
        for r in reports:
            tag = f"{r.variant}, zero {'included' if r.include_zero else 'excluded'}, size {r.set_size}"
            if r.is_sum_set:
                lines.append(
                    f"{tag}: sum set (count {r.sigma_members} on members,"
                    f" {r.sigma_outside} outside, {r.count_at_zero} at zero)"
                )
            else:
                lines.append(f"{tag}: NOT a sum set (counts differ at {r.witness})")
        _emit(args, "\n".join(lines))
    return 0 if any(r.is_sum_set for r in reports) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    claimed: list[VerificationReport] = []
    informational: list[VerificationReport] = []
    for family in (1, 2, 3):
        for m in range(2, args.max_m + 1):
            report = verify(family, m)
            if family == 2 and m % 2 == 0:
                informational.append(report)
            else:
                claimed.append(report)
    all_ok = all(r.ok for r in claimed)
    if args.format == "json":
        payload = {
            "max_m": args.max_m,
            "rows": [r.to_json_dict() for r in claimed],
            "informational": [r.to_json_dict() for r in informational],
            "all_ok": all_ok,
        }
        _emit(args, canonical_json(payload))
    else:
        lines = []
        for r in claimed:
            lines.append(
                f"family {r.family} m={r.m}: [{r.n}, {r.k}, {r.d}]"
                f" table={'yes' if r.table_match else 'NO'}"
                f" projective={'yes' if r.projective else 'NO'}"
                f" griesmer={r.griesmer}"
                f" sufficient={'yes' if r.ab_minimal else 'no'}"
                f" exhaustive={'yes' if r.brute_minimal else 'no'}"
                f" {'ok' if r.ok else 'FAILED'}"
            )
        for r in informational:
            lines.append(
                f"family 2 m={r.m} (informational, even m): [{r.n}, {r.k}, {r.d}]"
                f" matches family-1 table: {'yes' if r.table_match else 'no'}"
            )
        lines.append("all claimed rows ok" if all_ok else "FAILURES above")
        _emit(args, "\n".join(lines))
    return 0 if all_ok else 1


def _odd_exponent(text: str) -> int:
    value = int(text)
    if value <= 1 or value % 2 == 0:
        raise argparse.ArgumentTypeError("s must be odd and greater than 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracecodes",
        description="Construct and verify few-weight binary codes built from trace conditions over GF(2^m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("construct", help="print the defining set size and generator matrix")
    p.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--m", type=int, choices=tuple(range(2, 9)), required=True)
    add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check every claimed property of one code")
    p.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--m", type=int, choices=tuple(range(2, 9)), required=True)
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("charsums", help="dump oracle vs closed-form for every coefficient pair")
    p.add_argument("--m", type=int, choices=tuple(range(2, 7)), required=True)
    add_common(p)
    p.set_defaults(func=_cmd_charsums)

    p = sub.add_parser("sumset", help="check the s-fold XOR sum-set property of derived point sets")
    p.add_argument("--family", type=int, choices=(1, 2), required=True)
    p.add_argument("--m", type=int, choices=tuple(range(2, 9)), required=True)
    p.add_argument("--s", type=_odd_exponent, default=3)
    p.add_argument("--variant", choices=VARIANTS + ("both",), default="both")
    p.add_argument(
        "--zero",
        choices=("as-built", "with", "without", "both"),
        default="both",
        help="whether the zero vector is included as a member",
    )
    add_common(p)
    p.set_defaults(func=_cmd_sumset)

    p = sub.add_parser("sweep", help="verify all families across a range of field degrees")
    p.add_argument("--max-m", type=int, choices=tuple(range(2, 8)), default=6)
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
