"""Command-line front end.

Subcommands: construct (defining set and generator matrix), verify (full
per-code report), charsums (closed-form conformance dump), sumset (s-fold
XOR verdicts), sweep (verify across families and field degrees).

Exit codes: 0 all checked claims hold, 1 a claim failed, 2 bad usage or an
unwritable `--out` or stdout, 3 instance too large for exact computation.

Each subcommand imports the modules it runs when it runs, so a process
loads only those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import TYPE_CHECKING, Sequence, TextIO

from .walsh import TooLargeError

if TYPE_CHECKING:
    from .analysis import VerificationReport
    from .charsums import CharSumValue
    from .codes import WeightDistribution


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def json_line(obj: object) -> str:
    return json.dumps(obj, sort_keys=True)


def enumerator_string(wd: WeightDistribution) -> str:
    """Render a weight distribution as '1 + 4x^3 + 5x^4 + ...'."""
    terms = [f"{'' if c == 1 else c}x^{w}" if w else str(c) for w, c in sorted(wd.items()) if c]
    return " + ".join(terms) or "0"


def _to_devnull(stream: TextIO) -> None:
    """Point the stream's fd at devnull, so that what is still buffered goes there at shutdown."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _emit(args: argparse.Namespace, text: str) -> None:
    if not args.out:
        try:
            print(text)
            sys.stdout.flush()  # here, not at shutdown, where a failed write would exit 1
        except OSError as exc:  # the reader left, or the device is full
            _to_devnull(sys.stdout)
            try:
                print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
            except OSError:  # stderr is the same closed pipe (`2>&1 | head -1`)
                _to_devnull(sys.stderr)
            raise SystemExit(2) from exc
        return
    try:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    except OSError as exc:  # a usage error, reported as argparse reports those
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


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
    lines += [f"note: {note}" for note in report.notes]
    lines.append("result: ok" if report.ok else "result: FAILED")
    return lines


def _cmd_construct(args: argparse.Namespace) -> int:
    from .codes import enumerate_defining_set, generator_matrix, matrix_text, paper_covers
    from .field import GF2m

    ctx = GF2m(args.m)
    dset = enumerate_defining_set(ctx, args.family)
    code = generator_matrix(ctx, dset)
    if not paper_covers(args.family, args.m):
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
    from .analysis import verify

    report = verify(args.family, args.m)
    if args.format == "json":
        _emit(args, canonical_json(report.to_json_dict()))
    else:
        _emit(args, "\n".join(_verify_lines(report)))
    return 0 if report.ok else 1


def _json_record_parts(name: str, value: CharSumValue) -> tuple[str, str]:
    return (
        f'"candidates": {json_line(list(value.candidates))}, "case": {json_line(value.case)}',
        f'"sum": {json_line(name)}',
    )


def _json_record(parts: tuple[str, str], a: int, b: int, oracle: int, match: bool) -> str:
    """`json_line` of the record's dict, keys in sorted order, with the per-value parts spliced in."""
    return (
        f'{{"a": {a}, "b": {b}, {parts[0]}, "match": {"true" if match else "false"},'
        f' "oracle": {oracle}, {parts[1]}}}'
    )


def _text_record_parts(name: str, value: CharSumValue) -> tuple[str, str]:
    return name, f"[{value.case}] candidates={list(value.candidates)}"


def _text_record(parts: tuple[str, str], a: int, b: int, oracle: int, match: bool) -> str:
    return f"{parts[0]} a={a} b={b}: oracle={oracle} {parts[1]} {'ok' if match else 'MISMATCH'}"


def _cmd_charsums(args: argparse.Namespace) -> int:
    """One line per (a, b) != (0, 0) and sum, written from each a's rows.

    The text of each distinct (sum, closed form) is rendered once; each
    record adds a, b, the observed value and whether it matched.
    """
    from .charsums import conformance_rows
    from .codes import FAMILIES, paper_covers
    from .field import GF2m

    ctx = GF2m(args.m)
    if args.format == "json":
        record_parts, record = _json_record_parts, _json_record
    else:
        record_parts, record = _text_record_parts, _text_record
    parts = cache(record_parts)
    lines: list[str] = []
    mismatch_count = 0
    for a, rows in conformance_rows(ctx):
        rendered = [
            (observed, picks, matches, [parts(name, v) for v in values])
            for name, observed, values, picks, matches in rows
        ]
        for b in range(0 if a else 1, ctx.size):
            for observed, picks, matches, row_parts in rendered:
                mismatch_count += not matches[b]
                lines.append(record(row_parts[picks[b]], a, b, observed[b], matches[b]))
    total = len(lines)
    skipped = [f"family{f}" for f in FAMILIES if not paper_covers(f, args.m)]
    if args.format == "json":
        lines.append(
            json_line({"m": args.m, "total": total, "mismatches": mismatch_count, "skipped": skipped})
        )
    else:
        for name in skipped:
            lines.append(f"{name}: skipped, closed form stated for odd m only")
        lines.append(f"total {total} cases, {mismatch_count} mismatches")
    _emit(args, "\n".join(lines))
    return 0 if mismatch_count == 0 else 1


def _require_printable_counts(size: int, s: int) -> None:
    """Refuse an s whose counts could not be printed under the int-to-str digit limit.

    Each printed count is at most size^s < 2^(s * bit_length(size)), and a
    number below 2^bits has at most bits * 0.30103 + 1 decimal digits.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    bits = s * size.bit_length()
    digits = bits * 30103 // 100000 + 1
    if limit and digits > limit:
        raise TooLargeError(
            f"s = {s} over {size} points: printed counts estimated at {bits} bits"
            f" (s * bit_length(size)), up to {digits} decimal digits, over the interpreter's"
            f" {limit}-digit limit for converting an int to text"
        )


def _cmd_sumset(args: argparse.Namespace) -> int:
    """Decide each counted point set, with and without zero, with no vectors and no transform.

    Every set's printed counts are guarded before any set is decided.  Text
    names why a set is not a sum set: the values of t, the transform of its
    nonzero members over u != 0, on which T^s = (t + [0 in set])^s is not affine.
    """
    from .codes import paper_covers
    from .field import GF2m
    from .sumsets import COUNTED_VARIANTS, counted_sum_sets

    if not paper_covers(args.family, args.m):
        print("error: family-2 point sets are built for odd m only", file=sys.stderr)
        return 2
    ctx = GF2m(args.m)
    sets = [(variant, count(ctx, args.family)) for variant, count in COUNTED_VARIANTS.items()]
    for _, counted in sets:
        for zero in (0, 1):
            _require_printable_counts(counted.members + zero, args.s)
    decided = [
        (report, variant, counted)
        for variant, counted in sets
        for report in counted_sum_sets(counted, args.s)
    ]
    any_sum_set = any(r.is_sum_set for r, _, _ in decided)
    if args.format == "json":
        provenance = {"family": args.family, "m": args.m, "s": args.s}
        payload = {
            **provenance,
            "reports": [{**provenance, "variant": v, **r.to_json_dict()} for r, v, _ in decided],
            "any_sum_set": any_sum_set,
        }
        _emit(args, canonical_json(payload))
    else:
        lines = []
        for r, variant, counted in decided:
            tag = f"{variant}, zero {'included' if r.include_zero else 'excluded'}, size {r.set_size}"
            if r.is_sum_set:
                lines.append(
                    f"{tag}: sum set (count {r.sigma_members} on members,"
                    f" {r.sigma_outside} outside, {r.count_at_zero} at zero)"
                )
            else:
                values = sorted(counted.histogram)
                lines.append(f"{tag}: NOT a sum set (T^s is not affine in t over t in {values})")
        _emit(args, "\n".join(lines))
    return 0 if any_sum_set else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import verify
    from .codes import FAMILIES, paper_covers

    claimed: list[VerificationReport] = []
    informational: list[VerificationReport] = []
    for family in FAMILIES:
        for m in range(2, args.max_m + 1):
            report = verify(family, m)
            (claimed if paper_covers(family, m) else informational).append(report)
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
    try:
        value = int(text)
        if value > 1 and value % 2:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("s must be an odd integer greater than 1")


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
