"""Regenerate `reference.json`, the expected answer of every benchmark invocation.

    python3 perfbench/make_reference.py

Runs each invocation of every workload, at full and smoke scale, through
the CLI of this checkout and keeps the answer-carrying fields of its output
and its exit code.  Before writing, every answer is cross-checked against
the closed-form weight tables of the three families, the parameter
formulas and the documented exceptions, independently of the library's
own copy of those tables; any disagreement aborts without writing.
"""

from __future__ import annotations

import json
import sys

import answers
from run import run_cli
from workloads import WORKLOADS


def closed_form(family: int, m: int) -> dict[int, int]:
    """Nonzero weights of the family's code, with multiplicities (h = 2^(m-1))."""
    h = 1 << (m - 1)
    if family == 1:
        return {h * (h - 1): h // 2 * (h - 1), h * h: 3 * h * h - 1, h * (h + 1): h // 2 * (h + 1)}
    if family == 2:
        return {2 * h * (h // 2 - 1): h // 2 * (h - 1), h * (h - 1): 3 * h * h, h * h: h // 2 * (h + 1) - 1}
    return {
        h // 2 * (2 * h - 1): 2 * h * (h - 1),
        h * h: 3 * h - 1,
        h // 2 * (2 * h + 1): 2 * h * (h - 1),
        h * (h + 1): h,
    }


def check_code(row: dict, claimed: bool) -> list[str]:
    family, m = row["family"], row["m"]
    weights = {w: c for w, c in row["counts"] if w}
    table = closed_form(family if claimed else 1, m)
    errors = []
    if row["k"] != 2 * m or sum(weights.values()) != (1 << row["k"]) - 1:
        errors.append("dimension")
    if row["table_match"] != (weights == table) or (claimed and weights != table):
        errors.append(f"weights {weights} against closed form {table}")
    if claimed:
        n = (1 << (2 * m - 1)) - (1 << m if family == 2 else 0)
        if row["n"] != n or not row["projective"] or (row["dual_weight1"], row["dual_weight2"]) != (0, 0):
            errors.append("length or projectivity")
    if row["d"] != min(weights) or row["ab_minimal"] != (2 * min(weights) > max(weights)):
        errors.append("minimum distance or sufficient minimality condition")
    if (row["brute_minimal"] is None) != (row["k"] > 12):
        errors.append("exhaustive minimality run where verify should (not) run it")
    # the one documented failure: family 2, m = 3 has weight ratio exactly 1/2 but is minimal
    counterexample = (family, m) == (2, 3)
    if counterexample and (row["ok"] or row["ab_minimal"] or not row["brute_minimal"]):
        errors.append("family 2, m = 3 must fail the sufficient condition yet be minimal")
    if claimed and row["ok"] == counterexample:
        errors.append(f"ok={row['ok']}")
    return [f"family {family} m={m}: {e}" for e in errors]


def cross_check(argv, exit_code: int, answer: dict) -> list[str]:
    command, opts = argv[0], dict(zip(argv[1::2], map(int, argv[2::2])))
    if command == "verify":
        bad = check_code(answer, claimed=not (opts["--family"] == 2 and opts["--m"] % 2 == 0))
        expected_exit = 0 if answer["ok"] else 1
    elif command == "sweep":
        bad = [e for r in answer["rows"] for e in check_code(r, True)]
        bad += [e for r in answer["informational"] for e in check_code(r, False)]
        if len(answer["rows"]) + len(answer["informational"]) != 3 * (opts["--max-m"] - 1):
            bad.append("row count")
        expected_exit = 1 if opts["--max-m"] >= 3 else 0  # family 2, m = 3 fails
        if answer["all_ok"] == bool(expected_exit):
            bad.append("all_ok")
    elif command == "charsums":
        m = opts["--m"]
        bad = []
        if answer["total"] != ((1 << 2 * m) - 1) * (4 if m % 2 else 3) or answer["mismatches"]:
            bad.append("record count or mismatches")
        expected_exit = 0
    else:
        reports = answer["reports"]
        bad = [] if reports["code-column/zero=without"]["is_sum_set"] else ["code-column set is not a sum set"]
        bad += [f"{k} is a sum set" for k, r in reports.items() if k.startswith("paper") and r["is_sum_set"]]
        expected_exit = 0
    if exit_code != expected_exit:
        bad.append(f"exit {exit_code}, expected {expected_exit}")
    return [f"{answers.invocation_key(argv)}: {e}" for e in bad]


def main() -> int:
    reference, errors = {}, []
    for workload in WORKLOADS.values():
        for argv in workload.full + workload.smoke:
            proc = run_cli(argv, timeout=170)
            answer = answers.extract(argv, proc.stdout)
            errors += cross_check(argv, proc.exit, answer)
            reference[answers.invocation_key(argv)] = {"exit": proc.exit, "answer": answer}
            print(f"{answers.invocation_key(argv)}: exit {proc.exit}, {proc.wall:.2f} s", file=sys.stderr)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    lines = (f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(reference.items()))
    answers.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
