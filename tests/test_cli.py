"""End-to-end CLI behavior: output formats, exit codes, option set."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import charsums_output, largest_irreducible
from tracecodes import charsums, field, sumsets
from tracecodes.cli import build_parser, enumerator_string, main

F1_M2_MATRIX = ["00110000", "01100101", "00001111", "11111100"]


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_enumerator_string():
    assert enumerator_string({0: 1, 2: 1, 4: 11, 6: 3}) == "1 + x^2 + 11x^4 + 3x^6"
    assert enumerator_string({0: 1, 3: 0, 4: 2}) == "1 + 2x^4"
    assert enumerator_string({}) == "0"


def test_construct_text(capsys):
    rc, out, err = run(capsys, "construct", "--family", "1", "--m", "2")
    assert rc == 0
    lines = out.splitlines()
    assert "n=8 k=4" in lines[0]
    assert "8 defining pairs" in lines[0]
    assert lines[1:] == F1_M2_MATRIX
    assert err == ""


def test_construct_json(capsys):
    rc, out, _ = run(capsys, "construct", "--family", "1", "--m", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 8
    assert payload["k"] == 4
    assert payload["defining_pairs"] == 8
    assert payload["rows"] == F1_M2_MATRIX


# sha256 of `construct --family f --m 4 --format json` stdout, recorded from the
# per-pair table construction that the column transpose replaced
CONSTRUCT_M4_JSON_SHA256 = {
    1: "6f24c10fca1c80640181933609132fda06221bae98ae4a47ed79b0d6884f4b4e",
    2: "08b8e60a15b38224f088fdfb029d688bcd8abe08e0603693ebbce72bb9db6d2c",
    3: "0a787882c65717a21909aa0698bb3e3d90f27daba5281ece598115d8c8768c3c",
}


def test_construct_json_pinned_at_m4(capsys):
    for family, digest in CONSTRUCT_M4_JSON_SHA256.items():
        rc, out, _ = run(capsys, "construct", "--family", str(family), "--m", "4", "--format", "json")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, family


def test_construct_family2_even_m_warns(capsys):
    rc, out, err = run(capsys, "construct", "--family", "2", "--m", "4")
    assert rc == 0
    assert "even m" in err
    assert "n=128 k=8" in out


def test_verify_exit_codes(capsys):
    rc, out, _ = run(capsys, "verify", "--family", "1", "--m", "3")
    assert rc == 0
    assert "result: ok" in out
    rc, out, _ = run(capsys, "verify", "--family", "2", "--m", "3")
    assert rc == 1
    assert "result: FAILED" in out
    assert "minimal, exhaustive: yes" in out


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "--family", "1", "--m", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["counts"] == {"0": 1, "2": 1, "4": 11, "6": 3}
    assert payload["dual_weight1"] == 0
    assert payload["dual_weight2"] == 0
    assert payload["ok"] is True


def test_charsums_json_lines(capsys):
    rc, out, _ = run(capsys, "charsums", "--m", "2", "--format", "json")
    assert rc == 0
    lines = out.splitlines()
    records = [json.loads(line) for line in lines]
    # every line re-serializes byte for byte under sorted keys
    for line, rec in zip(lines, records):
        assert json.dumps(rec, sort_keys=True) == line
    summary = records[-1]
    assert summary == {"m": 2, "total": 45, "mismatches": 0, "skipped": ["family2"]}
    body = records[:-1]
    assert len(body) == 45
    assert all(rec["match"] for rec in body)
    assert {rec["sum"] for rec in body} == {"plain", "family1", "family3"}


def test_charsums_text_counts_match(capsys):
    rc, out, _ = run(capsys, "charsums", "--m", "3")
    assert rc == 0
    assert "total 252 cases, 0 mismatches" in out
    assert "MISMATCH" not in out


def test_charsums_output_matches_the_per_record_rendering(capsys, monkeypatch):
    for m in range(2, 7):
        for poly in (field.DEFAULT_POLYS[m], largest_irreducible(m)):
            monkeypatch.setitem(field.DEFAULT_POLYS, m, poly)
            ctx = field.GF2m(m, poly)
            for fmt in ("json", "text"):
                rc, out, err = run(capsys, "charsums", "--m", str(m), "--format", fmt)
                assert (rc, err) == (0, ""), (m, poly, fmt)
                assert out == charsums_output(ctx, fmt), (m, poly, fmt)
    # a wrong closed form at a = 1 (no rule there has a b = 0 case at m = 3)
    # shows as 4 sums x 8 b mismatches in both renderings; a % in its label is printed as is
    rule = charsums.case_rule
    for wrong in (charsums.CharSumValue((1,), "wrong"), charsums.CharSumValue((1,), "wrong, 100% {off}")):

        def wrong_at_one(ctx, family, a):
            return rule(ctx, family, a)._replace(by_bit=(wrong, wrong)) if a == 1 else rule(ctx, family, a)

        monkeypatch.setattr(charsums, "case_rule", wrong_at_one)
        for fmt in ("json", "text"):
            rc, out, _ = run(capsys, "charsums", "--m", "3", "--format", fmt)
            assert rc == 1
            assert out == charsums_output(field.GF2m(3, largest_irreducible(3)), fmt), (wrong, fmt)
            assert out.count("MISMATCH" if fmt == "text" else '"match": false') == 4 * 8


def test_cli_loads_only_the_modules_a_subcommand_runs():
    # a fresh interpreter: importing the CLI, then running `verify`, loads
    # neither the sum-set nor the character-sum module
    script = (
        "import json, sys, tracecodes.cli\n"
        "loaded = lambda: print(json.dumps([m for m in sys.modules if m.startswith('tracecodes')]))\n"
        "loaded()\n"
        "tracecodes.cli.main(['verify', '--family', '1', '--m', '3', '--format', 'json'])\n"
        "loaded()\n"
    )
    out = fresh_python(script).splitlines()
    at_import, after_verify = json.loads(out[0]), json.loads(out[-1])
    assert "tracecodes.cli" in at_import and "tracecodes.analysis" in after_verify
    for module in (at_import, after_verify):
        assert not {"tracecodes.sumsets", "tracecodes.charsums"} & set(module), module


def fresh_python(script: str, *args: str) -> str:
    """Stdout of `script` run in a new interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return proc.stdout


# the package modules each subcommand loads besides `tracecodes`, codes, field and walsh
SUBCOMMAND_RUNS = {
    "construct": (),
    "verify": ("analysis",),
    "charsums": ("charsums",),
    "sumset": ("sumsets",),
    "sweep": ("analysis",),
}


@pytest.mark.parametrize(
    "argv",
    [
        "construct --family 1 --m 3",
        "verify --family 1 --m 3",
        "charsums --m 3",
        "sumset --family 1 --m 3",
        "sweep --max-m 3",
    ],
)
def test_subcommands_start_without_dataclasses_or_inspect(argv):
    # each module that `dataclasses` pulls in (inspect, ast, dis, tokenize, ...)
    # is compiled or loaded at the start of every CLI process, and so is each
    # package module, from source when no bytecode cache is written
    script = (
        "import json, runpy, sys\n"
        "before = set(sys.modules)\n"
        "sys.argv[0] = 'tracecodes'\n"
        "try:\n"
        "    runpy.run_module('tracecodes.cli', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    added = set(json.loads(fresh_python(script, *argv.split()).splitlines()[-1]))
    assert "tracecodes.field" in added  # the subcommand ran
    assert not {"dataclasses", "inspect"} & added, sorted(added)
    package = {m for m in added if m.split(".")[0] == "tracecodes"}
    runs = ("codes", "field", "walsh", *SUBCOMMAND_RUNS[argv.split()[0]])
    assert package == {"tracecodes"} | {f"tracecodes.{m}" for m in runs}, sorted(package)


def test_sumset_exit_codes(capsys, monkeypatch):
    rc, out, _ = run(capsys, "sumset", "--family", "1", "--m", "2", "--s", "3")
    assert rc == 0
    assert "sum set (count 40 on members, 24 outside, 24 at zero)" in out
    # exit 1 when no reported set is a sum set: here, only the paper-column set is reported
    paper_column = {"paper-column": sumsets.COUNTED_VARIANTS["paper-column"]}
    monkeypatch.setattr(sumsets, "COUNTED_VARIANTS", paper_column)
    rc, out, _ = run(capsys, "sumset", "--family", "1", "--m", "2")
    assert rc == 1
    assert sumset_verdicts("text", out) == [False, False]


def sumset_report(out: str, variant: str, include_zero: bool) -> dict:
    """The one JSON report of `sumset` on the given set and zero flag."""
    (report,) = [
        r for r in json.loads(out)["reports"]
        if (r["variant"], r["include_zero"]) == (variant, include_zero)
    ]
    return report


def test_sumset_json(capsys):
    rc, out, _ = run(capsys, "sumset", "--family", "2", "--m", "3", "--s", "5", "--format", "json")
    assert rc == 0
    assert json.loads(out)["any_sum_set"] is True
    report = sumset_report(out, "code-column", False)
    assert report["sigma0"] == 126976
    assert report["sigma1"] == 122880
    assert report["count_at_zero"] == 122880
    assert report["include_zero"] is False


def test_sumset_json_report_shape(capsys):
    # the library report carries the verdict; `sumset` adds family, m, s and variant
    rc, out, _ = run(capsys, "sumset", "--family", "1", "--m", "2", "--s", "3", "--format", "json")
    assert rc == 0
    reports = json.loads(out)["reports"]
    assert [(r["variant"], r["include_zero"]) for r in reports] == [
        (variant, zero) for variant in sumsets.VARIANTS for zero in (False, True)
    ]
    for report in reports:
        assert set(report) == {
            "family",
            "m",
            "s",
            "variant",
            "include_zero",
            "is_sum_set",
            "sigma0",
            "sigma1",
            "count_at_zero",
        }
        assert (report["family"], report["m"], report["s"]) == (1, 2, 3)


# sha256 over (exit code, stdout, stderr) of `sumset --family f --m m --s s --format fmt`
# for s in (3, 5), in that order, recorded when `--variant` and `--zero` still existed
# and defaulted to reporting every set, so the output is unchanged by their removal
SUMSET_SHA256 = {
    (1, 3, "text"): "d4c82f8e3c7814b2fceea241d5c27552b280e18d5586bd64283d7d533dc48869",
    (1, 3, "json"): "da8c314c77f7d7447be26a94a56f5b85fac8ae1664708ee2a7424849110f161c",
    (1, 4, "text"): "bb642b8faf086de95ee72f7dbf3e289b950c5f7003a03fcb69b43d9eeadc12b8",
    (1, 4, "json"): "88b0102bb70705aa5b5c611e731eec43b7319cd92143dbc7af742b9242dc7ef0",
    (1, 5, "text"): "e422a7cd2f7f450f434cce38bf5a5842d6f9639dd25612a17fdcea7512335e12",
    (1, 5, "json"): "40050b9f7734e2a644e66463beb78456aa6c007cc0512cdca18622b953757cf1",
    (2, 3, "text"): "0ba436c55c95eb54ddc0603c83a89e1dc2e8d679243702c85b39ca2f5c57ffbc",
    (2, 3, "json"): "ff7ff6f1192cb8dd0f1d56cd23212684341611f2c4a206bef57d4097a3f1d19c",
    (2, 5, "text"): "bb0eff9f0c5736e8eb8d89b2d5b86a5f2dbd0fefd5e91192187ab53941eea1ca",
    (2, 5, "json"): "71d9494d5b3e2eb4064fd5835a847ba1110ebe245bd5b50735c223f57509474b",
}


def test_sumset_output_pinned_at_small_m(capsys):
    for (family, m, fmt), digest in SUMSET_SHA256.items():
        h = hashlib.sha256()
        for s in ("3", "5"):
            argv = ("sumset", "--family", str(family), "--m", str(m), "--s", s, "--format", fmt)
            rc, out, err = run(capsys, *argv)
            h.update(f"{rc}\n{out}\n{err}\n".encode())
        assert h.hexdigest() == digest, (family, m, fmt)


# sha256 over (exit code, stdout, stderr) of each invocation, hashed as for `sumset`
# above, recorded while `--out` still existed, before `_emit` lost its file branch
REPORT_SHA256 = {
    "verify --family 1 --m 3 --format text": "7c523739de8ef2d57deec683a18e8efcdb4741b72d81b51d4ac9bc355949bed9",
    "verify --family 1 --m 3 --format json": "a4abaf5e4c860dd4d40706b0a8c1623538b58c52f67dc3cc9acc41bd3c0e403a",
    "verify --family 2 --m 3 --format text": "5575ee7db9a0f7c887859a5eb1d8e2f412c83cf3fb448d915d805233271f9579",
    "verify --family 2 --m 3 --format json": "e97ff9edd7025477d2c536da9b531a8bd9cd6043be0fa79d155a949870c83dae",
    "verify --family 3 --m 3 --format text": "c13e4c2a0adbdcee1eed6fc7c932567d34b39826af9d32812f545300239a2aba",
    "verify --family 3 --m 3 --format json": "3dd6aaa33814c9936ebff5ea05f2a4e5c18ed8a126b5d0d8d1bd7878b038b009",
    "sweep --max-m 4 --format text": "d6595a4413d6f263d7ec9269910e6c9a4d3baca2cbb009de383e72605f7d00e8",
    "sweep --max-m 4 --format json": "59065541fd249b8d433373253ab70aa1d88f3ff004a1c9966189755b34c2f3c7",
}


def test_verify_and_sweep_output_pinned_at_small_m(capsys):
    for argv, digest in REPORT_SHA256.items():
        rc, out, err = run(capsys, *argv.split())
        assert hashlib.sha256(f"{rc}\n{out}\n{err}\n".encode()).hexdigest() == digest, argv


# sha256 over (exit code, stdout, stderr) of each invocation of the benchmark's
# two workloads (perfbench/workloads.py) and of the even-m `sumset` refusal,
# hashed as for `sumset` above, recorded before `field.check_ints` and
# `codes.check_family` replaced the hand-written argument checks
BENCHMARK_SHA256 = {
    "verify --family 1 --m 8 --format text": "259b00c26131b45a0b96163a21c7121bb304e0316315daa58ae63deb3e3576e1",
    "verify --family 1 --m 8 --format json": "9840aad10434bcd83e43518b1ca723ffa16fea9fcb203dd3f6bc88c41ae7b5c6",
    "verify --family 2 --m 8 --format text": "ef988748270ba33f009829f1bb374c2332001562ad59ca944457fdeb341997eb",
    "verify --family 2 --m 8 --format json": "cb38217138a30d5626c1de4b48ebce3e4e08d2de2d1891fbf6f5214ccdb7f56b",
    "verify --family 3 --m 8 --format text": "f05aecd25b842f02ec50294d8a23756c2843912c44d3d3e0cc7515a6c2314e1a",
    "verify --family 3 --m 8 --format json": "4ea61941c6c4e6304d6a3fc1508e8f83ded94b0f077d5e090076d38e1d3bbd4f",
    "sweep --max-m 7 --format text": "5d388363a769164622f61389eb9ed0efc06a94b52e9c7656e51a1dcac3c22fba",
    "sweep --max-m 7 --format json": "5a44dd9101bc53ee3366fb5446330e7b6855c3e4864ba642455200c9e0dd1d73",
    "charsums --m 6 --format text": "53b076bccd3c911d7fb1ab8d5b8b49341f0dc87256e3378d884f4d510313ce3f",
    "charsums --m 6 --format json": "1bc15838a3c11a0182d3879ad322c47d40fbf32168051eca04b2b614493534b1",
    "sumset --family 1 --m 8 --s 3 --format text": "70771706341daccc78f412824e5c530d9b1c7b13abfa617e4794ded348e0299d",
    "sumset --family 1 --m 8 --s 3 --format json": "1f0e56fde7fa04134876b17a54f2c4f6ac82acd4f14f4c723211dad719190624",
    "sumset --family 1 --m 8 --s 7 --format text": "826fe962a63e8a7a3991f62dfe34fe300c66f3b40a5eaf965e78b16624f87d55",
    "sumset --family 1 --m 8 --s 7 --format json": "e7dc332692009005140b74376278c98ad17ca02bfa97333d67a6336d9905091f",
    "sumset --family 2 --m 5 --s 3 --format text": "310c88d86288e7e4c47423100179e79c6f5b6cbfc5ba1a007fb1c14e56f6dc78",
    "sumset --family 2 --m 5 --s 3 --format json": "9f1da0b80de72c780b531c37b19ea6d85bc7aee2967224b8d30f5102d28074a3",
    "sumset --family 2 --m 5 --s 7 --format text": "4157835b1360dd5f4dd3228f840637ed8fa62d1e1a3f4b157373bb86bd486239",
    "sumset --family 2 --m 5 --s 7 --format json": "4b8698a7dd634162cb1a44cdf6eca4d2c80a4a43cafc5d84c2b72fa94002709f",
    "sumset --family 2 --m 4 --format text": "d71215b4760f59cefb3281453d628e2baa971266fd45c181106d73d3bdf13fe4",
    "sumset --family 2 --m 4 --format json": "d71215b4760f59cefb3281453d628e2baa971266fd45c181106d73d3bdf13fe4",
}


def test_benchmark_invocations_output_pinned(capsys):
    for argv, digest in BENCHMARK_SHA256.items():
        rc, out, err = run(capsys, *argv.split())
        assert hashlib.sha256(f"{rc}\n{out}\n{err}\n".encode()).hexdigest() == digest, argv


def sumset_verdicts(fmt: str, out: str) -> list[bool]:
    """Each reported set's is_sum_set, read off JSON or off the text lines."""
    if fmt == "json":
        return [r["is_sum_set"] for r in json.loads(out)["reports"]]
    verdicts = [line.split(": ", 1)[1] for line in out.splitlines()]
    assert all(v.startswith(("sum set (", "NOT a sum set (")) for v in verdicts), out
    return [v.startswith("sum set") for v in verdicts]


def test_sumset_json_decides_the_paper_column_set_past_the_transform_guard(capsys):
    # K = 21, past the transform guard: both formats decide the set by counting
    for fmt in ("text", "json"):
        argv = ("sumset", "--family", "2", "--m", "7", "--format", fmt)
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, ""), fmt
        assert sumset_verdicts(fmt, out)[:2] == [False, False], fmt
    for zero in (False, True):
        assert sumset_report(out, "paper-column", zero)["is_sum_set"] is False


def test_sumset_text_and_json_agree(capsys):
    grid = [(1, m) for m in range(2, 9)] + [(2, m) for m in (3, 5, 7)]
    for family, m in grid:
        for s in ("3", "5"):
            answers = {}
            for fmt in ("text", "json"):
                argv = ("sumset", "--family", str(family), "--m", str(m), "--s", s, "--format", fmt)
                rc, out, err = run(capsys, *argv)
                assert err == "", argv
                answers[fmt] = rc, sumset_verdicts(fmt, out)
            assert answers["text"] == answers["json"], (family, m, s)


def test_sumset_too_large_exits_3(capsys):
    # the K = 21 set is decided by counting at any size; only counts too long to print are
    # refused, and the first set guarded is the paper-column one without zero
    argv = ("sumset", "--family", "2", "--m", "7", "--s", "100001")
    for fmt in ("text", "json"):
        rc, out, err = run(capsys, *argv, "--format", fmt)
        assert (rc, out) == (3, ""), fmt
        assert err.startswith("error: s = 100001 over 8064 points"), fmt


def test_sumset_huge_s_exits_3_at_once(capsys):
    cases = [
        # 2^16 spectrum entries of about 16 million bits each would need about 100 GB
        ("--m", "8", "--s", "1000001"),
        # a small spectrum, but counts of more digits than int-to-str conversion allows
        ("--m", "2", "--s", "9999"),
        ("--m", "2", "--s", "9999", "--format", "json"),
    ]
    for argv in cases:
        start = time.monotonic()
        rc, out, err = run(capsys, "sumset", "--family", "1", *argv)
        assert rc == 3, argv
        assert out == ""
        assert "estimated at" in err and "bits" in err
        assert time.monotonic() - start < 20.0


def test_sumset_large_s_is_priced_by_the_values_powered(capsys):
    # 4 x 2^16 powered entries would be 295895040 bits, over the 2^28 guard; the
    # paper-column sets power their 4 values of t, the code-column sets their 3
    for fmt in ("text", "json"):
        argv = ("sumset", "--family", "1", "--m", "8", "--s", "301", "--format", fmt)
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, ""), fmt
        assert sumset_verdicts(fmt, out) == [False, False, True, False], fmt
    reports = json.loads(out)["reports"]
    assert [r["variant"] for r in reports] == ["paper-column"] * 2 + ["code-column"] * 2


def test_sumset_family2_even_m_is_usage_error(capsys):
    rc, _, err = run(capsys, "sumset", "--family", "2", "--m", "4")
    assert rc == 2
    assert "odd m" in err


def test_sumset_rejects_even_s(capsys):
    for s in ("4", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["sumset", "--family", "1", "--m", "2", "--s", s])
        assert exc.value.code == 2
        assert "s must be an odd integer greater than 1" in capsys.readouterr().err, s


def test_unknown_choice_is_usage_error(capsys, tmp_path, monkeypatch):
    cases = [
        "construct --family 5 --m 2",
        # `sumset` always reports both sets, each with and without zero
        "sumset --family 1 --m 2 --variant code-column",
        "sumset --family 1 --m 2 --zero with",
        # every report goes to stdout; a file is written by redirecting it
        "construct --family 1 --m 2 --out x.json",
        "verify --family 1 --m 2 --out x.json",
        "charsums --m 2 --out x.json",
        "sumset --family 1 --m 2 --out x.json",
        "sweep --max-m 2 --out x.json",
    ]
    monkeypatch.chdir(tmp_path)
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv
    assert list(tmp_path.iterdir()) == []


def test_each_subcommand_has_exactly_its_options():
    # a new option, or a removed one, shows here as a diff of one list
    expected = {
        "construct": ["--family", "--m", "--format"],
        "verify": ["--family", "--m", "--format"],
        "charsums": ["--m", "--format"],
        "sumset": ["--family", "--m", "--s", "--format"],
        "sweep": ["--max-m", "--format"],
    }
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert list(subparsers.choices) == list(expected)
    for name, options in expected.items():
        actions = subparsers.choices[name]._actions
        assert [s for a in actions for s in a.option_strings] == ["-h", "--help", *options], name


def test_sweep_exit_codes(capsys):
    rc, out, _ = run(capsys, "sweep", "--max-m", "2")
    assert rc == 0
    assert "all claimed rows ok" in out
    rc, out, _ = run(capsys, "sweep", "--max-m", "3")
    assert rc == 1
    assert "FAILURES above" in out
    # the ratio-1/2 row: minimal, but not by the sufficient condition
    row = next(line for line in out.splitlines() if line.startswith("family 2 m=3:"))
    assert "sufficient=no exhaustive=yes FAILED" in row
    # the even-m family-2 row is reported but never gates the exit code
    assert "informational" not in out.splitlines()[-1]


def test_sweep_decides_minimality_at_every_m(capsys):
    rc, out, _ = run(capsys, "sweep", "--max-m", "7")
    assert rc == 1  # the family-2 m=3 row only
    assert "exhaustive=skipped" not in out
    rows = [line for line in out.splitlines() if " m=7: " in line]
    assert len(rows) == 3
    assert all("sufficient=yes exhaustive=yes ok" in row for row in rows)


def test_sweep_json_shape(capsys):
    rc, out, _ = run(capsys, "sweep", "--max-m", "3", "--format", "json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["all_ok"] is False
    claimed = {(r["family"], r["m"]) for r in payload["rows"]}
    assert claimed == {(1, 2), (1, 3), (2, 3), (3, 2), (3, 3)}
    assert [(r["family"], r["m"]) for r in payload["informational"]] == [(2, 2)]
    failing = [r for r in payload["rows"] if not r["ok"]]
    assert [(r["family"], r["m"]) for r in failing] == [(2, 3)]


@pytest.mark.parametrize(
    "argv",
    [
        "charsums --m 6",
        "verify --family 1 --m 3 --format json",
        # stderr on the same closed pipe, so the error message cannot be written either
        "charsums --m 6 2>&1",
        # a full device, where every write fails with ENOSPC, not EPIPE
        "verify --family 1 --m 3 >/dev/full",
    ],
)
def test_closed_stdout_is_usage_error(argv):
    # the pipe's read end is closed before the process starts, or stdout is a full
    # device, so every write fails; exit 1 would read as a failed claim
    argv, _, device = argv.partition(" >")
    if device and not os.path.exists(device):
        pytest.skip(f"{device} does not exist here")
    same_pipe = argv.endswith(" 2>&1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    if device:
        write_end = os.open(device, os.O_WRONLY)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tracecodes.cli", *argv.removesuffix(" 2>&1").split()],
            env={**os.environ, "PYTHONPATH": path},
            stdout=write_end,
            stderr=write_end if same_pipe else subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    if not same_pipe:
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: "), proc.stderr
