"""End-to-end CLI behavior: output formats, exit codes, file output."""

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
from tracecodes.cli import SUMSET_VARIANTS, enumerator_string, main

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
    # shows as 4 sums x 8 b mismatches in both renderings
    rule, wrong = charsums.case_rule, charsums.CharSumValue((1,), "wrong")

    def wrong_at_one(ctx, family, a):
        return rule(ctx, family, a)._replace(by_bit=(wrong, wrong)) if a == 1 else rule(ctx, family, a)

    monkeypatch.setattr(charsums, "case_rule", wrong_at_one)
    for fmt in ("json", "text"):
        rc, out, _ = run(capsys, "charsums", "--m", "3", "--format", fmt)
        assert rc == 1
        assert out == charsums_output(field.GF2m(3, largest_irreducible(3)), fmt), fmt
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    out = proc.stdout.splitlines()
    at_import, after_verify = json.loads(out[0]), json.loads(out[-1])
    assert "tracecodes.cli" in at_import and "tracecodes.analysis" in after_verify
    for module in (at_import, after_verify):
        assert not {"tracecodes.sumsets", "tracecodes.charsums"} & set(module), module
    assert SUMSET_VARIANTS == sumsets.VARIANTS


def test_sumset_exit_codes(capsys):
    rc, out, _ = run(capsys, "sumset", "--family", "1", "--m", "2", "--s", "3")
    assert rc == 0
    assert "sum set (count 40 on members, 24 outside, 24 at zero)" in out
    rc, out, _ = run(capsys, "sumset", "--family", "1", "--m", "2", "--variant", "paper-column")
    assert rc == 1
    assert "NOT a sum set" in out


def test_sumset_json(capsys):
    rc, out, _ = run(
        capsys,
        "sumset", "--family", "2", "--m", "3", "--s", "5",
        "--variant", "code-column", "--zero", "without", "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["any_sum_set"] is True
    assert len(payload["reports"]) == 1
    report = payload["reports"][0]
    assert report["sigma0"] == 126976
    assert report["sigma1"] == 122880
    assert report["count_at_zero"] == 122880
    assert report["include_zero"] is False


# sha256 over (exit code, stdout, stderr) of `sumset --family f --m m --s s --variant v
# --zero z --format fmt` for s in (3, 5), v in (paper-column, code-column, both) and
# z in (as-built, with, without, both), nested in that order; the JSON entries were
# recorded from the route that decided each set from its full vector of counts, and
# the text entries differ from that route's only in each "NOT a sum set" reason
SUMSET_SHA256 = {
    (1, 3, "text"): "fd512e338db8ceae4420f9e88e2344712fc02c7037a88ef09e79ffba5407568a",
    (1, 3, "json"): "d973c8e92d18e76aa0ed8c920b30cfb2ec1aba1e3fac103cf72925d6a7e9ece3",
    (1, 4, "text"): "5a07e55f2b27d27844b799d4996b5c1f2117937e1c38f381be44f151fd80329e",
    (1, 4, "json"): "ab8a1159dd88f50d81de3401b290650d4f915bbea3756734ae5d9e74741345bf",
    (1, 5, "text"): "625f1af665bb1d8073db2b33b749e940d263a0abd098c45adf8077bd297f406b",
    (1, 5, "json"): "8b280f830f4ab1ab594d1ae7afe7fd41e38d4b99d54283128257dd0d82c1119c",
    (2, 3, "text"): "3789b83abf868ee18ca0d2ffb6288ed185ea7febe57618d3cd8c92eb7f1c42ab",
    (2, 3, "json"): "e228bdf48e6dcd7ab55932aa8243c7c0f2fc5f01a96e69d5aa19b2c3da39dbf6",
    (2, 5, "text"): "982ffe639b8281d8c2e534a1fab4c454fec2486810d84685db49588bd1ee4639",
    (2, 5, "json"): "6d1d994ed4820d2016239ca449f21fc6639329c6dd992437562372009b1e8704",
}


def test_sumset_output_pinned_at_small_m(capsys):
    for (family, m, fmt), digest in SUMSET_SHA256.items():
        h = hashlib.sha256()
        for variant in ("paper-column", "code-column", "both"):
            for zero in ("as-built", "with", "without", "both"):
                for s in ("3", "5"):
                    rc, out, err = run(
                        capsys,
                        "sumset", "--family", str(family), "--m", str(m), "--s", s,
                        "--variant", variant, "--zero", zero, "--format", fmt,
                    )
                    h.update(f"{rc}\n{out}\n{err}\n".encode())
        assert h.hexdigest() == digest, (family, m, fmt)


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
        argv = ("sumset", "--family", "2", "--m", "7", "--variant", "paper-column", "--format", fmt)
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (1, ""), fmt
        assert sumset_verdicts(fmt, out) == [False, False], fmt
    assert json.loads(out)["reports"][1]["include_zero"] is True


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
    # the K = 21 set is decided by counting at any size; only counts too long to print are refused
    argv = ("sumset", "--family", "2", "--m", "7", "--variant", "paper-column", "--s", "100001")
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
    with pytest.raises(SystemExit) as exc:
        main(["sumset", "--family", "1", "--m", "2", "--s", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_choice_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "5", "--m", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


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


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "verify", "--family", "1", "--m", "2", "--format", "json", "--out", str(target)
    )
    assert rc == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["ok"] is True


def test_out_flag_write_failure_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "1", "--m", "3", "--out", str(target)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
    assert not target.parent.exists()
