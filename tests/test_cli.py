"""End-to-end CLI behavior: output formats, exit codes, file output."""

from __future__ import annotations

import json
import time

import pytest

from tracecodes.cli import enumerator_string, main

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


def test_sumset_too_large_exits_3(capsys):
    rc, _, err = run(capsys, "sumset", "--family", "2", "--m", "7", "--variant", "paper-column")
    assert rc == 3
    assert "error:" in err


def test_sumset_huge_s_exits_3_at_once(capsys):
    # 2^16 spectrum entries of about 16 million bits each would need about 100 GB
    start = time.monotonic()
    rc, out, err = run(capsys, "sumset", "--family", "1", "--m", "8", "--s", "1000001")
    assert rc == 3
    assert out == ""
    assert "estimated at" in err and "bits" in err
    assert time.monotonic() - start < 20.0


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
