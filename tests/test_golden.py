"""Golden corpus: every transform case gives the recorded exit code and
byte-identical report and trace.  Regenerate with tests/golden/regen.py."""

import json
from pathlib import Path

import pytest

from sepshare.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case_is_byte_identical(case, tmp_path):
    folder = GOLDEN / case["name"]
    report, trace = tmp_path / "report.json", tmp_path / "trace.jsonl"
    code = run(case["command"] + ["--in", str(folder / "instance.json"),
                                  "--out", str(report), "--trace", str(trace)])
    assert code == case["exit"]
    assert report.read_bytes() == (folder / "report.json").read_bytes()
    assert trace.read_bytes() == (folder / "trace.jsonl").read_bytes()
