"""Canonical ``analyze --shapley`` reports and ``reproduce`` rows, byte for byte.

Refactors must leave every answer unchanged, so the reports under
``golden/reports`` and the rows under ``golden/reproduce`` are compared as
bytes. The analyze inputs are ``scenarios/*.json`` plus the scenarios in
``golden/`` (one per model kind that the shipped examples miss). Re-record
one only when an answer is meant to change, from the root of the
repository:

    PYTHONPATH=src python -m mergerfees.cli analyze SCENARIO --shapley \
        --out tests/golden/reports/STEM.json
    PYTHONPATH=src python -m mergerfees.cli reproduce SUITE \
        --out tests/golden/reproduce/SUITE.json
"""

from pathlib import Path

import pytest

from mergerfees.cli import main
from mergerfees.reproduce import SUITES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = sorted((ROOT / "scenarios").glob("*.json")) + sorted(GOLDEN.glob("*.json"))


@pytest.mark.parametrize("scenario", INPUTS, ids=lambda p: p.stem)
def test_analyze_shapley_report_is_byte_identical(scenario, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", str(scenario), "--shapley", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "reports" / f"{scenario.stem}.json").read_bytes()


@pytest.mark.parametrize("suite", SUITES)
def test_reproduce_rows_are_byte_identical(suite, tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert main(["reproduce", suite, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "reproduce" / f"{suite}.json").read_bytes()
