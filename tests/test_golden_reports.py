"""Canonical ``analyze --shapley`` reports, byte for byte.

Refactors must leave every answer unchanged, so the reports under
``golden/reports`` are compared as bytes. Re-record one only when an answer
is meant to change, from the root of the repository:

    PYTHONPATH=src python -m mergerfees.cli analyze SCENARIO --shapley \
        --out tests/golden/reports/STEM.json
"""

from pathlib import Path

import pytest

from mergerfees.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = sorted((ROOT / "scenarios").glob("*.json")) + [GOLDEN / "reduced_form_n8_ownership.json"]


@pytest.mark.parametrize("scenario", INPUTS, ids=lambda p: p.stem)
def test_analyze_shapley_report_is_byte_identical(scenario, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", str(scenario), "--shapley", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "reports" / f"{scenario.stem}.json").read_bytes()
