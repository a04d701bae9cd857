"""Canonical ``analyze --shapley`` reports and ``reproduce`` rows, byte for byte.

Refactors must leave every answer unchanged, so the reports under
``golden/reports`` and the rows under ``golden/reproduce`` are compared as
bytes. The analyze inputs are ``scenarios/*.json`` plus the scenarios in
``golden/`` (one per model kind that the shipped examples miss). Re-record
one only when an answer is meant to change, from the root of the
repository. The linear and eq7 optima come from scalar arithmetic, and
those reports must read the same under every BLAS kernel:

    PYTHONPATH=src python -m mergerfees.cli analyze SCENARIO --shapley \
        --out tests/golden/reports/STEM.json
    PYTHONPATH=src python -m mergerfees.cli reproduce SUITE \
        --out tests/golden/reproduce/SUITE.json
"""

import os
import subprocess
import sys
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


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
@pytest.mark.parametrize(
    "scenario",
    [GOLDEN / "linear_n3.json", GOLDEN / "eq7_b0.json", ROOT / "scenarios" / "eq7_small_coupling.json"],
    ids=lambda p: p.stem,
)
def test_exact_family_reports_do_not_depend_on_the_blas_kernel(scenario, coretype, tmp_path):
    # OPENBLAS_CORETYPE picks OpenBLAS's kernel at load time, so it is set for a child process only
    out = tmp_path / "report.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": path}
    command = [sys.executable, "-m", "mergerfees.cli", "analyze", str(scenario), "--shapley"]
    subprocess.run(command + ["--out", str(out)], env=env, check=True, capture_output=True)
    assert out.read_bytes() == (GOLDEN / "reports" / f"{scenario.stem}.json").read_bytes()
