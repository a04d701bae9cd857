"""The names the traced benchmark wraps still exist.

``perfbench/run.py --trace 1`` wraps package functions and methods by
name; a rename would make it fail (or silently skip a method) only when
the benchmark runs. These tests read its tables and check each name.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from mergerfees import cli
from mergerfees.demand_systems import DemandModel
from mergerfees.portfolios import SetFunction
from mergerfees.reduced_form import ReducedFormMarket

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracing")


def test_wrapped_module_functions_exist(tracing):
    for _, module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"mergerfees.{module}"), attr)), attr


def test_wrapped_methods_exist(tracing):
    for method in tracing.DEMAND_METHODS:
        assert method in vars(DemandModel), method
    for _, method, _ in tracing.MARKET_METHODS:
        assert method in vars(ReducedFormMarket), method  # wrapped on the class itself
    assert list(inspect.signature(SetFunction.__init__).parameters) == ["self", "n", "fn", "name"]
    assert "__call__" in vars(SetFunction)


def test_wrapped_cli_names_exist():
    for name in ("main", "cmd_sweep", "_sweep_node"):
        assert callable(getattr(cli, name)), name
