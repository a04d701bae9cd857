import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mergerfees.bargaining import OwnershipStructure
from mergerfees.cli import compile_predicate, main, parse_range
from mergerfees.demand_systems import CustomDemand, EvaluationRegion
from mergerfees.errors import ScenarioError
from mergerfees.optimize import OptimizerConfig
from mergerfees.scenario import (
    CDF_FAMILIES,
    MODEL_KINDS,
    OPTIMIZER_BLOCK,
    REGION_BLOCK,
    Scenario,
    canonical_json,
    parse_scenario,
    render_human,
    run_analysis,
)


def eq7_scenario(b=1e-4, gamma=0.5, beta=0.5):
    return {
        "schema_version": 1,
        "model": {"kind": "eq7", "b": b, "gamma": gamma},
        "bargaining": {"beta": beta, "merging_pair": [1, 2]},
    }


def appendix_b_scenario():
    # max_profit runs its multistart on this family, so the seed acts on the starts
    return {
        "schema_version": 1,
        "model": {"kind": "appendix_b", "b": -0.125, "gamma": -0.8, "alpha": -1e-4},
        "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
    }


def reduced_scenario():
    return {
        "schema_version": 1,
        "model": {
            "kind": "reduced_form",
            "v": [1.0, 1.0, 1.0],
            "pi": [1.0, 1.0, 10.0],
            "cdf": {"family": "exponential", "lam": 1.0},
        },
        "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
    }


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def test_canonical_json_round_trips_floats():
    payload = {"x": 1 / 3, "y": [1.0, 2, True, None, "s"], "z": {"b": 0.1, "a": -5e-300}}
    text = canonical_json(payload)
    parsed = json.loads(text)
    assert parsed["x"] == 1 / 3  # bit-exact round trip through 17 digits
    assert parsed["z"]["a"] == -5e-300
    assert text == canonical_json(payload)
    assert text.index('"a"') < text.index('"b"')  # keys sorted


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json([float("inf")])


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------


def test_parse_scenario_happy_path():
    scenario = parse_scenario(eq7_scenario())
    assert scenario.merging_pair == (1, 2)
    assert scenario.beta == 0.5


@pytest.mark.parametrize(
    "mutate,path_fragment",
    [
        (lambda s: s.update(schema_version=2), "schema_version"),
        (lambda s: s["model"].update(kind="mystery"), "model.kind"),
        (lambda s: s["model"].pop("gamma"), "model.gamma"),
        (lambda s: s["bargaining"].update(beta=1.5), "bargaining.beta"),
        (lambda s: s["bargaining"].update(merging_pair=[1, 1]), "merging_pair"),
        (lambda s: s["bargaining"].update(merging_pair=[1]), "merging_pair"),
        (lambda s: s.update(optimizer={"bogus": 1}), "optimizer.bogus"),
        (lambda s: s.update(regoin={"lower": [0.1] * 3, "upper": [0.9] * 3}), "regoin"),
        (
            lambda s: s.update(region={"lower": [0.1] * 3, "upper": [0.9] * 3, "resolutoin": 3}),
            "region.resolutoin",
        ),
        # a present field must parse, null included; an absent required one is named
        (lambda s: s["model"].update(gamma=None), "model.gamma: expected a number, got NoneType"),
        (lambda s: s["model"].pop("b"), "model.b: missing required field"),
        (lambda s: s["bargaining"].pop("beta"), "bargaining.beta: missing required field"),
        (
            lambda s: s["bargaining"].pop("merging_pair"),
            "bargaining.merging_pair: missing required field",
        ),
        (lambda s: s.pop("model"), "model: missing required field"),
        (lambda s: s.pop("bargaining"), "bargaining: missing required field"),
        (lambda s: s.pop("schema_version"), "schema_version: missing required field"),
        (lambda s: s["bargaining"].update(beta=None), "bargaining.beta: expected a number, got NoneType"),
        (lambda s: s.update(region={"upper": [0.9] * 3}), "region.lower: missing required field"),
        (lambda s: s["model"].pop("kind"), "model.kind: missing required field"),
        (
            lambda s: s.update(model=dict(reduced_scenario()["model"], cdf={"lam": 1.0})),
            "model.cdf.family: missing required field",
        ),
        (
            lambda s: s.update(
                model=dict(reduced_scenario()["model"], cdf={"family": "power", "k": 2.0})
            ),
            "model.cdf.s_bar: missing required field",
        ),
        (
            lambda s: s.update(
                model=dict(
                    reduced_scenario()["model"],
                    cdf={"family": "step", "thresholds": [1.0], "weights": None},
                )
            ),
            "model.cdf.weights: expected a nonempty array of numbers",
        ),
    ],
)
def test_parse_scenario_errors_carry_field_paths(mutate, path_fragment):
    raw = eq7_scenario()
    mutate(raw)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert path_fragment in str(err.value)


def test_parse_scenario_reduced_form_cdf_errors():
    raw = reduced_scenario()
    raw["model"]["cdf"] = {"family": "exponential"}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert "model.cdf.lam" in str(err.value)
    raw["model"]["cdf"] = {"family": "nope"}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert "model.cdf.family" in str(err.value)


def readme_schema():
    """Block name -> fields, optional ones marked `?`, as README's scenario format lists them."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Scenario format") : text.index("## Library example")]
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", section, re.MULTILINE)
    schema = {kind: re.findall(r"`(\w+\??)`", cells) for kind, cells in rows}
    for name, fields in re.findall(r"`(\w+) \{([^}]*)\}`", section):
        schema[name] = fields.split(", ")
    return schema


def test_readme_schema_names_exactly_the_table_fields():
    def listed(block):
        return list(block.required) + [f"{name}?" for name in block.optional]

    tables = {**MODEL_KINDS, **CDF_FAMILIES, "optimizer": OPTIMIZER_BLOCK, "region": REGION_BLOCK}
    assert readme_schema() == {name: listed(block) for name, block in tables.items()}


def test_model_invariant_violations_are_validation_errors():
    raw = reduced_scenario()
    raw["model"]["v"] = [1.0, -1.0, 1.0]
    with pytest.raises(ScenarioError):
        parse_scenario(raw)


def test_region_mismatch_is_validation_error():
    raw = eq7_scenario()
    raw["region"] = {"lower": [0.1, 0.1], "upper": [0.9, 0.9]}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert "region.lower" in str(err.value)
    raw["region"] = {"lower": [0.1] * 3, "upper": [0.9] * 3, "resolution": 1}
    with pytest.raises(ScenarioError):
        parse_scenario(raw)
    # (10**12)**3 grid nodes: rejected before EvaluationRegion.axes allocates them
    raw["region"] = {"lower": [0.1] * 3, "upper": [0.9] * 3, "resolution": 10**12}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert str(err.value).startswith("region.resolution: ")


# ---------------------------------------------------------------------------
# Analysis pipeline
# ---------------------------------------------------------------------------


def test_run_analysis_eq7_small_coupling():
    report = run_analysis(parse_scenario(eq7_scenario()), seed=0)
    assert report["gross_relations"]["overall"] == "strict_gross_complements"
    assert report["profit_relation"]["kind"] == "strict_substitutes"
    assert report["fees"]["gap"] > 0
    assert abs(report["fees"]["sign_identity_residual"]) < 1e-9
    assert len(report["oracle_table"]) == 8


def test_run_analysis_reduced_form_values():
    report = run_analysis(parse_scenario(reduced_scenario()), seed=0)
    assert report["fees"]["t_pre"] == pytest.approx(1.891, abs=1e-3)
    assert report["fees"]["t_post"] == pytest.approx(2.541, abs=1e-3)
    assert report["loss_ratios"]["gap"] == pytest.approx(-0.147, abs=1e-3)
    assert report["spillover"]["kind"] == "strict_substitutes"
    assert report["gross_relations"]["overall"] == "strict_gross_complements"


def test_run_analysis_saturated_cdf_is_fee_neutral():
    raw = reduced_scenario()
    raw["model"]["cdf"] = {"family": "step", "thresholds": [0.0]}
    report = run_analysis(parse_scenario(raw), seed=0)
    assert report["fees"]["gap"] == pytest.approx(0.0, abs=1e-12)
    assert report["profit_relation"]["kind"] == "additive"


def test_report_scenario_echo_reparses_equivalently():
    scenario = parse_scenario(eq7_scenario())
    report = run_analysis(scenario, seed=0)
    again = parse_scenario(report["scenario"])
    assert again == scenario
    report2 = run_analysis(again, seed=0)
    assert canonical_json(report2) == canonical_json(report)


def test_determinism_same_seed_same_bytes():
    scenario = parse_scenario(appendix_b_scenario())
    a = canonical_json(run_analysis(scenario, seed=11))
    b = canonical_json(run_analysis(scenario, seed=11))
    assert a == b


def test_render_human_reads_from_machine_report():
    report = run_analysis(parse_scenario(reduced_scenario()), seed=0)
    text = render_human(report)
    assert "raises total negotiated fees" in text
    assert "loss ratios" in text


def test_shapley_block_present_on_request():
    report = run_analysis(parse_scenario(reduced_scenario()), seed=0, include_shapley=True)
    assert report["shapley"]["pair_total_post"] > report["shapley"]["pair_total_pre"]


def test_run_analysis_warns_of_multiple_local_optima():
    # product 1 carries two humps of profit; product 2 is an independent monopoly
    model = CustomDemand(
        2,
        lambda q: np.array([1.2 - q[0] + 0.8 * math.sin(3 * q[0]), 1.0 - q[1]]),
        choke=[2.0, 1.0],
        price_region=EvaluationRegion((0.1, 0.1), (1.0, 1.0)),
        quantity_region=EvaluationRegion((0.01, 0.01), (2.0, 1.0)),
    )
    scenario = Scenario(
        {}, 0.5, (1, 2), OwnershipStructure.singletons(2), OptimizerConfig(multistart=10), None, model
    )
    report = run_analysis(scenario, seed=1)
    assert report["diagnostics"]["optimizer"]["statuses"]["10"] == "degenerate"
    assert "multiple local optima at portfolios: 10" in report["diagnostics"]["warnings"]


def test_custom_ownership_in_scenario():
    raw = reduced_scenario()
    raw["bargaining"]["ownership"] = [[1], [2], [3]]
    report = run_analysis(parse_scenario(raw), seed=0)
    assert report["fees"]["gap"] > 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_analyze_writes_identical_reports(tmp_path, capsys):
    path = write_scenario(tmp_path, appendix_b_scenario())
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["analyze", path, "--out", str(out1), "--seed", "5"]) == 0
    assert main(["analyze", path, "--out", str(out2), "--seed", "5"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    json.loads(out1.read_text())  # canonical output is valid JSON


def test_cli_summary_takes_the_fee_direction_from_the_profit_verdict(tmp_path, capsys):
    # under G = 1 profits are additive, but rounding leaves a second difference
    # of +2.2e-16 and a gap of -5.6e-17, whose raw sign reads "lowers"
    raw = reduced_scenario()
    raw["model"] = {
        "kind": "reduced_form",
        "v": [1, 1, 1],
        "pi": [0.1, 0.2, 0.7],
        "cdf": {"family": "step", "thresholds": [0.0]},
    }
    assert main(["analyze", write_scenario(tmp_path, raw)]) == 0
    out = capsys.readouterr().out
    assert "additive in profits at rest 001 (second difference +2.22045e-16)" in out
    assert "gap=-5.55112e-17" in out
    assert "  the merger leaves total negotiated fees unchanged\n" in out


@pytest.mark.parametrize("pi3,effect", [(10.0, "raises"), (0.1, "lowers")])
def test_cli_summary_states_the_fee_direction_of_strict_pairs(tmp_path, capsys, pi3, effect):
    raw = reduced_scenario()
    raw["model"]["pi"] = [1.0, 1.0, pi3]
    assert main(["analyze", write_scenario(tmp_path, raw)]) == 0
    assert f"  the merger {effect} total negotiated fees\n" in capsys.readouterr().out


def test_cli_analyze_validation_exit_code(tmp_path, capsys):
    bad = write_scenario(tmp_path, {"schema_version": 1})
    assert main(["analyze", bad]) == 2
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_analyze_warns_when_the_optimizer_hits_max_iterations(tmp_path, capsys):
    # appendix_b has no exact solve, so its portfolios take the multistart
    raw = eq7_scenario()
    raw["model"] = {"kind": "appendix_b", "b": 0.15, "gamma": 0.5, "alpha": 0.0}
    raw["optimizer"] = {"max_iter": 1}
    out = tmp_path / "report.json"
    assert main(["analyze", write_scenario(tmp_path, raw), "--out", str(out)]) == 0
    warnings = json.loads(out.read_text())["diagnostics"]["warnings"]
    assert [w for w in warnings if w.startswith("optimizer hit max iterations at portfolios: ")]
    assert "\nwarning: optimizer hit max iterations at portfolios: " in capsys.readouterr().out


def test_cli_scenario_that_is_not_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"schema_version": 1,')
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON (")
    assert "Traceback" not in err


def test_cli_analyze_numerical_exit_code(tmp_path, capsys):
    # a step CDF makes the traffic equation jump over its root at the only
    # start point, so the profit oracle cannot be evaluated
    payload = {
        "schema_version": 1,
        "model": {
            "kind": "one_stop",
            "alpha": [1.0, 1.0],
            "beta": [1.0, 1.0],
            "cdf": {"family": "step", "thresholds": [0.3]},
        },
        "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
        "optimizer": {"multistart": 1},
    }
    path = write_scenario(tmp_path, payload)
    assert main(["analyze", path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_reader_that_closes_the_pipe_ends_with_exit_zero():
    # `mergerfees analyze FILE | true`: the reader stops reading before the summary
    root = Path(__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    scenario = root / "tests" / "golden" / "reduced_form_n8_ownership.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "mergerfees.cli", "analyze", str(scenario)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


def test_cli_analyze_step_cdf_whose_weights_round_above_one(tmp_path, capsys):
    # the weights sum to 1 + 5e-13, inside the validation tolerance; G must
    # still stop at 1, or the traffic equation has no root at theta = 1
    cdf = {"family": "step", "thresholds": [0.0, 0.0, 0.0], "weights": [0.1, 0.2, 0.7000000000005]}
    payload = {
        "schema_version": 1,
        "model": {"kind": "one_stop", "alpha": [1.0, 1.2, 0.9], "beta": [1.0, 0.8, 1.1], "cdf": cdf},
        "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
    }
    assert main(["analyze", write_scenario(tmp_path, payload)]) == 0
    assert "numerical failure" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "model,code,message",
    [
        # demand and its Jacobian solve with B
        ({"kind": "linear", "a": [1.0, 1.0], "B": [[1.0, 1.0], [1.0, 1.0]]}, 2, "error: model: "),
        # every portfolio profit overflows to a non-finite value
        (
            {
                "kind": "reduced_form",
                "v": [1e308, 1e308, 1e308],
                "pi": [1e308, 1e308, 1e308],
                "cdf": {"family": "exponential", "lam": 1.0},
            },
            3,
            "numerical failure: ",
        ),
        # more products than a 2^n portfolio table allows
        (dict(reduced_scenario()["model"], v=[1.0] * 30, pi=[1.0] * 30), 2, "error: model: 30 products"),
        ({"kind": "linear", "a": [1.0] * 25, "B": np.eye(25).tolist()}, 2, "error: model: 25 products"),
        # a table row that is not an [s, G] pair
        (
            dict(reduced_scenario()["model"], cdf={"family": "table", "points": [[0.0], [1.0, 1.0]]}),
            2,
            "error: model.cdf.points[0]: ",
        ),
        # Python's json reads NaN and Infinity, and integers of any size
        *[
            (dict(reduced_scenario()["model"], v=[x, 1.0, 1.0]), 2, "error: model.v[0]: expected a finite")
            for x in (math.nan, math.inf, -math.inf, 10**400)
        ],
        # fields the model kind or CDF family does not read
        (dict(eq7_scenario()["model"], costs=[0.3, 0.3, 0.3]), 2, "error: model.costs: unknown field"),
        (
            dict(reduced_scenario()["model"], cdf={"family": "exponential", "lam": 1.0, "k": 2.0}),
            2,
            "error: model.cdf.k: unknown field",
        ),
        # a matrix field that is not an array
        ({"kind": "linear", "a": [1.0, 1.0], "B": 5}, 2, "error: model.B: expected a nonempty array of rows"),
    ],
)
def test_cli_degenerate_model_ends_with_documented_exit_code(tmp_path, capsys, model, code, message):
    raw = reduced_scenario()
    raw["model"] = model
    path = write_scenario(tmp_path, raw)
    assert main(["analyze", path, "--shapley"]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cli_optimizer_overflow_prints_only_the_numerical_failure(tmp_path, capsys):
    raw = reduced_scenario()
    raw["model"] = {"kind": "linear", "a": [1e300] * 3, "B": np.eye(3).tolist()}
    assert main(["analyze", write_scenario(tmp_path, raw)]) == 3
    # a numpy or scipy RuntimeWarning would fail the test under the suite's warning filter
    assert capsys.readouterr().err == "numerical failure: max_profit[linear] is inf at portfolio 111\n"


def test_cli_sweep_records_non_finite_profit_as_numerical(tmp_path, capsys):
    raw = reduced_scenario()
    raw["model"].update(v=[1e308] * 3, pi=[1e308] * 3)
    path = write_scenario(tmp_path, raw)
    out = tmp_path / "sweep.json"
    assert main(["sweep", path, "--range", "model.cdf.lam=0.5:1.0:2", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    assert [row["error"][:11] for row in rows] == ["numerical: "] * 2
    assert all("portfolio 111" in row["error"] for row in rows)


@pytest.mark.parametrize(
    "bargaining,field",
    [
        ({"merging_pair": [1, 4]}, "bargaining.merging_pair"),
        ({"merging_pair": [0, 2]}, "bargaining.merging_pair"),
        ({"merging_pair": [1, 2], "ownership": [[1, 3], [2]]}, "bargaining.ownership"),
        ({"merging_pair": [1, 2], "ownership": [[1], [2]]}, "bargaining.ownership"),
        ({"merging_pair": [1, 2], "ownership": [[1], [2], [3, 4]]}, "bargaining.ownership"),
        ({"merging_pair": [1, 2], "ownership": [1, 2, 3]}, "bargaining.ownership[0]"),
        ({"merging_pair": [1, 2], "ownershp": [[1, 2], [3]]}, "bargaining.ownershp"),
        ({"merging_pair": [1, 2], "ownership": 5}, "bargaining.ownership"),
    ],
)
def test_cli_bad_merging_pair_fails_before_analysis(tmp_path, capsys, monkeypatch, bargaining, field):
    def no_analysis(*args, **kwargs):
        raise AssertionError("analysis ran on an invalid scenario")

    monkeypatch.setattr("mergerfees.scenario.gross_relations", no_analysis)
    raw = reduced_scenario()
    raw["bargaining"].update(bargaining)
    path = write_scenario(tmp_path, raw)
    assert main(["analyze", path, "--shapley"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:")
    assert "Traceback" not in err


def test_cli_shapley_above_player_limit_fails_before_analysis(tmp_path, capsys, monkeypatch):
    raw = reduced_scenario()
    raw["model"].update(v=[1.0] * 12, pi=[1.0] * 12)
    # eleven firms, the largest exact enumeration, still run
    raw["bargaining"]["ownership"] = [[k] for k in range(1, 11)] + [[11, 12]]
    assert main(["analyze", write_scenario(tmp_path, raw), "--shapley"]) == 0
    capsys.readouterr()

    def no_analysis(*args, **kwargs):
        raise AssertionError("analysis ran on an invalid request")

    monkeypatch.setattr("mergerfees.scenario.gross_relations", no_analysis)
    del raw["bargaining"]["ownership"]
    assert main(["analyze", write_scenario(tmp_path, raw), "--shapley"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --shapley: 12 firms exceed the exact-enumeration limit (11)")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "options,field",
    [
        ({"max_iter": -3, "floor": -1}, "max_iter"),
        ({"max_iter": 0}, "max_iter"),
        ({"floor": -1e-9}, "floor"),
        ({"value_gap": -1.0}, "value_gap"),
        ({"gradient_tol": 0.0}, "gradient_tol"),
        ({"multistart": 0}, "multistart"),
        # a Latin hypercube of 10**12 starts would need 21.8 TiB
        ({"multistart": 10**12}, "multistart"),
    ],
)
def test_cli_invalid_optimizer_option_is_validation_error(tmp_path, capsys, options, field):
    raw = eq7_scenario()
    raw["optimizer"] = options
    path = write_scenario(tmp_path, raw)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: optimizer:")
    assert field in err


@pytest.mark.parametrize(
    "options,field",
    [
        ({"max_iter": 2.5}, "optimizer.max_iter"),
        ({"max_iter": "5"}, "optimizer.max_iter"),
        ({"multistart": True}, "optimizer.multistart"),
        ({"gradient_tol": "1e-9"}, "optimizer.gradient_tol"),
    ],
)
def test_cli_optimizer_option_of_wrong_type_names_the_field(tmp_path, capsys, options, field):
    raw = eq7_scenario()
    raw["optimizer"] = options
    path = write_scenario(tmp_path, raw)
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: expected ")


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_cli_negative_seed_fails_before_analysis(tmp_path, capsys, monkeypatch, command):
    def no_analysis(*args, **kwargs):
        raise AssertionError("analysis ran with a negative seed")

    monkeypatch.setattr("mergerfees.cli.run_analysis", no_analysis)
    argv = [command, write_scenario(tmp_path, eq7_scenario()), "--seed", "-1"]
    if command == "sweep":
        argv += ["--range", "model.gamma=0.4:0.5:2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed: must be >= 0, got -1")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("kind", ["directory", "non-utf-8"])
def test_cli_unreadable_input_file_is_validation_error(tmp_path, capsys, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"schema_version": 1, "model": "\xff\xfe"}')
    argv = [command, str(path)]
    if command == "sweep":
        argv += ["--range", "model.gamma=0.4:0.5:2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: cannot read the ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "reproduce", "sweep"])
def test_cli_unwritable_out_is_validation_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "r.json"
    argv = {
        "analyze": ["analyze", write_scenario(tmp_path, reduced_scenario())],
        "reproduce": ["reproduce", "prop1"],
        "sweep": ["sweep", write_scenario(tmp_path, reduced_scenario()),
                  "--range", "model.cdf.lam=0.5:1.0:2"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out: cannot write {out}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "reproduce", "sweep"])
@pytest.mark.parametrize("target", ["missing directory", "directory", "file as directory"])
def test_cli_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, command, target):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for an --out that cannot be written")

    monkeypatch.setattr("mergerfees.cli.run_analysis", no_work)
    monkeypatch.setattr("mergerfees.cli.run_suite", no_work)
    scenario = write_scenario(tmp_path, eq7_scenario())
    out, reason = {
        "missing directory": (tmp_path / "missing" / "r.json", "No such file or directory"),
        "directory": (tmp_path, "Is a directory"),
        "file as directory": (Path(scenario) / "r.json", "Not a directory"),
    }[target]
    argv = {
        "analyze": ["analyze", scenario],
        "reproduce": ["reproduce", "prop1"],
        "sweep": ["sweep", scenario, "--range", "model.gamma=0.4:0.5:2"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out: cannot write {out} ({reason})\n"
    assert captured.out == ""


def test_cli_reproduce_all_suites_pass(capsys):
    for suite in ("appendix-a", "appendix-b", "prop1", "hin"):
        assert main(["reproduce", suite]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


def test_cli_sweep_single_node_matches_analyze(tmp_path, capsys):
    path = write_scenario(tmp_path, eq7_scenario())
    out = tmp_path / "sweep.json"
    assert main(["sweep", path, "--range", "model.gamma=0.5:0.5:1", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 1
    report = run_analysis(parse_scenario(eq7_scenario()), seed=0)
    assert rows[0]["gap"] == report["fees"]["gap"]


def test_cli_sweep_gap_changes_sign_with_gamma(tmp_path, capsys):
    path = write_scenario(tmp_path, eq7_scenario())
    out = tmp_path / "sweep.json"
    assert (
        main(
            [
                "sweep", path,
                "--range", "model.gamma=-0.6:0.6:5",
                "--predicate", "gap > 0",
                "--out", str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    payload = json.loads(out.read_text())
    gaps = [row["gap"] for row in payload["rows"]]
    assert gaps[0] < 0 < gaps[-1]
    assert payload["matches"] == sum(1 for g in gaps if g > 0)


def test_cli_sweep_concavity_flips_fee_direction(tmp_path, capsys):
    # near-affine shopping costs let the pair's own traffic gains dominate;
    # strong concavity crowds the spillovers and flips the sign
    path = write_scenario(tmp_path, reduced_scenario())
    out = tmp_path / "sweep.json"
    assert (
        main(["sweep", path, "--range", "model.cdf.lam=0.02:1.0:4", "--out", str(out)])
        == 0
    )
    capsys.readouterr()
    gaps = [row["gap"] for row in json.loads(out.read_text())["rows"]]
    assert gaps[0] < 0 < gaps[-1]


def test_cli_sweep_node_failure_recorded_not_fatal(tmp_path, capsys):
    path = write_scenario(tmp_path, eq7_scenario())
    out = tmp_path / "sweep.json"
    # beta = 1.0 at one node fails validation; the sweep keeps going
    assert main(["sweep", path, "--range", "bargaining.beta=0.5:1.0:2", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    assert "gap" in rows[0]
    assert "error" in rows[1]


def test_cli_sweep_max_nodes_cap(tmp_path, capsys):
    path = write_scenario(tmp_path, eq7_scenario())
    code = main(["sweep", path, "--range", "model.gamma=0:0.5:200", "--max-nodes", "10"])
    assert code == 2
    capsys.readouterr()
    # the count is checked before any grid exists: this one would need 72.8 TiB
    code = main(["sweep", path, "--range", "model.gamma=0:1:10000000000000", "--max-nodes", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep would evaluate 10000000000000 nodes")
    assert "--max-nodes" in err


def test_cli_sweep_unknown_range_key_fails_every_node(tmp_path, capsys):
    path = write_scenario(tmp_path, eq7_scenario())
    out = tmp_path / "sweep.json"
    assert main(["sweep", path, "--range", "model.gama=0:1:3", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 3
    assert all(row["error"].startswith("validation: model.gama: unknown field") for row in rows)


@pytest.mark.parametrize(
    "ranges,message",
    [
        ([], "error: sweep needs at least one --range"),
        (["--range", "model.b=x:1:3"], "error: range 'model.b=x:1:3': could not convert string to float"),
        (["--range", "model.b=0:1:0"], "error: range 'model.b=0:1:0': need at least one point"),
        (["--range", "model.gamma=0:nan:3"], "error: range 'model.gamma=0:nan:3': endpoints must be finite"),
        (["--range", "model.gamma=-inf:1:3"], "error: range 'model.gamma=-inf:1:3': endpoints must be finite"),
        (
            ["--range", "model.gamma=0:1:2", "--range", "model.gamma=0:1:2"],
            "error: --range: path 'model.gamma' given more than once",
        ),
    ],
)
def test_cli_sweep_bad_range_is_validation_error(tmp_path, capsys, monkeypatch, ranges, message):
    def no_node(*args, **kwargs):
        raise AssertionError("a node ran on an invalid range")

    monkeypatch.setattr("mergerfees.cli._sweep_node", no_node)
    assert main(["sweep", write_scenario(tmp_path, eq7_scenario()), *ranges]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


def test_cli_sweep_key_under_a_missing_block_fails_every_node(tmp_path, capsys):
    # the key creates a region block that lacks its required bounds
    path = write_scenario(tmp_path, eq7_scenario())
    out = tmp_path / "sweep.json"
    assert main(["sweep", path, "--range", "region.resolution=3:3:1", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    assert [row["error"] for row in rows] == ["validation: region.lower: missing required field"]


def test_cli_sweep_output_repeatable_in_range_order(tmp_path, capsys):
    path = write_scenario(tmp_path, eq7_scenario())
    ranges = ["--range", "model.b=0:0.1:2", "--range", "model.gamma=-0.4:0.4:2"]
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"sweep_{run}.json"
        assert main(["sweep", path, *ranges, "--out", str(out)]) == 0
        capsys.readouterr()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    rows = json.loads(outputs[0])["rows"]
    order = itertools.product(np.linspace(0, 0.1, 2), np.linspace(-0.4, 0.4, 2))
    assert [row["params"] for row in rows] == [
        {"model.b": float(b), "model.gamma": float(g)} for b, g in order
    ]


def test_parse_range():
    key, values = parse_range("model.gamma=-0.5:0.5:3")
    assert key == "model.gamma"
    assert np.allclose(values, [-0.5, 0.0, 0.5])
    with pytest.raises(ScenarioError):
        parse_range("model.gamma")
    with pytest.raises(ScenarioError):
        parse_range("model.gamma=1:2")


def test_predicate_safety_and_semantics():
    pred = compile_predicate("gap > 0 and gross == 'strict_gross_complements'")
    assert pred({"gap": 1.0, "gross": "strict_gross_complements"})
    assert not pred({"gap": -1.0, "gross": "strict_gross_complements"})
    with pytest.raises(ScenarioError):
        compile_predicate("__import__('os').system('true')")
    with pytest.raises(ScenarioError):
        compile_predicate("gap.__class__")
    with pytest.raises(ScenarioError):
        compile_predicate("(lambda: 1)()")
    row = {"gap": 1.0, "gross": "strict_gross_complements", "verdict": "mixed"}
    for expr in ("gross > 0", "verdict + 1", "gap / 0 > 1", "gapp > 0"):
        with pytest.raises(ScenarioError, match="^predicate: "):
            compile_predicate(expr)(row)


@pytest.mark.parametrize("expr", ["gross > 0", "gap >"])
def test_cli_sweep_bad_predicate_is_validation_error(tmp_path, capsys, monkeypatch, expr):
    if expr == "gap >":
        # a syntax error is caught before any node runs
        def no_node(*args, **kwargs):
            raise AssertionError("a node ran before the predicate compiled")

        monkeypatch.setattr("mergerfees.cli._sweep_node", no_node)
    path = write_scenario(tmp_path, reduced_scenario())
    argv = ["sweep", path, "--range", "model.cdf.lam=0.5:1.0:2", "--predicate", expr]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: predicate: ")
    assert "Traceback" not in err
