"""Scenario files, validation, the analysis pipeline, and canonical reports.

A scenario is a JSON document with exactly one model variant, a bargaining
block, and optional optimizer/region overrides. Reports are emitted in a
canonical text form (sorted keys, floats rendered with 17 significant
digits) so identical scenario + seed reproduces byte-identical output; the
human-readable rendering is derived from the machine report, never computed
separately.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

import numpy as np

from .bargaining import (
    BargainingEnv,
    OwnershipStructure,
    labelled_fees,
    merger_report,
    shapley_fees,
)
from .demand_systems import (
    AppendixBDemand,
    DemandModel,
    Eq7Demand,
    EvaluationRegion,
    LinearDemand,
    OneStopDemand,
    gross_relation,
)
from .errors import ScenarioError
from .optimize import OptimizerConfig, OptStatus, profit_oracle
from .portfolios import DEFAULT_TOLERANCE, MAX_PRODUCTS, classify_pair
from .reduced_form import (
    AffineClampedCdf,
    ExponentialCdf,
    PowerCdf,
    ReducedFormMarket,
    ShoppingCostCdf,
    StepCdf,
    TableCdf,
    gross_relations,
)

SCHEMA_VERSION = 1
MODEL_FIELDS = {
    "reduced_form": ("v", "pi", "cdf"),
    "linear": ("a", "B", "costs"),
    "eq7": ("b", "gamma"),
    "appendix_b": ("b", "gamma", "alpha"),
    "one_stop": ("alpha", "beta", "cdf", "costs"),
}
CDF_FIELDS = {
    "affine": ("a", "b"),
    "exponential": ("lam",),
    "power": ("k", "s_bar"),
    "step": ("thresholds", "weights"),
    "table": ("points",),
}


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot appear in a report")
    return format(x, ".17g")


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + canonical_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {canonical_json(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def _expect_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, Mapping):
        raise ScenarioError(f"{path}: expected an object, got {type(obj).__name__}")
    return dict(obj)

def _reject_unknown(obj: dict, allowed: tuple[str, ...], prefix: str) -> None:
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ScenarioError(
            f"{prefix}{unknown[0]}: unknown field; expected one of {', '.join(allowed)}"
        )

def _expect_number(obj: Any, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {type(obj).__name__}")
    try:
        value = float(obj)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: expected a finite number, got {value}")
    return value

def _expect_int(obj: Any, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ScenarioError(f"{path}: expected an integer, got {type(obj).__name__}")
    return obj

def _expect_vector(obj: Any, path: str) -> list[float]:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ScenarioError(f"{path}: expected a nonempty array of numbers")
    return [_expect_number(v, f"{path}[{k}]") for k, v in enumerate(obj)]

def _expect_matrix(obj: Any, path: str) -> list[list[float]]:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ScenarioError(f"{path}: expected a nonempty array of rows")
    return [_expect_vector(row, f"{path}[{k}]") for k, row in enumerate(obj)]


def _build_cdf(spec: Any, path: str) -> ShoppingCostCdf:
    spec = _expect_mapping(spec, path)
    family = spec.get("family")
    if not isinstance(family, str) or family not in CDF_FIELDS:
        raise ScenarioError(
            f"{path}.family: unknown CDF family {family!r}; "
            f"expected one of {', '.join(CDF_FIELDS)}"
        )
    _reject_unknown(spec, ("family",) + CDF_FIELDS[family], f"{path}.")
    try:
        if family == "affine":
            return AffineClampedCdf(
                _expect_number(spec["a"], f"{path}.a"), _expect_number(spec["b"], f"{path}.b")
            )
        if family == "exponential":
            return ExponentialCdf(_expect_number(spec["lam"], f"{path}.lam"))
        if family == "power":
            return PowerCdf(
                _expect_number(spec["k"], f"{path}.k"),
                _expect_number(spec["s_bar"], f"{path}.s_bar"),
            )
        if family == "step":
            weights = spec.get("weights")
            return StepCdf(
                _expect_vector(spec["thresholds"], f"{path}.thresholds"),
                None if weights is None else _expect_vector(weights, f"{path}.weights"),
            )
        if family == "table":
            points = _expect_matrix(spec["points"], f"{path}.points")
            for k, row in enumerate(points):
                if len(row) != 2:
                    raise ScenarioError(f"{path}.points[{k}]: expected an [s, G] pair")
            return TableCdf([(row[0], row[1]) for row in points])
    except KeyError as exc:
        raise ScenarioError(f"{path}.{exc.args[0]}: missing required field") from exc
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: every object an analysis reads, built once."""

    echo: dict
    beta: float
    merging_pair: tuple[int, int]
    ownership: OwnershipStructure
    optimizer: OptimizerConfig
    region: EvaluationRegion | None
    built: ReducedFormMarket | DemandModel = field(compare=False, repr=False)


def parse_scenario(obj: Any) -> Scenario:
    obj = _expect_mapping(obj, "scenario")
    _reject_unknown(obj, ("schema_version", "model", "bargaining", "optimizer", "region"), "")
    version = _expect_int(obj.get("schema_version", 0), "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version}"
        )
    model = _expect_mapping(obj.get("model"), "model")
    kind = model.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_FIELDS:
        raise ScenarioError(
            f"model.kind: unknown variant {kind!r}; expected one of {', '.join(MODEL_FIELDS)}"
        )
    _reject_unknown(model, ("kind",) + MODEL_FIELDS[kind], "model.")
    bargaining = _expect_mapping(obj.get("bargaining"), "bargaining")
    _reject_unknown(bargaining, ("beta", "merging_pair", "ownership"), "bargaining.")
    beta = _expect_number(bargaining.get("beta"), "bargaining.beta")
    if not 0 < beta < 1:
        raise ScenarioError(f"bargaining.beta: must be in (0, 1), got {beta}")
    pair_raw = bargaining.get("merging_pair")
    if not isinstance(pair_raw, (list, tuple)) or len(pair_raw) != 2:
        raise ScenarioError("bargaining.merging_pair: expected an array of two indices")
    pair = (
        _expect_int(pair_raw[0], "bargaining.merging_pair[0]"),
        _expect_int(pair_raw[1], "bargaining.merging_pair[1]"),
    )
    if pair[0] == pair[1]:
        raise ScenarioError("bargaining.merging_pair: indices must be distinct")
    echo: dict[str, Any] = {
        "schema_version": version,
        "model": model,
        "bargaining": {"beta": beta, "merging_pair": list(pair)},
    }
    groups = None
    if bargaining.get("ownership") is not None:
        raw_groups = bargaining["ownership"]
        if not isinstance(raw_groups, (list, tuple)):
            raise ScenarioError("bargaining.ownership: expected an array of groups")
        for k, g in enumerate(raw_groups):
            if not isinstance(g, (list, tuple)):
                raise ScenarioError(f"bargaining.ownership[{k}]: expected an array of products")
        groups = [
            [_expect_int(i, f"bargaining.ownership[{k}][{m}]") for m, i in enumerate(g)]
            for k, g in enumerate(raw_groups)
        ]
        echo["bargaining"]["ownership"] = groups
    optimizer = {}
    if obj.get("optimizer") is not None:
        optimizer = _expect_mapping(obj["optimizer"], "optimizer")
        _reject_unknown(
            optimizer, ("gradient_tol", "max_iter", "multistart", "floor", "value_gap"), "optimizer."
        )
        for name, value in optimizer.items():
            expect = _expect_int if name in ("max_iter", "multistart") else _expect_number
            expect(value, f"optimizer.{name}")
        echo["optimizer"] = optimizer
    region_spec = None
    if obj.get("region") is not None:
        region_spec = _expect_mapping(obj["region"], "region")
        _reject_unknown(region_spec, ("lower", "upper", "resolution"), "region.")
        if "lower" not in region_spec or "upper" not in region_spec:
            raise ScenarioError("region: needs lower and upper arrays")
        region_spec = {
            "lower": _expect_vector(region_spec["lower"], "region.lower"),
            "upper": _expect_vector(region_spec["upper"], "region.upper"),
            "resolution": _expect_int(region_spec.get("resolution", 9), "region.resolution"),
        }
        echo["region"] = region_spec
    built = build_market_or_model(model)  # validates the model block eagerly
    n = built.n
    if n > MAX_PRODUCTS:
        raise ScenarioError(f"model: {n} products, above the limit of {MAX_PRODUCTS}")
    region = None
    if region_spec is not None:
        if len(region_spec["lower"]) != n:
            raise ScenarioError(
                f"region.lower: expected {n} entries for this model, "
                f"got {len(region_spec['lower'])}"
            )
        try:
            region = EvaluationRegion(**region_spec)
        except ValueError as exc:
            raise ScenarioError(f"region: {exc}") from exc
    try:
        config = OptimizerConfig(**optimizer)
    except ValueError as exc:
        raise ScenarioError(f"optimizer: {exc}") from exc
    try:
        ownership = (
            OwnershipStructure.singletons(n)
            if groups is None
            else OwnershipStructure.from_groups(n, groups)
        )
    except (IndexError, ValueError) as exc:
        raise ScenarioError(f"bargaining.ownership: {exc}") from exc
    for k in pair:
        if not 1 <= k <= n:
            raise ScenarioError(f"bargaining.merging_pair: product {k} out of range 1..{n}")
        if len(ownership.firm_of(k)) != 1:
            raise ScenarioError(
                f"bargaining.ownership: product {k} of the merging pair must be a "
                "single-product firm before the merger"
            )
    return Scenario(echo, beta, pair, ownership, config, region, built)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario(raw)


def build_market_or_model(spec: dict) -> ReducedFormMarket | DemandModel:
    """The market or demand model that a scenario's ``model`` block describes."""
    kind = spec["kind"]
    path = "model"
    try:
        if kind == "reduced_form":
            return ReducedFormMarket(
                tuple(_expect_vector(spec.get("v"), f"{path}.v")),
                tuple(_expect_vector(spec.get("pi"), f"{path}.pi")),
                _build_cdf(spec.get("cdf"), f"{path}.cdf"),
            )
        if kind == "linear":
            return LinearDemand(
                _expect_vector(spec.get("a"), f"{path}.a"),
                _expect_matrix(spec.get("B"), f"{path}.B"),
                costs=_expect_vector(spec["costs"], f"{path}.costs") if "costs" in spec else None,
            )
        if kind == "eq7":
            return Eq7Demand(
                _expect_number(spec.get("b"), f"{path}.b"),
                _expect_number(spec.get("gamma"), f"{path}.gamma"),
            )
        if kind == "appendix_b":
            return AppendixBDemand(
                _expect_number(spec.get("b"), f"{path}.b"),
                _expect_number(spec.get("gamma"), f"{path}.gamma"),
                _expect_number(spec.get("alpha"), f"{path}.alpha"),
            )
        if kind == "one_stop":
            return OneStopDemand(
                _expect_vector(spec.get("alpha"), f"{path}.alpha"),
                _expect_vector(spec.get("beta"), f"{path}.beta"),
                _build_cdf(spec.get("cdf"), f"{path}.cdf"),
                costs=_expect_vector(spec["costs"], f"{path}.costs") if "costs" in spec else None,
            )
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    raise ScenarioError(f"model.kind: unknown variant {kind!r}")


# ---------------------------------------------------------------------------
# Analysis pipeline
# ---------------------------------------------------------------------------


def run_analysis(scenario: Scenario, seed: int = 0, include_shapley: bool = False) -> dict:
    """Full pipeline: classification, oracle, bargaining, diagnostics."""
    model = scenario.built
    n = model.n
    pair = scenario.merging_pair
    warnings: list[str] = []
    statuses: dict[str, str] = {}

    if isinstance(model, ReducedFormMarket):
        oracle = model.profit_function()
        gross = gross_relations(model)
        optimizer_diag = None
    else:
        cfg = scenario.optimizer.with_seed(seed)
        oracle = profit_oracle(model, cfg, statuses)
        gross = gross_relation(model, scenario.region).describe()
        optimizer_diag = {"config": asdict(cfg)}

    env = BargainingEnv(scenario.beta, scenario.ownership, oracle)
    report_m = merger_report(env, pair)

    i, j = pair
    all_rests = classify_pair(oracle, i, j)
    table = oracle.table()

    spillover = None
    loss_ratios = None
    condition = None
    if isinstance(model, ReducedFormMarket) and n == 3:
        target = next(k for k in (1, 2, 3) if k not in pair)
        spillover = model.spillover(pair, target).describe()
        if set(pair) == {1, 2}:
            loss_ratios = model.loss_ratios().describe()
            condition = {
                "x3_0": model.complementarity_condition(0).describe(),
                "x3_1": model.complementarity_condition(1).describe(),
            }

    if statuses:
        degenerate = sorted(k for k, v in statuses.items() if v == OptStatus.DEGENERATE.value)
        stuck = sorted(k for k, v in statuses.items() if v == OptStatus.MAXITER.value)
        if degenerate:
            warnings.append(
                "multiple local optima at portfolios: " + ", ".join(degenerate)
            )
        if stuck:
            warnings.append("optimizer hit max iterations at portfolios: " + ", ".join(stuck))
        optimizer_diag["statuses"] = dict(sorted(statuses.items()))

    if abs(report_m.sign_identity_residual) > 1e-9:
        warnings.append(
            f"bargaining sign identity residual {report_m.sign_identity_residual:.3e}"
        )

    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "scenario": scenario.echo,
        "model_summary": model.describe(),
        "gross_relations": gross,
        "profit_relation": {
            "pair": list(pair),
            "kind": report_m.pair_relation.kind.value,
            "second_difference": report_m.second_difference,
            "rest": report_m.pair_relation.witnesses[0].rest.key(),
        },
        "pair_classification": {
            "kind": all_rests.kind.value,
            "tolerance": all_rests.tolerance,
            "differences": {w.rest.key(): w.value for w in all_rests.witnesses},
        },
        "spillover": spillover,
        "loss_ratios": loss_ratios,
        "complementarity_condition": condition,
        "fees": {
            "beta": scenario.beta,
            "t_pre": report_m.t_pre,
            "t_post": report_m.t_post,
            "gap": report_m.gap,
            "sign_identity_residual": report_m.sign_identity_residual,
            "non_merging_pre": labelled_fees(report_m.non_merging_pre),
            "non_merging_post": labelled_fees(report_m.non_merging_post),
            "retailer_net_pre": report_m.pre.retailer_net,
            "retailer_net_post": report_m.post.retailer_net,
        },
        "shapley": None,
        "oracle_table": table,
        "diagnostics": {
            "optimizer": optimizer_diag,
            "classification_tolerance": DEFAULT_TOLERANCE,
            "warnings": warnings,
        },
    }
    if include_shapley:
        pre = shapley_fees(env)
        post = shapley_fees(env.merged(i, j))
        report["shapley"] = {
            "pre": pre.describe(),
            "post": post.describe(),
            "pair_total_pre": pre.fee_of(i) + pre.fee_of(j),
            "pair_total_post": post.fee_of(i, j),
        }
    return report


def render_human(report: dict) -> str:
    """Plain-text rendering derived from the machine report only."""
    lines = []
    model = report["model_summary"]
    pair = report["profit_relation"]["pair"]
    lines.append(f"model: {model['kind']} (n={model['n']})")
    lines.append(f"gross relations: {report['gross_relations']['overall']}")
    for key, kind in sorted(report["gross_relations"]["pairs"].items()):
        lines.append(f"  pair {key}: {kind}")
    pr = report["profit_relation"]
    lines.append(
        f"merging pair {pair}: {pr['kind']} in profits at rest {pr['rest']} "
        f"(second difference {pr['second_difference']:+.6g})"
    )
    lines.append(f"  across all rests: {report['pair_classification']['kind']}")
    if report["spillover"]:
        sp = report["spillover"]
        lines.append(
            f"spillovers onto product {sp['target']}: {sp['kind']} "
            f"(second difference {sp['second_difference']:+.6g})"
        )
    if report["loss_ratios"]:
        lr = report["loss_ratios"]
        lines.append(
            f"loss ratios: cl_1={lr['cl_1']:.6g} cl_2={lr['cl_2']:.6g} "
            f"cl_12={lr['cl_12']:.6g} gap={lr['gap']:+.6g}"
        )
    fees = report["fees"]
    lines.append(
        f"fees (beta={fees['beta']}): T_pre={fees['t_pre']:.6g} "
        f"T_post={fees['t_post']:.6g} gap={fees['gap']:+.6g}"
    )
    direction = "raises" if fees["gap"] > 0 else ("lowers" if fees["gap"] < 0 else "leaves unchanged")
    lines.append(f"  the merger {direction} total negotiated fees")
    if report["shapley"]:
        sh = report["shapley"]
        lines.append(
            f"shapley: pair total pre={sh['pair_total_pre']:.6g} "
            f"post={sh['pair_total_post']:.6g}"
        )
    lines.append("portfolio profits:")
    for key, value in sorted(report["oracle_table"].items()):
        lines.append(f"  {key}: {value:.9g}")
    for warning in report["diagnostics"]["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)
