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
MODEL_KINDS = ("reduced_form", "linear", "eq7", "appendix_b", "one_stop")


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
    raise ScenarioError(
        f"{path}.family: unknown CDF family {family!r}; "
        "expected one of affine, exponential, power, step, table"
    )


@dataclass(frozen=True)
class Scenario:
    schema_version: int
    model: dict
    beta: float
    merging_pair: tuple[int, int]
    ownership: tuple[tuple[int, ...], ...] | None
    optimizer: dict | None
    region: dict | None
    built: ReducedFormMarket | DemandModel = field(compare=False, repr=False)

    def echo(self) -> dict:
        out: dict[str, Any] = {
            "schema_version": self.schema_version,
            "model": self.model,
            "bargaining": {
                "beta": self.beta,
                "merging_pair": list(self.merging_pair),
            },
        }
        if self.ownership is not None:
            out["bargaining"]["ownership"] = [list(g) for g in self.ownership]
        if self.optimizer is not None:
            out["optimizer"] = self.optimizer
        if self.region is not None:
            out["region"] = self.region
        return out

    def optimizer_config(self, seed: int) -> OptimizerConfig:
        base = {"seed": seed}
        if self.optimizer:
            base.update(self.optimizer)
        try:
            return OptimizerConfig(**base)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"optimizer: {exc}") from exc

    def ownership_structure(self, n: int) -> OwnershipStructure:
        if self.ownership is None:
            return OwnershipStructure.singletons(n)
        try:
            return OwnershipStructure.from_groups(n, self.ownership)
        except (IndexError, ValueError) as exc:
            raise ScenarioError(f"bargaining.ownership: {exc}") from exc

    def evaluation_region(self) -> EvaluationRegion | None:
        if self.region is None:
            return None
        spec = self.region
        try:
            return EvaluationRegion(
                tuple(spec["lower"]), tuple(spec["upper"]), spec.get("resolution", 9)
            )
        except ValueError as exc:
            raise ScenarioError(f"region: {exc}") from exc


def parse_scenario(obj: Any) -> Scenario:
    obj = _expect_mapping(obj, "scenario")
    version = _expect_int(obj.get("schema_version", 0), "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version}"
        )
    model = _expect_mapping(obj.get("model"), "model")
    kind = model.get("kind")
    if kind not in MODEL_KINDS:
        raise ScenarioError(
            f"model.kind: unknown variant {kind!r}; expected one of {', '.join(MODEL_KINDS)}"
        )
    bargaining = _expect_mapping(obj.get("bargaining"), "bargaining")
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
    ownership = None
    if "ownership" in bargaining and bargaining["ownership"] is not None:
        groups = bargaining["ownership"]
        if not isinstance(groups, (list, tuple)):
            raise ScenarioError("bargaining.ownership: expected an array of groups")
        for k, g in enumerate(groups):
            if not isinstance(g, (list, tuple)):
                raise ScenarioError(f"bargaining.ownership[{k}]: expected an array of products")
        ownership = tuple(
            tuple(_expect_int(i, f"bargaining.ownership[{k}][{m}]") for m, i in enumerate(g))
            for k, g in enumerate(groups)
        )
    optimizer = None
    if "optimizer" in obj and obj["optimizer"] is not None:
        optimizer = _expect_mapping(obj["optimizer"], "optimizer")
        allowed = {"gradient_tol", "max_iter", "multistart", "floor", "value_gap"}
        unknown = set(optimizer) - allowed
        if unknown:
            raise ScenarioError(f"optimizer.{sorted(unknown)[0]}: unknown option")
        for name, value in optimizer.items():
            expect = _expect_int if name in ("max_iter", "multistart") else _expect_number
            expect(value, f"optimizer.{name}")
    region = None
    if "region" in obj and obj["region"] is not None:
        region = _expect_mapping(obj["region"], "region")
        if "lower" not in region or "upper" not in region:
            raise ScenarioError("region: needs lower and upper arrays")
        region = {
            "lower": _expect_vector(region["lower"], "region.lower"),
            "upper": _expect_vector(region["upper"], "region.upper"),
            "resolution": _expect_int(region.get("resolution", 9), "region.resolution"),
        }
    built = build_market_or_model(model)  # validates the model block eagerly
    if built.n > MAX_PRODUCTS:
        raise ScenarioError(f"model: {built.n} products, above the limit of {MAX_PRODUCTS}")
    scenario = Scenario(version, model, beta, pair, ownership, optimizer, region, built)
    if region is not None and len(region["lower"]) != built.n:
        raise ScenarioError(
            f"region.lower: expected {built.n} entries for this model, "
            f"got {len(region['lower'])}"
        )
    scenario.evaluation_region()  # bounds and resolution checks
    scenario.optimizer_config(0)  # option values
    ownership = scenario.ownership_structure(built.n)
    for k in pair:
        if not 1 <= k <= built.n:
            raise ScenarioError(f"bargaining.merging_pair: product {k} out of range 1..{built.n}")
        if len(ownership.firm_of(k)) != 1:
            raise ScenarioError(
                f"bargaining.ownership: product {k} of the merging pair must be a "
                "single-product firm before the merger"
            )
    return scenario


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
    cfg = scenario.optimizer_config(seed)

    if isinstance(model, ReducedFormMarket):
        oracle = model.profit_function()
        gross = gross_relations(model)
        optimizer_diag = None
    else:
        oracle = profit_oracle(model, cfg, statuses)
        gross = gross_relation(model, scenario.evaluation_region()).describe()
        optimizer_diag = {"config": asdict(cfg)}

    env = BargainingEnv(scenario.beta, scenario.ownership_structure(n), oracle)
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
        "scenario": scenario.echo(),
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
