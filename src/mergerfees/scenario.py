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
from typing import Any, Callable, Mapping

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
MAX_REGION_NODES = 10**6  # resolution ** n of an explicit region


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

def _required(obj: dict, path: str) -> Any:
    """The field that ``path`` ends with; ``obj`` must hold it, ``null`` included."""
    name = path.rpartition(".")[2]
    if name not in obj:
        raise ScenarioError(f"{path}: missing required field")
    return obj[name]

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

def _expect_ints(obj: Any, path: str, what: str) -> list[int]:
    if not isinstance(obj, (list, tuple)):
        raise ScenarioError(f"{path}: expected an array of {what}")
    return [_expect_int(v, f"{path}[{k}]") for k, v in enumerate(obj)]

def _expect_points(obj: Any, path: str) -> list[list[float]]:
    points = _expect_matrix(obj, path)
    for k, row in enumerate(points):
        if len(row) != 2:
            raise ScenarioError(f"{path}[{k}]: expected an [s, G] pair")
    return points


@dataclass(frozen=True)
class Block:
    """How one scenario block is built: a constructor and a parser per field."""

    build: Callable[..., Any]
    required: dict[str, Callable[[Any, str], Any]]
    optional: dict[str, Callable[[Any, str], Any]] = field(default_factory=dict)


def _build(spec: Any, path: str, block: Block, tag: tuple[str, ...] = (), **context: Any) -> Any:
    """``block.build(**context, **fields)`` on the parsed fields of ``spec``.

    Unknown fields are rejected, every present field is parsed (``null``
    included) and an absent required field is an error.
    """
    spec = _expect_mapping(spec, path)
    _reject_unknown(spec, tag + tuple(block.required) + tuple(block.optional), f"{path}.")
    kwargs = {}
    for name, parse in (block.required | block.optional).items():
        if name in spec or name in block.required:
            kwargs[name] = parse(_required(spec, f"{path}.{name}"), f"{path}.{name}")
    try:
        return block.build(**context, **kwargs)
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _build_variant(spec: Any, path: str, tag: str, variants: dict[str, Block], noun: str) -> Any:
    """Build the block of ``variants`` that the ``tag`` field of ``spec`` names."""
    spec = _expect_mapping(spec, path)
    name = _required(spec, f"{path}.{tag}")
    if not isinstance(name, str) or name not in variants:
        raise ScenarioError(
            f"{path}.{tag}: unknown {noun} {name!r}; expected one of {', '.join(variants)}"
        )
    return _build(spec, path, variants[name], (tag,))


def _parse_cdf(obj: Any, path: str) -> ShoppingCostCdf:
    return _build_variant(obj, path, "family", CDF_FAMILIES, "CDF family")


def _region(n: int, **fields: Any) -> EvaluationRegion:
    """An explicit evaluation region for an n-product model."""
    if len(fields["lower"]) != n:
        raise ScenarioError(
            f"region.lower: expected {n} entries for this model, got {len(fields['lower'])}"
        )
    region = EvaluationRegion(**fields)
    if region.resolution**n > MAX_REGION_NODES:
        raise ScenarioError(
            f"region.resolution: {region.resolution}**{n} grid nodes exceed "
            f"the limit of {MAX_REGION_NODES}"
        )
    return region


_num, _int, _vec = _expect_number, _expect_int, _expect_vector  # short names for the tables
MODEL_KINDS = {
    "reduced_form": Block(ReducedFormMarket, {"v": _vec, "pi": _vec, "cdf": _parse_cdf}),
    "linear": Block(LinearDemand, {"a": _vec, "B": _expect_matrix}, {"costs": _vec}),
    "eq7": Block(Eq7Demand, {"b": _num, "gamma": _num}),
    "appendix_b": Block(AppendixBDemand, {"b": _num, "gamma": _num, "alpha": _num}),
    "one_stop": Block(
        OneStopDemand, {"alpha": _vec, "beta": _vec, "cdf": _parse_cdf}, {"costs": _vec}
    ),
}
CDF_FAMILIES = {
    "affine": Block(AffineClampedCdf, {"a": _num, "b": _num}),
    "exponential": Block(ExponentialCdf, {"lam": _num}),
    "power": Block(PowerCdf, {"k": _num, "s_bar": _num}),
    "step": Block(StepCdf, {"thresholds": _vec}, {"weights": _vec}),
    "table": Block(TableCdf, {"points": _expect_points}),
}
OPTIMIZER_BLOCK = Block(
    OptimizerConfig,
    {},
    {"gradient_tol": _num, "max_iter": _int, "multistart": _int, "floor": _num, "value_gap": _num},
)
REGION_BLOCK = Block(_region, {"lower": _vec, "upper": _vec}, {"resolution": _int})


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
    version = _expect_int(_required(obj, "schema_version"), "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version}"
        )
    model = _expect_mapping(_required(obj, "model"), "model")
    built = build_market_or_model(model)
    n = built.n
    if n > MAX_PRODUCTS:
        raise ScenarioError(f"model: {n} products, above the limit of {MAX_PRODUCTS}")
    bargaining = _expect_mapping(_required(obj, "bargaining"), "bargaining")
    _reject_unknown(bargaining, ("beta", "merging_pair", "ownership"), "bargaining.")
    beta = _expect_number(_required(bargaining, "bargaining.beta"), "bargaining.beta")
    if not 0 < beta < 1:
        raise ScenarioError(f"bargaining.beta: must be in (0, 1), got {beta}")
    pair_raw = _required(bargaining, "bargaining.merging_pair")
    if not isinstance(pair_raw, (list, tuple)) or len(pair_raw) != 2:
        raise ScenarioError("bargaining.merging_pair: expected an array of two indices")
    pair = tuple(_expect_ints(pair_raw, "bargaining.merging_pair", "two indices"))
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
        groups = [
            _expect_ints(g, f"bargaining.ownership[{k}]", "products")
            for k, g in enumerate(raw_groups)
        ]
        echo["bargaining"]["ownership"] = groups
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
    config = OptimizerConfig()
    if obj.get("optimizer") is not None:
        config = _build(obj["optimizer"], "optimizer", OPTIMIZER_BLOCK)
        echo["optimizer"] = dict(obj["optimizer"])
    region = None
    if obj.get("region") is not None:
        region = _build(obj["region"], "region", REGION_BLOCK, n=n)
        echo["region"] = asdict(region)
    return Scenario(echo, beta, pair, ownership, config, region, built)


def _read_json(path: str, what: str) -> Any:
    """The JSON document in the ``what`` file at ``path``; unreadable files are ScenarioErrors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read the {what} file ({exc})") from exc


def load_scenario(path: str) -> Scenario:
    return parse_scenario(_read_json(path, "scenario"))


def build_market_or_model(spec: dict) -> ReducedFormMarket | DemandModel:
    """The market or demand model that a scenario's ``model`` block describes."""
    return _build_variant(spec, "model", "kind", MODEL_KINDS, "variant")


# ---------------------------------------------------------------------------
# Analysis pipeline
# ---------------------------------------------------------------------------


def run_analysis(scenario: Scenario, seed: int = 0, include_shapley: bool = False) -> dict:
    """Full pipeline: classification, oracle, bargaining, diagnostics."""
    model = scenario.built
    i, j = pair = scenario.merging_pair
    if isinstance(model, ReducedFormMarket):
        oracle, gross, cfg = model.profit_function(), gross_relations(model), None
    else:
        cfg = scenario.optimizer.with_seed(seed)
        oracle, gross = profit_oracle(model, cfg), gross_relation(model, scenario.region).describe()

    env = BargainingEnv(scenario.beta, scenario.ownership, oracle)
    report_m = merger_report(env, pair)
    all_rests = classify_pair(oracle, i, j)
    table = oracle.table()

    warnings: list[str] = []
    optimizer_diag = None
    if cfg is not None:
        results = sorted(oracle.results.items())
        for status, what in ((OptStatus.DEGENERATE, "multiple local optima"),
                             (OptStatus.MAXITER, "optimizer hit max iterations")):
            keys = [key for key, result in results if result.status is status]
            if keys:
                warnings.append(f"{what} at portfolios: " + ", ".join(keys))
        statuses = {key: result.status.value for key, result in results}
        optimizer_diag = {"config": asdict(cfg), "statuses": statuses}
    if abs(report_m.sign_identity_residual) > 1e-9:
        warnings.append(
            f"bargaining sign identity residual {report_m.sign_identity_residual:.3e}"
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "scenario": scenario.echo,
        "model_summary": model.describe(),
        "gross_relations": gross,
        "profit_relation": {
            "pair": list(pair),
            "kind": report_m.kind.value,
            "second_difference": report_m.second_difference,
            "rest": report_m.rest.key(),
        },
        "pair_classification": {
            "kind": all_rests.kind.value,
            "tolerance": all_rests.tolerance,
            "differences": {w.rest.key(): w.value for w in all_rests.witnesses},
        },
        **_three_product_explanations(model, pair),
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
        "shapley": _shapley_block(env, i, j) if include_shapley else None,
        "oracle_table": table,
        "diagnostics": {
            "optimizer": optimizer_diag,
            "classification_tolerance": DEFAULT_TOLERANCE,
            "warnings": warnings,
        },
    }


def _three_product_explanations(model: ReducedFormMarket | DemandModel, pair: tuple[int, int]) -> dict:
    """The blocks that explain a three-product reduced-form verdict; None elsewhere."""
    spillover = loss_ratios = condition = None
    if isinstance(model, ReducedFormMarket) and model.n == 3:
        target = next(k for k in (1, 2, 3) if k not in pair)
        spillover = model.spillover(pair, target).describe()
        if set(pair) == {1, 2}:
            loss_ratios = model.loss_ratios().describe()
            condition = {
                "x3_0": model.complementarity_condition(0).describe(),
                "x3_1": model.complementarity_condition(1).describe(),
            }
    return {"spillover": spillover, "loss_ratios": loss_ratios, "complementarity_condition": condition}


def _shapley_block(env: BargainingEnv, i: int, j: int) -> dict:
    """Shapley fees before and after products i and j merge."""
    pre = shapley_fees(env)
    post = shapley_fees(env.merged(i, j))
    return {
        "pre": pre.describe(),
        "post": post.describe(),
        "pair_total_pre": pre.fee_of(i) + pre.fee_of(j),
        "pair_total_post": post.fee_of(i, j),
    }


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
