"""Built-in verification suites for the bundled model families.

Each suite returns rows comparing a computed quantity against its reference
value at a stated tolerance (or against a bound / exactness requirement).
The CLI renders them as a table and exits nonzero if any row fails.

Suites:
  appendix-a  closed-form benchmark of the square-root-spillover family at
              b = 0: symmetric optima, portfolio values, and the merger
              statistic for both coupling signs.
  appendix-b  the log-coupled inverse-demand family: gross substitutes whose
              optimized profits are nonetheless pair complements.
  prop1       two-product markets always see fees fall; a third product can
              flip the sign.
  hin         the single-threshold limit where the pair are perfect
              substitutes in generating spillovers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bargaining import BargainingEnv, OwnershipStructure, merger_report
from .demand_systems import AppendixBDemand, Eq7Demand, gross_relation, inverse_modularity
from .optimize import (
    DEFAULT_CONFIG,
    FocVariant,
    _multistart,
    merger_delta,
    mixed_partial_grid,
    profit_oracle,
    solve_foc_eq7,
)
from .portfolios import Portfolio
from .reduced_form import ExponentialCdf, ReducedFormMarket, hin_step_cdf
from .sampling import STRICT_FAMILIES, random_reduced_form_market


@dataclass(frozen=True)
class Row:
    name: str
    computed: float
    expected: float
    tolerance: float
    comparison: str = "abs"  # abs | ge | le | exact
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.comparison == "abs":
            return abs(self.computed - self.expected) <= self.tolerance
        if self.comparison == "ge":
            return self.computed >= self.expected - self.tolerance
        if self.comparison == "le":
            return self.computed <= self.expected + self.tolerance
        if self.comparison == "exact":
            return self.computed == self.expected
        raise ValueError(f"unknown comparison {self.comparison!r}")

    def describe(self) -> dict:
        return {
            "name": self.name,
            "computed": self.computed,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "comparison": self.comparison,
            "passed": self.passed,
            "note": self.note,
        }


def suite_appendix_a() -> list[Row]:
    rows: list[Row] = []
    q_tol, v_tol = 2e-3, 5e-3
    for gamma, tag, bench in (
        (0.5, "pos", {"q_pair": 0.589, "q3_pair": 0.771, "v_pair": 1.08,
                      "q_one": 0.611, "q3_one": 0.695, "v_one": 0.721}),
        (-0.5, "neg", {"q_pair": 0.467, "q3_pair": 0.259, "v_pair": 0.565,
                       "q_one": 0.437, "q3_one": 0.335, "v_one": 0.358}),
    ):
        model = Eq7Demand(0.0, gamma)
        oracle = profit_oracle(model)
        delta = merger_delta(model, oracle=oracle)  # solves the portfolios read below
        full, one = oracle.results["111"], oracle.results["101"]
        if tag == "pos":
            third = oracle.results["001"]  # product 3 alone: merger_delta's rest portfolio
        rows += [
            Row(f"q_pair[{tag}]", float(full.q[0]), bench["q_pair"], q_tol),
            Row(f"q3_full[{tag}]", float(full.q[2]), bench["q3_pair"], q_tol),
            Row(f"value_full[{tag}]", full.value, bench["v_pair"], v_tol),
            Row(f"q_single[{tag}]", float(one.q[0]), bench["q_one"], q_tol),
            Row(f"q3_single[{tag}]", float(one.q[2]), bench["q3_one"], q_tol),
            Row(f"value_single[{tag}]", one.value, bench["v_one"], v_tol),
        ]
        # the oracle's optima come from the family's exact solve, which shares its cubic
        # with solve_foc_eq7, so the stationarity condition is checked against multistart
        foc_full = solve_foc_eq7(gamma, FocVariant.TWO_PLUS_THREE)
        foc_one = solve_foc_eq7(gamma, FocVariant.ONE_PLUS_THREE)
        newton_full = _multistart(model, Portfolio.full(3), DEFAULT_CONFIG)
        newton_one = _multistart(model, Portfolio.from_indices(3, (1, 3)), DEFAULT_CONFIG)
        rows += [
            Row(f"foc_vs_opt_full[{tag}]", abs(foc_full.value - newton_full.value), 0.0, 1e-3,
                note="scalar stationarity condition agrees with the multistart optimizer"),
            Row(f"foc_vs_opt_single[{tag}]", abs(foc_one.value - newton_one.value), 0.0, 1e-3),
        ]
        rows.append(Row(f"delta[{tag}]", delta, -0.112 if gamma > 0 else 0.099, v_tol))
    rows.append(Row("value_third_alone", third.value, 0.25, v_tol))
    return rows


def suite_appendix_b() -> list[Row]:
    model = AppendixBDemand(b=-0.125, gamma=-0.8, alpha=-1e-4)
    rows = [
        Row("delta", merger_delta(model), 0.015, 3e-3),
    ]
    gr = gross_relation(model)
    rows.append(
        Row(
            "gross_substitutes",
            1.0 if gr.overall.value == "strict_gross_substitutes" else 0.0,
            1.0,
            0.0,
            comparison="exact",
            note=f"overall verdict: {gr.overall.value}",
        )
    )
    im = inverse_modularity(model)
    rows.append(
        Row(
            "weakly_submodular",
            1.0 if im.weakly_submodular else 0.0,
            1.0,
            0.0,
            comparison="exact",
            note=f"verdict: {im.kind.value}",
        )
    )
    grid = mixed_partial_grid(model, resolution=5)
    rows.append(
        Row(
            "partial_max_mixed_partial_min",
            grid["min"],
            0.069,
            0.0,
            comparison="ge",
            note=f"minimum over the 5x5 grid, attained at {grid['argmin']}",
        )
    )
    return rows


def suite_prop1() -> list[Row]:
    rng = np.random.default_rng(20240831)
    worst = -np.inf
    draws = 0
    for family in STRICT_FAMILIES:
        for _ in range(10):
            market = random_reduced_form_market(rng, family, n=2)
            env = BargainingEnv(0.5, OwnershipStructure.singletons(2), market.profit_function())
            worst = max(worst, merger_report(env, (1, 2)).gap)
            draws += 1
    rows = [
        Row(
            "two_product_max_gap",
            worst,
            0.0,
            0.0,
            comparison="le",
            note=f"largest fee change over {draws} strictly increasing two-product markets; "
            "all must be negative",
        )
    ]
    market = ReducedFormMarket((1.0, 1.0, 1.0), (1.0, 1.0, 10.0), ExponentialCdf(1.0))
    env = BargainingEnv(0.5, OwnershipStructure.singletons(3), market.profit_function())
    rep = merger_report(env, (1, 2))
    # direct evaluation of the closed-form payoffs, independent of the oracle
    e = np.exp
    t_pre = 12 * (1 - e(-3.0)) - 11 * (1 - e(-2.0))
    t_post = 6 * (1 - e(-3.0)) - 5 * (1 - e(-1.0))
    rows += [
        Row("witness_t_pre", rep.t_pre, float(t_pre), 1e-12),
        Row("witness_t_post", rep.t_post, float(t_post), 1e-12),
        Row("witness_gap_positive", rep.gap, 0.0, 0.0, comparison="ge",
            note="three-product market where fees rise despite gross complementarity"),
    ]
    return rows


def suite_hin() -> list[Row]:
    v = (1.0, 1.0, 1.0)
    pi = (1.0, 1.0, 1.0)
    market = ReducedFormMarket(v, pi, hin_step_cdf(v))
    sp = market.spillover()
    lr = market.loss_ratios()
    cc = market.complementarity_condition(1)
    env = BargainingEnv(0.5, OwnershipStructure.singletons(3), market.profit_function())
    rep = merger_report(env, (1, 2))
    return [
        Row("spillover_second_difference", sp.second_difference, -pi[2], 0.0, comparison="exact",
            note="the pair are perfect substitutes in generating spillovers"),
        Row("loss_ratio_gap", lr.gap, -1.0, 0.0, comparison="exact"),
        Row("condition_rhs", cc.rhs, pi[2], 0.0, comparison="exact"),
        Row("condition_lhs", cc.lhs, 0.0, 0.0, comparison="exact"),
        Row("fee_gap", rep.gap, (1 - 0.5) * pi[2], 1e-12,
            note="merger raises fees by (1-beta)*pi_3"),
    ]


_SUITES = {
    "appendix-a": suite_appendix_a,
    "appendix-b": suite_appendix_b,
    "prop1": suite_prop1,
    "hin": suite_hin,
}
SUITES = tuple(_SUITES)


def run_suite(name: str) -> list[Row]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    return _SUITES[name]()
