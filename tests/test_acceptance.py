"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any assertion failure marks the corresponding criterion FAIL.
"""

import math
import time

import numpy as np
import pytest

from mergerfees.bargaining import (
    BargainingEnv,
    OwnershipStructure,
    merger_report,
    nash_in_nash,
    shapley_fees,
)
from mergerfees.demand_systems import (
    AppendixBDemand,
    Eq7Demand,
    EvaluationRegion,
    GrossKind,
    LinearDemand,
    gross_relation,
    inverse_modularity,
)
from mergerfees.optimize import (
    FocVariant,
    OptimizerConfig,
    _PortfolioObjective,
    counterexample_search,
    max_profit,
    merger_delta,
    mixed_partial_grid,
    profit_oracle,
    solve_foc_eq7,
)
from mergerfees.portfolios import (
    ModularityKind,
    PairKind,
    Portfolio,
    SetFunction,
    classify_modularity,
    classify_pair,
    second_difference,
)
from mergerfees.reduced_form import (
    ExponentialCdf,
    ReducedFormMarket,
    hin_step_cdf,
)
from mergerfees.sampling import STRICT_FAMILIES, random_reduced_form_market
from support import (
    ALL_FAMILIES,
    additive_function,
    max_non_merging_change,
    random_linear_demand,
    random_monotone_set_function,
)

CFG = OptimizerConfig()
FAST = OptimizerConfig(multistart=2)
COARSE_REGION3 = EvaluationRegion((0.05,) * 3, (0.6,) * 3, 3)


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_closed_form_benchmark_reproduction():
    t0 = time.perf_counter()
    checks = []  # (name, computed, expected, tol)
    for gamma, v_full, v_one, q_list in (
        (0.5, 1.08, 0.721, (0.589, 0.771, 0.611, 0.695)),
        (-0.5, 0.565, 0.358, (0.467, 0.259, 0.437, 0.335)),
    ):
        model = Eq7Demand(0.0, gamma)
        full = max_profit(model, Portfolio.full(3), CFG)
        one = max_profit(model, Portfolio.from_indices(3, (1, 3)), CFG)
        checks += [
            ("value_full", full.value, v_full, 5e-3),
            ("value_single", one.value, v_one, 5e-3),
            ("q_pair", full.q[0], q_list[0], 2e-3),
            ("q3_full", full.q[2], q_list[1], 2e-3),
            ("q_single", one.q[0], q_list[2], 2e-3),
            ("q3_single", one.q[2], q_list[3], 2e-3),
        ]
        delta = merger_delta(model, cfg=CFG)
        checks.append(("delta", delta, -0.112 if gamma > 0 else 0.099, 5e-3))
    third = max_profit(Eq7Demand(0.0, 0.5), Portfolio.from_indices(3, (3,)), CFG)
    checks.append(("value_third_alone", third.value, 0.25, 5e-3))
    elapsed = time.perf_counter() - t0
    for name, got, want, tol in checks:
        assert abs(got - want) <= tol, f"{name}: {got} vs {want} +/- {tol}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    report(1, f"15 closed-form benchmark values reproduced in {elapsed:.2f}s")


def test_criterion_2_merger_statistic_continuous_in_coupling():
    limit = merger_delta(Eq7Demand(0.0, 0.5), cfg=CFG)
    deltas = {b: merger_delta(Eq7Demand(b, 0.5), cfg=CFG) for b in (1e-2, 1e-3, 1e-4)}
    for b, d in deltas.items():
        assert d < 0, f"delta({b}) = {d} not negative"
        assert abs(d - (-0.112)) <= 0.01, f"delta({b}) = {d} strays from -0.112"
    gaps = [abs(deltas[b] - limit) for b in (1e-2, 1e-3, 1e-4)]
    assert gaps[0] >= gaps[1] >= gaps[2] - 1e-12, f"not monotone: {gaps}"
    report(
        2,
        "delta stays negative and approaches "
        f"{limit:.4f} monotonically ({deltas[1e-2]:.4f}, {deltas[1e-3]:.4f}, {deltas[1e-4]:.4f})",
    )


def test_criterion_3_submodular_family_with_complement_pair():
    model = AppendixBDemand(b=-0.125, gamma=-0.8, alpha=-1e-4)
    gr = gross_relation(model)
    assert gr.overall is GrossKind.STRICT_GROSS_SUBSTITUTES
    im = inverse_modularity(model)
    assert im.weakly_submodular, f"verdict {im.kind.value}"
    delta = merger_delta(model, cfg=CFG)
    assert abs(delta - 0.015) <= 3e-3, f"delta = {delta}"
    grid = mixed_partial_grid(model, lo=(0.0, 0.0), hi=(1.0, 1.0), resolution=5, cfg=FAST)
    assert grid["min"] >= 0.069, f"grid minimum {grid['min']} at {grid['argmin']}"
    report(
        3,
        f"gross substitutes with submodular inverse demands, delta={delta:.4f}, "
        f"partial-max mixed partial min {grid['min']:.4f} >= 0.069",
    )


def test_criterion_4_two_product_monotone_markets_always_reduce_fees():
    rng = np.random.default_rng(104)
    worst = -math.inf
    count = 0
    for family in STRICT_FAMILIES:
        for _ in range(50):
            market = random_reduced_form_market(rng, family, n=3)
            oracle = market.profit_function().restrict({3: 0})
            env = BargainingEnv(float(rng.uniform(0.2, 0.8)), OwnershipStructure.singletons(2), oracle)
            gap = merger_report(env, (1, 2)).gap
            worst = max(worst, gap)
            assert gap < 0, f"{family}: fees rose with only the pair on the shelf ({gap})"
            count += 1
    assert count == 200

    witnesses = [ReducedFormMarket((1.0, 1.0, 1.0), (1.0, 1.0, 10.0), ExponentialCdf(1.0))]
    for _ in range(19):
        v = rng.uniform(0.1, 10.0, size=3)
        small = rng.uniform(0.1, 0.5, size=2)
        pi = (small[0], small[1], 20.0 * float(np.max(small)))
        lam = rng.uniform(0.5, 3.0) / float(np.sum(v))
        witnesses.append(ReducedFormMarket(tuple(v), pi, ExponentialCdf(lam)))
    gaps = []
    for market in witnesses:
        env = BargainingEnv(0.5, OwnershipStructure.singletons(3), market.profit_function())
        gaps.append(merger_report(env, (1, 2)).gap)
    assert any(g > 0 for g in gaps), "no dominant-third-product market raised fees"
    report(
        4,
        f"200/200 pair-only markets lower fees (max gap {worst:.4f}); "
        f"{sum(g > 0 for g in gaps)}/{len(gaps)} dominant-third-product markets raise them",
    )


def test_criterion_5_two_product_demand_relations_transfer_to_profits():
    rng = np.random.default_rng(105)
    for relation, expected in (
        ("complements", PairKind.STRICT_COMPLEMENTS),
        ("substitutes", PairKind.STRICT_SUBSTITUTES),
    ):
        for k in range(100):
            model = random_linear_demand(rng, 2, relation)
            oracle = profit_oracle(model, FAST.with_seed(k))
            verdict = classify_pair(oracle, 1, 2).kind
            assert verdict is expected, (
                f"{relation} draw {k}: got {verdict.value} "
                f"(a={model.a.tolist()}, B={model.B.tolist()})"
            )
    report(5, "200/200 two-product linear systems: demand relation transfers to profits")


def test_criterion_6_complement_systems_yield_supermodular_profit():
    rng = np.random.default_rng(106)
    for k in range(200):
        n = int(rng.choice((3, 4)))
        model = random_linear_demand(rng, n, "complements")
        oracle = profit_oracle(model, FAST.with_seed(k))
        verdict = classify_modularity(oracle, tolerance=1e-7)
        assert verdict.kind is ModularityKind.SUPERMODULAR, (
            f"draw {k} (n={n}): {verdict.kind.value}"
        )

    record = counterexample_search(
        lambda r: random_linear_demand(r, 3, "complements"),
        lambda rec: rec.delta < 0,
        budget=500,
        seed=206,
        cfg=FAST,
        region=COARSE_REGION3,
    )
    assert record is None, f"unexpected counterexample: {record.describe()}"
    report(
        6,
        "200/200 gross-complement linear systems supermodular in optimized profit; "
        "500-draw search for a negative merger statistic came back empty",
    )


def test_criterion_7_bargaining_sign_identity():
    rng = np.random.default_rng(107)
    worst_identity = 0.0
    worst_nonmerging = 0.0
    for k in range(500):
        if k % 2 == 0:
            family = ALL_FAMILIES[k % len(ALL_FAMILIES)]
            oracle = random_reduced_form_market(
                rng, family, n=int(rng.integers(3, 5)), strict=(family != "step")
            ).profit_function()
        else:
            oracle = random_monotone_set_function(rng, n=int(rng.integers(2, 6)))
        n = oracle.n
        beta = float(rng.uniform(0.05, 0.95))
        i, j = (int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        env = BargainingEnv(beta, OwnershipStructure.singletons(n), oracle)
        rep = merger_report(env, (i, j))
        rest = Portfolio.from_indices(n, [m for m in range(1, n + 1) if m not in (i, j)])
        sd = second_difference(oracle, i, j, rest)
        worst_identity = max(worst_identity, abs(rep.gap + (1 - beta) * sd))
        worst_nonmerging = max(worst_nonmerging, max_non_merging_change(rep))
    assert worst_identity <= 1e-9, f"identity residual {worst_identity}"
    assert worst_nonmerging <= 1e-9, f"non-merging fee drift {worst_nonmerging}"
    report(
        7,
        f"500 oracles: fee change equals -(1-beta) x second difference "
        f"(max residual {worst_identity:.2e}), outside fees untouched "
        f"(max drift {worst_nonmerging:.2e})",
    )


def test_criterion_8_loss_ratio_and_spillover_identities():
    rng = np.random.default_rng(108)
    worst_gap = 0.0
    worst_rhs = 0.0
    for k in range(200):
        family = ALL_FAMILIES[k % len(ALL_FAMILIES)]
        market = random_reduced_form_market(rng, family, n=3, strict=(family != "step"))
        lr = market.loss_ratios()
        sp = market.spillover()
        cc = market.complementarity_condition(1)
        worst_gap = max(worst_gap, abs(lr.gap * market.pi[2] - sp.second_difference))
        worst_rhs = max(worst_rhs, abs(sp.second_difference + cc.rhs))
    assert worst_gap <= 1e-12, f"loss-ratio identity residual {worst_gap}"
    assert worst_rhs <= 1e-12, f"spillover/threshold identity residual {worst_rhs}"
    v = (1.0, 1.0, 1.0)
    hin = ReducedFormMarket(v, (1.0, 1.0, 1.0), hin_step_cdf(v))
    assert hin.loss_ratios().gap == -1.0
    report(
        8,
        f"200 markets: loss-ratio gap x pi_3 == spillover difference "
        f"(max {worst_gap:.2e}), == -condition rhs (max {worst_rhs:.2e}); "
        "single-threshold gap is exactly -1",
    )


def test_criterion_9_shapley_axioms():
    rng = np.random.default_rng(109)
    for k in range(100):
        n = int(rng.integers(2, 6))
        base = random_monotone_set_function(rng, n=n)
        full_mask = (1 << n) - 1
        oracle = SetFunction(n + 1, lambda x, b=base, m=full_mask: b(Portfolio(n, x.mask & m)))
        groups = [[i] for i in range(1, n + 1)]
        if n >= 3 and k % 3 == 0:
            groups = [[1, 2]] + [[i] for i in range(3, n + 1)]
        groups.append([n + 1])  # dummy product owned by its own firm
        if len(groups) > 5:
            groups = [groups[0] + groups[1]] + groups[2:]
        env = BargainingEnv(0.5, OwnershipStructure.from_groups(n + 1, groups), oracle)
        fees = shapley_fees(env)
        total = fees.retailer_net + fees.total_fees
        assert abs(total - oracle(Portfolio.full(n + 1))) <= 1e-9, "efficiency failed"
        assert abs(fees.fees[frozenset([n + 1])]) <= 1e-9, "dummy firm paid"

    symmetric = ReducedFormMarket((2.0, 2.0, 0.5), (3.0, 3.0, 1.0), ExponentialCdf(0.7))
    fees = shapley_fees(
        BargainingEnv(0.5, OwnershipStructure.singletons(3), symmetric.profit_function())
    )
    assert abs(fees.fee_of(1) - fees.fee_of(2)) <= 1e-9, "symmetry failed"

    weights = (1.0, 2.0, 3.0)
    add = additive_function(weights)
    env = BargainingEnv(0.5, OwnershipStructure.singletons(3), add)
    pre = shapley_fees(env)
    post = shapley_fees(env.merged(1, 2))
    assert abs(post.fee_of(1, 2) - (pre.fee_of(1) + pre.fee_of(2))) <= 1e-9
    report(9, "100 oracles: Shapley efficiency/dummy hold; symmetry and additive merger-neutrality verified")


def test_criterion_10_optimizer_health():
    for c in (0.0, 0.3, 0.9):
        res = max_profit(LinearDemand([1.0], [[1.0]], costs=[c]), Portfolio.full(1), CFG)
        assert abs(res.q[0] - (1 - c) / 2) <= 1e-8, f"monopoly quantity at cost {c}"

    rng = np.random.default_rng(110)
    cases = [
        (random_linear_demand(rng, 3, "substitutes"), (1, 2, 3)),
        (Eq7Demand(0.0, 0.5), (1, 2, 3)),
        (Eq7Demand(0.1, 0.5), (1, 2, 3)),
        (Eq7Demand(-0.1, -0.5), (1, 3)),
        (AppendixBDemand(-0.125, -0.8, -1e-4), (1, 2, 3)),
    ]
    worst = 0.0
    for model, carried in cases:
        obj = _PortfolioObjective(model, carried, 1)
        row = np.zeros(1, int)
        for _ in range(3):
            z = rng.uniform(0.2, 0.7, size=len(carried))
            g = obj.gradients(z[None], row)[0][0]
            fd = np.zeros_like(z)
            for a in range(len(z)):
                h = 1e-6
                zp, zm = z.copy(), z.copy()
                zp[a] += h
                zm[a] -= h
                fd[a] = (obj.values(zp[None], row)[0] - obj.values(zm[None], row)[0]) / (2 * h)
            worst = max(worst, float(np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g)))))
    assert worst <= 1e-6, f"gradient agreement {worst}"

    for gamma in (0.5, -0.5, 0.25, -0.25):
        for variant, x in (
            (FocVariant.TWO_PLUS_THREE, (1, 2, 3)),
            (FocVariant.ONE_PLUS_THREE, (1, 3)),
        ):
            foc = solve_foc_eq7(gamma, variant)
            opt = max_profit(Eq7Demand(0.0, gamma), Portfolio.from_indices(3, x), CFG)
            assert abs(foc.value - opt.value) <= 1e-3, f"gamma={gamma} {variant.value}"
    report(
        10,
        f"monopoly optimum to 1e-8, gradients to {worst:.1e} relative, "
        "stationarity-condition values agree with the optimizer to 1e-3",
    )
