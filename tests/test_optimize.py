import math
import sys

import numpy as np
import pytest

from mergerfees import optimize
from mergerfees.demand_systems import (
    AppendixBDemand,
    CustomDemand,
    Eq7Demand,
    EvaluationRegion,
    LinearDemand,
    OneStopDemand,
)
from mergerfees.errors import DomainError
from mergerfees.optimize import (
    FocVariant,
    OptimizerConfig,
    OptStatus,
    counterexample_search,
    max_profit,
    merger_delta,
    mixed_partial_grid,
    partial_max,
    profit_oracle,
    solve_foc_eq7,
)
from mergerfees.portfolios import Portfolio, classify_modularity
from mergerfees.reduced_form import ExponentialCdf
from mergerfees.reproduce import run_suite
from mergerfees.sampling import eq7_sampler, random_linear_demand

CFG = OptimizerConfig()
FAST = OptimizerConfig(multistart=2)


# ---------------------------------------------------------------------------
# max_profit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c", [0.0, 0.3, 0.9])
def test_monopoly_closed_form(c):
    m = LinearDemand([1.0], [[1.0]], costs=[c])
    res = max_profit(m, Portfolio.full(1), CFG)
    assert res.status is OptStatus.CONVERGED
    assert res.q[0] == pytest.approx((1 - c) / 2, abs=1e-8)
    assert res.value == pytest.approx((1 - c) ** 2 / 4, abs=1e-12)


def test_empty_portfolio_is_zero():
    res = max_profit(Eq7Demand(0.0, 0.5), Portfolio.empty(3), CFG)
    assert res.value == 0.0
    assert res.status is OptStatus.CONVERGED


def test_single_product_spillover_family():
    res = max_profit(Eq7Demand(0.0, 0.5), Portfolio.from_indices(3, (3,)), CFG)
    assert res.value == pytest.approx(0.25, abs=1e-10)
    assert res.q[2] == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize(
    "gamma,x,q_expect,value_expect",
    [
        (0.5, (1, 2, 3), (0.589, 0.589, 0.771), 1.08),
        (0.5, (1, 3), (0.611, 0.0, 0.695), 0.721),
        (-0.5, (1, 2, 3), (0.467, 0.467, 0.259), 0.565),
        (-0.5, (1, 3), (0.437, 0.0, 0.335), 0.358),
    ],
)
def test_spillover_family_benchmarks(gamma, x, q_expect, value_expect):
    res = max_profit(Eq7Demand(0.0, gamma), Portfolio.from_indices(3, x), CFG)
    assert res.value == pytest.approx(value_expect, abs=5e-3)
    for got, want in zip(res.q, q_expect):
        assert got == pytest.approx(want, abs=2e-3)


def test_value_recomputed_and_kkt_holds():
    m = Eq7Demand(0.0, -0.5)
    res = max_profit(m, Portfolio.full(3), CFG)
    assert res.gradient_norm <= CFG.gradient_tol
    # value equals the objective recomputed at q*
    carried = (1, 2, 3)
    p = m.portfolio_inverse(res.q, carried)
    assert res.value == pytest.approx(float(np.dot(p, res.q)), abs=1e-14)


def test_linear_quadratic_matches_closed_form():
    rng = np.random.default_rng(6)
    for relation in ("complements", "substitutes"):
        for _ in range(8):
            m = random_linear_demand(rng, 3, relation)
            res = max_profit(m, Portfolio.full(3), FAST)
            sym = m.B + m.B.T
            q_star = np.linalg.solve(sym, m.a - m.costs)
            expected = float((m.a - m.costs) @ q_star - q_star @ m.B @ q_star)
            assert np.all(q_star > 0)
            assert res.value == pytest.approx(expected, abs=1e-9)


def test_analytic_gradient_matches_differences_across_families():
    rng = np.random.default_rng(13)
    cases = [
        (random_linear_demand(rng, 3, "complements"), (1, 2, 3)),
        (Eq7Demand(0.0, 0.5), (1, 2, 3)),
        (Eq7Demand(0.15, 0.5), (1, 2, 3)),
        (Eq7Demand(-0.15, -0.5), (1, 3)),
        (AppendixBDemand(-0.125, -0.8, -1e-4), (1, 2, 3)),
    ]
    from mergerfees.optimize import _PortfolioObjective

    for model, carried in cases:
        obj = _PortfolioObjective(model, carried)
        for _ in range(4):
            z = rng.uniform(0.2, 0.8, size=len(carried))
            g = obj.gradient(z)
            fd = np.zeros_like(z)
            for k in range(len(z)):
                h = 1e-6
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                fd[k] = (obj.value(zp) - obj.value(zm)) / (2 * h)
            rel = np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g)))
            assert rel < 1e-6, f"{model.kind}: gradient mismatch {rel}"


def test_profit_monotone_in_portfolio_inclusion():
    rng = np.random.default_rng(21)
    models = [
        Eq7Demand(0.0, 0.5),
        Eq7Demand(0.0, -0.5),
        AppendixBDemand(-0.125, -0.8, -1e-4),
        random_linear_demand(rng, 3, "complements"),
    ]
    for model in models:
        oracle = profit_oracle(model, FAST)
        for mask in range(8):
            x = Portfolio(3, mask)
            for i in (1, 2, 3):
                if not x.contains(i):
                    assert oracle(x.with_product(i)) >= oracle(x) - 1e-9


def test_degenerate_status_surfaces_multiple_optima():
    m = CustomDemand(
        1,
        lambda q: np.array([1.2 - q[0] + 0.8 * math.sin(3 * q[0])]),
        choke=[2.0],
        price_region=EvaluationRegion((0.1,), (1.0,)),
        quantity_region=EvaluationRegion((0.01,), (2.0,)),
    )
    res = max_profit(m, Portfolio.full(1), OptimizerConfig(multistart=10, seed=1))
    assert res.status is OptStatus.DEGENERATE
    assert res.value == pytest.approx(0.8408, abs=1e-3)  # best hump still reported


@pytest.mark.parametrize(
    "max_iter,status", [(1, OptStatus.MAXITER), (2, OptStatus.MAXITER), (3, OptStatus.CONVERGED)]
)
def test_max_iter_bounds_the_newton_steps_of_each_start(max_iter, status):
    cfg = OptimizerConfig(multistart=1, max_iter=max_iter)
    res = max_profit(Eq7Demand(0.15, 0.5), Portfolio.full(3), cfg)
    assert res.status is status
    if status is OptStatus.CONVERGED:
        assert res.gradient_norm <= cfg.gradient_tol


def test_polish_climbs_out_of_a_non_concave_region():
    # f = -(z^2 - 1)^2 is convex near 0, where a Newton step heads for the minimum
    def value(z):
        return float(-((z[0] ** 2 - 1) ** 2))

    def gradient(z):
        return np.array([-4 * z[0] * (z[0] ** 2 - 1)])

    z0 = np.array([0.1])
    unbounded = np.full(1, np.inf)
    z, val, residual = optimize._polish(value, gradient, z0, value(z0), -unbounded, unbounded, 1e-9, 80)
    assert residual <= 1e-9
    assert z[0] == pytest.approx(1.0, abs=1e-9)
    assert val == pytest.approx(0.0, abs=1e-15)


def test_polish_steps_off_a_bound_where_the_hessian_cannot_be_differenced():
    # the central difference at z = 0 evaluates z < 0, where the objective is undefined
    def value(z):
        if z[0] < 0:
            raise DomainError("quantities must be nonnegative")
        return float(-((z[0] - 1) ** 2))

    def gradient(z):
        value(z)
        return np.array([-2 * (z[0] - 1)])

    z0 = np.zeros(1)
    z, _, residual = optimize._polish(value, gradient, z0, value(z0), np.zeros(1), np.full(1, 10.0), 1e-9, 30)
    assert residual <= 1e-9
    assert z[0] == pytest.approx(1.0, abs=1e-9)


def test_polish_never_reads_a_nan_gradient_as_converged():
    def value(z):
        return float(-np.sum(z**2))

    def gradient(z):
        return np.full(len(z), np.nan)

    z0 = np.array([0.5, 0.5])
    z, val, residual = optimize._polish(value, gradient, z0, value(z0), np.zeros(2), np.full(2, 10.0), 1e-9, 30)
    assert math.isnan(residual)
    assert np.array_equal(z, z0) and val == value(z0)


class _NanJacobianDemand(LinearDemand):
    def portfolio_inverse_jacobian(self, q, carried):
        return np.full((len(carried), len(carried)), np.nan)


def test_max_profit_reports_a_nan_gradient_as_maxiter():
    m = _NanJacobianDemand([1.0, 1.0], np.eye(2))
    res = max_profit(m, Portfolio.full(2), FAST)
    assert res.status is OptStatus.MAXITER
    assert math.isnan(res.gradient_norm)
    assert res.starts_used == 2


def test_max_profit_computes_no_gradient_outside_polish(monkeypatch):
    inside = [0]
    outside = []
    gradient = optimize._PortfolioObjective.gradient
    polish = optimize._polish

    def counted_gradient(self, z):
        if not inside[0]:
            outside.append(z.copy())
        return gradient(self, z)

    def tracked_polish(*args):
        inside[0] += 1
        try:
            return polish(*args)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(optimize._PortfolioObjective, "gradient", counted_gradient)
    monkeypatch.setattr(optimize, "_polish", tracked_polish)
    for model in (Eq7Demand(0.15, 0.5), LinearDemand([1.0, 1.0], [[1.0, 0.2], [0.2, 1.0]])):
        for mask in range(1, 2**model.n):
            max_profit(model, Portfolio(model.n, mask), CFG)
    assert outside == []


def test_max_profit_values_each_start_once_before_polish(monkeypatch):
    since_polish = [0]
    before_polish = []
    value = optimize._PortfolioObjective.value
    polish = optimize._polish

    def counted_value(self, z):
        since_polish[0] += 1
        return value(self, z)

    def tracked_polish(*args):
        before_polish.append(since_polish[0])
        try:
            return polish(*args)
        finally:
            since_polish[0] = 0

    monkeypatch.setattr(optimize._PortfolioObjective, "value", counted_value)
    monkeypatch.setattr(optimize, "_polish", tracked_polish)
    model = LinearDemand([1.0, 1.0], [[1.0, 0.2], [0.2, 1.0]])
    res = max_profit(model, Portfolio.full(2), OptimizerConfig(multistart=4))
    assert res.starts_used == 4
    assert before_polish == [1, 1, 1, 1]


def test_one_stop_optimum_reached_after_a_step_lands_on_the_floor():
    # Newton steps overshoot product 3 onto q = 0, where the Hessian cannot be differenced
    m = OneStopDemand([1.31, 1.59, 0.89], [1.25, 1.39, 1.17], ExponentialCdf(0.26))
    res = max_profit(m, Portfolio.from_indices(3, (1, 3)), CFG)
    assert res.status is OptStatus.CONVERGED
    assert res.value == pytest.approx(0.053551596558122, rel=1e-12)
    assert res.q[0] > 0.1 and res.q[2] > 0.05


def test_profit_oracle_records_statuses():
    model = Eq7Demand(0.0, 0.5)
    oracle = profit_oracle(model, FAST)
    oracle(Portfolio.full(3))
    direct = max_profit(model, Portfolio.full(3), FAST)
    assert list(oracle.results) == ["111"]
    kept = oracle.results["111"]
    assert kept.status is direct.status is OptStatus.CONVERGED
    assert kept.value == direct.value
    assert np.array_equal(kept.q, direct.q)


def test_reproduce_appendix_a_solves_each_portfolio_once(monkeypatch):
    # wrap every package module attribute bound to max_profit, as perfbench/tracing.py
    # does: a reference bound out of its reach would go uncounted there and here
    solved = []
    solve = optimize.max_profit

    def counted(model, x, cfg=optimize.DEFAULT_CONFIG):
        solved.append((model.gamma, x.key()))
        return solve(model, x, cfg)

    for name, module in list(sys.modules.items()):
        if name == "mergerfees" or name.startswith("mergerfees."):
            for attr, value in list(vars(module).items()):
                if value is solve:
                    monkeypatch.setattr(module, attr, counted)
    run_suite("appendix-a")
    assert len(solved) == 8 and len(set(solved)) == 8


# ---------------------------------------------------------------------------
# partial_max
# ---------------------------------------------------------------------------


def test_partial_max_no_inner_products():
    m = LinearDemand([1.0, 1.0], np.eye(2))
    # nothing beyond the pair: M(q1, q2) is the two-product profit itself
    assert partial_max(m, 0.25, 0.4) == pytest.approx(
        0.25 * 0.75 + 0.4 * 0.6, abs=1e-12
    )


def test_partial_max_matches_standalone_third_product():
    m = Eq7Demand(0.0, 0.5)
    assert partial_max(m, 0.0, 0.0) == pytest.approx(0.25, abs=1e-10)


def test_partial_max_envelope_mixed_partial_bound():
    model = AppendixBDemand(-0.125, -0.8, -1e-4)
    grid = mixed_partial_grid(model, resolution=5, cfg=FAST)
    a, g, b = model.alpha, model.gamma, model.b
    for r, q1 in enumerate(grid["axis1"]):
        for c, q2 in enumerate(grid["axis2"]):
            analytic = (a + g) ** 2 / 2 + b / (1 + q1) + b / (1 + q2)
            assert grid["values"][r][c] == pytest.approx(analytic, abs=5e-4)
    assert grid["min"] >= 0.07 - 1e-3


def test_partial_max_supermodularity_preserved_for_linear_complements():
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = random_linear_demand(rng, 3, "complements")
        scale = float(np.min(m.choke_quantities())) * 0.6
        grid = mixed_partial_grid(m, lo=(0.0, 0.0), hi=(scale, scale), resolution=4, cfg=FAST)
        assert grid["min"] >= -1e-6


# ---------------------------------------------------------------------------
# Closed-form stationarity conditions
# ---------------------------------------------------------------------------


def test_foc_gamma_zero_closed_form():
    s = solve_foc_eq7(0.0, FocVariant.TWO_PLUS_THREE)
    assert (s.q, s.q3, s.value) == (0.5, 0.5, 0.75)
    s = solve_foc_eq7(0.0, FocVariant.ONE_PLUS_THREE)
    assert s.value == 0.5


def test_foc_multiple_roots_for_negative_coupling():
    s = solve_foc_eq7(-0.5, FocVariant.TWO_PLUS_THREE)
    assert len(s.roots) >= 2  # small spurious root plus the optimum
    assert s.q == pytest.approx(0.467, abs=2e-3)
    assert s.q3 == pytest.approx(0.259, abs=2e-3)


@pytest.mark.parametrize("gamma", [0.5, -0.5, 0.25, -0.25])
@pytest.mark.parametrize("variant", [FocVariant.TWO_PLUS_THREE, FocVariant.ONE_PLUS_THREE])
def test_foc_agrees_with_optimizer(gamma, variant):
    s = solve_foc_eq7(gamma, variant)
    x = (1, 2, 3) if variant is FocVariant.TWO_PLUS_THREE else (1, 3)
    res = max_profit(Eq7Demand(0.0, gamma), Portfolio.from_indices(3, x), CFG)
    assert abs(s.value - res.value) <= 1e-3


def test_foc_residual_is_zero_at_root():
    s = solve_foc_eq7(0.5, FocVariant.TWO_PLUS_THREE)
    residual = 1 - 2 * s.q + 0.25 / 4 + 0.5 * math.sqrt(2) / (8 * math.sqrt(s.q))
    assert abs(residual) < 1e-12


# ---------------------------------------------------------------------------
# Merger statistic and search
# ---------------------------------------------------------------------------


def test_merger_delta_signs():
    assert merger_delta(Eq7Demand(0.0, 0.5), cfg=CFG) == pytest.approx(-0.112, abs=5e-3)
    assert merger_delta(Eq7Demand(0.0, -0.5), cfg=CFG) == pytest.approx(0.099, abs=5e-3)
    assert merger_delta(AppendixBDemand(-0.125, -0.8, -1e-4), cfg=CFG) == pytest.approx(
        0.015, abs=3e-3
    )


def test_merger_delta_shares_oracle_cache():
    oracle = profit_oracle(Eq7Demand(0.0, 0.5), FAST)
    d1 = merger_delta(Eq7Demand(0.0, 0.5), oracle=oracle)
    assert len(oracle.cache) == 4
    d2 = merger_delta(Eq7Demand(0.0, 0.5), oracle=oracle)
    assert d1 == d2


def test_counterexample_search_finds_complement_side_instance():
    region = EvaluationRegion((0.2,) * 3, (0.8,) * 3, 3)
    record = counterexample_search(
        eq7_sampler((0.005, 0.05), (0.3, 0.7)),
        lambda r: r.gross.overall.value == "strict_gross_complements" and r.delta < 0,
        budget=10,
        seed=2,
        cfg=FAST,
        region=region,
    )
    assert record is not None
    assert record.delta < 0
    # verify the found instance by direct re-evaluation
    assert merger_delta(record.model, cfg=CFG) == pytest.approx(record.delta, abs=1e-6)


def test_counterexample_search_finds_substitute_side_instance():
    region = EvaluationRegion((0.2,) * 3, (0.8,) * 3, 3)
    record = counterexample_search(
        eq7_sampler((-0.05, -0.005), (-0.7, -0.3)),
        lambda r: r.gross.overall.value == "strict_gross_substitutes" and r.delta > 0,
        budget=10,
        seed=3,
        cfg=FAST,
        region=region,
    )
    assert record is not None
    assert record.delta > 0


def test_counterexample_search_empty_for_linear_complements():
    region = EvaluationRegion((0.05,) * 3, (0.6,) * 3, 3)

    def make(rng):
        return random_linear_demand(rng, 3, "complements")

    record = counterexample_search(
        make, lambda r: r.delta < 0, budget=25, seed=5, cfg=FAST, region=region
    )
    assert record is None


def test_counterexample_search_is_deterministic():
    region = EvaluationRegion((0.2,) * 3, (0.8,) * 3, 3)
    kwargs = dict(budget=6, seed=2, cfg=FAST, region=region)
    a = counterexample_search(
        eq7_sampler((0.005, 0.05), (0.3, 0.7)), lambda r: r.delta < 0, **kwargs
    )
    b = counterexample_search(
        eq7_sampler((0.005, 0.05), (0.3, 0.7)), lambda r: r.delta < 0, **kwargs
    )
    assert a is not None and b is not None
    assert a.index == b.index and a.delta == b.delta


def test_supermodular_optimized_profit_for_linear_complements():
    rng = np.random.default_rng(41)
    for _ in range(5):
        m = random_linear_demand(rng, 3, "complements")
        oracle = profit_oracle(m, FAST)
        assert classify_modularity(oracle, tolerance=1e-7).kind.value == "supermodular"
