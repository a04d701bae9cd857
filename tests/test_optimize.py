import json
import math
import sys
from pathlib import Path

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
    _fd_jacobian,
)
from mergerfees.errors import ConvergenceError
from mergerfees.optimize import (
    DEFAULT_CONFIG,
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
from mergerfees.reduced_form import ExponentialCdf, StepCdf, TableCdf
from mergerfees.reproduce import run_suite
from mergerfees.scenario import load_scenario, run_analysis
from support import eq7_sampler, multistart, random_linear_demand

ROOT = Path(__file__).resolve().parents[1]
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
        obj = _PortfolioObjective(model, carried, 1)
        row = np.zeros(1, int)
        for _ in range(4):
            z = rng.uniform(0.2, 0.8, size=len(carried))
            g = obj.gradients(z[None], row)[0][0]
            fd = np.zeros_like(z)
            for k in range(len(z)):
                h = 1e-6
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                fd[k] = (obj.values(zp[None], row)[0] - obj.values(zm[None], row)[0]) / (2 * h)
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
    def value(z, rows):
        return -((z[:, 0] ** 2 - 1) ** 2)

    def gradient(z, rows):
        return -4 * z * (z**2 - 1), np.ones(len(z), bool)

    def hessian(z, rows, free):
        return (4 - 12 * z**2)[:, :, None]

    z0 = np.array([[0.1]])
    unbounded = np.full(1, np.inf)
    z, val, residual, kept = optimize._polish(
        value, gradient, hessian, z0, value(z0, None), np.arange(1), -unbounded, unbounded, 1e-9, 80
    )
    assert kept[0]
    assert residual[0] <= 1e-9
    assert z[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert val[0] == pytest.approx(0.0, abs=1e-15)


def test_polish_steps_off_a_bound_where_the_hessian_cannot_be_differenced():
    # the central difference at z = 0 evaluates z < 0, where the objective is undefined
    def value(z, rows):
        return np.where(z[:, 0] < 0, np.nan, -((z[:, 0] - 1) ** 2))

    def slope(z):
        return np.full(1, np.nan) if z[0] < 0 else -2 * (z - 1)

    def gradient(z, rows):
        return np.array([slope(row) for row in z]), ~(z[:, 0] < 0)

    def hessian(z, rows, free):
        return np.array([_fd_jacobian(slope, row, 1e-6, np.flatnonzero(f)) for row, f in zip(z, free)])

    z0 = np.zeros((1, 1))
    z, _, residual, kept = optimize._polish(
        value, gradient, hessian, z0, value(z0, None), np.arange(1), np.zeros(1), np.full(1, 10.0), 1e-9, 30
    )
    assert kept[0]
    assert residual[0] <= 1e-9
    assert z[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_polish_never_reads_a_nan_gradient_as_converged():
    def value(z, rows):
        return -np.sum(z**2, axis=1)

    def gradient(z, rows):
        return np.full(z.shape, np.nan), np.ones(len(z), bool)

    def hessian(z, rows, free):
        return np.broadcast_to(-2 * np.eye(z.shape[1]), (len(z),) + (z.shape[1],) * 2)

    z0 = np.array([[0.5, 0.5]])
    z, val, residual, kept = optimize._polish(
        value, gradient, hessian, z0, value(z0, None), np.arange(1), np.zeros(2), np.full(2, 10.0), 1e-9, 30
    )
    assert kept[0]
    assert math.isnan(residual[0])
    assert np.array_equal(z, z0) and val[0] == value(z0, None)[0]


class _NanJacobianDemand(LinearDemand):
    def portfolio_inverse_jacobians(self, q, p, carried):
        k = len(carried)
        return np.full((len(q), k, k), np.nan), np.ones(len(q), bool)


def test_max_profit_reports_a_nan_gradient_as_maxiter():
    m = _NanJacobianDemand([1.0, 1.0], np.eye(2))
    res = multistart(m, Portfolio.full(2), FAST)
    assert res.status is OptStatus.MAXITER
    assert math.isnan(res.gradient_norm)
    assert res.starts_used == 2


def test_max_profit_computes_no_gradient_outside_polish(monkeypatch):
    inside = [0]
    outside = []
    gradients = optimize._PortfolioObjective.gradients
    polish = optimize._polish

    def counted_gradients(self, z, rows):
        if not inside[0]:
            outside.append(z.copy())
        return gradients(self, z, rows)

    def tracked_polish(*args):
        inside[0] += 1
        try:
            return polish(*args)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(optimize._PortfolioObjective, "gradients", counted_gradients)
    monkeypatch.setattr(optimize, "_polish", tracked_polish)
    for model in (Eq7Demand(0.15, 0.5), LinearDemand([1.0, 1.0], [[1.0, 0.2], [0.2, 1.0]])):
        for mask in range(1, 2**model.n):
            multistart(model, Portfolio(model.n, mask), CFG)
    assert outside == []


def test_max_profit_computes_the_box_once_per_fallback_portfolio(monkeypatch):
    model = AppendixBDemand(-0.125, -0.8, -1e-4)  # no exact solve: every portfolio falls back
    chokes, calls = model.choke_quantities, []
    monkeypatch.setattr(model, "choke_quantities", lambda: calls.append(1) or chokes())
    for mask in range(1, 8):
        before = len(calls)
        assert max_profit(model, Portfolio(3, mask), FAST).starts_used > 0
        assert len(calls) - before == 1


def test_max_profit_values_each_start_once_before_polish(monkeypatch):
    since_polish = [0]
    before_polish = []
    values = optimize._PortfolioObjective.values
    polish = optimize._polish

    def counted_values(self, z, rows):
        since_polish[0] += 1
        return values(self, z, rows)

    def tracked_polish(*args):
        before_polish.append(since_polish[0])
        try:
            return polish(*args)
        finally:
            since_polish[0] = 0

    monkeypatch.setattr(optimize._PortfolioObjective, "values", counted_values)
    monkeypatch.setattr(optimize, "_polish", tracked_polish)
    model = LinearDemand([1.0, 1.0], [[1.0, 0.2], [0.2, 1.0]])
    res = multistart(model, Portfolio.full(2), OptimizerConfig(multistart=4))
    assert res.starts_used == 4
    assert before_polish == [1]


@pytest.mark.parametrize(
    "model,solve",
    [
        (Eq7Demand(0.2, 0.5), "_restricted_inverse"),
        (OneStopDemand([1.31, 1.59, 0.89], [1.25, 1.39, 1.17], ExponentialCdf(0.26)), "_traffic_share"),
    ],
    ids=["eq7", "one_stop"],
)
def test_max_profit_solves_prices_once_per_point(monkeypatch, model, solve):
    # the Jacobian and Hessian hooks take the prices the objective holds; one
    # start, since several starts may reach the same point
    points, solves = [], [0]
    prices, solver = type(model).portfolio_inverses, getattr(type(model), solve)

    def recorded(self, q, carried):
        points.extend((carried, tuple(row)) for row in q.tolist())
        return prices(self, q, carried)

    def counted(self, *args):
        result = solver(self, *args)
        solves[0] += len(args[0]) if solve == "_restricted_inverse" else 1
        return result

    monkeypatch.setattr(type(model), "portfolio_inverses", recorded)
    monkeypatch.setattr(type(model), solve, counted)
    for mask in range(1, 8):
        max_profit(model, Portfolio(3, mask), OptimizerConfig(multistart=1))
    assert len(points) == len(set(points))
    if solve == "_traffic_share":  # q = 0 needs no traffic solve, and q < 0 is rejected first
        points = [row for _, row in points if min(row) >= 0 and max(row) > 0]
    assert solves[0] == len(points)


def test_one_stop_optimum_reached_after_a_step_lands_on_the_floor():
    # Newton steps overshoot product 3 onto q = 0, where the Hessian cannot be differenced
    m = OneStopDemand([1.31, 1.59, 0.89], [1.25, 1.39, 1.17], ExponentialCdf(0.26))
    res = max_profit(m, Portfolio.from_indices(3, (1, 3)), CFG)
    assert res.status is OptStatus.CONVERGED
    assert res.value == pytest.approx(0.053551596558122, rel=1e-12)
    assert res.q[0] > 0.1 and res.q[2] > 0.05


@pytest.mark.parametrize(
    "model,value",
    [
        (OneStopDemand([1.0, 1.2], [1.0, 0.8], StepCdf([0.02, 0.05], [0.5, 0.5])), 0.7),
        (OneStopDemand([1.0, 1.2], [1.0, 0.8], TableCdf([(0.0, 0.0), (0.5, 0.4), (1.5, 1.0)])), None),
        (CustomDemand(2, lambda q: np.array([1.0 - q[0] - 0.2 * q[1], 1.0 - q[1] - 0.2 * q[0]])), 5 / 12),
    ],
    ids=["one_stop-step", "one_stop-table", "custom"],
)
def test_families_without_an_exact_hessian_difference_it_and_converge(monkeypatch, model, value):
    differenced = []

    def counted(*args):
        differenced.append(args[1].copy())
        return _fd_jacobian(*args)

    monkeypatch.setattr(optimize, "_fd_jacobian", counted)
    res = max_profit(model, Portfolio.full(2), CFG)
    assert differenced
    assert res.status is OptStatus.CONVERGED
    assert res.gradient_norm <= CFG.gradient_tol
    if value is not None:
        assert res.value == pytest.approx(value, rel=1e-12)


def _exact_hessian_inputs():
    """Golden analyze inputs whose model family has an exact profit Hessian."""
    inputs = []
    for path in sorted((ROOT / "scenarios").glob("*.json")) + sorted((ROOT / "tests" / "golden").glob("*.json")):
        spec = json.loads(path.read_text())["model"]
        if spec["kind"] in ("linear", "eq7", "appendix_b") or (
            spec["kind"] == "one_stop" and spec["cdf"]["family"] in ("exponential", "affine", "power")
        ):
            inputs.append(path)
    return inputs


@pytest.mark.parametrize("path", _exact_hessian_inputs(), ids=lambda p: p.stem)
def test_exact_hessian_families_never_difference_the_gradient(monkeypatch, path):
    # a family with an exact Hessian that drops back to differences fails here
    def no_differences(*args):
        raise AssertionError("the optimizer differenced a gradient")

    monkeypatch.setattr(optimize, "_fd_jacobian", no_differences)
    run_analysis(load_scenario(str(path)), include_shapley=True)


def test_exact_hessian_guard_covers_every_priced_family():
    kinds = {json.loads(p.read_text())["model"]["kind"] for p in _exact_hessian_inputs()}
    assert kinds == {"linear", "eq7", "appendix_b", "one_stop"}


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
            assert grid["values"][r][c] == pytest.approx(analytic, abs=1e-12)
    assert grid["min"] >= 0.07 - 1e-3


def test_mixed_partial_grid_solves_each_node_once(monkeypatch):
    solves, polished = [], []
    inner, polish = optimize._inner_optima, optimize._polish

    def counted(model, fixed, cfg):
        solves.extend(map(tuple, fixed.tolist()))
        return inner(model, fixed, cfg)

    def counted_polish(*args):
        polished.append(len(args[3]))
        return polish(*args)

    monkeypatch.setattr(optimize, "_inner_optima", counted)
    monkeypatch.setattr(optimize, "_polish", counted_polish)
    mixed_partial_grid(AppendixBDemand(-0.125, -0.8, -1e-4), resolution=5, cfg=FAST)
    assert len(solves) == 25 and len(set(solves)) == 25
    # 16 nodes of 4 starts fill one stack of STACK_ROWS rows; the other 9 nodes take a second
    assert polished == [64, 36]


def _reference_inner_optimum(model, q1, q2, cfg):
    """The inner solve one node at a time: the node's 4 starts polished
    together, then its best converged start. Returns the value, the point
    over products 1..n and the node's objective."""
    carried = tuple(range(3, model.n + 1))
    obj = optimize._PortfolioObjective(model, (1, 2) + carried, 4)
    m = len(carried)
    choke = np.maximum(np.abs(model.choke_quantities()[[i - 1 for i in carried]]), 1.0)
    rng = np.random.default_rng(cfg.seed)
    starts = np.vstack([0.5 * choke, 0.25 * choke, 0.1 * choke + rng.random((2, m)) * choke])
    fixed = np.broadcast_to(np.array([q1, q2], dtype=float), (len(starts), 2))

    def full(w):
        return np.concatenate([fixed[: len(w)], w], axis=1)

    def value_of(w, rows):
        return obj.values(full(w), rows)

    def grad_of(w, rows):
        g, ok = obj.gradients(full(w), rows)
        g = g[:, 2:]
        for r in np.flatnonzero(~ok):
            g[r] = _fd_jacobian(lambda v: value_of(v[None], rows[r : r + 1])[0], w[r], 1e-6)[0]
        return g, np.ones(len(w), bool)

    def hess_of(w, rows, free):
        held = np.zeros((len(w), 2), bool)
        return obj.hessians(full(w), rows, np.concatenate([held, free], axis=1))[:, 2:, 2:]

    unbounded = np.full(m, np.inf)
    vals = value_of(starts, np.arange(len(starts)))
    rows = np.flatnonzero(~np.isnan(vals))
    ends, vals, residuals, kept = optimize._polish(
        value_of, grad_of, hess_of, starts[rows], vals[rows], rows, -unbounded, unbounded, cfg.gradient_tol, 80
    )
    best = None
    for end, val, residual, keep in zip(ends, vals, residuals, kept):
        if keep and residual <= cfg.gradient_tol and (best is None or val > best[0]):
            best = float(val), end
    if best is None:
        raise ConvergenceError(f"inner maximization failed at fixed quantities ({q1}, {q2})")
    return best[0], np.concatenate([fixed[0], best[1]]), obj


def _reference_mixed_partials(model, lo, hi, resolution, cfg):
    """mixed_partial_grid's values node by node: one inner solve and one
    Hessian at each node, in grid order. A node whose inner solve fails is
    NaN; the second result lists their errors in grid order."""
    values = np.full((resolution, resolution), np.nan)
    failures = []
    for r, a in enumerate(np.linspace(lo[0], hi[0], resolution)):
        for c, b in enumerate(np.linspace(lo[1], hi[1], resolution)):
            try:
                _, z, obj = _reference_inner_optimum(model, a, b, cfg)
            except ConvergenceError as exc:
                failures.append(str(exc))
                continue
            hess = obj.hessians(z[None], np.zeros(1, int), np.ones((1, len(z)), bool))[0]
            values[r, c] = hess[0, 1] - hess[0, 2:] @ np.linalg.solve(hess[2:, 2:], hess[2:, 1])
    return values, failures


_GRID_CASES = [
    ("appendix_b-", AppendixBDemand(-0.125, -0.8, -1e-4), (0.0, 0.0), (1.0, 1.0)),
    ("appendix_b+", AppendixBDemand(0.3, 0.4, 0.1), (0.0, 0.0), (1.0, 1.0)),
    ("linear", random_linear_demand(np.random.default_rng(31), 3, "complements"), (0.0, 0.0), (1.0, 1.0)),
    ("eq7", Eq7Demand(0.2, 0.5), (0.1, 0.2), (0.6, 0.9)),
    ("exponential", OneStopDemand([1.1, 1.4, 1.9], [1.8, 1.2, 1.9], ExponentialCdf(1.5)), (0.0, 0.0), (1.0, 1.0)),
]


@pytest.mark.parametrize("name,model,lo,hi", _GRID_CASES, ids=[case[0] for case in _GRID_CASES])
def test_mixed_partial_grid_is_the_per_node_loop_bit_for_bit(name, model, lo, hi):
    for cfg in (DEFAULT_CONFIG, OptimizerConfig(seed=3)):
        grid = mixed_partial_grid(model, lo, hi, 5, cfg)
        want, failures = _reference_mixed_partials(model, lo, hi, 5, cfg)
        assert np.array_equal(np.array(grid["values"]), want, equal_nan=True)
        assert grid["failures"] == failures == []
    for a, b in ((lo[0], hi[1]), (0.5 * (lo[0] + hi[0]), hi[1])):
        assert partial_max(model, a, b) == _reference_inner_optimum(model, a, b, DEFAULT_CONFIG)[0]


def test_partial_max_is_the_one_node_case_of_a_stacked_solve():
    model = AppendixBDemand(-0.3, -0.4, -0.1)
    fixed = np.array([[0.1, 0.7], [0.4, 0.2], [0.9, 0.9]])
    values, points, failures = optimize._inner_optima(model, fixed, DEFAULT_CONFIG)
    assert failures == []
    for (a, b), value, point in zip(fixed, values, points):
        assert partial_max(model, a, b) == value
        assert np.array_equal(point, _reference_inner_optimum(model, a, b, DEFAULT_CONFIG)[1])


def test_mixed_partial_grid_names_the_first_failing_node_in_grid_order():
    # the inner solve fails at 16 of the 25 nodes of this step-CDF grid, first at
    # the third, (0.1, 0.55); those nodes read NaN, and the others their values
    model = OneStopDemand([1.1, 1.4, 1.9], [1.8, 1.2, 1.9], StepCdf([0.3, 0.6], [0.5, 0.5]))
    want, failures = _reference_mixed_partials(model, (0.1, 0.2), (0.6, 0.9), 5, DEFAULT_CONFIG)
    grid = mixed_partial_grid(model, (0.1, 0.2), (0.6, 0.9), 5)
    assert np.array_equal(np.array(grid["values"]), want, equal_nan=True)
    assert grid["failures"] == failures and len(failures) == 16
    assert failures[0] == "inner maximization failed at fixed quantities (0.1, 0.55)"
    assert np.isnan(want[0, 2]) and np.isfinite(want).sum() == 9
    with pytest.raises(ConvergenceError, match=r"^inner maximization failed at fixed quantities \(0\.1, 0\.55\)$"):
        partial_max(model, 0.1, 0.55)


def test_mixed_partial_grid_reads_a_node_whose_inner_solve_fails_as_nan():
    # no start of the inner solve converges at q1 = q2 = 0, where the carried
    # system has no real inverse; the other 24 nodes are the per-node loop's
    # values (to 1e-9, not bit for bit: the stacked and per-node LAPACK solves
    # round alike only on some BLAS kernels, and the inner optima stop at a
    # gradient of 1e-9)
    model = Eq7Demand(0.2, 0.5)
    grid = mixed_partial_grid(model)
    want, failures = _reference_mixed_partials(model, (0.0, 0.0), (1.0, 1.0), 5, DEFAULT_CONFIG)
    values = np.array(grid["values"])
    assert grid["failures"] == failures == ["inner maximization failed at fixed quantities (0.0, 0.0)"]
    assert np.isnan(values[0, 0]) and np.isfinite(np.delete(values.ravel(), 0)).all()
    np.testing.assert_allclose(values, want, rtol=1e-9, atol=0.0, equal_nan=True)
    assert grid["min"] == np.nanmin(values)


def test_mixed_partial_grid_minimum_passes_over_nodes_without_a_hessian():
    # at q2 = 0 product 2 sits at its choke price, on a kink: no Hessian, so those nodes read NaN
    model = OneStopDemand([1.1, 1.4, 1.9], [1.8, 1.2, 1.9], ExponentialCdf(1.5))
    grid = mixed_partial_grid(model)
    values = np.array(grid["values"])
    assert np.isnan(values).sum() == 5 and np.isnan(values[:, 0]).all()
    r, c = np.unravel_index(np.nanargmin(values), values.shape)
    assert grid["min"] == np.nanmin(values) and math.isfinite(grid["min"])
    assert grid["argmin"] == [grid["axis1"][r], grid["axis2"][c]]
    with pytest.raises(ConvergenceError, match="no usable grid node for the mixed partial"):
        mixed_partial_grid(model, (0.0, 0.0), (1.0, 0.0))


def test_mixed_partial_without_inner_products_is_the_cross_partial():
    m = LinearDemand([1.0, 1.0], [[1.0, 0.3], [-0.1, 1.0]])
    grid = mixed_partial_grid(m, resolution=3, cfg=FAST)
    # M = (a - B q) . q, so d2M/dq1 dq2 = -(B12 + B21) everywhere
    assert np.array(grid["values"]) == pytest.approx(np.full((3, 3), -0.2), abs=1e-15)


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
