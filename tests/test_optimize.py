import math
import threading

import numpy as np
import pytest

from mergerfees import optimize
from mergerfees.demand_systems import (
    AppendixBDemand,
    CustomDemand,
    Eq7Demand,
    EvaluationRegion,
    LinearDemand,
)
from mergerfees.errors import ConvergenceError
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
            expected = 0.25 * (m.a - m.costs) @ np.linalg.solve(sym / 2, m.a - m.costs) / 2
            # closed form: (a-c)' (B+B')^{-1} (a-c) ... reduce carefully
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


def test_profit_oracle_records_statuses():
    statuses = {}
    oracle = profit_oracle(Eq7Demand(0.0, 0.5), FAST, statuses)
    oracle(Portfolio.full(3))
    assert statuses == {"111": "converged"}


# ---------------------------------------------------------------------------
# scipy's OpenBLAS runs on one thread inside max_profit
# ---------------------------------------------------------------------------

SCIPY_OPENBLAS = optimize._scipy_openblas()
needs_scipy_openblas = pytest.mark.skipif(SCIPY_OPENBLAS is None, reason="scipy's bundled OpenBLAS not found")


def blas_threads() -> int:
    return SCIPY_OPENBLAS.scipy_openblas_get_num_threads()


@pytest.fixture
def threads_seen(monkeypatch):
    """Thread count of scipy's OpenBLAS during each L-BFGS-B call; 2 outside them."""
    before = blas_threads()
    SCIPY_OPENBLAS.scipy_openblas_set_num_threads(2)
    seen: list[int] = []
    minimize = optimize.minimize

    def recording_minimize(*args, **kwargs):
        seen.append(blas_threads())
        return minimize(*args, **kwargs)

    monkeypatch.setattr(optimize, "minimize", recording_minimize)
    yield seen
    SCIPY_OPENBLAS.scipy_openblas_set_num_threads(before)


@needs_scipy_openblas
@pytest.mark.parametrize("model", [Eq7Demand(1e-4, 0.5), LinearDemand([1.0, 0.8], [[1.0, 0.3], [0.2, 1.0]])])
def test_max_profit_caps_scipy_blas_at_one_thread_and_restores(threads_seen, model):
    max_profit(model, Portfolio.full(model.n), CFG)
    assert threads_seen and set(threads_seen) == {1}
    assert blas_threads() == 2


@needs_scipy_openblas
def test_blas_thread_count_restored_when_max_profit_raises(threads_seen, monkeypatch):
    def failing_minimize(*args, **kwargs):
        threads_seen.append(blas_threads())
        raise ConvergenceError("no step")

    monkeypatch.setattr(optimize, "minimize", failing_minimize)
    with pytest.raises(ConvergenceError):
        max_profit(Eq7Demand(0.0, 0.5), Portfolio.full(3), CFG)
    assert threads_seen == [1]
    assert blas_threads() == 2


@needs_scipy_openblas
def test_overlapping_max_profit_calls_keep_the_cap_and_restore_the_count(threads_seen, monkeypatch):
    # a opens first and closes first while b is still inside its call
    a_inside, b_inside, a_done = threading.Event(), threading.Event(), threading.Event()
    minimize = optimize.minimize
    errors: list[BaseException] = []

    def gated_minimize(*args, **kwargs):
        name = threading.current_thread().name
        if name == "a" and not a_inside.is_set():
            a_inside.set()
            b_inside.wait(10)
        elif name == "b" and not b_inside.is_set():
            b_inside.set()
            a_done.wait(10)
        return minimize(*args, **kwargs)

    def run(name):
        try:
            max_profit(Eq7Demand(0.0, 0.5), Portfolio.full(3), CFG)
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)
        if name == "a":
            a_done.set()

    monkeypatch.setattr(optimize, "minimize", gated_minimize)
    a = threading.Thread(target=run, args=("a",), name="a")
    b = threading.Thread(target=run, args=("b",), name="b")
    a.start()
    assert a_inside.wait(10)
    b.start()
    a.join(20)
    b.join(20)
    assert not errors and a_done.is_set() and not b.is_alive()
    assert threads_seen and set(threads_seen) == {1}
    assert blas_threads() == 2


@needs_scipy_openblas
@pytest.mark.parametrize("model", [Eq7Demand(1e-4, 0.5), AppendixBDemand(-0.125, -0.8, -1e-4)])
def test_max_profit_result_does_not_depend_on_blas_threads(threads_seen, monkeypatch, model):
    capped = max_profit(model, Portfolio.full(3), CFG)
    assert set(threads_seen) == {1}
    threads_seen.clear()
    monkeypatch.setattr(optimize, "_scipy_openblas", lambda: None)
    plain = max_profit(model, Portfolio.full(3), CFG)
    assert set(threads_seen) == {2}
    assert np.array_equal(plain.q, capped.q)
    assert (plain.value, plain.gradient_norm, plain.status, plain.starts_used) == (
        capped.value, capped.gradient_norm, capped.status, capped.starts_used
    )


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
