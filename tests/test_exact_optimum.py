"""The exact solves that max_profit tries before its multistart.

Linear demand with a positive definite B + B^T is a strictly concave box
QP, and eq7 at every |b| < 1 reduces to two coordinates whose candidate
optima are roots of cubics, edges and corners of the box. For seeded draws
of both, every portfolio's exact optimum must be at least the best
multistart value, up to 1e-12 relative, and satisfy the KKT conditions on
the optimizer's box to 1e-12. The path each model takes is asserted too:
exact where the family can certify the optimum, the multistart everywhere
else.
"""

import functools
import math

import numpy as np
import pytest

from mergerfees import optimize
from mergerfees.demand_systems import Eq7Demand, LinearDemand, _cubic_roots, _real_roots
from mergerfees.optimize import DEFAULT_CONFIG, OptStatus, max_profit
from mergerfees.portfolios import Portfolio
from support import random_linear_demand

MULTISTART = optimize._multistart  # the fallback itself, not the counting wrapper below


def _kkt_residual(model, carried, z, lb, ub):
    """The largest slope of R at z that no bound of [lb, ub] holds, over
    max(1, |R(z)|), with the gradient from the optimizer's objective."""
    obj = optimize._PortfolioObjective(model, carried, 1)
    g = obj.gradients(z[None], np.zeros(1, int))[0][0]
    value = obj.values(z[None], np.zeros(1, int))[0]
    held = (z <= lb) & (g <= 0) | (z >= ub) & (g >= 0)
    return float(np.abs(np.where(held, 0.0, g)).max()) / max(1.0, abs(value))


def _solved_by(monkeypatch):
    """Record, per max_profit call, whether it fell back on _multistart."""
    fallbacks = []

    def counted(model, x, cfg, box):
        fallbacks.append(x.key())
        return MULTISTART(model, x, cfg, box)

    monkeypatch.setattr(optimize, "_multistart", counted)
    return fallbacks


def _check_every_portfolio(model, fallbacks, exact_expected):
    """max_profit against the multistart on every portfolio of model;
    returns how many exact optima hold a coordinate at a bound."""
    at_bound = 0
    for mask in range(1, 2**model.n):
        x = Portfolio(model.n, mask)
        carried = x.indices()
        idx = [i - 1 for i in carried]
        before = len(fallbacks)
        got = max_profit(model, x, DEFAULT_CONFIG)
        exact = len(fallbacks) == before
        assert exact == exact_expected(carried), (model.describe(), x.key())
        if not exact:
            continue
        assert (got.status, got.starts_used, got.gradient_norm) == (OptStatus.CONVERGED, 0, 0.0)
        box = optimize._box(model, carried, DEFAULT_CONFIG)
        best = MULTISTART(model, x, DEFAULT_CONFIG, box)
        assert got.value >= best.value - 1e-12 * max(1.0, abs(best.value)), (model.describe(), x.key())
        _, lb, ub = box
        z = got.q[idx]
        assert np.all(got.q[[i for i in range(model.n) if i not in idx]] == 0.0)
        assert np.all((lb <= z) & (z <= ub))
        assert _kkt_residual(model, carried, z, lb, ub) <= 1e-12, (model.describe(), x.key())
        at_bound += bool(np.any((z == lb) | (z == ub)))
    return at_bound


def _positive_definite_block(model, carried):
    idx = [i - 1 for i in carried]
    block = model.B[np.ix_(idx, idx)]
    return bool(np.linalg.eigvalsh(block + block.T).min() > 0)


def test_linear_exact_optimum_is_the_global_maximum(monkeypatch):
    fallbacks = _solved_by(monkeypatch)
    rng = np.random.default_rng(2718)
    at_bound = 0
    for n in (2, 3, 4, 5):
        for relation in ("complements", "substitutes"):
            for _ in range(3):
                model = random_linear_demand(rng, n, relation)
                if relation == "substitutes":
                    # costs near some intercepts push those products onto q = 0
                    costs = model.a * rng.choice([0.0, 0.9], n)
                    model = LinearDemand(model.a, model.B, costs=costs)
                at_bound += _check_every_portfolio(model, fallbacks, lambda c: True)
    assert at_bound >= 10  # faces of the box were active, not only interior optima


def test_linear_without_a_positive_definite_symmetric_part_falls_back(monkeypatch):
    fallbacks = _solved_by(monkeypatch)
    rng = np.random.default_rng(31)
    fell_back = 0
    for n in (2, 3, 4):
        for _ in range(4):
            B = np.eye(n) + np.triu(rng.uniform(1.5, 3.0, (n, n)), 1)  # B + B^T indefinite
            model = LinearDemand(rng.uniform(1.0, 2.0, n), B)
            _check_every_portfolio(model, fallbacks, functools.partial(_positive_definite_block, model))
            fell_back += len(fallbacks)
            fallbacks.clear()
    assert fell_back > 0
    # one product never falls back: its block is its own positive diagonal
    assert max_profit(LinearDemand([1.0, 1.0], [[1.0, 3.0], [0.0, 1.0]]), Portfolio(2, 1)).starts_used == 0


def test_eq7_at_b_zero_is_solved_exactly_for_every_gamma(monkeypatch):
    fallbacks = _solved_by(monkeypatch)
    rng = np.random.default_rng(1618)
    for gamma in [0.0, 0.9, -0.9, 0.5, -0.5] + rng.uniform(-0.9, 0.9, 20).tolist():
        _check_every_portfolio(Eq7Demand(0.0, gamma), fallbacks, lambda c: True)
    assert fallbacks == []


def test_every_eq7_portfolio_takes_the_exact_path(monkeypatch):
    fallbacks = _solved_by(monkeypatch)
    for b, gamma in ((0.2, 0.5), (-0.15, -0.5), (1e-4, 0.5)):
        for mask in range(1, 8):
            res = max_profit(Eq7Demand(b, gamma), Portfolio(3, mask), DEFAULT_CONFIG)
            assert (res.status, res.starts_used) == (OptStatus.CONVERGED, 0)
    assert fallbacks == []


def test_eq7_with_cross_price_coupling_is_solved_exactly(monkeypatch):
    # 2002 portfolios: seeded (b, gamma) draws, the tiny and near-one |b| of both
    # signs, and b = 1 - sqrt(3), where the interior path's cubic loses its cube
    fallbacks = _solved_by(monkeypatch)
    rng = np.random.default_rng(1414)
    edges = [s * b for b in (1e-12, 1e-8, 1e-4, 0.99) for s in (1.0, -1.0)] + [1.0 - math.sqrt(3.0)]
    draws = [(b, gamma) for b in edges for gamma in (0.95, -0.95, 0.0, *rng.uniform(-0.95, 0.95, 3))]
    while len(draws) < 286:
        draws.append((float(rng.uniform(-0.99, 0.99)), float(rng.uniform(-0.95, 0.95))))
    at_bound = sum(_check_every_portfolio(Eq7Demand(b, gamma), fallbacks, lambda c: True) for b, gamma in draws)
    assert fallbacks == []
    assert at_bound >= 20  # optima on the floor of the box, not only interior ones


def test_eq7_floor_corner_draw_is_converged_at_the_best_value():
    # perfbench/golden.json's eq7 draw 2: portfolios 101 and 011 also have a
    # KKT point at the corner q = 1e-6 of the floor, which no multistart start
    # reaches; the exact solve values it and still reports the interior optimum
    model = Eq7Demand(-0.01855103399050012, -0.6679741168419536)
    for mask in (0b101, 0b110):
        x = Portfolio(3, mask)
        got = max_profit(model, x, DEFAULT_CONFIG)
        want = MULTISTART(model, x, DEFAULT_CONFIG, optimize._box(model, x.indices(), DEFAULT_CONFIG))
        assert got.status is OptStatus.CONVERGED, x.key()
        assert got.value >= want.value - 1e-15 * want.value, x.key()  # no lower, up to rounding
        assert got.value == pytest.approx(0.316496795824216, abs=1e-15)


def test_exact_optimum_stays_in_the_box_it_is_given():
    # a box that cuts the unconstrained optimum off: the answer is on its face
    model = LinearDemand([1.0, 1.0], [[1.0, 0.2], [0.2, 1.0]])
    z, value = model.exact_optimum((1, 2), np.zeros(2), np.array([0.2, 10.0]))
    assert z[0] == 0.2 and z[1] == pytest.approx((1.0 - 0.4 * 0.2) / 2.0, abs=1e-15)
    z, value = Eq7Demand(0.0, 0.5).exact_optimum((1, 2, 3), np.full(3, 0.7), np.full(3, 10.0))
    assert z[:2] == [0.7, 0.7] and z[2] == pytest.approx(0.5 * (1 + 0.5 * math.sqrt(1.4)), abs=1e-15)
    # unequal bounds on the pair break the symmetric reduction: no certified answer
    for b in (0.0, 0.3):
        assert Eq7Demand(b, 0.5).exact_optimum((1, 2, 3), np.array([0.0, 0.1, 0.0]), np.full(3, 10.0)) is None
        assert Eq7Demand(b, 0.5).exact_optimum((1, 2), np.zeros(2), np.array([10.0, 9.0])) is None
    # a non-finite spillover never reaches the solve: the model rejects it
    with pytest.raises(ValueError, match="gamma must be finite"):
        Eq7Demand(0.3, math.inf)


def test_linear_exact_optimum_meets_the_kkt_conditions_on_tight_boxes():
    # upper bounds below the unconstrained optimum hold coordinates at both ends;
    # for a strictly concave profit the KKT point is the global maximum
    rng = np.random.default_rng(99)
    held = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        model = random_linear_demand(rng, n, rng.choice(["complements", "substitutes"]))
        model = LinearDemand(model.a, model.B, costs=model.a * rng.choice([0.0, 0.95], n))
        carried = tuple(range(1, n + 1))
        lb, ub = np.zeros(n), rng.uniform(0.05, 0.6, n)
        z, value = model.exact_optimum(carried, lb, ub)
        z = np.array(z)
        g = model.a - model.costs - (model.B + model.B.T) @ z
        assert np.all((lb <= z) & (z <= ub))
        on_lb, on_ub = z == lb, z == ub
        assert np.all(g[on_lb] <= 0) and np.all(g[on_ub] >= 0)
        assert np.abs(g[~on_lb & ~on_ub]).max(initial=0.0) <= 1e-12
        assert value == pytest.approx(float((model.a - model.costs - model.B @ z) @ z), rel=1e-14)
        held += bool(on_lb.any()) and bool(on_ub.any())
    assert held >= 5


def test_eq7_exact_optimum_with_product_3_held_at_its_floor():
    # gamma = -0.9 wants q3 near 0.07; a floor of 0.4 holds it, and the pair's
    # stationary point is then a root of the held cubic 2 t^3 - t - c gamma / (2 sqrt 2)
    gamma = -0.9
    z, value = Eq7Demand(0.0, gamma).exact_optimum((1, 2, 3), np.array([1e-6, 1e-6, 0.4]), np.full(3, 10.0))
    q = np.linspace(1e-6, 2.0, 20001)
    q3 = np.clip(0.5 * (1.0 + gamma * np.sqrt(2 * q)), 0.4, 10.0)
    scan = 2 * q * (1 - q) + q3 * (1 - q3 + gamma * np.sqrt(2 * q))
    assert z[2] == 0.4 and z[0] == z[1]
    assert value >= scan.max() - 1e-12
    assert abs(1 - 2 * z[0] + 0.4 * gamma / (2 * math.sqrt(2 * z[0]))) <= 1e-12


@pytest.mark.parametrize(
    "p,q,roots",
    [
        (-1.0, 0.0, [-1.0, 0.0, 1.0]),  # three real roots: t^3 - t
        (-7.0, 6.0, [-3.0, 1.0, 2.0]),  # (t - 1)(t - 2)(t + 3)
        (1.0, -2.0, [1.0]),  # one real root: (t - 1)(t^2 + t + 2)
        (0.0, -8.0, [2.0]),
        (-3.0, 2.0, [-2.0, 1.0, 1.0]),  # a double root
    ],
)
def test_cubic_roots(p, q, roots):
    got = _cubic_roots(p, q)
    assert got == pytest.approx(roots, abs=1e-7)
    for t in got:
        assert abs((t * t + p) * t + q) <= 1e-14


@pytest.mark.parametrize(
    "coefficients,roots",
    [
        ((2.0, -6.0, 4.0, 0.0), [0.0, 1.0, 2.0]),  # 2 t (t - 1)(t - 2)
        ((1e-9, 1.0 - 3e-9, 2e-9 - 3.0, 2.0), [1.0, 2.0]),  # (1e-9 t + 1)(t - 1)(t - 2): a root far out
        ((0.0, 1.0, -3.0, 2.0), [1.0, 2.0]),
        ((0.0, 0.0, 2.0, -1.0), [0.5]),
        ((0.0, 1.0, 0.0, 1.0), []),
    ],
)
def test_real_roots(coefficients, roots):
    got = sorted(t for t in _real_roots(*coefficients) if abs(t) < 1e6)
    assert got == pytest.approx(roots, abs=1e-12)
    c3, c2, c1, c0 = coefficients
    for t in got:
        assert abs(((c3 * t + c2) * t + c1) * t + c0) <= 1e-14
