"""The stacked optimizer against a per-start reference.

``reference_max_profit`` and ``reference_polish`` are the optimizer as it was
before the starts of a portfolio were stepped together: one start at a time,
on 1-D arrays and the one-point model hooks, with a rejected point raising.
Seeded draws of every demand family must give the same status and starts
used, the same value to 1e-12 relative and the same q to 1e-9, and each
stacked family hook must return the rows of its per-row default. The
linear and eq7 b = 0 draws, which max_profit solves exactly, check
``_multistart``, the optimizer max_profit falls back on.
"""

import math

import numpy as np
import pytest

from mergerfees import optimize
from mergerfees.demand_systems import (
    AppendixBDemand,
    CustomDemand,
    DemandModel,
    Eq7Demand,
    OneStopDemand,
    _fd_jacobian,
    _linalg_rows,
)
from mergerfees.errors import ConvergenceError, DomainError
from mergerfees.optimize import DEFAULT_CONFIG, OptimizerConfig, OptResult, OptStatus, max_profit
from mergerfees.portfolios import Portfolio
from mergerfees.reduced_form import AffineClampedCdf, ExponentialCdf, PowerCdf, StepCdf, TableCdf
from mergerfees.sampling import random_linear_demand

EVAL_ERRORS = (DomainError, ConvergenceError, np.linalg.LinAlgError)


class ReferenceObjective:
    """Value, gradient and Hessian at one point from the one-point hooks."""

    def __init__(self, model, carried):
        self.model = model
        self.carried = carried
        self.idx = np.array([i - 1 for i in carried])
        self.costs = model.costs[self.idx]

    def pad(self, z):
        q = np.zeros(self.model.n)
        q[self.idx] = z
        return q

    def _solve(self, z):
        q = self.pad(z)
        p = self.model.portfolio_inverse(q, self.carried)
        return q, p, self.model.portfolio_inverse_jacobian(q, p, self.carried)

    def value(self, z):
        p = self.model.portfolio_inverse(self.pad(z), self.carried)
        return float(np.dot(p[self.idx] - self.costs, z))

    def gradient(self, z):
        _, p, jac = self._solve(z)
        return p[self.idx] - self.costs + jac.T @ z

    def hessian(self, z, free):
        q, p, jac = self._solve(z)
        curvature = self.model.portfolio_inverse_hessian(q, p, jac, self.carried)
        if curvature is None:
            return _fd_jacobian(self.gradient, z, 1e-6, free)[free]
        return (jac + jac.T + np.tensordot(z, curvature, axes=1))[free][:, free]


def reference_polish(value, gradient, hessian, z, fz, lb, ub, tol, max_steps):
    stalled = False
    for steps in range(max_steps + 1):
        g = gradient(z)
        free = [
            a
            for a in range(len(z))
            if not (z[a] <= lb[a] + 1e-10 and g[a] <= 0)
            and not (z[a] >= ub[a] - 1e-10 and g[a] >= 0)
        ]
        step = g[free]
        residual = float(np.abs(step).max(initial=0.0))
        if residual <= tol or steps == max_steps or stalled:
            return z, fz, residual
        try:
            hess = hessian(z, free)
            if np.linalg.eigvalsh(0.5 * (hess + hess.T)).max() < 0:
                step = np.linalg.solve(hess, -step)
        except EVAL_ERRORS:
            pass
        if not np.isfinite(step).all():
            return z, fz, residual
        scale = 1.0
        for _ in range(25):
            cand = z.copy()
            cand[free] = np.clip(z[free] + scale * step, lb[free], ub[free])
            try:
                val = value(cand)
            except EVAL_ERRORS:
                scale *= 0.5
                continue
            if val >= fz - 1e-15:
                stalled = np.abs(cand - z).max() < 1e-15
                z, fz = cand, val
                break
            scale *= 0.5
        else:
            return z, fz, residual


def reference_max_profit(model, x, cfg=DEFAULT_CONFIG):
    carried = x.indices()
    obj = ReferenceObjective(model, carried)
    k = len(carried)
    choke = np.maximum(np.abs(model.choke_quantities()[obj.idx]), 1.0)
    lb = np.full(k, cfg.floor if model.singular_at_zero else 0.0)
    ub = 10.0 * choke
    rng = np.random.default_rng(cfg.seed)
    starts = [0.5 * choke]
    if cfg.multistart > 1:
        starts.extend(optimize._latin_hypercube(rng, cfg.multistart - 1, np.maximum(lb, 1e-4), choke))

    def safe_start(z0):
        z = np.clip(z0, lb, ub)
        for _ in range(12):
            try:
                return z, obj.value(z)
            except EVAL_ERRORS:
                z = 0.5 * (z + 0.5 * choke)
        return None

    solutions, used = [], 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for z0 in starts:
            start = safe_start(np.asarray(z0))
            if start is None:
                continue
            used += 1
            try:
                solutions.append(
                    reference_polish(
                        obj.value, obj.gradient, obj.hessian, *start, lb, ub, cfg.gradient_tol, cfg.max_iter
                    )
                )
            except EVAL_ERRORS:
                continue
    if not solutions:
        raise ConvergenceError(f"no start produced a usable solution for portfolio {x}")
    best_z, best_val, best_kkt = max(solutions, key=lambda s: s[1])
    clean = [s for s in solutions if s[2] <= max(cfg.gradient_tol, 1e-6)]
    status = OptStatus.CONVERGED if best_kkt <= cfg.gradient_tol else OptStatus.MAXITER
    distinct = [
        s for s in clean if best_val - s[1] > cfg.value_gap and np.max(np.abs(s[0] - best_z)) > 1e-4
    ]
    if distinct and best_kkt <= max(cfg.gradient_tol, 1e-6):
        status = OptStatus.DEGENERATE
    return OptResult(obj.pad(best_z), best_val, best_kkt, status, used)


ONE_STOP_ALPHA, ONE_STOP_BETA = [1.1, 1.4, 1.9], [1.8, 1.2, 1.9]


def _one_stop(rng, cdf):
    return OneStopDemand(rng.uniform(0.8, 1.6, 3), rng.uniform(0.8, 1.6, 3), cdf)


def _draws():
    rng = np.random.default_rng(2026)
    draws = []
    for _ in range(1):
        draws.append(("linear", random_linear_demand(rng, 3, "complements")))
        draws.append(("linear", random_linear_demand(rng, 3, "substitutes")))
        draws.append(("eq7_b0", Eq7Demand(0.0, rng.uniform(-0.9, 0.9))))
        sign = rng.choice([-1.0, 1.0])
        draws.append(("eq7", Eq7Demand(sign * rng.uniform(0.01, 0.3), sign * rng.uniform(0.1, 0.9))))
        draws.append(("appendix_b+", AppendixBDemand(*rng.uniform([0.05, 0.1, 0.0], [0.5, 0.6, 0.3]))))
        draws.append(("appendix_b-", AppendixBDemand(*-rng.uniform([0.05, 0.1, 0.0], [0.5, 0.6, 0.3]))))
        draws.append(("exponential", _one_stop(rng, ExponentialCdf(rng.uniform(0.2, 2.0)))))
        draws.append(("affine", _one_stop(rng, AffineClampedCdf(0.0, rng.uniform(1.0, 3.0)))))
        draws.append(("power", _one_stop(rng, PowerCdf(rng.uniform(1.2, 3.0), rng.uniform(1.0, 3.0)))))
        draws.append(("step", _one_stop(rng, StepCdf(sorted(rng.uniform(0.05, 1.0, 2)), [0.5, 0.5]))))
        draws.append(("table", _one_stop(rng, TableCdf([(0.0, 0.0), (rng.uniform(0.3, 0.8), 0.4), (2.0, 1.0)]))))
        c = rng.uniform(0.05, 0.3)
        draws.append((
            "custom",
            CustomDemand(
                2,
                lambda q, c=c: np.array([1.0 - q[0] - c * q[1] + 0.1 * math.sin(q[0]), 1.2 - q[1] - c * q[0]]),
                choke=[1.0, 1.2],
            ),
        ))
    return draws


DRAWS = _draws()
EXACT_FAMILIES = ("linear", "eq7_b0")  # max_profit answers these without starts


def _assert_matches_reference(family, model, cfg):
    solve = optimize._multistart if family in EXACT_FAMILIES else max_profit
    for mask in range(1, 2**model.n):
        x = Portfolio(model.n, mask)
        got, want = solve(model, x, cfg), reference_max_profit(model, x, cfg)
        assert (got.status, got.starts_used) == (want.status, want.starts_used), x.key()
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-300), x.key()
        assert np.max(np.abs(got.q - want.q)) <= 1e-9, x.key()


@pytest.mark.parametrize("family,model", DRAWS, ids=[f for f, _ in DRAWS])
def test_stacked_optimizer_matches_the_per_start_reference(family, model):
    _assert_matches_reference(family, model, DEFAULT_CONFIG)


@pytest.mark.parametrize("family,model", [DRAWS[3], DRAWS[5]], ids=[DRAWS[3][0], DRAWS[5][0]])
def test_starts_beyond_one_stack_match_the_reference(family, model):
    # two blocks of starts, and a step budget that ends most starts early
    _assert_matches_reference(family, model, OptimizerConfig(multistart=optimize.STACK_ROWS + 6, seed=3))
    _assert_matches_reference(family, model, OptimizerConfig(multistart=3, max_iter=2))


def test_reference_draws_cover_every_family():
    assert {f for f, _ in DRAWS} == {
        "linear", "eq7_b0", "eq7", "appendix_b+", "appendix_b-", "exponential", "affine", "power",
        "step", "table", "custom",
    }


class _ExactSlopes(CustomDemand):
    """Linear inverse demand that rejects negative quantities, with an exact
    Jacobian but no exact Hessian: the gradient is defined on the bound
    q = 0, and a difference Hessian there is not."""

    def __init__(self):
        super().__init__(2, self._prices)

    @staticmethod
    def _prices(q):
        if np.any(q < 0):
            raise DomainError("quantities must be nonnegative")
        return np.array([1.0 - q[0] - 0.2 * q[1], 1.0 - q[1] - 0.2 * q[0]])

    def inverse_jacobian(self, q):
        return np.array([[-1.0, -0.2], [-0.2, -1.0]])


def test_one_row_whose_hessian_raises_takes_a_gradient_step_while_the_others_take_newton_steps():
    # row 0 starts on the bound q1 = 0, where its difference Hessian evaluates q1 < 0
    model = _ExactSlopes()
    obj = optimize._PortfolioObjective(model, (1, 2), 3)
    starts = np.array([[0.0, 0.3], [0.4, 0.3], [0.2, 0.6]])
    lb, ub = np.zeros(2), np.full(2, 10.0)
    rows = np.arange(3)
    newton = []

    def hessians(z, rows, free):
        hess = obj.hessians(z, rows, free)
        newton.append(dict(zip(rows.tolist(), np.isfinite(hess).all(axis=(1, 2)).tolist())))
        return hess

    ends, vals, residuals, kept = optimize._polish(
        obj.values, obj.gradients, hessians, starts, obj.values(starts, rows), rows, lb, ub, 1e-9, 500
    )
    assert newton[0] == {0: False, 1: True, 2: True}
    ref = ReferenceObjective(model, (1, 2))
    for r in range(3):
        z, fz, residual = reference_polish(
            ref.value, ref.gradient, ref.hessian, starts[r], ref.value(starts[r]), lb, ub, 1e-9, 500
        )
        assert kept[r] and np.array_equal(ends[r], z) and vals[r] == fz and residuals[r] == residual
    # rows 1 and 2 converge in one Newton step; row 0 climbs along its gradient first
    assert all(r not in step for step in newton[1:] for r in (1, 2))
    assert residuals.max() <= 1e-9


def _hook_rows(model, carried, q):
    """Each stacked hook of model, and the base class's per-row default of it."""
    p = model.portfolio_inverses(q, carried)
    jac, ok = model.portfolio_inverse_jacobians(q, p, carried)
    curvature, exact = model.portfolio_inverse_hessians(q, p, jac, carried)
    base = DemandModel
    p_rows = base.portfolio_inverses(model, q, carried)
    jac_rows, ok_rows = base.portfolio_inverse_jacobians(model, q, p_rows, carried)
    curvature_rows = np.full(curvature.shape, np.nan)
    exact_rows = np.zeros(len(q), bool)
    for r in range(len(q)):
        if ok_rows[r]:
            one = model.portfolio_inverse_hessian(q[r], p_rows[r], jac_rows[r], carried)
            if one is not None:
                curvature_rows[r], exact_rows[r] = one, True
    return (p, jac, ok, curvature, exact), (p_rows, jac_rows, ok_rows, curvature_rows, exact_rows)


@pytest.mark.parametrize(
    "model",
    [
        random_linear_demand(np.random.default_rng(3), 3, "substitutes"),
        Eq7Demand(0.0, 0.6),
        Eq7Demand(0.3, 0.7),
        Eq7Demand(-0.2, -0.5),
        AppendixBDemand(0.3, 0.4, 0.1),
        AppendixBDemand(-0.3, -0.4, -0.1),
        OneStopDemand(ONE_STOP_ALPHA, ONE_STOP_BETA, ExponentialCdf(1.5)),
        OneStopDemand(ONE_STOP_ALPHA, ONE_STOP_BETA, AffineClampedCdf(0.2, 2.0)),
        OneStopDemand(ONE_STOP_ALPHA, ONE_STOP_BETA, PowerCdf(2.0, 2.0)),
        OneStopDemand(ONE_STOP_ALPHA, ONE_STOP_BETA, StepCdf([0.05, 0.3], [0.5, 0.5])),
        OneStopDemand(ONE_STOP_ALPHA, ONE_STOP_BETA, TableCdf([(0.0, 0.0), (0.5, 0.4), (2.0, 1.0)])),
    ],
    ids=[
        "linear", "eq7_b0", "eq7+", "eq7-", "appendix_b+", "appendix_b-",
        "one_stop_exponential", "one_stop_affine", "one_stop_power", "one_stop_step", "one_stop_table",
    ],
)
def test_closed_form_stacked_hooks_return_the_per_row_rows(model):
    rng = np.random.default_rng(17)
    seen_rejected = seen_singular = seen_kink = False
    for mask in range(1, 8):
        carried = Portfolio(3, mask).indices()
        idx = [i - 1 for i in carried]
        q = np.zeros((40, 3))
        q[:, idx] = rng.uniform(-0.3, 1.5, (40, len(carried)))
        if model.kind == "appendix_b":
            q[::7, 0] = -1.5  # rejected by the log terms
        if model.kind == "one_stop":
            q[:, idx] = np.abs(q[:, idx]) * 0.4 * model.alpha[idx]
            q[::7, idx[0]] = -0.1  # rejected: quantities must be nonnegative
            q[1::6, idx[0]] = 0.0  # product at its choke price: a kink, no exact Hessian
            q[2::9] = 0.0  # every product at its choke price; G(0) = 0 with a flat foot is singular
        with np.errstate(all="ignore"):
            stacked, rows = _hook_rows(model, carried, q)
        p, jac, ok, curvature, exact = stacked
        p_rows, jac_rows, ok_rows, curvature_rows, exact_rows = rows
        priced = ~np.isnan(p_rows[:, idx]).any(axis=1)
        seen_rejected |= not priced.all()
        seen_singular |= not ok[priced].all()
        assert np.array_equal(p, p_rows, equal_nan=True)
        assert np.array_equal(ok[priced], ok_rows[priced])
        assert np.array_equal(jac[priced & ok], jac_rows[priced & ok])
        both = priced & ok
        assert np.array_equal(exact[both], exact_rows[both])
        assert np.array_equal(curvature[both & exact], curvature_rows[both & exact])
        if model.kind == "one_stop":
            seen_kink |= not exact[both].all()
            with np.errstate(all="ignore"):
                jac_old, ok_old, hess_old, exact_old = _one_stop_per_row_hooks(model, carried, p[priced])
            assert np.array_equal(ok[priced], ok_old)
            assert np.array_equal(jac[priced][ok_old], jac_old[ok_old])
            hess, hess_exact = model.demand_hessians(p[priced], carried)
            assert np.array_equal(hess_exact, exact_old)
            assert np.array_equal(hess, hess_old, equal_nan=True)
    assert seen_rejected or model.kind == "linear"
    if model.kind == "one_stop":
        assert seen_kink
        # a flat foot of G at zero traffic makes the demand Jacobian vanish at the choke prices
        assert seen_singular == (model.cdf.family in ("affine", "step"))


def _one_stop_per_row_hooks(model, carried, p):
    """OneStopDemand's Jacobian and Hessian hooks one row at a time: the
    inverse of each row's difference demand Jacobian, and the demand Hessian
    formula at each row's prices."""
    idx = [i - 1 for i in carried]
    k = len(carried)
    jac, ok = np.full((len(p), k, k), np.nan), np.zeros(len(p), bool)
    hess, exact = np.full((len(p), k, k, k), np.nan), np.zeros(len(p), bool)
    for r, prices in enumerate(p):
        try:
            jac[r], ok[r] = np.linalg.inv(_fd_jacobian(model.demand, prices))[:, idx][idx], True
        except np.linalg.LinAlgError:
            pass
        derivatives = model.cdf.derivatives(float(np.sum(model.surplus(prices))))
        if derivatives is None or np.any(prices[idx] >= (model.alpha / model.beta)[idx]):
            continue
        g1, g2 = derivatives
        s = model.sub_demand(prices)[idx]
        slope = g1 * np.diag(model.beta[idx])
        hess[r] = (
            slope[:, :, None] * s
            + slope[:, None, :] * s[:, None]
            + slope * s[:, None, None]
            + g2 * s[:, None, None] * s[:, None] * s
        )
        exact[r] = True
    return jac, ok, hess, exact


@pytest.mark.parametrize("fn", [np.linalg.inv, np.linalg.solve], ids=lambda f: f.__name__)
def test_linalg_rows_gives_each_row_its_own_result_around_a_singular_row(fn):
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(6, 3, 3))
    stack[2] = 0.0  # singular: the stacked call raises for it
    args = (stack, rng.normal(size=(6, 3, 1))) if fn is np.linalg.solve else (stack,)
    use = np.array([True, True, True, False, True, True])
    out, ok = _linalg_rows(fn, use, *args)
    assert ok.tolist() == [True, True, False, False, True, True]
    assert np.isnan(out[[2, 3]]).all()
    for r in (0, 1, 4, 5):
        assert np.array_equal(out[r], fn(*(a[r] for a in args)))
