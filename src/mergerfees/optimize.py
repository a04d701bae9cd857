"""Portfolio profit maximization and the merger statistics built on it.

For a demand model and a portfolio x, the intermediary's gross profit is

    max_q  sum_{i in x} (P_i(q) - c_i) q_i   s.t.  q_i = 0 for i not in x

over a box of the carried quantities. Where the model has an exact solve
(DemandModel.exact_optimum: linear demand with a positive definite B + B^T,
eq7 at b = 0) it answers in Python floats, with no start. Everywhere else,
and wherever that solve cannot certify the global maximum, the problem is
solved by damped Newton ascent from several starts, with coordinates held
at a bound by their slope kept fixed. The starts are stepped together as
the rows of one stack, each taking the steps it would take alone, so one
Newton iteration is one call of each stacked model hook for all of them.
The Newton Hessian is exact where the model gives
portfolio_inverse_hessians, d2R = J + J^T + sum_i z_i d2P_i, and central
differences of the gradient otherwise; one P(q) solve serves the value,
gradient and Hessian at a point. The resulting value function over
portfolios feeds the set-function classifiers and the bargaining layer.
The module also provides the partial maximum M(q1, q2) (profit maximized
over every carried product except 1 and 2, whose quantities are held
fixed) and its mixed partial from the Hessian at the inner optimum. A
grid of (q1, q2) nodes is solved as one stack, whose rows are the starts
of every node, and its Hessians are one stacked call. Last come
closed-form first-order conditions for the square-root-spillover family,
the pair second difference of the optimized profit at the full
complement portfolio (negative means the pair are profit substitutes, so
merging them raises total fees), and a seeded search for parameter draws
satisfying a predicate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .demand_systems import (
    DemandModel,
    GrossRelationReport,
    _cubic_roots,
    _fd_jacobian,
    _linalg_rows,
    gross_relation,
)
from .errors import ConvergenceError
from .portfolios import Portfolio, SetFunction, second_difference

MAX_MULTISTART = 10_000  # each start is a row of the Latin hypercube drawn up front
STACK_ROWS = 64  # starts stepped together; bounds a stack's (k, k, k) curvatures at large n


class OptStatus(str, enum.Enum):
    CONVERGED = "converged"
    MAXITER = "maxiter"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class OptimizerConfig:
    gradient_tol: float = 1e-9
    max_iter: int = 500  # Newton steps of each start
    multistart: int = 8
    floor: float = 1e-6  # keeps iterates off gradient singularities at q = 0
    seed: int = 0
    value_gap: float = 1e-6  # distinct local optima beyond this gap => degenerate

    def __post_init__(self):
        if not self.gradient_tol > 0:
            raise ValueError(f"gradient_tol must be positive, got {self.gradient_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 1 <= self.multistart <= MAX_MULTISTART:
            raise ValueError(f"multistart must be in 1..{MAX_MULTISTART}, got {self.multistart}")
        if not self.floor >= 0:
            raise ValueError(f"floor must be >= 0, got {self.floor}")
        if not self.value_gap >= 0:
            raise ValueError(f"value_gap must be >= 0, got {self.value_gap}")

    def with_seed(self, seed: int) -> "OptimizerConfig":
        return replace(self, seed=seed)


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class OptResult:
    q: np.ndarray  # full-length, zeros off-portfolio
    value: float
    gradient_norm: float  # KKT residual over active coordinates
    status: OptStatus
    starts_used: int


class _PortfolioObjective:
    """R, its gradient and its Hessian over the active coordinates of one
    portfolio, at a stack of points.

    Each call takes the points (m, k) and their rows, labels in 0..size-1
    of the starts they belong to. A row's last point asked about keeps its
    prices and, once asked for, its price Jacobian, so the value, gradient
    and Hessian at one point share one P(q) solve.
    """

    def __init__(self, model: DemandModel, carried: tuple[int, ...], size: int):
        self.model = model
        self.carried = carried
        self.idx = np.array([i - 1 for i in carried])
        self.costs = model.costs[self.idx]
        k = len(carried)
        # per row: the last point, its padded q and prices, and the Jacobian once asked for
        self._z = np.full((size, k), np.nan)
        self._q = np.zeros((size, model.n))
        self._p = np.full((size, model.n), np.nan)
        self._jac = np.full((size, k, k), np.nan)
        self._jac_ok = np.zeros(size, bool)
        self._has_jac = np.zeros(size, bool)

    def pad(self, z: np.ndarray) -> np.ndarray:
        q = np.zeros(z.shape[:-1] + (self.model.n,))
        q[..., self.idx] = z
        return q

    def _prices(self, z: np.ndarray, rows: np.ndarray) -> np.ndarray:
        new = ~(self._z[rows] == z).all(axis=1)
        if new.any():
            fresh = rows[new]
            self._z[fresh] = z[new]
            self._q[fresh] = self.pad(z[new])
            self._p[fresh] = self.model.portfolio_inverses(self._q[fresh], self.carried)
            self._has_jac[fresh] = False
        return self._p[rows]

    def _jacobians(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        need = rows[~self._has_jac[rows]]
        if need.size:
            self._jac[need], self._jac_ok[need] = self.model.portfolio_inverse_jacobians(
                self._q[need], self._p[need], self.carried
            )
            self._has_jac[need] = True
        return self._jac[rows], self._jac_ok[rows]

    def _value(self, z: np.ndarray, p: np.ndarray) -> np.ndarray:
        margin = p[:, self.idx] - self.costs
        return (margin[:, None, :] @ z[:, :, None])[:, 0, 0]

    def _gradient(self, z: np.ndarray, p: np.ndarray, jac: np.ndarray) -> np.ndarray:
        return p[:, self.idx] - self.costs + (jac.transpose(0, 2, 1) @ z[:, :, None])[:, :, 0]

    def values(self, z: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """R at each point, NaN where the model rejects it."""
        return self._value(z, self._prices(z, rows))

    def gradients(self, z: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """dR/dz at each point, and the rows where the model gave a price Jacobian."""
        p = self._prices(z, rows)
        jac, ok = self._jacobians(rows)
        return self._gradient(z, p, jac), ok

    def hessians(self, z: np.ndarray, rows: np.ndarray, free: np.ndarray) -> np.ndarray:
        """d2R/dz dz at each point over its coordinates ``free`` (an (m, k)
        mask; the other entries are not set): jac + jac^T + sum_i z_i d2P_i
        where the model has portfolio_inverse_hessians, central differences
        of the gradient where it has none. NaN where the model rejects a
        point it needs."""
        p = self._prices(z, rows)
        jac, _ = self._jacobians(rows)
        curvature, exact = self.model.portfolio_inverse_hessians(self._q[rows], p, jac, self.carried)
        m, k = z.shape
        hess = jac + jac.transpose(0, 2, 1) + (z[:, None, :] @ curvature.reshape(m, k, k * k)).reshape(m, k, k)
        for r in np.flatnonzero(~exact):
            f = np.flatnonzero(free[r])
            hess[r][np.ix_(f, f)] = _fd_jacobian(self._gradient_at, z[r], 1e-6, f)[f]
        return hess

    def _gradient_at(self, z: np.ndarray) -> np.ndarray:
        """dR/dz at one point, NaN where the model rejects it; no row's kept point changes."""
        q = self.pad(z[None])
        p = self.model.portfolio_inverses(q, self.carried)
        if np.isnan(p[0, self.idx]).any():
            return np.full(len(z), np.nan)
        jac, _ = self.model.portfolio_inverse_jacobians(q, p, self.carried)
        return self._gradient(z[None], p, jac)[0]


def _latin_hypercube(rng: np.random.Generator, count: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    k = len(lo)
    u = (rng.random((count, k)) + np.stack([rng.permutation(count) for _ in range(k)], axis=1)) / count
    return lo + u * (hi - lo)


def _newton_steps(hess: np.ndarray, free: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Each row's Newton step over its free coordinates where its Hessian
    there is finite with a negative definite symmetric part and can be
    solved; its gradient step (``grad``, zero off the free coordinates)
    elsewhere. Rows with one free set share each linear-algebra call."""
    step = grad.copy()
    if (free == free[0]).all():  # the common case: one free set
        groups = [(np.arange(len(free)), free[0])]
    else:
        patterns, which = np.unique(free, axis=0, return_inverse=True)
        groups = [(np.flatnonzero(which.ravel() == g), pattern) for g, pattern in enumerate(patterns)]
    for sel, pattern in groups:
        f = np.flatnonzero(pattern)
        h = hess[sel][:, f][:, :, f]
        eig, usable = _linalg_rows(
            np.linalg.eigvalsh, np.isfinite(h).all(axis=(1, 2)), 0.5 * (h + h.transpose(0, 2, 1))
        )
        newton = usable & (eig.max(axis=1) < 0)
        sol, solved = _linalg_rows(np.linalg.solve, newton, h, -grad[sel][:, f, None])
        step[sel[solved][:, None], f] = sol[solved, :, 0]
    return step


def _polish(
    value: Callable[[np.ndarray, np.ndarray], np.ndarray],
    gradient: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    hessian: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    z: np.ndarray,
    fz: np.ndarray,
    rows: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    tol: float,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton ascent of ``value`` from each row of z (S, k), whose
    values are fz, in the box [lb, ub]; every row takes the steps it would
    take alone.

    The callables take points (m, k) and their labels, the matching entries
    of ``rows``. ``value`` gives their values, NaN where a point is
    rejected; ``gradient`` their slopes and the rows where those could be
    evaluated; ``hessian(z, rows, free)`` their Hessians over the
    coordinates ``free`` (an (m, k) mask), NaN where one cannot be
    evaluated. Coordinates held at a bound by their slope stay fixed. A row
    follows its gradient instead where its Hessian's symmetric part is not
    negative definite, since a Newton step could then head for a saddle or
    a minimum (Nocedal & Wright, Numerical Optimization, sec. 3.4), and
    where its Hessian cannot be evaluated, as a difference Hessian cannot
    on a bound that its differences would cross. Each step is halved until
    the value does not fall, 25 tries at most.

    Returns each row's last accepted point, its value, its KKT residual (the
    largest slope over the coordinates no bound holds, NaN if the gradient
    there is NaN) and whether the row has a result: a row whose gradient
    cannot be evaluated drops out. A row stops once its residual reaches
    ``tol``, after ``max_steps`` steps, or when no step can be taken.
    """
    z, fz = z.copy(), fz.copy()
    residual = np.full(len(z), np.nan)
    kept = np.ones(len(z), bool)
    stalled = np.zeros(len(z), bool)
    live = np.arange(len(z))
    for steps in range(max_steps + 1):
        g, ok = gradient(z[live], rows[live])
        kept[live[~ok]] = False
        live, g = live[ok], g[ok]
        at = z[live]
        free = ~((at <= lb + 1e-10) & (g <= 0) | (at >= ub - 1e-10) & (g >= 0))
        step = np.where(free, g, 0.0)
        residual[live] = np.abs(step).max(axis=1, initial=0.0)
        going = ~((residual[live] <= tol) | stalled[live])
        if steps == max_steps or not going.any():
            break
        live, at, free, step = live[going], at[going], free[going], step[going]
        step = _newton_steps(hessian(at, rows[live], free), free, step)
        finite = np.isfinite(step).all(axis=1)
        live, at, free, step = live[finite], at[finite], free[finite], step[finite]
        searching, scale = np.arange(len(live)), 1.0
        for _ in range(25):
            if not searching.size:
                break
            r, base = live[searching], at[searching]
            cand = np.where(free[searching], np.clip(base + scale * step[searching], lb, ub), base)
            val = value(cand, rows[r])
            take = val >= fz[r] - 1e-15
            hit = r[take]
            stalled[hit] = np.abs(cand[take] - base[take]).max(axis=1) < 1e-15
            z[hit], fz[hit] = cand[take], val[take]
            searching, scale = searching[~take], scale * 0.5
        live = np.delete(live, searching)  # no step found: the row stops
    return z, fz, residual, kept


def max_profit(
    model: DemandModel, x: Portfolio, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> OptResult:
    """Maximize portfolio profit over nonnegative carried quantities.

    The model's exact solve answers first where it has one (linear demand
    with a positive definite B + B^T, eq7 at b = 0): converged, with no
    start used and a zero KKT residual, so cfg.multistart and cfg.seed do
    not act on it. Where it returns None the multistart optimizer runs.
    """
    if x.n != model.n:
        raise ValueError(f"portfolio has {x.n} products, model has {model.n}")
    carried = x.indices()
    if not carried:
        return OptResult(np.zeros(model.n), 0.0, 0.0, OptStatus.CONVERGED, 0)
    _, lb, ub = _box(model, carried, cfg)
    exact = model.exact_optimum(carried, lb, ub)
    if exact is None:
        return _multistart(model, x, cfg)
    z, value = exact
    q = np.zeros(model.n)
    q[[i - 1 for i in carried]] = z
    return OptResult(q, value, 0.0, OptStatus.CONVERGED, 0)


def _box(model: DemandModel, carried: tuple[int, ...], cfg: OptimizerConfig) -> tuple[np.ndarray, ...]:
    """The carried products' choke scale and the optimizer's box [lb, ub] for them."""
    choke = np.maximum(np.abs(model.choke_quantities()[[i - 1 for i in carried]]), 1.0)
    floor = cfg.floor if model.singular_at_zero else 0.0
    return choke, np.full(len(carried), floor), 10.0 * choke


def _multistart(model: DemandModel, x: Portfolio, cfg: OptimizerConfig) -> OptResult:
    """max_profit by damped Newton ascent from several starts.

    The best of ``cfg.multistart`` starts is returned. The starts are
    valued and stepped as one stack, or as blocks of STACK_ROWS. When
    several starts settle on stationary points with materially different
    values the status is degenerate: the value reported is still the best
    one, but uniqueness of the optimum failed and callers may want to flag
    it.
    """
    carried = x.indices()
    obj = _PortfolioObjective(model, carried, min(cfg.multistart, STACK_ROWS))
    choke, lb, ub = _box(model, carried, cfg)
    rng = np.random.default_rng(cfg.seed)

    anchor = 0.5 * choke
    starts = anchor[None]
    if cfg.multistart > 1:
        starts = np.vstack([starts, _latin_hypercube(rng, cfg.multistart - 1, np.maximum(lb, 1e-4), choke)])

    solutions: list[tuple[float, np.ndarray, float]] = []  # (value, z, kkt)
    used = 0
    # an overflowing profit reaches the caller as a non-finite value, not as warnings
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for first in range(0, len(starts), STACK_ROWS):
            # a start the model rejects moves halfway to the anchor, 12 tries at most
            z = np.clip(starts[first : first + STACK_ROWS], lb, ub)
            fz = np.full(len(z), np.nan)
            todo = np.arange(len(z))
            for _ in range(12):
                fz[todo] = obj.values(z[todo], todo)
                todo = todo[np.isnan(fz[todo])]
                if not todo.size:
                    break
                z[todo] = 0.5 * (z[todo] + anchor)
            rows = np.flatnonzero(~np.isnan(fz))
            used += len(rows)
            ends, vals, kkts, kept = _polish(
                obj.values, obj.gradients, obj.hessians, z[rows], fz[rows], rows, lb, ub,
                cfg.gradient_tol, cfg.max_iter,
            )
            solutions.extend(
                (float(val), end, float(kkt)) for val, end, kkt, keep in zip(vals, ends, kkts, kept) if keep
            )

    if not solutions:
        raise ConvergenceError(f"no start produced a usable solution for portfolio {x}")

    best_val, best_z, best_kkt = max(solutions, key=lambda s: s[0])
    clean = [s for s in solutions if s[2] <= max(cfg.gradient_tol, 1e-6)]
    status = OptStatus.CONVERGED if best_kkt <= cfg.gradient_tol else OptStatus.MAXITER
    distinct = [
        s
        for s in clean
        if best_val - s[0] > cfg.value_gap and np.max(np.abs(s[1] - best_z)) > 1e-4
    ]
    if distinct and best_kkt <= max(cfg.gradient_tol, 1e-6):
        status = OptStatus.DEGENERATE

    return OptResult(obj.pad(best_z), best_val, best_kkt, status, used)


def profit_oracle(model: DemandModel, cfg: OptimizerConfig = DEFAULT_CONFIG) -> SetFunction:
    """Memoizable portfolio -> optimized profit map.

    Its ``results`` dict keeps the ``OptResult`` of every portfolio it has
    solved, keyed by the portfolio bit string: the one copy of each status
    and optimal q.
    """
    results: dict[str, OptResult] = {}

    def evaluate(x: Portfolio) -> float:
        result = results[x.key()] = max_profit(model, x, cfg)
        return result.value

    oracle = SetFunction(model.n, evaluate, name=f"max_profit[{model.kind}]")
    oracle.results = results
    return oracle


def partial_max(model: DemandModel, q1: float, q2: float) -> float:
    """Profit with q1, q2 held fixed, maximized over products 3..n.

    The inner maximization is over stationary points (no nonnegativity
    constraint): this is the smooth envelope whose mixed partial carries the
    supermodularity-preservation argument, and it coincides with the
    portfolio optimum whenever that optimum is interior. With n = 2 it is
    just the two-product profit itself. The starts come from DEFAULT_CONFIG.
    The one-node case of _inner_optima.
    """
    return float(_inner_optima(model, np.array([[q1, q2]], dtype=float), DEFAULT_CONFIG)[0][0])


def _inner_optima(
    model: DemandModel, fixed: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """partial_max's solve at every row (q1, q2) of ``fixed`` (N, 2): the best
    values (N,), their points (q1, q2, w) over products 1..n (N, n), and why
    each failed node failed, in row order.

    Every node takes the same four seeded starts, and their rows step in
    lockstep through one _polish per block of whole nodes, at most
    STACK_ROWS rows. A node where no start converged reads NaN. Once every
    node is tried, a ConvergenceError names the first of them when no node
    solved.
    """
    m = model.n - 2
    choke = np.maximum(np.abs(model.choke_quantities()[2:]), 1.0)
    rng = np.random.default_rng(cfg.seed)
    starts = np.vstack([0.5 * choke, 0.25 * choke, 0.1 * choke + rng.random((2, m)) * choke])
    per_block = STACK_ROWS // len(starts)
    solved = np.zeros(len(fixed), bool)
    values = np.full(len(fixed), np.nan)
    points = np.concatenate([fixed, np.full((len(fixed), m), np.nan)], axis=1)
    for first in range(0, len(fixed), per_block):
        block = fixed[first : first + per_block]
        held = np.repeat(block, len(starts), axis=0)
        ends, vals, residuals, kept, rows = _inner_block(model, held, np.tile(starts, (len(block), 1)), cfg)
        good = kept & (residuals <= cfg.gradient_tol)
        # each node keeps its first best start, in start order
        for row, val, end in zip(rows[good].tolist(), vals[good].tolist(), ends[good]):
            node = first + row // len(starts)
            if not solved[node] or val > values[node]:
                solved[node], values[node], points[node, 2:] = True, val, end
    failures = [
        f"inner maximization failed at fixed quantities ({q1}, {q2})" for q1, q2 in fixed[~solved].tolist()
    ]
    if not solved.any():
        raise ConvergenceError(failures[0])
    return values, points, failures


def _inner_block(
    model: DemandModel, held: np.ndarray, w: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One _polish of the inner maximization over products 3..n from the
    starts w (S, n - 2), row r with products 1 and 2 held at held[r]. Returns
    _polish's results and the rows they belong to, those whose start the
    model accepts."""
    obj = _PortfolioObjective(model, tuple(range(1, model.n + 1)), len(w))

    def full(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.concatenate([held[rows], w], axis=1)

    def value_of(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return obj.values(full(w, rows), rows)

    def grad_of(w: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g, ok = obj.gradients(full(w, rows), rows)
        g = g[:, 2:]
        for r in np.flatnonzero(~ok):
            # price Jacobian can be singular at boundary anchors (e.g. both
            # fixed quantities zero); the value is still smooth in w
            g[r] = _fd_jacobian(lambda v: value_of(v[None], rows[r : r + 1])[0], w[r], 1e-6)[0]
        return g, np.ones(len(w), bool)

    def hess_of(w: np.ndarray, rows: np.ndarray, free: np.ndarray) -> np.ndarray:
        fixed = np.zeros((len(w), 2), bool)
        return obj.hessians(full(w, rows), rows, np.concatenate([fixed, free], axis=1))[:, 2:, 2:]

    unbounded = np.full(w.shape[1], np.inf)
    vals = value_of(w, np.arange(len(w)))
    rows = np.flatnonzero(~np.isnan(vals))
    ends, vals, residuals, kept = _polish(
        value_of, grad_of, hess_of, w[rows], vals[rows], rows, -unbounded, unbounded, cfg.gradient_tol, 80
    )
    return ends, vals, residuals, kept, rows


def mixed_partial_grid(
    model: DemandModel,
    lo: tuple[float, float] = (0.0, 0.0),
    hi: tuple[float, float] = (1.0, 1.0),
    resolution: int = 5,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> dict:
    """d2M/dq1 dq2 of the partial maximum M on a grid.

    At each node the inner optimum w of partial_max gives it by the envelope
    theorem from the profit Hessian H there: H_12 - H_1w H_ww^-1 H_w2. The
    inner optima of all nodes are one _inner_optima call, and their
    Hessians one stacked call. A node whose inner solve fails, or whose
    Hessian the model cannot give, reads NaN, and the minimum is over the
    other nodes; ``failures`` gives the reason for each failed inner solve.
    """
    axis1 = np.linspace(lo[0], hi[0], resolution)
    axis2 = np.linspace(lo[1], hi[1], resolution)
    fixed = np.stack(np.meshgrid(axis1, axis2, indexing="ij"), axis=-1).reshape(-1, 2)
    _, z, failures = _inner_optima(model, fixed, cfg)
    solved = np.flatnonzero(~np.isnan(z).any(axis=1))
    obj = _PortfolioObjective(model, tuple(range(1, model.n + 1)), len(solved))
    hess = np.full((len(z), model.n, model.n), np.nan)
    hess[solved] = obj.hessians(z[solved], np.arange(len(solved)), np.ones((len(solved), model.n), bool))
    inverse_w2 = np.linalg.solve(hess[:, 2:, 2:], hess[:, 2:, 1:2])  # H_ww^-1 H_w2
    values = (hess[:, 0, 1] - (hess[:, 0:1, 2:] @ inverse_w2)[:, 0, 0]).reshape(resolution, resolution)
    if np.isnan(values).all():
        raise ConvergenceError("no usable grid node for the mixed partial")
    rmin, cmin = np.unravel_index(np.nanargmin(values), values.shape)
    return {
        "axis1": axis1.tolist(),
        "axis2": axis2.tolist(),
        "values": values.tolist(),
        "min": float(values[rmin, cmin]),
        "argmin": [float(axis1[rmin]), float(axis2[cmin])],
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Closed-form first-order conditions for the square-root-spillover family
# ---------------------------------------------------------------------------


class FocVariant(str, enum.Enum):
    TWO_PLUS_THREE = "two_plus_three"  # both coupled products carried, plus product 3
    ONE_PLUS_THREE = "one_plus_three"  # one coupled product carried, plus product 3


@dataclass(frozen=True)
class FocSolution:
    variant: FocVariant
    gamma: float
    q: float  # common quantity of the carried coupled product(s)
    q3: float
    value: float
    roots: tuple[float, ...]  # all positive stationary candidates examined


def solve_foc_eq7(gamma: float, variant: FocVariant | str) -> FocSolution:
    """Solve the scalar stationarity condition of the b = 0 family.

    Symmetric portfolios reduce the optimization to one equation in the
    coupled product's quantity q:

        two_plus_three:  1 - 2q + gamma^2/4 + gamma*sqrt(2)/(8 sqrt(q)) = 0,
                         q3 = (1 + gamma sqrt(2 q)) / 2
        one_plus_three:  1 - 2q + gamma^2/4 + gamma/(4 sqrt(q)) = 0,
                         q3 = (1 + gamma sqrt(q)) / 2

    For gamma < 0 the condition can have several positive roots; every
    root on (0, 2] is evaluated and the profit-maximizing one is returned.
    gamma = 0 decouples the products and is returned in closed form.
    """
    variant = FocVariant(variant)
    two = variant is FocVariant.TWO_PLUS_THREE

    def profit(q: float, q3: float) -> float:
        pair_part = 2 * q * (1 - q) if two else q * (1 - q)
        root = math.sqrt(2 * q) if two else math.sqrt(q)
        return pair_part + q3 * (1 - q3) + gamma * q3 * root

    if gamma == 0.0:
        value = profit(0.5, 0.5)
        return FocSolution(variant, gamma, 0.5, 0.5, value, (0.5,))

    # with t = sqrt(q) the condition is the cubic 2 t^3 - (1 + gamma^2/4) t - gamma k = 0
    k = math.sqrt(2) / 8 if two else 0.25
    ts = _cubic_roots(-0.5 * (1 + gamma * gamma / 4), -0.5 * gamma * k)
    roots = sorted(t * t for t in ts if t > 0 and t * t <= 2)
    if not roots:
        raise ConvergenceError(f"no positive stationary point for gamma={gamma}")

    best = None
    for q in roots:
        q3 = (1 + gamma * math.sqrt(2 * q)) / 2 if two else (1 + gamma * math.sqrt(q)) / 2
        val = profit(q, q3)
        if best is None or val > best[2]:
            best = (q, q3, val)
    q, q3, value = best
    return FocSolution(variant, gamma, q, q3, value, tuple(roots))


# ---------------------------------------------------------------------------
# Merger statistic and parameter search
# ---------------------------------------------------------------------------


def merger_delta(
    model: DemandModel,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
    oracle: SetFunction | None = None,
) -> float:
    """Second difference of optimized profit for products 1 and 2, all else carried.

    Negative: the pair are profit substitutes and merging their suppliers
    raises the total negotiated fees. Positive: profit complements, fees
    fall.
    """
    if oracle is None:
        oracle = profit_oracle(model, cfg)
    rest = Portfolio.from_indices(model.n, range(3, model.n + 1))
    return second_difference(oracle, 1, 2, rest)


@dataclass(frozen=True)
class CandidateRecord:
    index: int
    model: DemandModel
    gross: GrossRelationReport
    delta: float

    def describe(self) -> dict:
        return {
            "index": self.index,
            "model": self.model.describe(),
            "gross": self.gross.overall.value,
            "delta": self.delta,
        }


def counterexample_search(
    make_model: Callable[[np.random.Generator], DemandModel],
    predicate: Callable[[CandidateRecord], bool],
    budget: int,
    seed: int = 0,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
    region=None,
) -> CandidateRecord | None:
    """Draw models until one satisfies the predicate; None if the budget runs out.

    Each draw gets its gross-relation classification and the merger
    statistic of products 1 and 2; the predicate sees both. Deterministic for a fixed seed. An empty result
    is a legitimate outcome (it is the expected one when searching for
    counterexamples that provably cannot exist).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    for index in range(budget):
        model = make_model(rng)
        gross = gross_relation(model, region)
        delta = merger_delta(model, cfg)
        record = CandidateRecord(index, model, gross, delta)
        if predicate(record):
            return record
    return None
