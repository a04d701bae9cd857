"""Portfolio profit maximization and the merger statistics built on it.

For a demand model and a portfolio x, the intermediary's gross profit is

    max_q  sum_{i in x} (P_i(q) - c_i) q_i   s.t.  q_i = 0 for i not in x

solved by damped Newton ascent from several starts, with coordinates held
at a bound by their slope kept fixed. The Newton Hessian is exact where the
model gives portfolio_inverse_hessian, d2R = J + J^T + sum_i z_i d2P_i, and
central differences of the gradient otherwise; one P(q) solve serves the
value, gradient and Hessian at a point. The resulting value function over
portfolios feeds the set-function classifiers and the bargaining layer.
The module also provides the partial maximum M(q1, q2) (profit maximized
over every carried product except 1 and 2, whose quantities are held
fixed) and its mixed partial from the Hessian at the inner optimum,
closed-form first-order conditions for the square-root-spillover
family, the pair second difference of the optimized profit at the full
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

from .demand_systems import DemandModel, GrossRelationReport, _fd_jacobian, gross_relation
from .errors import ConvergenceError, DomainError
from .portfolios import Portfolio, SetFunction, second_difference

MAX_MULTISTART = 10_000  # each start is a row of the Latin hypercube drawn up front
_EVAL_ERRORS = (DomainError, ConvergenceError, np.linalg.LinAlgError)


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
    """R, its gradient and its Hessian over the active coordinates of one portfolio.

    The prices at the last point asked about, and their Jacobian once asked
    for, are kept: the value, gradient and Hessian at one point share one
    P(q) solve.
    """

    def __init__(self, model: DemandModel, carried: tuple[int, ...]):
        self.model = model
        self.carried = carried
        self.idx = np.array([i - 1 for i in carried])
        self.costs = model.costs[self.idx]
        # the last point asked about: z, its padded q, prices, and Jacobian once asked for
        self._z: np.ndarray | None = None
        self._q = self._p = self._jac = None

    def pad(self, z: np.ndarray) -> np.ndarray:
        q = np.zeros(self.model.n)
        q[self.idx] = z
        return q

    def _prices(self, z: np.ndarray) -> np.ndarray:
        if self._z is None or not np.array_equal(z, self._z):
            q = self.pad(z)
            p = self.model.portfolio_inverse(q, self.carried)
            self._z, self._q, self._p, self._jac = z.copy(), q, p, None
        return self._p

    def _jacobian(self, z: np.ndarray) -> np.ndarray:
        self._prices(z)
        if self._jac is None:
            self._jac = self.model.portfolio_inverse_jacobian(self._q, self.carried)
        return self._jac

    def value(self, z: np.ndarray) -> float:
        return float(np.dot(self._prices(z)[self.idx] - self.costs, z))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return self._prices(z)[self.idx] - self.costs + self._jacobian(z).T @ z

    def hessian(self, z: np.ndarray, free: list[int]) -> np.ndarray:
        """d2R/dz dz over the coordinates ``free``: jac + jac^T + sum_i z_i d2P_i,
        exact where the model has portfolio_inverse_hessian, central
        differences of the gradient where it returns None."""
        p, jac = self._prices(z), self._jacobian(z)
        curvature = self.model.portfolio_inverse_hessian(self._q, p, jac, self.carried)
        if curvature is None:
            return _fd_jacobian(self.gradient, z, 1e-6, free)[free]
        return (jac + jac.T + np.tensordot(z, curvature, axes=1))[free][:, free]


def _latin_hypercube(rng: np.random.Generator, count: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    k = len(lo)
    u = (rng.random((count, k)) + np.stack([rng.permutation(count) for _ in range(k)], axis=1)) / count
    return lo + u * (hi - lo)


def _polish(
    value: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray, list[int]], np.ndarray],
    z: np.ndarray,
    fz: float,
    lb: np.ndarray,
    ub: np.ndarray,
    tol: float,
    max_steps: int,
) -> tuple[np.ndarray, float, float]:
    """Damped Newton ascent of ``value`` from z, whose value is fz, in the box [lb, ub].

    Coordinates held at a bound by their slope stay fixed; ``hessian(z,
    free)`` gives the Hessian over the others, the list ``free``. The step
    follows the gradient instead where the Hessian's symmetric part is not
    negative definite, since a Newton step could then head for a saddle or
    a minimum (Nocedal & Wright, Numerical Optimization, sec. 3.4), and
    where ``hessian`` raises, as a difference Hessian does on a bound that
    its differences would cross. Each step is halved until the value does not
    fall. Returns the last accepted point, its value, and its KKT residual:
    the largest slope over the coordinates no bound holds, NaN if the
    gradient there is NaN. The search stops once the residual reaches
    ``tol``, after ``max_steps`` steps, or when no step can be taken. An
    error from ``gradient`` propagates.
    """
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
        except _EVAL_ERRORS:
            pass  # keep the gradient step
        if not np.isfinite(step).all():
            return z, fz, residual
        scale = 1.0
        for _ in range(25):
            cand = z.copy()
            cand[free] = np.clip(z[free] + scale * step, lb[free], ub[free])
            try:
                val = value(cand)
            except _EVAL_ERRORS:
                scale *= 0.5
                continue
            if val >= fz - 1e-15:
                stalled = np.abs(cand - z).max() < 1e-15
                z, fz = cand, val
                break
            scale *= 0.5
        else:
            return z, fz, residual


def max_profit(
    model: DemandModel, x: Portfolio, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> OptResult:
    """Maximize portfolio profit over nonnegative carried quantities.

    The best of ``cfg.multistart`` starts is returned. When several starts
    settle on stationary points with materially different values the status
    is degenerate: the value reported is still the best one, but uniqueness
    of the optimum failed and callers may want to flag it.
    """
    if x.n != model.n:
        raise ValueError(f"portfolio has {x.n} products, model has {model.n}")
    carried = x.indices()
    if not carried:
        return OptResult(np.zeros(model.n), 0.0, 0.0, OptStatus.CONVERGED, 0)

    obj = _PortfolioObjective(model, carried)
    k = len(carried)
    choke = np.maximum(np.abs(model.choke_quantities()[obj.idx]), 1.0)
    floor = cfg.floor if model.singular_at_zero else 0.0
    lb = np.full(k, floor)
    ub = 10.0 * choke
    rng = np.random.default_rng(cfg.seed)

    starts = [0.5 * choke]
    if cfg.multistart > 1:
        starts.extend(_latin_hypercube(rng, cfg.multistart - 1, np.maximum(lb, 1e-4), choke))

    def safe_start(z0: np.ndarray) -> tuple[np.ndarray, float] | None:
        z = np.clip(z0, lb, ub)
        anchor = 0.5 * choke
        for _ in range(12):
            try:
                return z, obj.value(z)
            except _EVAL_ERRORS:
                z = 0.5 * (z + anchor)
        return None

    solutions: list[tuple[float, np.ndarray, float]] = []  # (value, z, kkt)
    used = 0
    # an overflowing profit reaches the caller as a non-finite value, not as warnings
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for z0 in starts:
            start = safe_start(np.asarray(z0))
            if start is None:
                continue
            used += 1
            try:
                z, val, kkt = _polish(
                    obj.value, obj.gradient, obj.hessian, *start, lb, ub, cfg.gradient_tol,
                    cfg.max_iter,
                )
            except _EVAL_ERRORS:
                continue
            solutions.append((val, z, kkt))

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
    """
    return _inner_optimum(model, q1, q2, DEFAULT_CONFIG)[0]


def _inner_optimum(
    model: DemandModel, q1: float, q2: float, cfg: OptimizerConfig
) -> tuple[float, np.ndarray, _PortfolioObjective]:
    """partial_max's solve: the best value, its point (q1, q2, w) over
    products 1..n, and the objective over those products."""
    carried = tuple(range(3, model.n + 1))
    obj = _PortfolioObjective(model, (1, 2) + carried)

    fixed = np.array([q1, q2], dtype=float)
    if not carried:
        return obj.value(fixed), fixed, obj

    m = len(carried)
    inner_idx = np.arange(2, 2 + m)

    def value_of(w: np.ndarray) -> float:
        return obj.value(np.concatenate([fixed, w]))

    def grad_of(w: np.ndarray) -> np.ndarray:
        try:
            return obj.gradient(np.concatenate([fixed, w]))[inner_idx]
        except (DomainError, np.linalg.LinAlgError):
            # price Jacobian can be singular at boundary anchors (e.g. both
            # fixed quantities zero); the value is still smooth in w
            return _fd_jacobian(value_of, w, 1e-6)[0]

    def hess_of(w: np.ndarray, free: list[int]) -> np.ndarray:
        return obj.hessian(np.concatenate([fixed, w]), [2 + a for a in free])

    choke = np.maximum(np.abs(model.choke_quantities()[[i - 1 for i in carried]]), 1.0)
    rng = np.random.default_rng(cfg.seed)
    starts = [0.5 * choke, 0.25 * choke]
    starts.extend(0.1 * choke + rng.random((2, m)) * choke)

    unbounded = np.full(m, np.inf)
    best: tuple[float, np.ndarray] | None = None
    for w in starts:
        try:
            end, val, residual = _polish(
                value_of, grad_of, hess_of, w, value_of(w), -unbounded, unbounded,
                cfg.gradient_tol, 80,
            )
        except _EVAL_ERRORS:
            continue
        if residual <= cfg.gradient_tol and (best is None or val > best[0]):
            best = val, end
    if best is None:
        raise ConvergenceError(
            f"inner maximization failed at fixed quantities ({q1}, {q2})"
        )
    return best[0], np.concatenate([fixed, best[1]]), obj


def mixed_partial_grid(
    model: DemandModel,
    lo: tuple[float, float] = (0.0, 0.0),
    hi: tuple[float, float] = (1.0, 1.0),
    resolution: int = 5,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> dict:
    """d2M/dq1 dq2 of the partial maximum M on a grid.

    At each node the inner optimum w of partial_max gives it by the envelope
    theorem from the profit Hessian H there: H_12 - H_1w H_ww^-1 H_w2, one
    inner solve per node.
    """
    axis1 = np.linspace(lo[0], hi[0], resolution)
    axis2 = np.linspace(lo[1], hi[1], resolution)
    values = np.zeros((resolution, resolution))
    for r, a in enumerate(axis1):
        for c, b in enumerate(axis2):
            _, z, obj = _inner_optimum(model, a, b, cfg)
            hess = obj.hessian(z, list(range(len(z))))
            values[r, c] = hess[0, 1] - hess[0, 2:] @ np.linalg.solve(hess[2:, 2:], hess[2:, 1])
    rmin, cmin = np.unravel_index(np.argmin(values), values.shape)
    return {
        "axis1": axis1.tolist(),
        "axis2": axis2.tolist(),
        "values": values.tolist(),
        "min": float(values[rmin, cmin]),
        "argmin": [float(axis1[rmin]), float(axis2[cmin])],
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
    cubic = [2.0, 0.0, -(1 + gamma * gamma / 4), -gamma * k]
    ts = [float(t.real) for t in np.roots(cubic) if t.imag == 0]
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
