"""Parametric demand / inverse-demand systems for the priced general model.

Each family gives the demand map D(p), the inverse demand P(q) of a
portfolio and the Jacobians of both. The profit optimizer uses the
portfolio-restricted inverse: products the retailer does not carry are
removed from the system and their quantities pinned at zero, and the full
system's inverse is the case that carries every product. For families
whose inverse demand is an explicit formula this is just evaluation at the
zero-padded quantity vector; for the square-root-spillover family with
cross-price coupling the restricted subsystem is inverted in closed form
instead (the full system has no real inverse at such corners).

The optimizer steps all starts of a portfolio together, so it asks for
the restricted inverse, its Jacobian and its Hessian at a stack of points:
portfolio_inverses, portfolio_inverse_jacobians and
portfolio_inverse_hessians, one row per point. These stacked maps, with
demand_jacobians and demand_hessians, are the only ones a family writes,
so each formula has one copy; the one-point maps (demand_jacobian,
portfolio_inverse, portfolio_inverse_jacobian) are their one-row case,
written once in DemandModel. Linear, eq7 and appendix_b evaluate every
stack in closed form. one_stop stacks its Jacobian (central differences
of the demand, then one inversion call) and its demand Hessian, and
CustomDemand differences its prices over the stack; their prices are a
solve per row (the store traffic, the callback), which each writes as
portfolio_inverse and the default portfolio_inverses loops, a row that
raises being NaN so the other rows go on. The Jacobian and Hessian hooks
take the prices already solved, so a point costs one P(q) solve.
Curvature is exact where a family has it: the Hessian of the restricted
inverse is zero for linear demand, explicit for appendix_b, and for eq7
and one_stop the implicit-function theorem on D(P(q)) = q applied to the
family's demand Hessian (one_stop's needs G' and G'' from its CDF, so
step and table CDFs have none). Where a row has none the optimizer
differences its gradient.

Before any of that, the optimizer asks exact_optimum for the portfolio's
global maximum over its box. Linear demand with a positive definite
B + B^T answers by an active-set search for its one KKT point (the QP is
strictly concave), and eq7 by valuing every root of the stationarity
cubics of its two coordinates along the interior path and each face of the
box, the edge of the inverse's branch and the corners; both in Python
floats, so their optima do not depend on the BLAS kernel. Other families,
and these two where they cannot certify the maximum, return None.

Two grid diagnostics operate on these families:

* gross_relation samples dD_i/dp_j over a price region and classifies each
  product pair as strict gross complements (all sampled cross-price slopes
  negative), strict gross substitutes (all positive), independent, or mixed.
  It reads the slopes of the whole grid from one demand_jacobians call: a
  constant for linear demand, a closed form for eq7, stacked differences of
  the demand for one_stop. Families without an explicit demand (appendix_b,
  CustomDemand) invert P(q) = p with one damped Newton solve over the
  grid, _invert, and take the inverse of dP/dq at each solution; a
  one-point demand is the one-row case of that solve.
* inverse_modularity samples the cross partials d2P_m/dq_i dq_j (i != j)
  over a quantity region and reports whether the inverse demands are weakly
  supermodular, weakly submodular, both, or neither. It reads them from the
  family's exact inverse Hessian, and differences P(q) where it has none.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .portfolios import GrossKind, gross_verdicts
from .reduced_form import ShoppingCostCdf, StepCdf

INVERSION_TOL = 1e-11  # residual ||P(D(p)) - p||_inf target for numeric inversions
INVERSION_STEPS = 80  # Newton steps before a numeric inversion gives up
GROSS_TOLERANCE = 1e-10
MODULARITY_TOLERANCE = 1e-8
FD_STEP = 1e-5  # first-derivative step factor
FD2_STEP = 5e-4  # mixed-second-derivative step factor (roundoff/truncation balance)
# a model's rejection of one point of a stack (numpy's LinAlgError is a ValueError)
ROW_ERRORS = (DomainError, ConvergenceError, ValueError)


class InverseModularityKind(str, enum.Enum):
    WEAKLY_SUPERMODULAR = "weakly_supermodular"
    WEAKLY_SUBMODULAR = "weakly_submodular"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class EvaluationRegion:
    """Axis-aligned box with a sampling resolution per axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    resolution: int = 9

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(x) for x in self.lower))
        object.__setattr__(self, "upper", tuple(float(x) for x in self.upper))
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have equal length")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("need lower < upper on every axis")
        if self.resolution < 3:
            raise ValueError("resolution must be >= 3")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, self.resolution)
            for lo, hi in zip(self.lower, self.upper)
        ]

    def nodes(self) -> np.ndarray:
        """Every grid node as a row of an (N, dim) array, in itertools.product order."""
        return np.stack(np.meshgrid(*self.axes(), indexing="ij"), axis=-1).reshape(-1, self.dim)


def _as_vector(x: Sequence[float], n: int, label: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{label} must have shape ({n},), got {v.shape}")
    return v


def _finite(x, label: str) -> np.ndarray:
    """A model parameter as a float array, or a ValueError naming it where
    an entry is not finite."""
    v = np.asarray(x, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"{label} must be finite, got {v.tolist()}")
    return v


class DemandModel:
    """Base class: n differentiated products with constant unit costs.

    A family writes its maps stacked, at every row of a stack of points:
    portfolio_inverses, portfolio_inverse_jacobians, demand_jacobians and the
    curvature hooks, and demand where it has an explicit formula. The
    one-point maps (demand_jacobian, portfolio_inverse,
    portfolio_inverse_jacobian, and demand without a formula) are their
    one-row case, written here once. A family whose prices are a solve per
    row writes that solve as portfolio_inverse instead, which the default
    portfolio_inverses loops.
    """

    kind = "base"
    singular_at_zero = False  # True if gradients blow up at zero quantities
    # portfolio_inverse's error where its row of portfolio_inverses is NaN
    outside = "quantity vector outside the model's domain"

    def __init__(self, n: int, costs: Sequence[float] | None = None):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("need at least one product")
        c = np.zeros(self.n) if costs is None else _as_vector(costs, self.n, "costs")
        if np.any(c < 0):
            raise ValueError("costs must be nonnegative")
        self.costs = _finite(c, "costs")

    # -- one-point maps: the one-row case of the stacked ones ---------------

    def demand(self, p: Sequence[float]) -> np.ndarray:
        """Quantities at prices p; the one-row case of _invert unless overridden."""
        p = _as_vector(p, self.n, "p")
        return _one_row(*self._quantities(p[None]))

    def demand_jacobian(self, p: Sequence[float]) -> np.ndarray:
        """dD/dp at p, or the row's error of demand_jacobians raised."""
        p = _as_vector(p, self.n, "p")
        return _one_row(*self.demand_jacobians(p[None]))

    def portfolio_inverse(self, q: Sequence[float], carried: tuple[int, ...]) -> np.ndarray:
        """Inverse demand of the carried subsystem at the zero-padded q: the
        full-length price vector, whose entries for absent products are
        meaningless and must not be used. A DomainError (the family's
        ``outside``) where portfolio_inverses has no prices for the row."""
        q = _as_vector(q, self.n, "q")
        for i in range(self.n):
            if (i + 1) not in carried and q[i] != 0.0:
                raise ValueError(f"quantity of absent product {i + 1} must be 0")
        p = self.portfolio_inverses(q[None], carried)[0]
        if np.isnan(p[[i - 1 for i in carried]]).any():
            raise DomainError(self.outside)
        return p

    def portfolio_inverse_jacobian(
        self, q: np.ndarray, p: np.ndarray, carried: tuple[int, ...]
    ) -> np.ndarray:
        """dP_c/dq_c over the carried coordinates at the zero-padded q, where
        ``p`` is portfolio_inverse at q: the one-row case of
        portfolio_inverse_jacobians, a DomainError where it has none."""
        jac, ok = self.portfolio_inverse_jacobians(
            np.asarray(q, dtype=float)[None], np.asarray(p, dtype=float)[None], carried
        )
        if not ok[0]:
            raise DomainError("dP/dq undefined or singular at q")
        return jac[0]

    # -- stacked maps ---------------------------------------------------------

    def demand_jacobians(self, nodes: np.ndarray) -> tuple[np.ndarray, dict]:
        """dD/dp at every row of ``nodes`` (N, n): the (N, n, n) stack, NaN
        at each row without slopes, and the error of each such row, by row.

        Default: one _invert of P(q) = p over the stack, then the inverse of
        dP/dq at each solution, where the target prices stand for P(q).
        """
        every = tuple(range(1, self.n + 1))
        q, errors = self._quantities(nodes)
        solved = np.ones(len(nodes), bool)
        solved[list(errors)] = False
        slopes = np.full((len(nodes), self.n, self.n), np.nan)
        jac, ok = self.portfolio_inverse_jacobians(q[solved], nodes[solved], every)
        slopes[solved], inverted = _linalg_rows(np.linalg.inv, ok, jac)
        for r in np.flatnonzero(solved)[~inverted].tolist():
            errors[r] = ConvergenceError("dP/dq undefined or singular at the solution")
        return slopes, errors

    def portfolio_inverses(self, q: np.ndarray, carried: tuple[int, ...]) -> np.ndarray:
        """Inverse demand of the carried subsystem at every zero-padded row of
        q (S, n), NaN in each row without prices. Default: one
        portfolio_inverse call per row, NaN where it raises."""
        prices = np.full(q.shape, np.nan)
        for r, row in enumerate(q):
            try:
                prices[r] = self.portfolio_inverse(row, carried)
            except ROW_ERRORS:
                pass
        return prices

    def portfolio_inverse_jacobians(
        self, q: np.ndarray, p: np.ndarray, carried: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """dP_c/dq_c at every row of q (S, n), whose prices are the rows of p.
        Returns the (S, k, k) stack and the rows that have one; the others
        are NaN. Default: central differences of portfolio_inverses over the
        carried coordinates."""
        idx = [i - 1 for i in carried]
        jac = _fd_jacobians(lambda x: self.portfolio_inverses(x, carried)[:, idx], q, idx)
        ok = np.isfinite(jac).all(axis=(1, 2))
        jac[~ok] = np.nan
        return jac, ok

    def demand_hessians(
        self, p: np.ndarray, carried: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """d2D_m/dp_k dp_l of the carried subsystem at every row of the
        full-length prices p (S, n): the (S, k, k, k) stack indexed
        [s, m, k, l] in carried order, and the rows where the family has an
        exact form; the others are NaN. Default: no row has one."""
        k = len(carried)
        return np.full((len(p), k, k, k), np.nan), np.zeros(len(p), bool)

    def portfolio_inverse_hessians(
        self, q: np.ndarray, p: np.ndarray, jac: np.ndarray, carried: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """d2P_i/dq_k dq_l over the carried coordinates at every zero-padded
        row of q (S, n), with the rows of p and jac (S, k, k), which are
        portfolio_inverses and portfolio_inverse_jacobians at q. Returns the
        (S, k, k, k) stack indexed [s, i, k, l] in carried order and the rows
        that have an exact form; the others are NaN and the optimizer
        differences its gradient there.

        Default: the implicit-function theorem on D(P(q)) = q applied to
        demand_hessians, -sum_m jac[i, m] (jac^T H_m jac)[k, l].
        """
        curvature, exact = self.demand_hessians(p, carried)
        if not exact.any():
            return curvature, exact
        s, k = jac.shape[:2]
        sandwich = jac.transpose(0, 2, 1)[:, None] @ curvature @ jac[:, None]
        return -(jac @ sandwich.reshape(s, k, k * k)).reshape(s, k, k, k), exact

    # -- defaults for diagnostics and optimization -------------------------

    def choke_quantities(self) -> np.ndarray:
        return np.ones(self.n)

    def default_price_region(self) -> EvaluationRegion:
        raise NotImplementedError(f"{self.kind} has no default price region")

    def default_quantity_region(self) -> EvaluationRegion:
        raise NotImplementedError(f"{self.kind} has no default quantity region")

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.n, "costs": self.costs.tolist()}

    def exact_optimum(
        self, carried: tuple[int, ...], lb: np.ndarray, ub: np.ndarray
    ) -> tuple[list[float], float] | None:
        """The global maximum of the portfolio profit over the box [lb, ub] of
        the carried quantities: the maximizer, in carried order, and its
        profit, both from Python float arithmetic. None where the family has
        no exact solve or cannot certify the maximum; the optimizer then
        runs its multistart. Default: None."""
        return None

    # -- helpers ------------------------------------------------------------

    def _quantities(self, p: np.ndarray) -> tuple[np.ndarray, dict]:
        """_invert at every row of prices p (N, n), from q = max(1 - p, -0.5)."""
        return self._invert(p, np.maximum(1.0 - p, -0.5))

    def _invert(self, target: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, dict]:
        """Damped Newton solve of P(q) = target at every row of target (N, n).

        Each row takes the steps it takes alone. Returns the (N, n) rows
        reached and the error of each row that did not converge, by row. A
        row without prices at its start has the error that portfolio_inverse
        raises there; a line-search candidate the model rejects (NaN from
        portfolio_inverses over every product) is halved like one whose
        residual does not fall.
        """
        every = tuple(range(1, self.n + 1))
        q = np.array(start, dtype=float)
        prices = self.portfolio_inverses(q, every)
        errors: dict[int, Exception] = {}
        for r in np.flatnonzero(np.isnan(prices).any(axis=1)).tolist():
            try:
                self.portfolio_inverse(q[r], every)  # raises the row's error
            except ROW_ERRORS as exc:
                errors[r] = exc
        resid = prices - target
        norm = np.max(np.abs(resid), axis=1)
        live = np.array([r for r in range(len(q)) if r not in errors], int)
        for _ in range(INVERSION_STEPS):
            live = live[~(norm[live] <= INVERSION_TOL)]  # a NaN residual is not done
            if not live.size:
                return q, errors
            jac = self.portfolio_inverse_jacobians(q[live], prices[live], every)[0]
            try:
                step = np.linalg.solve(jac, -resid[live, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # the stacked solve fails as a whole: find the singular rows
                step = np.empty((len(live), self.n))
                for k, r in enumerate(live.tolist()):
                    try:
                        step[k] = np.linalg.solve(jac[k], -resid[r])
                    except np.linalg.LinAlgError as exc:
                        errors[r] = ConvergenceError(f"singular Jacobian during inversion: {exc}")
                regular = [r not in errors for r in live]
                live, step = live[regular], step[regular]
            rows, scale = live, 1.0
            for _ in range(40):
                if not rows.size:
                    break
                cand = q[rows] + scale * step
                cand_p = self.portfolio_inverses(cand, every)
                cand_resid = cand_p - target[rows]
                cand_norm = np.max(np.abs(cand_resid), axis=1)
                take = cand_norm < norm[rows]
                hit = rows[take]
                q[hit], prices[hit], resid[hit], norm[hit] = (
                    cand[take], cand_p[take], cand_resid[take], cand_norm[take]
                )
                rows, step, scale = rows[~take], step[~take], scale * 0.5
            for r in rows.tolist():
                errors[r] = ConvergenceError(
                    f"inversion stalled at residual {norm[r]:.3e} (target {INVERSION_TOL:.1e})"
                )
            live = live[[r not in errors for r in live]]
        for r in live.tolist():
            errors[r] = ConvergenceError(f"inversion did not converge: residual {norm[r]:.3e}")
        return q, errors


def _fd_jacobian(
    fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    step: float = FD_STEP,
    coords: Sequence[int] | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of fn at x, one column per coordinate in ``coords``.

    All coordinates when ``coords`` is None; a scalar fn gives one row.
    """
    n = len(x)
    cols = []
    for k in range(n) if coords is None else coords:
        h = step * max(1.0, abs(x[k]))
        e = np.zeros(n)
        e[k] = h
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * h))
    return np.column_stack(cols)


def _fd_jacobians(
    fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, coords: Sequence[int]
) -> np.ndarray:
    """_fd_jacobian at every row of x (N, n) for a row-wise fn, with its
    steps: one column per coordinate in ``coords``."""
    cols = []
    for k in coords:
        h = FD_STEP * np.maximum(1.0, np.abs(x[:, k]))
        e = np.zeros_like(x)
        e[:, k] = h
        cols.append((fn(x + e) - fn(x - e)) / (2 * h)[:, None])
    return np.stack(cols, axis=2)


def _block(full: np.ndarray, carried: tuple[int, ...]) -> np.ndarray:
    """The carried rows and columns of a full (n, n) matrix, or of each
    matrix of an (S, n, n) stack, in C order."""
    idx = [i - 1 for i in carried]
    return np.ascontiguousarray(full[..., idx, :][..., idx])


def _linalg_rows(fn: Callable, use: np.ndarray, *stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fn``, a numpy.linalg function, at the rows ``use`` (a mask) of stacks.

    One call for those rows, or one call per row where that call raises
    LinAlgError; each row's result is the one it gets alone. Returns the
    results, NaN at every other row and at each row that raised, and the
    rows that have one.
    """
    rows = np.flatnonzero(use)
    args = [s[rows] for s in stacks]
    try:
        part, solved = fn(*args), np.ones(len(rows), bool)
        if len(rows) == len(use):
            return part, solved
    except np.linalg.LinAlgError:
        shape = fn(*(a[:0] for a in args)).shape[1:]  # a row's result, from an empty stack
        part = np.full((len(rows),) + shape, np.nan)
        solved = np.zeros(len(rows), bool)
        for r in range(len(rows)):
            try:
                part[r], solved[r] = fn(*(a[r] for a in args)), True
            except np.linalg.LinAlgError:
                pass
    out = np.full((len(use),) + part.shape[1:], np.nan)
    out[rows[solved]] = part[solved]
    ok = np.zeros(len(use), bool)
    ok[rows[solved]] = True
    return out, ok


def _one_row(stack: np.ndarray, errors: dict) -> np.ndarray:
    """Row 0 of a one-row stack, or that row's error raised: the one-point
    case of _invert and of demand_jacobians."""
    if 0 in errors:
        raise errors[0]
    return stack[0]


def _fd_cross_partial(
    fn: Callable[[np.ndarray], np.ndarray], q: np.ndarray, m: int, i: int, j: int
) -> float:
    hi = FD2_STEP * max(1.0, abs(q[i - 1]))
    hj = FD2_STEP * max(1.0, abs(q[j - 1]))
    ei = np.zeros(len(q))
    ej = np.zeros(len(q))
    ei[i - 1] = hi
    ej[j - 1] = hj
    vals = (
        np.asarray(fn(q + ei + ej))[m - 1]
        - np.asarray(fn(q + ei - ej))[m - 1]
        - np.asarray(fn(q - ei + ej))[m - 1]
        + np.asarray(fn(q - ei - ej))[m - 1]
    )
    return float(vals / (4 * hi * hj))


# Exact solves in Python floats: the same bits on every host, since no BLAS or
# LAPACK kernel takes part.


def _positive_definite(matrix: list[list[float]]) -> bool:
    """Whether a symmetric matrix is positive definite: its Cholesky
    factorization finds a positive pivot in every column."""
    k = len(matrix)
    low = [[0.0] * k for _ in range(k)]
    for j in range(k):
        pivot = matrix[j][j] - sum(low[j][i] * low[j][i] for i in range(j))
        if not pivot > 0 or not math.isfinite(pivot):
            return False
        low[j][j] = math.sqrt(pivot)
        for r in range(j + 1, k):
            low[r][j] = (matrix[r][j] - sum(low[r][i] * low[j][i] for i in range(j))) / low[j][j]
    return True


def _solve_small(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """x with matrix x = rhs, by Gaussian elimination with partial pivoting;
    None where a pivot is zero."""
    k = len(rhs)
    rows = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for j in range(k):
        pivot = max(range(j, k), key=lambda r: abs(rows[r][j]))
        if rows[pivot][j] == 0.0:
            return None
        rows[j], rows[pivot] = rows[pivot], rows[j]
        for r in range(j + 1, k):
            factor = rows[r][j] / rows[j][j]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[j])]
    x = [0.0] * k
    for j in reversed(range(k)):
        x[j] = (rows[j][k] - sum(rows[j][i] * x[i] for i in range(j + 1, k))) / rows[j][j]
    return x


def _cubic_roots(p: float, q: float) -> list[float]:
    """The real roots of t^3 + p t + q = 0 in ascending order, each refined by
    Newton steps while they shrink its residual: Cardano's formula for one
    real root, the trigonometric form for three."""
    if p == 0.0 and q == 0.0:
        return [0.0]
    disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
    if disc > 0:
        # the cube root without cancellation first, then its partner -p / (3u)
        w = -0.5 * q - math.copysign(math.sqrt(disc), q)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        roots = [u - p / (3.0 * u)]
    else:
        r = math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, -0.5 * q / r**3)))
        roots = sorted(2.0 * r * math.cos((phi - 2.0 * math.pi * j) / 3.0) for j in range(3))
    return [_newton_polished(1.0, 0.0, p, q, t) for t in roots]


def _newton_polished(c3: float, c2: float, c1: float, c0: float, t: float) -> float:
    """t after Newton steps on c3 t^3 + c2 t^2 + c1 t + c0, 8 at most, taken
    while they shrink its residual."""
    f = ((c3 * t + c2) * t + c1) * t + c0
    for _ in range(8):
        slope = (3.0 * c3 * t + 2.0 * c2) * t + c1
        if f == 0.0 or slope == 0.0:
            break
        step = t - f / slope
        g = ((c3 * step + c2) * step + c1) * step + c0
        if not abs(g) < abs(f):
            break
        t, f = step, g
    return t


def _real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """The real roots of c3 t^3 + c2 t^2 + c1 t + c0 = 0, each refined by
    Newton steps on that cubic: from _cubic_roots of its depressed form, or,
    where c3 is small against the other coefficients (its extra root then
    lies far out, and depressing it would cancel), from the roots of the
    quadratic left without c3."""
    if abs(c3) > 1e-6 * max(abs(c2), abs(c1), abs(c0)):
        a2, a1, a0 = c2 / c3, c1 / c3, c0 / c3
        shift = a2 / 3.0  # t = u - shift
        depressed = a1 - a2 * shift, (2.0 * a2 * a2 / 27.0 - a1 / 3.0) * a2 + a0
        seeds = [u - shift for u in _cubic_roots(*depressed)]
    elif c2 != 0.0:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0:
            seeds = []
        else:
            # the root without cancellation first, then its partner by Vieta
            w = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
            seeds = [w / c2] + ([c0 / w] if w != 0.0 else [])
    else:
        seeds = [-c0 / c1] if c1 != 0.0 else []
    return [_newton_polished(c3, c2, c1, c0, t) for t in seeds]


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class LinearDemand(DemandModel):
    """Inverse demand P(q) = a - B q with nonsingular B of positive diagonal."""

    kind = "linear"

    def __init__(self, a: Sequence[float], B: Sequence[Sequence[float]], costs=None):
        a = _finite(a, "a")
        B = _finite(B, "B")
        n = len(a)
        if B.shape != (n, n):
            raise ValueError(f"B must be {n}x{n}, got {B.shape}")
        if np.any(np.diag(B) <= 0):
            raise ValueError("B must have a positive diagonal")
        try:
            np.linalg.inv(B)  # demand and its Jacobian solve with B
        except np.linalg.LinAlgError:
            raise ValueError("B must be nonsingular") from None
        super().__init__(n, costs)
        if np.any(a <= self.costs):
            raise ValueError("intercepts must exceed unit costs")
        self.a = a
        self.B = B

    def demand(self, p):
        p = _as_vector(p, self.n, "p")
        return np.linalg.solve(self.B, self.a - p)

    def demand_jacobians(self, nodes):
        return np.broadcast_to(-np.linalg.inv(self.B), (len(nodes), self.n, self.n)), {}

    def portfolio_inverses(self, q, carried):
        return self.a - (self.B @ q[:, :, None])[:, :, 0]

    def portfolio_inverse_jacobians(self, q, p, carried):
        k = len(carried)
        return np.broadcast_to(_block(-self.B, carried), (len(q), k, k)), np.ones(len(q), bool)

    def portfolio_inverse_hessians(self, q, p, jac, carried):
        k = len(carried)
        return np.zeros((len(q), k, k, k)), np.ones(len(q), bool)

    def exact_optimum(self, carried, lb, ub):
        # R(z) = d.z - z.B z over the carried block is a box QP. Where H = B + B^T is
        # positive definite it is strictly concave, so exactly one point satisfies
        # its KKT conditions, and it is the maximum. A primal active-set method
        # (Nocedal & Wright, Numerical Optimization, sec. 16.5) finds it: from the
        # clipped unconstrained optimum, solve for the free coordinates with the
        # held ones fixed; step there, or to the first bound in the way, which is
        # then held; at the step's end release the held coordinate whose slope
        # pulls hardest off its bound, until none does.
        idx = [i - 1 for i in carried]
        k = len(idx)
        a, c, rows = self.a.tolist(), self.costs.tolist(), self.B.tolist()
        a, c = [a[i] for i in idx], [c[i] for i in idx]
        d = [x - y for x, y in zip(a, c)]
        B = [[rows[i][j] for j in idx] for i in idx]
        H = [[B[i][j] + B[j][i] for j in range(k)] for i in range(k)]
        lb, ub = lb.tolist(), ub.tolist()
        if not _positive_definite(H):
            return None
        z, held = None, {}  # held: coordinate -> the bound (lb or ub) that holds it
        for _ in range(8 * k + 8):
            free = [i for i in range(k) if i not in held]
            fixed = sorted(held)
            rhs = [d[i] - sum(H[i][j] * z[j] for j in fixed) for i in free]
            target = _solve_small([[H[i][j] for j in free] for i in free], rhs)
            if target is None:
                return None
            outside = [(i, x) for i, x in zip(free, target) if not lb[i] <= x <= ub[i]]
            if outside and z is None:  # start from the unconstrained optimum, clipped to the box
                z = [min(max(x, lo), hi) for x, lo, hi in zip(target, lb, ub)]
                held = {i: lb if x < lb[i] else ub for i, x in outside}
                continue
            if outside:  # step to the first bound in the way and hold it there
                steps = [((ub if x > ub[i] else lb)[i] - z[i]) / (x - z[i]) for i, x in outside]
                step, (block, x) = min(zip(steps, outside))
                side = ub if x > ub[block] else lb
                for i, x in zip(free, target):
                    z[i] = min(max(z[i] + step * (x - z[i]), lb[i]), ub[i])
                z[block], held[block] = side[block], side
                continue
            z = z or [0.0] * k
            for i, x in zip(free, target):
                z[i] = x
            pulls = [(abs(g), i) for i, g in ((i, d[i] - sum(H[i][j] * z[j] for j in range(k))) for i in fixed)
                     if (g > 0 if held[i] is lb else g < 0)]
            if not pulls:
                prices = [a[i] - sum(B[i][j] * z[j] for j in range(k)) for i in range(k)]
                return z, sum((prices[i] - c[i]) * z[i] for i in range(k))
            del held[max(pulls)[1]]
        return None

    def choke_quantities(self):
        q = np.linalg.solve(self.B, self.a - self.costs)
        return np.abs(q)

    def default_price_region(self):
        lo = self.costs + 0.05 * (self.a - self.costs)
        hi = self.costs + 0.95 * (self.a - self.costs)
        return EvaluationRegion(tuple(lo), tuple(hi))

    def default_quantity_region(self):
        scale = np.maximum((self.a - self.costs) / np.diag(self.B), 0.1)
        return EvaluationRegion(tuple(0.01 * scale), tuple(0.6 * scale))

    def describe(self):
        return {
            **super().describe(),
            "a": self.a.tolist(),
            "B": self.B.tolist(),
        }


class Eq7Demand(DemandModel):
    """Three products: linear cross-price coupling b plus a square-root
    spillover of products 1 and 2 onto the demand for product 3.

        D1 = (1-p1) + b[(1-p2) + (1-p3)]
        D2 = (1-p2) + b[(1-p1) + (1-p3)]
        D3 = (1-p3) + gamma * sqrt((1-p1) + (1-p2))

    b > 0, gamma > 0 makes all three strict gross complements; b < 0,
    gamma < 0 makes them strict gross substitutes. At b = 0 the inverse
    demands are explicit: P1 = 1-q1, P2 = 1-q2,
    P3 = 1-q3 + gamma*sqrt(q1+q2).
    """

    kind = "eq7"
    outside = "quantity vector outside the invertible region"

    def __init__(self, b: float, gamma: float):
        if not abs(b) < 1:
            raise ValueError(f"|b| must be < 1, got {b}")
        super().__init__(3)
        self.b = float(b)
        self.gamma = float(_finite(gamma, "gamma"))
        self.singular_at_zero = gamma != 0.0

    def demand(self, p):
        p = _as_vector(p, 3, "p")
        s = 1.0 - p
        radicand = s[0] + s[1]
        if radicand < 0:
            raise DomainError(f"requires p1 + p2 <= 2, got {p[0] + p[1]}")
        b, g = self.b, self.gamma
        return np.array(
            [
                s[0] + b * (s[1] + s[2]),
                s[1] + b * (s[0] + s[2]),
                s[2] + g * math.sqrt(radicand),
            ]
        )

    def demand_jacobians(self, nodes):
        slopes, bad = self._slopes(nodes, (1, 2, 3))
        slopes[bad] = np.nan
        undefined = "cross-price slope of product 3 undefined at p1 + p2 >= 2"
        return slopes, {r: DomainError(undefined) for r in np.flatnonzero(bad).tolist()}

    def portfolio_inverses(self, q, carried):
        prices, bad = self._restricted_inverse(q, carried)
        prices[bad] = np.nan
        return prices

    def portfolio_inverse_jacobians(self, q, p, carried):
        slopes, bad = self._slopes(p, carried)
        return _linalg_rows(np.linalg.inv, ~bad, slopes)

    def demand_hessians(self, p, carried):
        # D3's gamma sqrt(u), u = (1-p1) + (1-p2) over the carried pair, is the
        # only curvature: -gamma / (4 u^1.5) on the pair's block of D3, in
        # Python's float power, so that each row has the bits it has alone
        k = len(carried)
        hess = np.zeros((len(p), k, k, k))
        pair = [carried.index(i) for i in (1, 2) if i in carried]
        if 3 not in carried or not pair:
            return hess, np.ones(len(p), bool)
        u = sum(1.0 - p[:, carried[a] - 1] for a in pair)
        curvature = [-self.gamma / (4.0 * x**1.5) if x > 0 else math.nan for x in u.tolist()]
        for a, b in itertools.product(pair, pair):
            hess[:, carried.index(3), a, b] = curvature
        hess[u <= 0] = np.nan
        return hess, ~(u <= 0)

    def _slopes(self, p: np.ndarray, carried: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """dD_c/dp_c of the carried subsystem at each row of prices p (S, 3)
        (absent entries unused), and the rows where product 3's slope is
        undefined."""
        pair = [i for i in (1, 2) if i in carried]
        b, g = self.b, self.gamma
        k = len(carried)
        jac_d = np.zeros((len(p), k, k))
        bad = np.zeros(len(p), bool)
        pos = {prod: idx for idx, prod in enumerate(carried)}
        for prod in carried:
            r = pos[prod]
            if prod in (1, 2):
                for other in carried:
                    jac_d[:, r, pos[other]] = -1.0 if other == prod else -b
            else:
                if pair:
                    u = sum(1.0 - p[:, i - 1] for i in pair)
                    bad = u <= 0 if g else u < 0  # without a spillover, u = 0 has a slope
                    with np.errstate(divide="ignore", invalid="ignore"):
                        slope = -0.5 * g / np.sqrt(u)
                    if not g:
                        slope[u == 0] = -0.0
                    for i in pair:
                        jac_d[:, r, pos[i]] = slope
                jac_d[:, r, r] = -1.0
        return jac_d, bad

    def _restricted_inverse(self, q: np.ndarray, carried: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Invert the subsystem of carried products at each row of q (S, 3),
        quantities of absent products pinned at zero. Returns the (S, 3)
        prices, NaN at absent coordinates, and the rows outside the
        invertible region.
        """
        b, g = self.b, self.gamma
        pair = [i - 1 for i in (1, 2) if i in carried]
        m = len(pair)
        s = np.full(q.shape, np.nan)
        bad = np.zeros(len(q), bool)
        if 3 in carried and m:
            # (1 + b(m-1)) t^2 - m b g t - (sum of pair q - m b q3) = 0,
            # t = sqrt(sum of pair s)
            a = 1.0 + b * (m - 1)
            c = (q[:, 0] + q[:, 1] if m == 2 else q[:, pair[0]]) - m * b * q[:, 2]
            disc = (m * b * g) ** 2 + 4.0 * a * c
            with np.errstate(invalid="ignore"):
                t = (m * b * g + np.sqrt(disc)) / (2.0 * a)
            bad = (disc < 0) | (t < 0)
            if m == 2:
                delta = (q[:, 0] - q[:, 1]) / (1.0 - b)
                s[:, 0] = 0.5 * (t * t + delta)
                s[:, 1] = 0.5 * (t * t - delta)
            else:
                s[:, pair[0]] = t * t
            s[:, 2] = q[:, 2] - g * t
        elif m == 2:
            s[:, :2] = np.linalg.solve(np.array([[1.0, b], [b, 1.0]]), q[:, :2, None])[:, :, 0]
        else:
            for i in carried:
                s[:, i - 1] = q[:, i - 1]
        return 1.0 - s, bad

    def exact_optimum(self, carried, lb, ub):
        # With s = 1 - p, each carried pair member's demand is its s plus b times
        # the other carried s, and product 3's is s3 + gamma sqrt(the pair's s).
        # When the carried pair members share their bounds an unequal split of the
        # pair loses profit, so they share one s, and t = sqrt(the pair's total s)
        # and s3 are left. With m pair members and k = (1 + b(m - 1)) / m:
        #   q_p = k t^2 + b s3 (each pair member),  q3 = s3 + gamma t,
        #   R = (m - t^2) q_p + (1 - s3) q3,
        # a concave parabola in s3 for fixed t, on the branch t >= t_lo =
        # max(0, b gamma / 2k) that the inverse takes. Its maximum over the box is
        # where R is stationary along the interior path s3 = (1 + bm - gamma t -
        # b t^2) / 2, along a face (q3 or q_p held at a bound), or on the branch
        # edge t = t_lo, or at a corner. Along each path that is a root of a cubic
        # in t; the q_p-held one is multiplied by b^2, which keeps small |b| well
        # scaled, and at b = 0 that face is t fixed, with the interior path's s3
        # best on it. Every candidate is valued at its q clipped to the box, by
        # the inverse, and the best is the maximum.
        b, g = self.b, self.gamma
        lb, ub = lb.tolist(), ub.tolist()
        pair = [at for at, prod in enumerate(carried) if prod in (1, 2)]
        if len({lb[at] for at in pair}) > 1 or len({ub[at] for at in pair}) > 1:
            return None
        m = len(pair)
        if 3 not in carried or not m:  # one product, or the pair alone: a concave quadratic
            q = 0.5 * (1.0 + b) if m == 2 else 0.5
            z = [min(max(q, lo), hi) for lo, hi in zip(lb, ub)]
            return z, self._profit(z, carried)
        three = carried.index(3)
        lo, hi, lo3, hi3 = lb[pair[0]], ub[pair[0]], lb[three], ub[three]
        k = (1.0 + b * (m - 1)) / m
        t_lo = max(0.0, 0.5 * b * g / k)

        def inside(t: float) -> tuple[float, float]:
            s3 = 0.5 * (1.0 + b * m - g * t - b * t * t)
            return k * t * t + b * s3, s3 + g * t

        # each path as the roots of its cubic and its point (q_p, q3) at t
        paths = [(_real_roots(b * b - 4.0 * k, 1.5 * b * g, 2.0 * m * k - b - b * b * m + 0.5 * g * g,
                              0.5 * g * (1.0 - b * m)), inside)]
        for c in (lo3, hi3):
            roots = _real_roots(-4.0 * k, 3.0 * b * g, 2.0 * (m * k - b * c), g * (c - m * b))
            paths.append((roots, lambda t, c=c: (k * t * t + b * (c - g * t), c)))
        for c in (lo, hi):
            if b == 0.0:
                paths.append(([math.sqrt(c / k)], lambda t, c=c: (c, inside(t)[1])))
                continue
            roots = _real_roots(
                -4.0 * k * k, 3.0 * b * g * k, 2.0 * ((2.0 * c - b) * k - b * b * c), (b - c) * b * g
            )
            paths.append((roots, lambda t, c=c: (c, (c - k * t * t) / b + g * t)))
        points = [(qp, q3) for qp in (lo, hi) for q3 in (lo3, hi3)]  # the corners
        for roots, point in paths:
            points += [point(t) for t in [t_lo] + [t for t in roots if t >= t_lo]]
        best = None
        for qp, q3 in points:
            z = [min(max(qp, lo), hi)] * len(carried)
            z[three] = min(max(q3, lo3), hi3)
            value = self._profit(z, carried)
            if value is not None and (best is None or value > best[1]):
                best = z, value
        return best

    def _profit(self, z: list[float], carried: tuple[int, ...]) -> float | None:
        """Portfolio profit at the carried quantities z, whose pair members are
        equal, by _restricted_inverse's operations in Python floats (eq7 has no
        costs); None outside the invertible region."""
        b, g = self.b, self.gamma
        m = sum(prod != 3 for prod in carried)
        if 3 in carried and m:
            qp, q3 = z[0], z[-1]
            a = 1.0 + b * (m - 1)
            c = (qp + qp if m == 2 else qp) - m * b * q3
            disc = (m * b * g) ** 2 + 4.0 * a * c
            if disc < 0:
                return None
            t = (m * b * g + math.sqrt(disc)) / (2.0 * a)
            if t < 0:
                return None
            s = [0.5 * (t * t) if m == 2 else t * t] * m + [q3 - g * t]
        elif m == 2:
            s = [z[0] / (1.0 + b)] * 2
        else:
            s = z
        return sum((1.0 - x) * y for x, y in zip(s, z))

    def choke_quantities(self):
        return np.abs(self.demand(np.zeros(3)))

    def default_price_region(self):
        # keeps the radicand positive and quantities positive
        return EvaluationRegion((0.05,) * 3, (0.95,) * 3)

    def default_quantity_region(self):
        return EvaluationRegion((0.01,) * 3, (0.99,) * 3)

    def describe(self):
        return {**super().describe(), "b": self.b, "gamma": self.gamma}


class AppendixBDemand(DemandModel):
    """Three products with logarithmic cross effects in inverse demand:

        P1 = 1 - q1 + b ln(1+q2) + alpha q3
        P2 = 1 - q2 + b ln(1+q1) + alpha q3
        P3 = 1 - q3 + gamma (q1 + q2)

    All cross partials d2P_m/dq_i dq_j (i != j) vanish identically, so
    the inverse demands are weakly submodular (and weakly supermodular).
    With alpha, b, gamma < 0 and |b| < 1 all products are strict gross
    substitutes; with all three positive, strict gross complements.
    """

    kind = "appendix_b"
    outside = "need q1 > -1 and q2 > -1 for the log terms"

    def __init__(self, b: float, gamma: float, alpha: float):
        if not abs(b) < 1:
            raise ValueError(f"|b| must be < 1, got {b}")
        super().__init__(3)
        self.b = float(b)
        self.gamma = float(_finite(gamma, "gamma"))
        self.alpha = float(_finite(alpha, "alpha"))

    def portfolio_inverses(self, q, carried):
        # NaN in each row where q1 or q2 is <= -1, which line searches reject;
        # math.log1p, not numpy's, so that each row has the bits it has alone
        b, g, a = self.b, self.gamma, self.alpha
        log1p = np.array(
            [math.log1p(x) if x > -1 else math.nan for x in q[:, :2].ravel().tolist()]
        ).reshape(-1, 2)
        prices = np.column_stack(
            (
                1.0 - q[:, 0] + b * log1p[:, 1] + a * q[:, 2],
                1.0 - q[:, 1] + b * log1p[:, 0] + a * q[:, 2],
                1.0 - q[:, 2] + g * (q[:, 0] + q[:, 1]),
            )
        )
        prices[(q[:, :2] <= -1).any(axis=1)] = np.nan
        return prices

    def portfolio_inverse_jacobians(self, q, p, carried):
        jac = np.empty((len(q), 3, 3))
        jac[:, 0, 1] = self.b / (1.0 + q[:, 1])
        jac[:, 1, 0] = self.b / (1.0 + q[:, 0])
        jac[:, :2, 2] = self.alpha
        jac[:, 2, :2] = self.gamma
        jac[:, [0, 1, 2], [0, 1, 2]] = -1.0
        return _block(jac, carried), np.ones(len(q), bool)

    def portfolio_inverse_hessians(self, q, p, jac, carried):
        # the only curvature: d2P1/dq2^2 = -b/(1+q2)^2 and d2P2/dq1^2 = -b/(1+q1)^2,
        # in Python's float power, so that each row has the bits it has alone
        k = len(carried)
        hess = np.zeros((len(q), k, k, k))
        if 1 in carried and 2 in carried:
            one, two = carried.index(1), carried.index(2)
            hess[:, one, two, two] = [-self.b / (1.0 + x) ** 2 for x in q[:, 1].tolist()]
            hess[:, two, one, one] = [-self.b / (1.0 + x) ** 2 for x in q[:, 0].tolist()]
        return hess, np.ones(len(q), bool)

    def default_price_region(self):
        return EvaluationRegion((0.05,) * 3, (0.95,) * 3)

    def default_quantity_region(self):
        return EvaluationRegion((0.01,) * 3, (0.99,) * 3)

    def describe(self):
        return {
            **super().describe(),
            "b": self.b,
            "gamma": self.gamma,
            "alpha": self.alpha,
        }


class OneStopDemand(DemandModel):
    """Priced one-stop-shopping family: affine per-product sub-demands scaled
    by store traffic.

        D_i(p) = q_i(p_i) * G(sum_j v_j(p_j))

    with q_i(p_i) = max(alpha_i - beta_i p_i, 0) and v_i the consumer surplus
    under the sub-demand curve at price p_i.

    P(q) solves the store traffic theta = G(k / theta^2), k = sum q_i^2 /
    (2 beta_i), one row at a time: Illinois steps (plain halving under a
    step CDF) that end on the float halving would. The price Jacobian inverts
    central differences of D at the prices held, and the demand Hessian
    needs G' and G'' from the CDF; both take a stack of rows.
    """

    kind = "one_stop"

    def __init__(
        self,
        alpha: Sequence[float],
        beta: Sequence[float],
        cdf: ShoppingCostCdf,
        costs=None,
    ):
        alpha = _finite(alpha, "alpha")
        beta = _finite(beta, "beta")
        n = len(alpha)
        if beta.shape != (n,):
            raise ValueError("alpha and beta must have equal length")
        if np.any(alpha <= 0) or np.any(beta <= 0):
            raise ValueError("sub-demand parameters must be positive")
        super().__init__(n, costs)
        self.alpha = alpha
        self.beta = beta
        self.cdf = cdf

    def sub_demand(self, p: np.ndarray) -> np.ndarray:
        return np.maximum(self.alpha - self.beta * p, 0.0)

    def surplus(self, p: np.ndarray) -> np.ndarray:
        q = self.sub_demand(p)
        return q * q / (2.0 * self.beta)

    def demand(self, p):
        return self._demand_rows(_as_vector(p, self.n, "p")[None])[0]

    def demand_jacobians(self, nodes):
        # the shopping-cost CDFs raise nothing, so every node has slopes
        return _fd_jacobians(self._demand_rows, nodes, range(self.n)), {}

    def _demand_rows(self, p: np.ndarray) -> np.ndarray:
        """demand at every row of p (N, n); the CDF is called once per row."""
        traffic = [self.cdf(float(s)) for s in np.sum(self.surplus(p), axis=1)]
        return self.sub_demand(p) * np.array(traffic)[:, None]

    def portfolio_inverse(self, q, carried):
        # the full system's prices: an absent product's zero quantity puts it at
        # its choke price, which takes it out of the store traffic
        q = _as_vector(q, self.n, "q")
        if not np.all((q >= 0) & np.isfinite(q)):  # a NaN would reach the traffic solve
            raise DomainError("quantities must be finite and nonnegative")
        choke = self.alpha / self.beta
        if not np.any(q > 0):
            return choke.copy()

        theta = self._traffic_share(float(np.sum(q * q / (2.0 * self.beta))))
        return (self.alpha - q / theta) / self.beta

    def portfolio_inverse_jacobians(self, q, p, carried):
        # the demand Jacobians at the prices held, by the grid's stacked central
        # differences: differences of the prices would solve the traffic again
        priced = np.isfinite(p).all(axis=1)
        slopes = np.full((len(p), self.n, self.n), np.nan)
        slopes[priced] = _fd_jacobians(self._demand_rows, p[priced], range(self.n))
        inverse, ok = _linalg_rows(np.linalg.inv, priced, slopes)
        return _block(inverse, carried), ok

    def _traffic_share(self, k: float) -> float:
        """The store traffic theta = G(k / theta^2) at the sub-demand mass k > 0."""
        # theta - G(k / theta^2) rises strictly in theta (G is nondecreasing), so
        # narrowing [0, 1] down to adjacent floats leaves hi the smallest theta with
        # residual >= 0, whichever points narrow it. Halving does while lo = 0, which
        # is where an unattainable traffic shows; then, for a continuous G, Illinois
        # steps (regula falsi that halves the residual kept at an end twice in a
        # row) narrow the bracket to a few floats, and halving ends it.
        def residual(theta: float) -> float:
            return theta - self.cdf(k / (theta * theta))

        r_lo, r_hi = math.nan, residual(1.0)
        if r_hi < 0:  # cannot happen for a true CDF; guards bad tables
            raise ConvergenceError("traffic equation has no root at theta = 1")
        lo, hi, kept = 0.0, 1.0, 0  # kept: 1 or -1 after a step that kept hi or lo
        secant = not isinstance(self.cdf, StepCdf)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if mid < 2.0**-80:
                raise ConvergenceError("required store traffic is unattainable under this CDF")
            if secant and lo > 0 and hi - lo > 4 * math.ulp(hi):
                guess = hi - r_hi * (hi - lo) / (r_hi - r_lo)
                mid = guess if lo < guess < hi else mid
            r = residual(mid)
            if r < 0:
                lo, r_lo = mid, r
                if kept == 1:
                    r_hi *= 0.5
                kept = 1
            else:
                hi, r_hi = mid, r
                if kept == -1:
                    r_lo *= 0.5
                kept = -1
        if residual(hi) > 1e-9:
            raise ConvergenceError("traffic equation residual too large (discontinuous CDF?)")
        return hi

    def demand_hessians(self, p, carried):
        # D_m = s_m G(V), s_m = alpha_m - beta_m p_m, dV/dp_k = -s_k:
        # d2D_m/dp_k dp_l = G' (beta_m d_mk s_l + beta_m d_ml s_k + beta_k d_kl s_m)
        #                   + G'' s_m s_k s_l
        # off the kinks of G and of each carried max(alpha - beta p, 0) at its choke
        # price; one scalar CDF call per row, then the formula broadcast over the rows
        idx = [i - 1 for i in carried]
        derivatives = [self.cdf.derivatives(float(v)) for v in np.sum(self.surplus(p), axis=1)]
        at_choke = (p[:, idx] >= (self.alpha / self.beta)[idx]).any(axis=1)
        exact = np.array([d is not None for d in derivatives], bool) & ~at_choke
        g1, g2 = np.array([(math.nan, math.nan) if d is None else d for d in derivatives]).reshape(-1, 2).T
        s = self.sub_demand(p)[:, idx]
        slope = g1[:, None, None] * np.diag(self.beta[idx])
        hess = (
            slope[:, :, :, None] * s[:, None, None, :]
            + slope[:, :, None, :] * s[:, None, :, None]
            + slope[:, None, :, :] * s[:, :, None, None]
            + g2[:, None, None, None] * s[:, :, None, None] * s[:, None, :, None] * s[:, None, None, :]
        )
        hess[~exact] = np.nan
        return hess, exact

    def choke_quantities(self):
        return self.alpha.copy()

    def default_price_region(self):
        choke = self.alpha / self.beta
        return EvaluationRegion(tuple(0.05 * choke), tuple(0.8 * choke))

    def default_quantity_region(self):
        return EvaluationRegion(tuple(0.01 * self.alpha), tuple(0.5 * self.alpha))

    def describe(self):
        return {
            **super().describe(),
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "cdf": self.cdf.describe(),
        }


class CustomDemand(DemandModel):
    """Inverse demand supplied as a callback, called one point at a time;
    everything else is numeric: the demand by the Newton inversion and the
    Jacobians by central differences, each over a stack of rows."""

    kind = "custom"

    def __init__(
        self,
        n: int,
        inverse: Callable[[np.ndarray], np.ndarray],
        price_region: EvaluationRegion | None = None,
        quantity_region: EvaluationRegion | None = None,
        choke: Sequence[float] | None = None,
    ):
        super().__init__(n)
        self._inverse = inverse
        self._price_region = price_region
        self._quantity_region = quantity_region
        self._choke = None if choke is None else _finite(_as_vector(choke, n, "choke"), "choke")

    def portfolio_inverse(self, q, carried):
        # the callback's prices for the full system at the zero-padded q
        return np.asarray(self._inverse(_as_vector(q, self.n, "q")), dtype=float)

    def choke_quantities(self):
        if self._choke is not None:
            return self._choke.copy()
        return np.ones(self.n)

    def default_price_region(self):
        if self._price_region is None:
            raise NotImplementedError("custom model needs an explicit price region")
        return self._price_region

    def default_quantity_region(self):
        if self._quantity_region is None:
            raise NotImplementedError("custom model needs an explicit quantity region")
        return self._quantity_region


# ---------------------------------------------------------------------------
# Grid diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrossRelationReport:
    pairs: dict[tuple[int, int], GrossKind]
    overall: GrossKind
    block: dict  # the report's {"overall", "pairs", "tolerance"}
    region: EvaluationRegion
    failures: tuple[str, ...] = ()

    def describe(self) -> dict:
        return {**self.block, "failures": list(self.failures)}


def gross_relation(
    model: DemandModel,
    region: EvaluationRegion | None = None,
) -> GrossRelationReport:
    """Classify every product pair by the sign of the cross-price slopes
    sampled over a price grid.

    Negative dD_i/dp_j everywhere: strict gross complements. Positive
    everywhere: strict gross substitutes. All within tolerance of zero:
    independent. Otherwise mixed. Failed nodes are reported with their
    coordinates and skipped.
    """
    if region is None:
        region = model.default_price_region()
    if region.dim != model.n:
        raise ValueError(f"region dimension {region.dim} != product count {model.n}")
    nodes = region.nodes()
    slopes, errors = model.demand_jacobians(nodes)
    if errors:
        slopes = np.delete(slopes, list(errors), axis=0)
    failures = [
        f"node {tuple(round(float(x), 6) for x in nodes[r])}: {error}" for r, error in sorted(errors.items())
    ]
    if not len(slopes):
        raise ConvergenceError(
            "no usable grid node for gross classification; failures: "
            + "; ".join(failures[:3])
        )
    extremes = {}
    for i, j in itertools.combinations(range(model.n), 2):
        # dD_i/dp_j then dD_j/dp_i, node by node; unlike numpy's, the builtin
        # min and max pass over a NaN that is not the first value
        values = np.stack((slopes[:, i, j], slopes[:, j, i]), axis=1).ravel().tolist()
        # a negative cross-price slope means complements, so the slopes enter negated
        extremes[(i + 1, j + 1)] = (-max(values), -min(values))
    return GrossRelationReport(*gross_verdicts(extremes, GROSS_TOLERANCE), region, tuple(failures))


@dataclass(frozen=True)
class ModularitySample:
    node: tuple[float, ...]
    m: int
    i: int
    j: int
    value: float


@dataclass(frozen=True)
class InverseModularityReport:
    kind: InverseModularityKind
    tolerance: float
    most_negative: ModularitySample
    most_positive: ModularitySample
    region: EvaluationRegion
    skipped: tuple[str, ...] = ()

    @property
    def weakly_submodular(self) -> bool:
        return self.kind in (InverseModularityKind.WEAKLY_SUBMODULAR, InverseModularityKind.BOTH)


def inverse_modularity(
    model: DemandModel,
    region: EvaluationRegion | None = None,
) -> InverseModularityReport:
    """Sample all cross partials d2P_m/dq_i dq_j (i != j) over a quantity grid.

    Weakly supermodular: every sample >= -tolerance. Weakly submodular:
    every sample <= tolerance. Both when the samples are all within
    tolerance of zero; neither when both signs occur beyond tolerance.
    A partial the model rejects is reported and skipped.
    """
    if region is None:
        region = model.default_quantity_region()
    if region.dim != model.n:
        raise ValueError(f"region dimension {region.dim} != product count {model.n}")
    nodes = region.nodes()
    every = range(1, model.n + 1)
    partials = [(m, i, j) for m in every for i, j in itertools.combinations(every, 2)]
    samples, skipped = _cross_partials(model, nodes, partials)
    if np.isnan(samples).all():
        raise ConvergenceError("no usable grid node for inverse modularity")
    # nanargmin and nanargmax keep the first extreme in (node, m, i, j) order
    best_lo, best_hi = (
        ModularitySample(tuple(nodes[r].tolist()), *partials[c], float(samples[r, c]))
        for r, c in (divmod(int(pick(samples)), len(partials)) for pick in (np.nanargmin, np.nanargmax))
    )
    sup_ok = best_lo.value >= -MODULARITY_TOLERANCE
    sub_ok = best_hi.value <= MODULARITY_TOLERANCE
    if sup_ok and sub_ok:
        kind = InverseModularityKind.BOTH
    elif sup_ok:
        kind = InverseModularityKind.WEAKLY_SUPERMODULAR
    elif sub_ok:
        kind = InverseModularityKind.WEAKLY_SUBMODULAR
    else:
        kind = InverseModularityKind.NEITHER
    return InverseModularityReport(
        kind, MODULARITY_TOLERANCE, best_lo, best_hi, region, tuple(skipped)
    )


def _cross_partials(
    model: DemandModel, nodes: np.ndarray, partials: list[tuple[int, int, int]]
) -> tuple[np.ndarray, list[str]]:
    """d2P_m/dq_i dq_j for each (m, i, j) of partials at each row of nodes, as
    an (N, len(partials)) array, and a line for each one the model rejects (NaN).
    One stacked call per hook gives the exact inverse Hessian over all products
    where the family has one; differences of the one-point portfolio_inverse
    give the rest."""
    every = tuple(range(1, model.n + 1))
    m_idx, i_idx, j_idx = np.array(partials, int).reshape(-1, 3).T - 1
    prices = model.portfolio_inverses(nodes, every)
    priced = np.flatnonzero(np.isfinite(prices).all(axis=1))
    jac, solved = model.portfolio_inverse_jacobians(nodes[priced], prices[priced], every)
    rows = priced[solved]
    curvature, exact = model.portfolio_inverse_hessians(nodes[rows], prices[rows], jac[solved], every)
    samples = np.full((len(nodes), len(partials)), np.nan)
    # + 0.0: the implicit-function sum gives -0.0 where the closed form is +0.0
    samples[rows[exact]] = curvature[exact][:, m_idx, i_idx, j_idx] + 0.0
    skipped = []
    for r in np.setdiff1d(np.arange(len(nodes)), rows[exact]):
        for col, (m, i, j) in enumerate(partials):
            try:
                samples[r, col] = _fd_cross_partial(
                    lambda x: model.portfolio_inverse(x, every), nodes[r], m, i, j
                )
            except (DomainError, ConvergenceError) as exc:
                skipped.append(f"node {tuple(nodes[r].tolist())} P_{m} d(q{i},q{j}): {exc}")
    return samples, skipped
