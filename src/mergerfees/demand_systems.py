"""Parametric demand / inverse-demand systems for the priced general model.

Each family exposes the demand map D(p), the inverse demand P(q), their
Jacobians, and a portfolio-restricted inverse used by the profit optimizer:
products the retailer does not carry are removed from the system and their
quantities pinned at zero. For families whose inverse demand is an explicit
formula this is just evaluation at the zero-padded quantity vector; for the
square-root-spillover family with cross-price coupling the restricted
subsystem is inverted in closed form instead (the full system has no real
inverse at such corners).

The optimizer steps all starts of a portfolio together, so it asks for
the restricted inverse, its Jacobian and its Hessian at a stack of points:
portfolio_inverses, portfolio_inverse_jacobians and
portfolio_inverse_hessians, one row per point. Their defaults loop over the
rows with the one-point hooks (portfolio_inverse, portfolio_inverse_jacobian,
demand_hessian), and a row whose hook raises is NaN and flagged, so the
other rows go on. Linear, eq7 and appendix_b evaluate the stack in closed
form, and one_stop stacks its Jacobian (central differences of the demand,
then one inversion call) and its demand Hessian; there the one-point hook
is the one-row case, so each formula has one copy. Only one_stop's
prices, a traffic solve per row, keep the loop. The Jacobian and Hessian
hooks take the prices already solved, so a point costs one P(q) solve.
The Hessian of the restricted inverse is zero for linear demand, explicit
for appendix_b, and for eq7 and one_stop the implicit-function theorem on
D(P(q)) = q applied to the family's demand Hessian (one_stop's needs G'
and G'' from its CDF, so step and table CDFs have none). Where a row has
none the optimizer differences its gradient.

Before any of that, the optimizer asks exact_optimum for the portfolio's
global maximum over its box. Linear demand with a positive definite
B + B^T answers by an active-set search for its one KKT point (the QP is
strictly concave), and eq7 at b = 0 by valuing every root of its
stationarity cubic and every end of the box; both in Python floats, so
their optima do not depend on the BLAS kernel. Other families, and these
two where they cannot certify the maximum, return None.

Two grid diagnostics operate on these families:

* gross_relation samples dD_i/dp_j over a price region and classifies each
  product pair as strict gross complements (all sampled cross-price slopes
  negative), strict gross substitutes (all positive), independent, or mixed.
  The linear, eq7, appendix_b and one_stop families evaluate the slopes of
  the whole grid in one batched call (demand_jacobians); other models keep
  the per-node loop. Families without an explicit demand (appendix_b,
  CustomDemand) invert P(q) = p with one damped Newton solve, _invert,
  which runs on a stack of rows: a per-node demand is its one-row case and
  appendix_b's grid is one call.
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


class DemandModel:
    """Base class: n differentiated products with constant unit costs."""

    kind = "base"
    singular_at_zero = False  # True if gradients blow up at zero quantities

    def __init__(self, n: int, costs: Sequence[float] | None = None):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("need at least one product")
        c = np.zeros(self.n) if costs is None else _as_vector(costs, self.n, "costs")
        if np.any(c < 0):
            raise ValueError("costs must be nonnegative")
        self.costs = c

    # -- core maps ---------------------------------------------------------

    def demand(self, p: Sequence[float]) -> np.ndarray:
        """Quantities at prices p; the one-row case of _invert unless overridden."""
        p = _as_vector(p, self.n, "p")
        return _one_row(*self._invert(p[None], np.ones((1, self.n))))

    def inverse_demand(self, q: Sequence[float]) -> np.ndarray:
        raise NotImplementedError

    def demand_jacobian(self, p: Sequence[float]) -> np.ndarray:
        """dD/dp matrix; central finite differences unless overridden."""
        p = _as_vector(p, self.n, "p")
        return _fd_jacobian(self.demand, p)

    def demand_jacobians(self, nodes: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """dD/dp at every row of ``nodes`` (N, n).

        Returns the (N_ok, n, n) stack of the usable nodes and a failure
        line for each other node, both in row order. Default: one
        demand_jacobian call per node.
        """
        jacobians = np.empty((len(nodes), self.n, self.n))
        ok = np.ones(len(nodes), bool)
        failures = []
        for r, node in enumerate(nodes):
            try:
                jacobians[r] = self.demand_jacobian(node)
            except (DomainError, ConvergenceError) as exc:
                ok[r] = False
                failures.append(_node_failure(node, exc))
        return jacobians[ok], failures

    def inverse_jacobian(self, q: Sequence[float]) -> np.ndarray:
        """dP/dq matrix; defaults to inverting the demand Jacobian at P(q)."""
        q = _as_vector(q, self.n, "q")
        p = self.inverse_demand(q)
        return np.linalg.inv(self.demand_jacobian(p))

    # -- portfolio-restricted system (used by the optimizer) ---------------

    def portfolio_inverse(self, q: np.ndarray, carried: tuple[int, ...]) -> np.ndarray:
        """Inverse demand of the carried subsystem at the zero-padded q.

        Default: evaluate the full inverse-demand formula at q (absent
        coordinates are zero, which removes them from formula families).
        Returns the full-length price vector; entries for absent products
        are meaningless and must not be used.
        """
        return self.inverse_demand(q)

    def portfolio_inverse_jacobian(
        self, q: np.ndarray, p: np.ndarray, carried: tuple[int, ...]
    ) -> np.ndarray:
        """dP_c/dq_c over the carried coordinates at the zero-padded q, where
        ``p`` is portfolio_inverse at q."""
        return _block(self.inverse_jacobian(q), carried)

    def demand_hessian(self, p: np.ndarray, carried: tuple[int, ...]) -> np.ndarray | None:
        """d2D_m/dp_k dp_l of the carried subsystem at the full-length prices p.

        A (k, k, k) array indexed [m, k, l] in carried order, or None where
        the family has no exact form there. Default: None.
        """
        return None

    def portfolio_inverse_hessian(
        self, q: np.ndarray, p: np.ndarray, jac: np.ndarray, carried: tuple[int, ...]
    ) -> np.ndarray | None:
        """d2P_i/dq_k dq_l over the carried coordinates at the zero-padded q.

        A (k, k, k) array indexed [i, k, l] in carried order, or None where
        the family has no exact form. ``p`` and ``jac`` are
        portfolio_inverse and portfolio_inverse_jacobian at q. The one-row
        case of portfolio_inverse_hessians.
        """
        curvature, exact = self.portfolio_inverse_hessians(q[None], p[None], jac[None], carried)
        return curvature[0] if exact[0] else None

    def portfolio_inverses(self, q: np.ndarray, carried: tuple[int, ...]) -> np.ndarray:
        """portfolio_inverse at every row of q (S, n), NaN in each row where
        it raises. Default: one portfolio_inverse call per row."""
        return _each_row(lambda r: self.portfolio_inverse(q[r], carried), len(q), q.shape[1:])[0]

    def portfolio_inverse_jacobians(
        self, q: np.ndarray, p: np.ndarray, carried: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """portfolio_inverse_jacobian at every row of q (S, n), whose prices
        are the rows of p. Returns the (S, k, k) stack and the rows where
        the hook did not raise; the others are NaN. Default: one call per
        row."""
        k = len(carried)
        return _each_row(lambda r: self.portfolio_inverse_jacobian(q[r], p[r], carried), len(q), (k, k))

    def demand_hessians(
        self, p: np.ndarray, carried: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """demand_hessian at every row of the prices p (S, n). Returns the
        (S, k, k, k) stack and the rows where the family has an exact form;
        the others, where it returns None or raises, are NaN. Default: one
        call per row."""
        k = len(carried)
        return _each_row(lambda r: self.demand_hessian(p[r], carried), len(p), (k, k, k))

    def portfolio_inverse_hessians(
        self, q: np.ndarray, p: np.ndarray, jac: np.ndarray, carried: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """portfolio_inverse_hessian at every row of q (S, n), with the rows
        of p and jac (S, k, k). Returns the (S, k, k, k) stack and the rows
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

    def _inverse_rows(self, q: np.ndarray) -> np.ndarray:
        """inverse_demand at every row of q (N, n)."""
        return np.array([self.inverse_demand(row) for row in q])

    def _inverse_jacobian_rows(self, q: np.ndarray) -> np.ndarray:
        """dP/dq at every row of q (N, n): central differences of _inverse_rows."""
        return _fd_jacobians(self._inverse_rows, q)

    def _invert(self, target: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, list]:
        """Damped Newton solve of P(q) = target at every row of target (N, n).

        Each row takes the steps it takes alone. Returns the (N, n) rows
        reached and each row's ConvergenceError, or None where the row
        converged. A model error at the start or in a Jacobian propagates;
        a line-search candidate the model rejects (NaN from
        portfolio_inverses over every product) is halved like one whose
        residual does not fall.
        """
        every = tuple(range(1, self.n + 1))
        q = np.array(start, dtype=float)
        resid = self._inverse_rows(q) - target
        norm = np.max(np.abs(resid), axis=1)
        errors: list[ConvergenceError | None] = [None] * len(q)
        live = np.arange(len(q))
        for _ in range(INVERSION_STEPS):
            live = live[~(norm[live] <= INVERSION_TOL)]  # a NaN residual is not done
            if not live.size:
                return q, errors
            jac = self._inverse_jacobian_rows(q[live])
            try:
                step = np.linalg.solve(jac, -resid[live, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # the stacked solve fails as a whole: find the singular rows
                step = np.empty((len(live), self.n))
                for k, r in enumerate(live):
                    try:
                        step[k] = np.linalg.solve(jac[k], -resid[r])
                    except np.linalg.LinAlgError as exc:
                        errors[r] = ConvergenceError(f"singular Jacobian during inversion: {exc}")
                regular = [errors[r] is None for r in live]
                live, step = live[regular], step[regular]
            rows, scale = live, 1.0
            for _ in range(40):
                if not rows.size:
                    break
                cand = q[rows] + scale * step
                cand_resid = self.portfolio_inverses(cand, every) - target[rows]
                cand_norm = np.max(np.abs(cand_resid), axis=1)
                take = cand_norm < norm[rows]
                hit = rows[take]
                q[hit], resid[hit], norm[hit] = cand[take], cand_resid[take], cand_norm[take]
                rows, step, scale = rows[~take], step[~take], scale * 0.5
            for r in rows:
                errors[r] = ConvergenceError(
                    f"inversion stalled at residual {norm[r]:.3e} (target {INVERSION_TOL:.1e})"
                )
            live = live[[errors[r] is None for r in live]]
        for r in live:
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


def _fd_jacobians(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """_fd_jacobian at every row of x (N, n) for a row-wise fn, with its steps."""
    cols = []
    for k in range(x.shape[1]):
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


def _each_row(
    fn: Callable[[int], np.ndarray | None], count: int, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """fn(r) for each row r < count, stacked as (count, *shape), and the rows
    that have a value; the others, where fn raises one of ROW_ERRORS or
    returns None, are NaN."""
    stack = np.full((count,) + shape, np.nan)
    ok = np.zeros(count, bool)
    for r in range(count):
        try:
            row = fn(r)
        except ROW_ERRORS:
            continue
        if row is not None:
            stack[r], ok[r] = row, True
    return stack, ok


def _first_row(stack: np.ndarray, bad: np.ndarray, message: str) -> np.ndarray:
    """Row 0 of a one-row stack, or a DomainError where that row is outside
    the family's domain: a one-point hook as the one-row case of a stacked one."""
    if bad[0]:
        raise DomainError(message)
    return stack[0]


def _node_failure(node: np.ndarray, reason) -> str:
    return f"node {tuple(round(float(x), 6) for x in node)}: {reason}"


def _one_row(q: np.ndarray, errors: list) -> np.ndarray:
    """The solution of a one-row _invert, or that row's error raised."""
    if errors[0] is not None:
        raise errors[0]
    return q[0]


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
    polished = []
    for t in roots:
        f = (t * t + p) * t + q
        for _ in range(8):
            slope = 3.0 * t * t + p
            if f == 0.0 or slope == 0.0:
                break
            step = t - f / slope
            g = (step * step + p) * step + q
            if not abs(g) < abs(f):
                break
            t, f = step, g
        polished.append(t)
    return polished


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class LinearDemand(DemandModel):
    """Inverse demand P(q) = a - B q with nonsingular B of positive diagonal."""

    kind = "linear"

    def __init__(self, a: Sequence[float], B: Sequence[Sequence[float]], costs=None):
        a = np.asarray(a, dtype=float)
        B = np.asarray(B, dtype=float)
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

    def inverse_demand(self, q):
        return self._inverse_rows(_as_vector(q, self.n, "q")[None])[0]

    def _inverse_rows(self, q):
        return self.a - (self.B @ q[:, :, None])[:, :, 0]

    def demand_jacobian(self, p):
        return -np.linalg.inv(self.B)

    def demand_jacobians(self, nodes):
        return np.broadcast_to(-np.linalg.inv(self.B), (len(nodes), self.n, self.n)), []

    def inverse_jacobian(self, q):
        return -self.B

    def portfolio_inverses(self, q, carried):
        return self._inverse_rows(q)

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


_EQ7_SLOPE_DOMAIN = "cross-price slope of product 3 undefined at p1 + p2 >= 2"


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

    def __init__(self, b: float, gamma: float):
        if not abs(b) < 1:
            raise ValueError(f"|b| must be < 1, got {b}")
        super().__init__(3)
        self.b = float(b)
        self.gamma = float(gamma)
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

    def demand_jacobian(self, p):
        return _first_row(*self._slopes(_as_vector(p, 3, "p")[None], (1, 2, 3)), _EQ7_SLOPE_DOMAIN)

    def demand_jacobians(self, nodes):
        slopes, bad = self._slopes(nodes, (1, 2, 3))
        return slopes[~bad], [_node_failure(node, _EQ7_SLOPE_DOMAIN) for node in nodes[bad]]

    def inverse_demand(self, q):
        return self.portfolio_inverse(_as_vector(q, 3, "q"), (1, 2, 3))

    def portfolio_inverse(self, q, carried):
        q = np.asarray(q, dtype=float)
        if q.shape != (3,):
            raise ValueError(f"q must have shape (3,), got {q.shape}")
        for i in range(3):
            if (i + 1) not in carried and q[i] != 0.0:
                raise ValueError(f"quantity of absent product {i + 1} must be 0")
        return _first_row(
            *self._restricted_inverse(q[None], carried), "quantity vector outside the invertible region"
        )

    def portfolio_inverses(self, q, carried):
        prices, bad = self._restricted_inverse(q, carried)
        prices[bad] = np.nan
        return prices

    def portfolio_inverse_jacobian(self, q, p, carried):
        return np.linalg.inv(_first_row(*self._slopes(p[None], carried), _EQ7_SLOPE_DOMAIN))

    def portfolio_inverse_jacobians(self, q, p, carried):
        slopes, bad = self._slopes(p, carried)
        return _linalg_rows(np.linalg.inv, ~bad, slopes)

    def demand_hessian(self, p, carried):
        hessians, exact = self.demand_hessians(p[None], carried)
        return _first_row(hessians, ~exact, _EQ7_SLOPE_DOMAIN)

    def demand_hessians(self, p, carried):
        # D3's gamma sqrt(u), u = (1-p1) + (1-p2) over the carried pair, is the
        # only curvature: -gamma / (4 u^1.5) on the pair's block of D3, in
        # Python's float power, so that each row is bit for bit the one-point value
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
                    bad = u <= 0
                    with np.errstate(divide="ignore", invalid="ignore"):
                        slope = -0.5 * g / np.sqrt(u)
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
        # At b = 0, P_i = 1 - q_i for the pair and P3 = 1 - q3 + gamma sqrt(s), s the
        # carried pair's total. For fixed s an unequal split of the pair loses
        # profit, and for fixed pair quantities R is a concave parabola in q3, so
        # the optimum has one pair quantity q and q3 = clip((1 + gamma sqrt(s)) / 2).
        # What is left is a function of q alone, whose maximum over [lb, ub] is at
        # an end or where dR/dq = 0: with t = sqrt(q) and m pair members, a root of
        #   2 t^3 - (1 + gamma^2 / 4) t - gamma / (4 sqrt(m)) = 0   (q3 inside its box)
        #   2 t^3 - t - c gamma / (2 sqrt(m)) = 0                   (q3 held at c)
        # Every such candidate is valued, and the best is the maximum.
        if self.b != 0.0 or not math.isfinite(self.gamma):
            return None
        g = self.gamma
        lb, ub = lb.tolist(), ub.tolist()
        pair = [at for at, prod in enumerate(carried) if prod in (1, 2)]
        if 3 not in carried or not pair or g == 0.0:  # no spillover: each product alone
            z = [min(max(0.5, lo), hi) for lo, hi in zip(lb, ub)]
            return z, self._b0_profit(z, carried)
        if len({lb[at] for at in pair}) > 1 or len({ub[at] for at in pair}) > 1:
            return None
        three, m = carried.index(3), len(pair)
        lo, hi, lo3, hi3 = lb[pair[0]], ub[pair[0]], lb[three], ub[three]
        candidates = [lo, hi]
        for a, c in ((1.0 + 0.25 * g * g, 0.25 * g), (1.0, 0.5 * lo3 * g), (1.0, 0.5 * hi3 * g)):
            roots = _cubic_roots(-0.5 * a, -0.5 * c / math.sqrt(m))
            candidates += [t * t for t in roots if t > 0 and lo <= t * t <= hi]
        best = None
        for q in candidates:
            z = [q] * len(carried)
            z[three] = min(max(0.5 * (1.0 + g * math.sqrt(m * q)), lo3), hi3)
            value = self._b0_profit(z, carried)
            if best is None or value > best[1]:
                best = z, value
        return best

    def _b0_profit(self, z: list[float], carried: tuple[int, ...]) -> float:
        """Portfolio profit at b = 0 at the carried quantities z (eq7 has no costs)."""
        spill = self.gamma * math.sqrt(sum(x for x, prod in zip(z, carried) if prod != 3))
        return sum((1.0 - x + (spill if prod == 3 else 0.0)) * x for x, prod in zip(z, carried))

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

    def __init__(self, b: float, gamma: float, alpha: float):
        if not abs(b) < 1:
            raise ValueError(f"|b| must be < 1, got {b}")
        super().__init__(3)
        self.b = float(b)
        self.gamma = float(gamma)
        self.alpha = float(alpha)

    def inverse_demand(self, q):
        q = _as_vector(q, 3, "q")
        if q[0] <= -1 or q[1] <= -1:
            raise DomainError("need q1 > -1 and q2 > -1 for the log terms")
        return self._inverse_rows(q[None])[0]

    def inverse_jacobian(self, q):
        return self._inverse_jacobian_rows(_as_vector(q, 3, "q")[None])[0]

    def demand(self, p):
        p = _as_vector(p, 3, "p")
        return _one_row(*self._invert(p[None], np.maximum(1.0 - p, -0.5)[None]))

    def demand_jacobian(self, p):
        p = _as_vector(p, 3, "p")
        q = self.demand(p)
        return np.linalg.inv(self.inverse_jacobian(q))

    def demand_jacobians(self, nodes):
        q, errors = self._invert(nodes, np.maximum(1.0 - nodes, -0.5))
        ok = np.array([error is None for error in errors], bool)
        failures = [_node_failure(node, e) for node, e in zip(nodes, errors) if e is not None]
        return np.linalg.inv(self._inverse_jacobian_rows(q[ok])), failures

    def _inverse_rows(self, q: np.ndarray) -> np.ndarray:
        """inverse_demand at every row of q (N, 3), NaN in each row where q1 or
        q2 is <= -1 (where inverse_demand raises), which line searches reject.

        math.log1p, not numpy's, so that each row is the one-point value bit
        for bit.
        """
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

    def _inverse_jacobian_rows(self, q: np.ndarray) -> np.ndarray:
        """inverse_jacobian at every row of q (N, 3)."""
        jac = np.empty((len(q), 3, 3))
        jac[:, 0, 1] = self.b / (1.0 + q[:, 1])
        jac[:, 1, 0] = self.b / (1.0 + q[:, 0])
        jac[:, :2, 2] = self.alpha
        jac[:, 2, :2] = self.gamma
        jac[:, [0, 1, 2], [0, 1, 2]] = -1.0
        return jac

    def portfolio_inverses(self, q, carried):
        return self._inverse_rows(q)

    def portfolio_inverse_jacobians(self, q, p, carried):
        idx = [i - 1 for i in carried]
        return self._inverse_jacobian_rows(q)[:, :, idx][:, idx], np.ones(len(q), bool)

    def portfolio_inverse_hessians(self, q, p, jac, carried):
        # the only curvature: d2P1/dq2^2 = -b/(1+q2)^2 and d2P2/dq1^2 = -b/(1+q1)^2,
        # in Python's float power, so that each row is the one-point value bit for bit
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
    needs G' and G'' from the CDF; both take a stack of rows, and their
    one-point hooks are the one-row case.
    """

    kind = "one_stop"

    def __init__(
        self,
        alpha: Sequence[float],
        beta: Sequence[float],
        cdf: ShoppingCostCdf,
        costs=None,
    ):
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
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
        p = _as_vector(p, self.n, "p")
        traffic = self.cdf(float(np.sum(self.surplus(p))))
        return self.sub_demand(p) * traffic

    def demand_jacobians(self, nodes):
        # the shopping-cost CDFs raise nothing, so every node is usable
        return _fd_jacobians(self._demand_rows, nodes), []

    def _demand_rows(self, p: np.ndarray) -> np.ndarray:
        """demand at every row of p (N, n); the CDF is called once per row."""
        traffic = [self.cdf(float(s)) for s in np.sum(self.surplus(p), axis=1)]
        return self.sub_demand(p) * np.array(traffic)[:, None]

    def inverse_demand(self, q):
        q = _as_vector(q, self.n, "q")
        if np.any(q < 0):
            raise DomainError("quantities must be nonnegative")
        choke = self.alpha / self.beta
        if not np.any(q > 0):
            return choke.copy()

        theta = self._traffic_share(float(np.sum(q * q / (2.0 * self.beta))))
        return (self.alpha - q / theta) / self.beta

    def portfolio_inverse_jacobian(self, q, p, carried):
        jac, ok = self.portfolio_inverse_jacobians(q[None], p[None], carried)
        if not ok[0]:
            raise np.linalg.LinAlgError("the demand Jacobian at these prices has no inverse")
        return jac[0]

    def portfolio_inverse_jacobians(self, q, p, carried):
        # the demand Jacobians at the prices held, by the grid's stacked central
        # differences: inverse_jacobian(q) would solve the traffic again
        priced = np.isfinite(p).all(axis=1)
        slopes = np.full((len(p), self.n, self.n), np.nan)
        slopes[priced] = _fd_jacobians(self._demand_rows, p[priced])
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

    def demand_hessian(self, p, carried):
        hessians, exact = self.demand_hessians(p[None], carried)
        return hessians[0] if exact[0] else None

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
    """Inverse demand supplied as a callback; everything else is numeric."""

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
        self._choke = None if choke is None else _as_vector(choke, n, "choke")

    def inverse_demand(self, q):
        q = _as_vector(q, self.n, "q")
        return np.asarray(self._inverse(q), dtype=float)

    def inverse_jacobian(self, q):
        return _fd_jacobian(self.inverse_demand, _as_vector(q, self.n, "q"))

    def demand_jacobian(self, p):
        p = _as_vector(p, self.n, "p")
        q = self.demand(p)
        return np.linalg.inv(self.inverse_jacobian(q))

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

    @property
    def tolerance(self) -> float:
        return self.block["tolerance"]

    def pair(self, i: int, j: int) -> GrossKind:
        return self.pairs[(min(i, j), max(i, j))]

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
    slopes, failures = model.demand_jacobians(region.nodes())
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
    def weakly_supermodular(self) -> bool:
        return self.kind in (InverseModularityKind.WEAKLY_SUPERMODULAR, InverseModularityKind.BOTH)

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
    where the family has one; differences of inverse_demand give the rest."""
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
                samples[r, col] = _fd_cross_partial(model.inverse_demand, nodes[r], m, i, j)
            except (DomainError, ConvergenceError) as exc:
                skipped.append(f"node {tuple(nodes[r].tolist())} P_{m} d(q{i},q{j}): {exc}")
    return samples, skipped
