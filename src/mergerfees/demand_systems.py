"""Parametric demand / inverse-demand systems for the priced general model.

Each family exposes the demand map D(p), the inverse demand P(q), their
Jacobians, and a portfolio-restricted inverse used by the profit optimizer:
products the retailer does not carry are removed from the system and their
quantities pinned at zero. For families whose inverse demand is an explicit
formula this is just evaluation at the zero-padded quantity vector; for the
square-root-spillover family with cross-price coupling the restricted
subsystem is inverted in closed form instead (the full system has no real
inverse at such corners).

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
  supermodular, weakly submodular, both, or neither.
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
from .reduced_form import ShoppingCostCdf

INVERSION_TOL = 1e-11  # residual ||P(D(p)) - p||_inf target for numeric inversions
INVERSION_STEPS = 80  # Newton steps before a numeric inversion gives up
GROSS_TOLERANCE = 1e-10
MODULARITY_TOLERANCE = 1e-8
FD_STEP = 1e-5  # first-derivative step factor
FD2_STEP = 5e-4  # mixed-second-derivative step factor (roundoff/truncation balance)


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

    def inverse_cross_partial(self, q: np.ndarray, m: int, i: int, j: int) -> float | None:
        """Closed-form d2P_m/dq_i dq_j (1-based, i != j) where available."""
        return None

    # -- portfolio-restricted system (used by the optimizer) ---------------

    def portfolio_inverse(self, q: np.ndarray, carried: tuple[int, ...]) -> np.ndarray:
        """Inverse demand of the carried subsystem at the zero-padded q.

        Default: evaluate the full inverse-demand formula at q (absent
        coordinates are zero, which removes them from formula families).
        Returns the full-length price vector; entries for absent products
        are meaningless and must not be used.
        """
        return self.inverse_demand(q)

    def portfolio_inverse_jacobian(self, q: np.ndarray, carried: tuple[int, ...]) -> np.ndarray:
        """dP_c/dq_c over the carried coordinates at the zero-padded q."""
        full = self.inverse_jacobian(q)
        idx = [i - 1 for i in carried]
        return full[:, idx][idx]

    # -- defaults for diagnostics and optimization -------------------------

    def choke_quantities(self) -> np.ndarray:
        return np.ones(self.n)

    def default_price_region(self) -> EvaluationRegion:
        raise NotImplementedError(f"{self.kind} has no default price region")

    def default_quantity_region(self) -> EvaluationRegion:
        raise NotImplementedError(f"{self.kind} has no default quantity region")

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.n, "costs": self.costs.tolist()}

    # -- helpers ------------------------------------------------------------

    def _inverse_rows(self, q: np.ndarray) -> np.ndarray:
        """inverse_demand at every row of q (N, n)."""
        return np.array([self.inverse_demand(row) for row in q])

    def _inverse_jacobian_rows(self, q: np.ndarray) -> np.ndarray:
        """dP/dq at every row of q (N, n): central differences of _inverse_rows."""
        return _fd_jacobians(self._inverse_rows, q)

    def _candidate_rows(self, q: np.ndarray) -> np.ndarray:
        """_inverse_rows at every row of q (N, n), NaN in each row where the
        model raises DomainError or ValueError."""
        try:
            return self._inverse_rows(q)
        except (DomainError, ValueError):
            if len(q) == 1:
                return np.full(q.shape, np.nan)
        return np.concatenate([self._candidate_rows(q[r : r + 1]) for r in range(len(q))])

    def _invert(self, target: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, list]:
        """Damped Newton solve of P(q) = target at every row of target (N, n).

        Each row takes the steps it takes alone. Returns the (N, n) rows
        reached and each row's ConvergenceError, or None where the row
        converged. A model error at the start or in a Jacobian propagates;
        a line-search candidate the model rejects (NaN from _candidate_rows)
        is halved like one whose residual does not fall.
        """
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
                cand_resid = self._candidate_rows(cand) - target[rows]
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
        q = _as_vector(q, self.n, "q")
        return self.a - self.B @ q

    def demand_jacobian(self, p):
        return -np.linalg.inv(self.B)

    def demand_jacobians(self, nodes):
        return np.broadcast_to(-np.linalg.inv(self.B), (len(nodes), self.n, self.n)), []

    def inverse_jacobian(self, q):
        return -self.B

    def inverse_cross_partial(self, q, m, i, j):
        return 0.0

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
        return self._slopes(_as_vector(p, 3, "p"), (1, 2, 3))

    def demand_jacobians(self, nodes):
        # _slopes of the full system, row by row: -1 on the diagonal, -b
        # across products 1 and 2, -gamma/(2 sqrt(u)) from products 1 and 2
        # to product 3, with u = (1-p1) + (1-p2)
        u = (1.0 - nodes[:, 0]) + (1.0 - nodes[:, 1])
        bad = u <= 0
        slope = -0.5 * self.gamma / np.sqrt(u[~bad])
        jac = np.empty((len(slope), 3, 3))
        jac[:, :2, :] = -self.b
        jac[:, 2, :2] = slope[:, None]
        jac[:, [0, 1, 2], [0, 1, 2]] = -1.0
        return jac, [_node_failure(node, _EQ7_SLOPE_DOMAIN) for node in nodes[bad]]

    def inverse_demand(self, q):
        q = _as_vector(q, 3, "q")
        return self._restricted_inverse(q, (1, 2, 3))

    def inverse_cross_partial(self, q, m, i, j):
        if self.b != 0.0:
            return None  # no closed form; grid scan falls back to differences
        if m == 3 and {i, j} == {1, 2}:
            u = q[0] + q[1]
            if u <= 0:
                raise DomainError("cross partial singular at q1 + q2 = 0")
            return -self.gamma / (4.0 * u ** 1.5)
        return 0.0

    def portfolio_inverse(self, q, carried):
        return self._restricted_inverse(np.asarray(q, dtype=float), carried)

    def portfolio_inverse_jacobian(self, q, carried):
        p = self._restricted_inverse(np.asarray(q, dtype=float), carried)
        return np.linalg.inv(self._slopes(p, carried))

    def _slopes(self, p: np.ndarray, carried: tuple[int, ...]) -> np.ndarray:
        """dD_c/dp_c of the carried subsystem at prices p (absent entries unused)."""
        pair = [i for i in (1, 2) if i in carried]
        b, g = self.b, self.gamma
        k = len(carried)
        jac_d = np.zeros((k, k))
        pos = {prod: idx for idx, prod in enumerate(carried)}
        for prod in carried:
            r = pos[prod]
            if prod in (1, 2):
                for other in carried:
                    jac_d[r, pos[other]] = -1.0 if other == prod else -b
            else:
                if pair:
                    u = sum(1.0 - p[i - 1] for i in pair)
                    if u <= 0:
                        raise DomainError(_EQ7_SLOPE_DOMAIN)
                    slope = -0.5 * g / math.sqrt(u)
                    for i in pair:
                        jac_d[r, pos[i]] = slope
                jac_d[r, r] = -1.0
        return jac_d

    def _restricted_inverse(self, q: np.ndarray, carried: tuple[int, ...]) -> np.ndarray:
        """Invert the subsystem of carried products, quantities of absent
        products pinned at zero. Returns a full-length price vector with
        NaN at absent coordinates.
        """
        if q.shape != (3,):
            raise ValueError(f"q must have shape (3,), got {q.shape}")
        for i in range(3):
            if (i + 1) not in carried and q[i] != 0.0:
                raise ValueError(f"quantity of absent product {i + 1} must be 0")
        b, g = self.b, self.gamma
        pair = [i - 1 for i in (1, 2) if i in carried]
        m = len(pair)
        s = np.full(3, np.nan)
        if 3 in carried and m:
            # (1 + b(m-1)) t^2 - m b g t - (sum of pair q - m b q3) = 0,
            # t = sqrt(sum of pair s)
            a = 1.0 + b * (m - 1)
            c = (q[0] + q[1] if m == 2 else q[pair[0]]) - m * b * q[2]
            disc = (m * b * g) ** 2 + 4.0 * a * c
            if disc < 0:
                raise DomainError("quantity vector outside the invertible region")
            t = (m * b * g + math.sqrt(disc)) / (2.0 * a)
            if t < 0:
                raise DomainError("quantity vector outside the invertible region")
            if m == 2:
                delta = (q[0] - q[1]) / (1.0 - b)
                s[0] = 0.5 * (t * t + delta)
                s[1] = 0.5 * (t * t - delta)
            else:
                s[pair[0]] = t * t
            s[2] = q[2] - g * t
        elif m == 2:
            s[0], s[1] = np.linalg.solve(np.array([[1.0, b], [b, 1.0]]), q[:2])
        else:
            for i in carried:
                s[i - 1] = q[i - 1]
        return 1.0 - s

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
        b, g, a = self.b, self.gamma, self.alpha
        return np.array(
            [
                1.0 - q[0] + b * math.log1p(q[1]) + a * q[2],
                1.0 - q[1] + b * math.log1p(q[0]) + a * q[2],
                1.0 - q[2] + g * (q[0] + q[1]),
            ]
        )

    def inverse_jacobian(self, q):
        q = _as_vector(q, 3, "q")
        b, g, a = self.b, self.gamma, self.alpha
        return np.array(
            [
                [-1.0, b / (1.0 + q[1]), a],
                [b / (1.0 + q[0]), -1.0, a],
                [g, g, -1.0],
            ]
        )

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
        """inverse_demand at every row of q (N, 3), NaN where q1 or q2 is <= -1
        (where inverse_demand raises), which _invert's line search rejects.

        math.log1p, not numpy's, so that each row is inverse_demand's value
        bit for bit.
        """
        b, g, a = self.b, self.gamma, self.alpha
        log1p = np.array(
            [math.log1p(x) if x > -1 else math.nan for x in q[:, :2].ravel().tolist()]
        ).reshape(-1, 2)
        return np.column_stack(
            (
                1.0 - q[:, 0] + b * log1p[:, 1] + a * q[:, 2],
                1.0 - q[:, 1] + b * log1p[:, 0] + a * q[:, 2],
                1.0 - q[:, 2] + g * (q[:, 0] + q[:, 1]),
            )
        )

    def _inverse_jacobian_rows(self, q: np.ndarray) -> np.ndarray:
        """inverse_jacobian at every row of q (N, 3)."""
        jac = np.empty((len(q), 3, 3))
        jac[:, 0, 1] = self.b / (1.0 + q[:, 1])
        jac[:, 1, 0] = self.b / (1.0 + q[:, 0])
        jac[:, :2, 2] = self.alpha
        jac[:, 2, :2] = self.gamma
        jac[:, [0, 1, 2], [0, 1, 2]] = -1.0
        return jac

    def inverse_cross_partial(self, q, m, i, j):
        return 0.0

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

        # theta - G(k / theta^2) rises strictly in theta (G is nondecreasing), so halving
        # [0, 1] down to adjacent floats leaves hi the smallest theta with residual >= 0
        k = float(np.sum(q * q / (2.0 * self.beta)))

        def residual(theta: float) -> float:
            return theta - self.cdf(k / (theta * theta))

        if residual(1.0) < 0:  # cannot happen for a true CDF; guards bad tables
            raise ConvergenceError("traffic equation has no root at theta = 1")
        lo, hi = 0.0, 1.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if mid < 2.0**-80:
                raise ConvergenceError("required store traffic is unattainable under this CDF")
            if residual(mid) < 0:
                lo = mid
            else:
                hi = mid
        if residual(hi) > 1e-9:
            raise ConvergenceError("traffic equation residual too large (discontinuous CDF?)")
        return (self.alpha - q / hi) / self.beta

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
    Singular nodes are reported and skipped.
    """
    if region is None:
        region = model.default_quantity_region()
    if region.dim != model.n:
        raise ValueError(f"region dimension {region.dim} != product count {model.n}")
    best_hi: ModularitySample | None = None
    best_lo: ModularitySample | None = None
    skipped: list[str] = []
    partials = [
        (m, i, j)
        for m in range(1, model.n + 1)
        for i, j in itertools.combinations(range(1, model.n + 1), 2)
    ]
    for node in region.nodes():
        for m, i, j in partials:
            try:
                val = model.inverse_cross_partial(node, m, i, j)
                if val is None:
                    val = _fd_cross_partial(model.inverse_demand, node, m, i, j)
            except (DomainError, ConvergenceError) as exc:
                skipped.append(f"node {tuple(node.tolist())} P_{m} d(q{i},q{j}): {exc}")
                continue
            # a sample is built only when it is a new extreme; ties keep the first
            val = float(val)
            if best_hi is None or val > best_hi.value:
                best_hi = ModularitySample(tuple(node.tolist()), m, i, j, val)
            if best_lo is None or val < best_lo.value:
                best_lo = ModularitySample(tuple(node.tolist()), m, i, j, val)
    if best_hi is None or best_lo is None:
        raise ConvergenceError("no usable grid node for inverse modularity")
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
