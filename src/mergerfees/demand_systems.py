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
* inverse_modularity samples the cross partials d2P_m/dq_i dq_j (i != j)
  over a quantity region and reports whether the inverse demands are weakly
  supermodular, weakly submodular, both, or neither.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError
from .portfolios import GROSS_KIND, GrossKind, overall_gross_kind, sign_kind
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

    def nodes(self) -> Iterator[np.ndarray]:
        for combo in itertools.product(*self.axes()):
            yield np.array(combo)


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
        """Quantities at prices p; numeric inversion of P unless overridden."""
        p = _as_vector(p, self.n, "p")
        return self._invert(self.inverse_demand, p, start=np.ones(self.n))

    def inverse_demand(self, q: Sequence[float]) -> np.ndarray:
        raise NotImplementedError

    def demand_jacobian(self, p: Sequence[float]) -> np.ndarray:
        """dD/dp matrix; central finite differences unless overridden."""
        p = _as_vector(p, self.n, "p")
        return _fd_jacobian(self.demand, p)

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
        return full[np.ix_(idx, idx)]

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

    def _invert(
        self,
        forward: Callable[[np.ndarray], np.ndarray],
        target: np.ndarray,
        start: np.ndarray,
        jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Damped Newton solve forward(x) = target.

        ``jacobian`` gives d forward / dx; central differences of
        ``forward`` stand in when it is None.
        """
        x = np.array(start, dtype=float)
        resid = forward(x) - target
        norm = float(np.max(np.abs(resid)))
        for _ in range(INVERSION_STEPS):
            if norm <= INVERSION_TOL:
                return x
            jac = _fd_jacobian(forward, x) if jacobian is None else jacobian(x)
            try:
                step = np.linalg.solve(jac, -resid)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"singular Jacobian during inversion: {exc}") from exc
            scale = 1.0
            for _ in range(40):
                cand = x + scale * step
                try:
                    cand_resid = forward(cand) - target
                except (DomainError, ValueError):
                    scale *= 0.5
                    continue
                cand_norm = float(np.max(np.abs(cand_resid)))
                if cand_norm < norm:
                    x, resid, norm = cand, cand_resid, cand_norm
                    break
                scale *= 0.5
            else:
                raise ConvergenceError(
                    f"inversion stalled at residual {norm:.3e} (target {INVERSION_TOL:.1e})"
                )
        raise ConvergenceError(f"inversion did not converge: residual {norm:.3e}")


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

    def inverse_demand(self, q):
        q = _as_vector(q, 3, "q")
        return self._restricted_inverse(q, (1, 2, 3))

    def inverse_jacobian(self, q):
        q = _as_vector(q, 3, "q")
        return self.portfolio_inverse_jacobian(q, (1, 2, 3))

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
                        raise DomainError(
                            "cross-price slope of product 3 undefined at p1 + p2 >= 2"
                        )
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
        pair = [i for i in (1, 2) if i in carried]
        has3 = 3 in carried
        s = np.full(3, np.nan)
        if len(pair) == 2:
            if has3:
                # (1+b) t^2 - 2 b g t - (q1 + q2 - 2 b q3) = 0,  t = sqrt(s1+s2)
                c0 = q[0] + q[1] - 2.0 * b * q[2]
                disc = (b * g) ** 2 + (1.0 + b) * c0
                if disc < 0:
                    raise DomainError("quantity vector outside the invertible region")
                t = (b * g + math.sqrt(disc)) / (1.0 + b)
                if t < 0:
                    raise DomainError("quantity vector outside the invertible region")
                u = t * t
                delta = (q[0] - q[1]) / (1.0 - b)
                s[0] = 0.5 * (u + delta)
                s[1] = 0.5 * (u - delta)
                s[2] = q[2] - g * t
            else:
                mat = np.array([[1.0, b], [b, 1.0]])
                s[0], s[1] = np.linalg.solve(mat, q[:2])
        elif len(pair) == 1:
            i = pair[0]
            if has3:
                # w^2 - b g w + (b q3 - q_i) = 0,  w = sqrt(s_i)
                disc = (b * g) ** 2 + 4.0 * (q[i - 1] - b * q[2])
                if disc < 0:
                    raise DomainError("quantity vector outside the invertible region")
                w = 0.5 * (b * g + math.sqrt(disc))
                if w < 0:
                    raise DomainError("quantity vector outside the invertible region")
                s[i - 1] = w * w
                s[2] = q[2] - g * w
            else:
                s[i - 1] = q[i - 1]
        else:
            if has3:
                s[2] = q[2]
        p = np.full(3, np.nan)
        for i in carried:
            p[i - 1] = 1.0 - s[i - 1]
        return p

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
        start = np.maximum(1.0 - p, -0.5)
        return self._invert(self.inverse_demand, p, start=start, jacobian=self.inverse_jacobian)

    def demand_jacobian(self, p):
        p = _as_vector(p, 3, "p")
        q = self.demand(p)
        return np.linalg.inv(self.inverse_jacobian(q))

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

    def inverse_demand(self, q):
        q = _as_vector(q, self.n, "q")
        if np.any(q < 0):
            raise DomainError("quantities must be nonnegative")
        choke = self.alpha / self.beta
        if not np.any(q > 0):
            return choke.copy()

        def residual(theta: float) -> float:
            qs = q / theta
            total = float(np.sum(qs * qs / (2.0 * self.beta)))
            return theta - self.cdf(total)

        hi = 1.0
        if residual(hi) < 0:  # cannot happen for a true CDF; guards bad tables
            raise ConvergenceError("traffic equation has no root at theta = 1")
        lo = 1.0
        for _ in range(80):
            lo *= 0.5
            if residual(lo) < 0:
                break
        else:
            raise ConvergenceError("required store traffic is unattainable under this CDF")
        theta = float(brentq(residual, lo, hi, xtol=1e-15, rtol=8.9e-16))
        if abs(residual(theta)) > 1e-9:
            raise ConvergenceError("traffic equation residual too large (discontinuous CDF?)")
        return (self.alpha - q / theta) / self.beta

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
class PairGrossRelation:
    i: int
    j: int
    kind: GrossKind


@dataclass(frozen=True)
class GrossRelationReport:
    pairs: dict[tuple[int, int], PairGrossRelation]
    overall: GrossKind
    tolerance: float
    region: EvaluationRegion
    failures: tuple[str, ...] = ()

    def pair(self, i: int, j: int) -> PairGrossRelation:
        return self.pairs[(min(i, j), max(i, j))]

    def describe(self) -> dict:
        return {
            "overall": self.overall.value,
            "tolerance": self.tolerance,
            "pairs": {
                f"{i},{j}": rel.kind.value for (i, j), rel in sorted(self.pairs.items())
            },
            "failures": list(self.failures),
        }


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
    jacobians = []
    failures: list[str] = []
    for node in region.nodes():
        try:
            jacobians.append(model.demand_jacobian(node))
        except (DomainError, ConvergenceError) as exc:
            failures.append(f"node {tuple(round(float(x), 6) for x in node)}: {exc}")
    if not jacobians:
        raise ConvergenceError(
            "no usable grid node for gross classification; failures: "
            + "; ".join(failures[:3])
        )
    slopes = np.array(jacobians, dtype=float)
    pairs = {}
    for i, j in itertools.combinations(range(model.n), 2):
        # dD_i/dp_j then dD_j/dp_i, node by node; unlike numpy's, the builtin
        # min and max pass over a NaN that is not the first value
        values = np.stack((slopes[:, i, j], slopes[:, j, i]), axis=1).ravel().tolist()
        # a negative cross-price slope means complements, so the slopes enter negated
        kind = GROSS_KIND[sign_kind(-max(values), -min(values), GROSS_TOLERANCE)]
        pairs[(i + 1, j + 1)] = PairGrossRelation(i + 1, j + 1, kind)
    overall = overall_gross_kind(rel.kind for rel in pairs.values())
    return GrossRelationReport(pairs, overall, GROSS_TOLERANCE, region, tuple(failures))


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
    for node in region.nodes():
        coords = tuple(float(x) for x in node)
        for m in range(1, model.n + 1):
            for i, j in itertools.combinations(range(1, model.n + 1), 2):
                try:
                    val = model.inverse_cross_partial(node, m, i, j)
                    if val is None:
                        val = _fd_cross_partial(model.inverse_demand, node, m, i, j)
                except (DomainError, ConvergenceError) as exc:
                    skipped.append(f"node {coords} P_{m} d(q{i},q{j}): {exc}")
                    continue
                sample = ModularitySample(coords, m, i, j, float(val))
                if best_hi is None or sample.value > best_hi.value:
                    best_hi = sample
                if best_lo is None or sample.value < best_lo.value:
                    best_lo = sample
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
