"""One-stop-shopping market with reduced-form payoffs.

Consumers with heterogeneous shopping costs (CDF G) visit a monopoly
retailer iff the surplus of the carried portfolio exceeds their cost.
Carrying portfolio x earns the retailer (x . pi) * G(x . v): every product
pulls traffic for every other one, so all products are gross complements
in demand, yet a pair can still be substitutes *in profits* through the
spillovers it creates for the rest of the lineup.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .portfolios import PairKind, Portfolio, SetFunction, gross_verdicts, sign_kind

TRAFFIC_TOLERANCE = 1e-12  # dead zone of gross_relations, in store-traffic shares


class ShoppingCostCdf:
    """Distribution of shopping costs: nondecreasing, values in [0, 1].

    Subclasses implement __call__ for s >= 0 (negative arguments are
    clamped to 0 so G(x . v) is always defined).
    """

    family = "base"

    def __call__(self, s: float) -> float:
        raise NotImplementedError

    def derivatives(self, s: float) -> tuple[float, float] | None:
        """(G'(s), G''(s)) where G is twice differentiable at s, else None.

        Default: None everywhere. Every family clamps s at 0, so s <= 0 is a
        kink of each one.
        """
        return None

    def params(self) -> dict:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"family": self.family, **self.params()}


@dataclass(frozen=True)
class AffineClampedCdf(ShoppingCostCdf):
    """G(s) = clamp((s - a) / (b - a), 0, 1). Affine on [a, b]."""

    a: float
    b: float
    family = "affine"

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"need b > a, got a={self.a}, b={self.b}")

    def __call__(self, s: float) -> float:
        s = max(s, 0.0)
        return min(max((s - self.a) / (self.b - self.a), 0.0), 1.0)

    def derivatives(self, s):
        if s <= 0 or s == self.a or s == self.b:
            return None
        return (1.0 / (self.b - self.a) if self.a < s < self.b else 0.0), 0.0

    def params(self) -> dict:
        return {"a": self.a, "b": self.b}


@dataclass(frozen=True)
class ExponentialCdf(ShoppingCostCdf):
    """G(s) = 1 - exp(-lam * s). Strictly increasing and strictly concave."""

    lam: float
    family = "exponential"

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"rate must be positive, got {self.lam}")

    def __call__(self, s: float) -> float:
        s = max(s, 0.0)
        return 1.0 - math.exp(-self.lam * s)

    def derivatives(self, s):
        if s <= 0:
            return None
        tail = math.exp(-self.lam * s)
        return self.lam * tail, -self.lam * self.lam * tail

    def params(self) -> dict:
        return {"lam": self.lam}


@dataclass(frozen=True)
class PowerCdf(ShoppingCostCdf):
    """G(s) = clamp((s / s_bar)^k, 0, 1). Convex on [0, s_bar] for k > 1."""

    k: float
    s_bar: float
    family = "power"

    def __post_init__(self):
        if self.k <= 0 or self.s_bar <= 0:
            raise ValueError(f"need k > 0 and s_bar > 0, got k={self.k}, s_bar={self.s_bar}")

    def __call__(self, s: float) -> float:
        s = max(s, 0.0)
        if s >= self.s_bar:
            return 1.0
        return (s / self.s_bar) ** self.k

    def derivatives(self, s):
        if s <= 0 or s == self.s_bar:
            return None
        if s > self.s_bar:
            return 0.0, 0.0
        k, x = self.k, s / self.s_bar
        return k * x ** (k - 1) / self.s_bar, k * (k - 1) * x ** (k - 2) / self.s_bar**2

    def params(self) -> dict:
        return {"k": self.k, "s_bar": self.s_bar}


class StepCdf(ShoppingCostCdf):
    """Right-continuous step function: G jumps by weight w_k at threshold t_k.

    Ties between thresholds are allowed (weights merge). A single threshold
    at 0 gives the saturated CDF G = 1.
    """

    family = "step"

    def __init__(self, thresholds: Sequence[float], weights: Sequence[float] | None = None):
        pts = [float(t) for t in thresholds]
        if not pts:
            raise ValueError("need at least one threshold")
        if any(t < 0 for t in pts):
            raise ValueError("thresholds must be >= 0")
        if weights is None:
            w = [1.0 / len(pts)] * len(pts)
        else:
            w = [float(x) for x in weights]
            if len(w) != len(pts):
                raise ValueError("weights and thresholds must have equal length")
            if any(x < 0 for x in w) or not math.isclose(sum(w), 1.0, abs_tol=1e-12):
                raise ValueError("weights must be nonnegative and sum to 1")
        order = sorted(range(len(pts)), key=lambda k: pts[k])
        self.thresholds = tuple(pts[k] for k in order)
        self.weights = tuple(w[k] for k in order)
        cum = []
        acc = 0.0
        for x in self.weights:
            acc += x
            cum.append(min(acc, 1.0))  # rounding in the weights never lifts G above 1
        self._cum = tuple(cum)

    def __call__(self, s: float) -> float:
        s = max(s, 0.0)
        # right-continuous: thresholds exactly at s count as reached
        k = bisect.bisect_right(self.thresholds, s)
        return self._cum[k - 1] if k else 0.0

    def params(self) -> dict:
        return {"thresholds": list(self.thresholds), "weights": list(self.weights)}


class TableCdf(ShoppingCostCdf):
    """Monotone piecewise-linear interpolation of (s_k, G_k) breakpoints."""

    family = "table"

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = sorted((float(s), float(g)) for s, g in points)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        for (s0, g0), (s1, g1) in zip(pts, pts[1:]):
            if s1 <= s0:
                raise ValueError("breakpoint abscissae must be strictly increasing")
            if g1 < g0:
                raise ValueError("breakpoint values must be nondecreasing")
        if pts[0][1] < 0 or pts[-1][1] > 1:
            raise ValueError("breakpoint values must lie in [0, 1]")
        self.points = tuple(pts)
        self._xs = tuple(p[0] for p in pts)
        self._ys = tuple(p[1] for p in pts)

    def __call__(self, s: float) -> float:
        s = max(s, 0.0)
        if s <= self._xs[0]:
            return self._ys[0]
        if s < self._xs[-1]:
            k = bisect.bisect_right(self._xs, s)
            x0, x1 = self._xs[k - 1], self._xs[k]
            y0, y1 = self._ys[k - 1], self._ys[k]
            return y0 + (y1 - y0) * (s - x0) / (x1 - x0)
        return self._ys[-1] if s >= self._xs[-1] else math.nan  # NaN fails every comparison

    def params(self) -> dict:
        return {"points": [list(p) for p in self.points]}


def saturated_cdf() -> StepCdf:
    """G = 1 everywhere: every consumer shops regardless of portfolio."""
    return StepCdf([0.0])


def hin_step_cdf(v: Sequence[float]) -> StepCdf:
    """Single-step CDF under which products 1 and 2 are perfect substitutes
    in the spillovers they create for product 3.

    The threshold sits so that every consumer tolerates one missing pair
    member but nobody shops on product 3 alone:
    G = 1 at min(v_1, v_2) + v_3 and above, G = 0 at v_3.
    """
    lo = v[2]
    hi = min(v[0], v[1]) + v[2]
    if not hi > lo:
        raise ValueError("pair surpluses must be positive")
    return StepCdf([(lo + hi) / 2.0])


@dataclass(frozen=True)
class SpilloverReport:
    """Profit spillovers the pair creates for a target product.

    values[(x_i, x_j)] is the change in the target's profit relative to
    carrying neither pair member, so values[(0, 0)] == 0 by construction.
    """

    pair: tuple[int, int]
    target: int
    values: dict[tuple[int, int], float]
    second_difference: float
    kind: PairKind

    def describe(self) -> dict:
        return {
            "pair": list(self.pair),
            "target": self.target,
            "values": {f"{a}{b}": v for (a, b), v in sorted(self.values.items())},
            "second_difference": self.second_difference,
            "kind": self.kind.value,
        }


@dataclass(frozen=True)
class ComplementarityCondition:
    """Two sides of the profit-complementarity inequality for a pair.

    lhs collects the pair's own traffic gains, rhs the crowding of the
    spillovers they generate for the third product; lhs - rhs equals the
    profit second difference exactly.
    """

    x3: int
    lhs: float
    rhs: float
    kind: PairKind

    def describe(self) -> dict:
        return {"x3": self.x3, "lhs": self.lhs, "rhs": self.rhs, "kind": self.kind.value}


@dataclass(frozen=True)
class LossRatioReport:
    """Consumer loss ratios: store traffic lost when products are pulled.

    cl_1 and cl_2 are the single-product loss ratios of the pair, cl_12 the
    joint one; gap = cl_1 + cl_2 - cl_12 signs the pair's role in spillovers
    (positive: complements in spillovers, negative: substitutes).
    """

    cl_1: float
    cl_2: float
    cl_12: float
    gap: float

    def describe(self) -> dict:
        return {"cl_1": self.cl_1, "cl_2": self.cl_2, "cl_12": self.cl_12, "gap": self.gap}


def _subset_sums(values: Sequence[float]) -> np.ndarray:
    """x . values for all 2^n portfolios x, indexed by bitmask.

    Each sum adds values[k] in increasing k, as ``Portfolio.dot`` does, so
    every entry equals it bit for bit.
    """
    sums = np.zeros(1 << len(values))
    with np.errstate(over="ignore"):  # an infinite sum ends as a non-finite profit
        for k, x in enumerate(values):
            sums[1 << k : 2 << k] = sums[: 1 << k] + x
    return sums


@dataclass(frozen=True)
class ReducedFormMarket:
    """n products with per-product surplus v_i > 0, margin pi_i > 0, and CDF G."""

    v: tuple[float, ...]
    pi: tuple[float, ...]
    cdf: ShoppingCostCdf

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        object.__setattr__(self, "pi", tuple(float(x) for x in self.pi))
        if len(self.v) != len(self.pi):
            raise ValueError("v and pi must have equal length")
        if len(self.v) < 2:
            raise ValueError("need at least two products")
        if any(x <= 0 for x in self.v):
            raise ValueError("all surplus values must be positive")
        if any(x <= 0 for x in self.pi):
            raise ValueError("all margins must be positive")

    @property
    def n(self) -> int:
        return len(self.v)

    def describe(self) -> dict:
        return {
            "kind": "reduced_form",
            "n": self.n,
            "v": list(self.v),
            "pi": list(self.pi),
            "cdf": self.cdf.describe(),
        }

    def profit(self, x: Portfolio) -> float:
        """(x . pi) * G(x . v): margin per visitor times store traffic."""
        if x.n != self.n:
            raise ValueError(f"portfolio has {x.n} products, market has {self.n}")
        return x.dot(self.pi) * self.cdf(x.dot(self.v))

    def profit_function(self, traffic: np.ndarray | None = None) -> SetFunction:
        """The profit oracle, evaluating ``profit`` at each portfolio when first read.

        Given ``traffic_table()``, its cache is seeded with the profit table
        margin * traffic instead: margins are summed like the surpluses, so
        every entry is the float ``profit`` returns. Non-finite entries stay
        unseeded and raise DomainError when read.
        """
        oracle = SetFunction(self.n, self.profit, name="reduced_form_profit")
        if traffic is not None:
            with np.errstate(invalid="ignore"):  # inf * 0 is a nan profit, left unseeded
                oracle.seed_cache(_subset_sums(self.pi) * traffic)
        return oracle

    def demand(self, i: int, x: Portfolio) -> float:
        """Fraction of consumers buying product i: x_i * G(x . v)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"product index {i} out of range 1..{self.n}")
        if x.n != self.n:
            raise ValueError(f"portfolio has {x.n} products, market has {self.n}")
        if not x.contains(i):
            return 0.0
        return self.cdf(x.dot(self.v))

    def traffic_table(self) -> np.ndarray:
        """Store traffic G(x . v) of all 2^n portfolios, indexed by bitmask.

        Surpluses come from ``_subset_sums``, so each equals ``Portfolio.dot``
        bit for bit, and G is the scalar CDF once per portfolio: every entry
        is the float ``demand`` returns. ``profit_function(traffic)`` seeds
        the profit oracle's cache from this table.
        """
        return np.array([self.cdf(s) for s in _subset_sums(self.v).tolist()])

    def consumer_utility(self, x: Portfolio, xi: float) -> float:
        """max(x . v - xi, 0) for a consumer with shopping cost xi >= 0."""
        if xi < 0:
            raise ValueError("shopping cost must be >= 0")
        return max(x.dot(self.v) - xi, 0.0)

    def spillover(
        self,
        pair: tuple[int, int] = (1, 2),
        target: int = 3,
        background: Portfolio | None = None,
    ) -> SpilloverReport:
        """Profit spillovers of the pair onto the target product.

        S(x_i, x_j) = pi_t * [G(x_i v_i + x_j v_j + v_t + B) - G(v_t + B)]
        where B is the surplus of the background products (all remaining
        products when not given). The pair's relation *in spillovers* is the
        sign of the second difference of S.
        """
        i, j = pair
        if target in pair:
            raise ValueError("target must differ from both pair members")
        for k in (i, j, target):
            if not 1 <= k <= self.n:
                raise IndexError(f"product index {k} out of range 1..{self.n}")
        if background is None:
            background = Portfolio.from_indices(
                self.n, [k for k in range(1, self.n + 1) if k not in (i, j, target)]
            )
        elif background.contains(i) or background.contains(j) or background.contains(target):
            raise ValueError("background must exclude the pair and the target")
        base = self.v[target - 1] + background.dot(self.v)
        pi_t = self.pi[target - 1]
        g0 = self.cdf(base)
        values = {
            (a, b): pi_t * (self.cdf(base + a * self.v[i - 1] + b * self.v[j - 1]) - g0)
            for a in (0, 1)
            for b in (0, 1)
        }
        sd = values[(1, 1)] - values[(1, 0)] - values[(0, 1)] + values[(0, 0)]
        return SpilloverReport((i, j), target, values, sd, sign_kind(sd, sd))

    def complementarity_condition(self, x3: int) -> ComplementarityCondition:
        """Profit-complementarity test for pair (1, 2) in a 3-product market.

        lhs > rhs means the pair are strict complements in profits; the
        difference lhs - rhs is algebraically the profit second difference
        at rest portfolio {3: x3}.
        """
        if self.n != 3:
            raise ValueError("complementarity condition is defined for 3-product markets")
        if x3 not in (0, 1):
            raise ValueError("x3 must be 0 or 1")
        v1, v2, v3 = self.v
        p1, p2, p3 = self.pi
        g = self.cdf
        top = g(v1 + v2 + x3 * v3)
        lhs = p1 * (top - g(v1 + x3 * v3)) + p2 * (top - g(v2 + x3 * v3))
        rhs = x3 * p3 * (g(v1 + x3 * v3) + g(v2 + x3 * v3) - top - g(x3 * v3))
        return ComplementarityCondition(x3, lhs, rhs, sign_kind(lhs - rhs, lhs - rhs))

    def loss_ratios(self) -> LossRatioReport:
        """Loss ratios for pulling product 1, product 2, or both (3 products).

        All products carried at baseline. gap * pi_3 equals the spillover
        second difference exactly.
        """
        if self.n != 3:
            raise ValueError("loss ratios are defined for 3-product markets")
        v1, v2, v3 = self.v
        g = self.cdf
        top = g(v1 + v2 + v3)
        cl_1 = top - g(v2 + v3)
        cl_2 = top - g(v1 + v3)
        cl_12 = top - g(v3)
        return LossRatioReport(cl_1, cl_2, cl_12, cl_1 + cl_2 - cl_12)


def gross_relations(market: ReducedFormMarket, traffic: np.ndarray) -> dict:
    """Sign of demand changes when the partner product joins the portfolio.

    A carried product's demand is the store traffic, so for pair (i, j) the
    changes over the 2^(n-2) rest portfolios are T[rest+i+j] - T[rest+i]
    (demand for i as j joins) and T[rest+i+j] - T[rest+j], all read off the
    market's ``traffic_table``: 2^n CDF evaluations for every pair at once.
    """
    n = market.n
    masks = np.arange(1 << n)
    extremes = {}
    for i in range(1, n + 1):
        bit_i = 1 << (i - 1)
        for j in range(i + 1, n + 1):
            bit_j = 1 << (j - 1)
            rest = masks[(masks & (bit_i | bit_j)) == 0]
            both = traffic[rest | bit_i | bit_j]
            diffs = np.concatenate((both - traffic[rest | bit_i], both - traffic[rest | bit_j]))
            extremes[(i, j)] = (diffs.min(), diffs.max())
    return gross_verdicts(extremes, TRAFFIC_TOLERANCE)[2]
