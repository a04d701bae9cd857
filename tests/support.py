"""Helpers that only the tests use: seeded model and set-function draws,
portfolio enumerations, the saturated CDF, a fee-change measure, and the
optimizer's multistart on the box max_profit gives it."""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from mergerfees import optimize
from mergerfees.bargaining import MergerReport
from mergerfees.demand_systems import DemandModel, Eq7Demand, LinearDemand
from mergerfees.optimize import OptimizerConfig, OptResult
from mergerfees.portfolios import Portfolio, SetFunction, _rest_masks
from mergerfees.reduced_form import StepCdf
from mergerfees.sampling import STRICT_FAMILIES

ALL_FAMILIES = STRICT_FAMILIES + ("step",)


def random_linear_demand(
    rng: np.random.Generator,
    n: int = 2,
    relation: str = "complements",
) -> LinearDemand:
    """Diagonally dominant linear system with uniformly signed cross effects.

    relation='complements' draws negative off-diagonal slopes (so demand
    cross-price slopes are negative), 'substitutes' positive ones. The
    dominance margin keeps every sub-portfolio optimum interior.
    """
    if relation not in ("complements", "substitutes"):
        raise ValueError("relation must be 'complements' or 'substitutes'")
    sign = -1.0 if relation == "complements" else 1.0
    diag = rng.uniform(1.0, 2.0, size=n)
    B = np.diag(diag)
    for i in range(n):
        for j in range(n):
            if i != j:
                B[i, j] = sign * rng.uniform(0.05, 0.45)
    # cap row mass so B stays diagonally dominant with margin
    for i in range(n):
        row = np.abs(B[i]).sum() - diag[i]
        limit = 0.8 * diag[i]
        if row > limit:
            for j in range(n):
                if j != i:
                    B[i, j] *= limit / row
    a = rng.uniform(0.8, 1.2, size=n)
    return LinearDemand(a, B, costs=np.zeros(n))


def random_monotone_set_function(rng: np.random.Generator, n: int = 3) -> SetFunction:
    """Monotone nondecreasing set function mixing additive, bundle-bonus and
    concave-coverage terms, so both complement- and substitute-like pairs
    occur."""
    weights = rng.uniform(0.0, 2.0, size=n)
    cover = rng.uniform(0.1, 2.0, size=n)
    amp = rng.uniform(0.0, 2.0)
    bundles: list[tuple[tuple[int, ...], float]] = []
    for _ in range(int(rng.integers(0, 3))):
        size = int(rng.integers(2, n + 1))
        members = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False)))
        bundles.append((members, float(rng.uniform(0.0, 1.5))))

    def evaluate(x: Portfolio) -> float:
        val = x.dot(weights) + amp * math.sqrt(x.dot(cover))
        for members, bonus in bundles:
            if all(x.contains(i) for i in members):
                val += bonus
        return val

    return SetFunction(n, evaluate, name="random_monotone")


def eq7_sampler(
    b_range: tuple[float, float], gamma_range: tuple[float, float]
) -> Callable[[np.random.Generator], Eq7Demand]:
    """Parameter sampler over the square-root-spillover family."""

    def make(rng: np.random.Generator) -> Eq7Demand:
        return Eq7Demand(rng.uniform(*b_range), rng.uniform(*gamma_range))

    return make


def additive_function(weights: Sequence[float]) -> SetFunction:
    w = tuple(float(x) for x in weights)
    return SetFunction(len(w), lambda x: x.dot(w), name="additive")


def all_portfolios(n: int) -> Iterator[Portfolio]:
    for mask in range(1 << n):
        yield Portfolio(n, mask)


def rest_portfolios(n: int, i: int, j: int) -> Iterator[Portfolio]:
    """All 2^(n-2) portfolios over the products other than i and j.

    Yielded portfolios live on the same n-product index space with bits
    i and j forced off, in the order classify_pair reads them.
    """
    for mask in _rest_masks(n, i, j):
        yield Portfolio(n, mask)


def saturated_cdf() -> StepCdf:
    """G = 1 everywhere: every consumer shops regardless of portfolio."""
    return StepCdf([0.0])


def max_non_merging_change(report: MergerReport) -> float:
    """The largest change a merger makes to the fee of a firm outside the pair."""
    return max(
        (abs(report.non_merging_post[f] - v) for f, v in report.non_merging_pre.items()),
        default=0.0,
    )


def multistart(model: DemandModel, x: Portfolio, cfg: OptimizerConfig) -> OptResult:
    """max_profit's multistart fallback, on the box max_profit hands it."""
    return optimize._multistart(model, x, cfg, optimize._box(model, x.indices(), cfg))
