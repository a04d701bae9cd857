"""Seeded random generators for property suites and counterexample searches."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .demand_systems import Eq7Demand, LinearDemand
from .portfolios import Portfolio, SetFunction
from .reduced_form import (
    AffineClampedCdf,
    ExponentialCdf,
    PowerCdf,
    ReducedFormMarket,
    StepCdf,
    TableCdf,
)

STRICT_FAMILIES = ("affine", "exponential", "power", "table")
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


def random_reduced_form_market(
    rng: np.random.Generator,
    family: str = "exponential",
    n: int = 3,
    strict: bool = True,
) -> ReducedFormMarket:
    """Market with v, pi drawn from [0.1, 10] and a CDF of the given family.

    With strict=True the CDF parameters are chosen so G is strictly
    increasing on [0, sum(v)] (the step family does not qualify and is
    rejected).
    """
    v = rng.uniform(0.1, 10.0, size=n)
    pi = rng.uniform(0.1, 10.0, size=n)
    total = float(np.sum(v))
    if family == "affine":
        cdf = AffineClampedCdf(0.0, total * rng.uniform(1.05, 2.0))
    elif family == "exponential":
        # lam * sum(v) <= 3 keeps G(sum(v)) below saturation; past sum(v) = 60
        # the lower bound 0.05 would exceed that cap, so there it is 1 / sum(v)
        cdf = ExponentialCdf(rng.uniform(0.05 if total <= 60.0 else 1.0 / total, 3.0 / total))
    elif family == "power":
        cdf = PowerCdf(rng.uniform(0.5, 3.0), total * rng.uniform(1.05, 2.0))
    elif family == "table":
        knots = np.sort(rng.uniform(0.0, total, size=3))
        xs = np.concatenate([[0.0], knots + 1e-6 * np.arange(1, 4), [total * 1.1]])
        xs = np.unique(xs)
        levels = np.sort(rng.uniform(0.05, 0.95, size=len(xs) - 2))
        ys = np.concatenate([[0.0], levels, [1.0]])
        cdf = TableCdf(list(zip(xs, ys)))
    elif family == "step":
        if strict:
            raise ValueError("step CDFs are not strictly increasing")
        count = int(rng.integers(1, 4))
        cdf = StepCdf(sorted(rng.uniform(0.0, total, size=count)))
    else:
        raise ValueError(f"unknown CDF family {family!r}")
    return ReducedFormMarket(tuple(v), tuple(pi), cdf)


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
