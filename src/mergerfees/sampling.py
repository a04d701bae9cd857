"""Seeded random one-stop-shopping markets for the prop1 verification suite."""

from __future__ import annotations

import numpy as np

from .reduced_form import (
    AffineClampedCdf,
    ExponentialCdf,
    PowerCdf,
    ReducedFormMarket,
    StepCdf,
    TableCdf,
)

STRICT_FAMILIES = ("affine", "exponential", "power", "table")


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
