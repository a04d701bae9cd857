"""inverse_modularity's cross partials: exact where the family has an inverse
Hessian, the difference fallback elsewhere, and the nodes it skips."""

import collections
import itertools
import math

import numpy as np
import pytest

from mergerfees import demand_systems
from mergerfees.demand_systems import (
    AppendixBDemand,
    CustomDemand,
    Eq7Demand,
    EvaluationRegion,
    ModularitySample,
    OneStopDemand,
    _cross_partials,
    _fd_cross_partial,
    inverse_modularity,
)
from mergerfees.errors import ConvergenceError, DomainError
from mergerfees.reduced_form import ExponentialCdf, StepCdf
from mergerfees.sampling import random_linear_demand

PARTIALS = [(m, i, j) for m in (1, 2, 3) for i, j in itertools.combinations((1, 2, 3), 2)]
ALPHA, BETA = [1.1, 1.4, 1.9], [1.8, 1.2, 1.9]
TOTAL = float(np.sum(np.square(ALPHA) / (2.0 * np.asarray(BETA))))


def one_stop(cdf):
    return OneStopDemand(ALPHA, BETA, cdf)


def custom_inverse(q):
    if q.sum() > 2.5:
        raise DomainError("outside the custom domain")
    return 1.0 - q + 0.3 * np.sqrt(q[::-1] + 1.0) * q.sum() ** 2


def differenced(model, nodes):
    """Every partial by _fd_cross_partial, node by node, with the skip lines of
    a partial the model rejects."""
    samples = np.full((len(nodes), len(PARTIALS)), np.nan)
    skipped = []
    for r, node in enumerate(nodes):
        for c, (m, i, j) in enumerate(PARTIALS):
            try:
                samples[r, c] = _fd_cross_partial(model.inverse_demand, node, m, i, j)
            except (DomainError, ConvergenceError) as exc:
                skipped.append(f"node {tuple(node.tolist())} P_{m} d(q{i},q{j}): {exc}")
    return samples, skipped


def richardson(model, node, m, i, j):
    """d2P_m/dq_i dq_j at node: central mixed differences at h = 2e-4 and
    1e-4, extrapolated to h = 0."""

    def mixed(h):
        e_i, e_j = h * np.eye(model.n)[i - 1], h * np.eye(model.n)[j - 1]
        corners = [(1, e_i + e_j), (-1, e_i - e_j), (-1, e_j - e_i), (1, -e_i - e_j)]
        return sum(sign * model.inverse_demand(node + step)[m - 1] for sign, step in corners) / (4 * h * h)

    return (4.0 * mixed(1e-4) - mixed(2e-4)) / 3.0


def test_eq7_without_coupling_reads_the_closed_form_spillover_curvature():
    gamma = 0.5
    model = Eq7Demand(0.0, gamma)
    nodes = model.default_quantity_region().nodes()
    samples, skipped = _cross_partials(model, nodes, PARTIALS)
    assert not skipped
    spill = PARTIALS.index((3, 1, 2))
    for node, value in zip(nodes.tolist(), samples[:, spill].tolist()):
        want = -gamma / (4.0 * (node[0] + node[1]) ** 1.5)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)
    # every other partial vanishes, as +0.0 (the implicit-function sum alone gives -0.0)
    others = np.delete(samples, spill, axis=1).ravel().tolist()
    assert all(x == 0.0 and math.copysign(1.0, x) == 1.0 for x in others)
    # ties keep the first sample in (node, m, i, j) order
    report = inverse_modularity(model)
    assert report.most_positive == ModularitySample(tuple(nodes[0].tolist()), 1, 1, 2, 0.0)
    assert math.copysign(1.0, report.most_positive.value) == 1.0


@pytest.mark.parametrize(
    "model", [Eq7Demand(0.2, 0.5), one_stop(ExponentialCdf(1.2 / TOTAL))], ids=["eq7", "one_stop"]
)
def test_exact_extremes_match_a_richardson_reference(model):
    report = inverse_modularity(model)
    for sample in (report.most_negative, report.most_positive):
        want = richardson(model, np.array(sample.node), sample.m, sample.i, sample.j)
        assert sample.value == pytest.approx(want, rel=1e-7, abs=0.0)


@pytest.mark.parametrize(
    "model,region",
    [
        (CustomDemand(3, custom_inverse), EvaluationRegion((0.01,) * 3, (0.99,) * 3, 5)),
        (
            one_stop(StepCdf([0.3 * TOTAL, 0.8 * TOTAL], [0.4, 0.6])),
            EvaluationRegion(tuple(0.01 * np.array(ALPHA)), tuple(0.5 * np.array(ALPHA)), 5),
        ),
    ],
    ids=["custom", "one_stop_step"],
)
def test_families_without_an_exact_form_keep_the_differences(model, region):
    got, got_skipped = _cross_partials(model, region.nodes(), PARTIALS)
    want, want_skipped = differenced(model, region.nodes())
    assert want_skipped and got_skipped == want_skipped
    assert np.array_equal(np.isnan(got), np.isnan(want))
    done = ~np.isnan(want)
    assert done.any()
    assert np.array_equal(got[done].view(np.int64), want[done].view(np.int64))
    assert inverse_modularity(model, region).skipped == tuple(want_skipped)


@pytest.mark.parametrize(
    "model,region,outside,message",
    [
        (
            AppendixBDemand(-0.125, -0.8, -1e-4),
            EvaluationRegion((-1.5, 0.0, 0.0), (0.5, 1.0, 1.0), 5),
            lambda node: node[0] <= -1,
            "need q1 > -1 and q2 > -1 for the log terms",
        ),
        (
            Eq7Demand(0.0, 0.5),
            EvaluationRegion((-0.5, -0.5, 0.1), (0.5, 0.5, 0.9), 3),
            lambda node: node[0] + node[1] <= 0,
            "quantity vector outside the invertible region",
        ),
    ],
    ids=["appendix_b", "eq7"],
)
def test_nodes_outside_the_domain_are_skipped_with_the_models_message(model, region, outside, message):
    report = inverse_modularity(model, region)
    want = [
        f"node {tuple(node)} P_{m} d(q{i},q{j}): {message}"
        for node in region.nodes().tolist()
        if outside(node)
        for m, i, j in PARTIALS
    ]
    assert want and list(report.skipped) == want
    assert not outside(report.most_negative.node) and not outside(report.most_positive.node)


def spy(hook, log):
    def counted(q, *args):
        log.append(len(q))
        return hook(q, *args)

    return counted


@pytest.mark.parametrize(
    "model,exact",
    [
        (random_linear_demand(np.random.default_rng(2), 3, "complements"), True),
        (AppendixBDemand(-0.125, -0.8, -1e-4), True),
        (Eq7Demand(0.2, 0.5), True),
        (one_stop(ExponentialCdf(1.2 / TOTAL)), True),
        (one_stop(StepCdf([0.3 * TOTAL, 0.8 * TOTAL], [0.4, 0.6])), False),
    ],
    ids=["linear", "appendix_b", "eq7", "one_stop_exponential", "one_stop_step"],
)
def test_one_stacked_call_per_hook_and_differences_only_without_an_exact_form(monkeypatch, model, exact):
    base = model.default_quantity_region()
    region = EvaluationRegion(base.lower, base.upper, 5)
    nodes = region.nodes()
    priced = np.isfinite(model.portfolio_inverses(nodes, (1, 2, 3))).all(axis=1)
    rows = collections.defaultdict(list)
    for name in ("portfolio_inverses", "portfolio_inverse_jacobians", "portfolio_inverse_hessians"):
        monkeypatch.setattr(model, name, spy(getattr(model, name), rows[name]))
    differenced_at = []

    def counted_fd(fn, q, m, i, j):
        differenced_at.append(tuple(q.tolist()))
        return _fd_cross_partial(fn, q, m, i, j)

    monkeypatch.setattr(demand_systems, "_fd_cross_partial", counted_fd)
    inverse_modularity(model, region)
    # Jacobians and Hessians only where the prices exist
    assert rows["portfolio_inverses"] == [len(nodes)]
    assert rows["portfolio_inverse_jacobians"] == [priced.sum()]
    assert len(rows["portfolio_inverse_hessians"]) == 1
    assert rows["portfolio_inverse_hessians"][0] <= priced.sum()
    # differences at the nodes without an exact Hessian, one per partial
    without = nodes[~priced] if exact else nodes
    assert differenced_at == [tuple(node) for node in without.tolist() for _ in PARTIALS]
