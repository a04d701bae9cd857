import math

import numpy as np
import pytest

from mergerfees.portfolios import (
    GrossKind,
    PairKind,
    Portfolio,
    second_difference,
)
from mergerfees.reduced_form import (
    AffineClampedCdf,
    ExponentialCdf,
    PowerCdf,
    ReducedFormMarket,
    ShoppingCostCdf,
    StepCdf,
    TableCdf,
    gross_relations,
    hin_step_cdf,
)
from mergerfees.sampling import random_reduced_form_market
from support import ALL_FAMILIES, all_portfolios, rest_portfolios, saturated_cdf


def exp_market(pi3=10.0):
    return ReducedFormMarket((1.0, 1.0, 1.0), (1.0, 1.0, pi3), ExponentialCdf(1.0))


# ---------------------------------------------------------------------------
# CDF families
# ---------------------------------------------------------------------------


def test_affine_cdf():
    g = AffineClampedCdf(1.0, 3.0)
    assert g(0.5) == 0.0
    assert g(2.0) == 0.5
    assert g(5.0) == 1.0
    with pytest.raises(ValueError):
        AffineClampedCdf(2.0, 2.0)


def test_exponential_cdf():
    g = ExponentialCdf(2.0)
    assert g(0.0) == 0.0
    assert g(1.0) == pytest.approx(1 - math.exp(-2))
    with pytest.raises(ValueError):
        ExponentialCdf(0.0)


def test_power_cdf():
    g = PowerCdf(2.0, 4.0)
    assert g(2.0) == 0.25
    assert g(4.0) == 1.0
    assert g(9.0) == 1.0


def test_step_cdf_right_continuous():
    g = StepCdf([1.0, 2.0])
    assert g(0.999999) == 0.0
    assert g(1.0) == 0.5  # jump counts at the threshold itself
    assert g(1.5) == 0.5
    assert g(2.0) == 1.0
    assert saturated_cdf()(0.0) == 1.0
    weighted = StepCdf([1.0, 2.0], [0.25, 0.75])
    assert weighted(1.5) == 0.25
    with pytest.raises(ValueError):
        StepCdf([1.0], [0.5])
    with pytest.raises(ValueError):
        StepCdf([])


def test_table_cdf_interpolates_monotonically():
    g = TableCdf([(0.0, 0.0), (1.0, 0.4), (3.0, 1.0)])
    assert g(0.5) == pytest.approx(0.2)
    assert g(2.0) == pytest.approx(0.7)
    assert g(10.0) == 1.0
    xs = np.linspace(0, 4, 200)
    vals = [g(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        TableCdf([(0.0, 0.5), (1.0, 0.2)])


def test_all_cdf_families_nondecreasing_in_unit_range():
    rng = np.random.default_rng(0)
    for family in ALL_FAMILIES:
        market = random_reduced_form_market(rng, family, strict=(family != "step"))
        g = market.cdf
        xs = np.linspace(0.0, 1.5 * sum(market.v), 300)
        vals = [g(x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "cdf,kinks",
    [
        (ExponentialCdf(1.3), (0.0,)),
        (AffineClampedCdf(0.4, 2.5), (0.0, 0.4, 2.5)),
        (PowerCdf(2.6, 2.0), (0.0, 2.0)),
        (PowerCdf(0.7, 2.0), (0.0, 2.0)),
    ],
)
def test_cdf_derivatives_match_differences_off_the_kinks(cdf, kinks):
    h = 1e-5
    for s in np.linspace(0.05, 3.0, 40):
        if min(abs(s - k) for k in kinks) < 10 * h:
            continue
        g1, g2 = cdf.derivatives(s)
        assert g1 == pytest.approx((cdf(s + h) - cdf(s - h)) / (2 * h), rel=1e-7, abs=1e-9)
        assert g2 == pytest.approx((cdf(s + h) - 2 * cdf(s) + cdf(s - h)) / (h * h), rel=1e-4, abs=1e-4)
    for s in kinks + (-1.0,):
        assert cdf.derivatives(s) is None


def test_step_and_table_cdfs_have_no_derivatives():
    for cdf in (StepCdf([0.5, 1.5]), TableCdf([(0.0, 0.0), (1.0, 0.6), (2.0, 1.0)])):
        assert all(cdf.derivatives(s) is None for s in (0.25, 0.7, 1.8))


# ---------------------------------------------------------------------------
# Profit, demand, utility
# ---------------------------------------------------------------------------


def test_market_validation():
    with pytest.raises(ValueError):
        ReducedFormMarket((1.0,), (1.0,), ExponentialCdf(1.0))
    with pytest.raises(ValueError):
        ReducedFormMarket((1.0, 0.0), (1.0, 1.0), ExponentialCdf(1.0))
    with pytest.raises(ValueError):
        ReducedFormMarket((1.0, 1.0), (1.0, -2.0), ExponentialCdf(1.0))


def test_profit_examples():
    m = exp_market()
    assert m.profit(Portfolio(3, 0)) == 0.0
    full = Portfolio.full(3)
    assert m.profit(full) == pytest.approx(12 * (1 - math.exp(-3)), abs=1e-14)
    saturated = ReducedFormMarket((1.0, 2.0), (1.5, 2.5), saturated_cdf())
    for x in [Portfolio.from_indices(2, (1,)), Portfolio.full(2)]:
        assert saturated.profit(x) == pytest.approx(x.dot(saturated.pi), abs=0)
    with pytest.raises(ValueError):
        m.profit(Portfolio.full(2))


def test_demand_examples():
    m = ReducedFormMarket((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), ExponentialCdf(1.0))
    x = Portfolio.from_indices(3, (1, 2))
    assert m.demand(3, x) == 0.0
    assert m.demand(1, x) == pytest.approx(1 - math.exp(-2), abs=1e-14)
    sat = ReducedFormMarket((1.0, 1.0), (1.0, 1.0), saturated_cdf())
    assert sat.demand(1, Portfolio.from_indices(2, (1,))) == 1.0
    with pytest.raises(IndexError):
        m.demand(4, x)


def test_demand_monotone_in_partner_inclusion():
    rng = np.random.default_rng(5)
    for family in ALL_FAMILIES:
        m = random_reduced_form_market(rng, family, strict=(family != "step"))
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                for rest in rest_portfolios(3, i, j):
                    base = rest.with_product(i)
                    assert m.demand(i, base.with_product(j)) >= m.demand(i, base) - 1e-15


# ---------------------------------------------------------------------------
# Spillovers, the complementarity condition, loss ratios
# ---------------------------------------------------------------------------


def test_spillover_affine_is_additive():
    m = ReducedFormMarket((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), AffineClampedCdf(0.0, 10.0))
    report = m.spillover()
    assert report.kind is PairKind.ADDITIVE
    assert report.second_difference == pytest.approx(0.0, abs=1e-15)


def test_spillover_exponential_values():
    m = exp_market(pi3=1.0)
    report = m.spillover()
    g = lambda s: 1 - math.exp(-s)
    assert report.values[(0, 0)] == 0.0
    assert report.values[(1, 1)] == pytest.approx(g(3) - g(1), abs=1e-14)
    assert report.values[(1, 0)] == pytest.approx(g(2) - g(1), abs=1e-14)
    assert report.values[(1, 1)] == pytest.approx(0.3181, abs=5e-5)
    assert report.values[(1, 0)] == pytest.approx(0.2326, abs=1e-4)
    assert report.second_difference == pytest.approx(-0.1470, abs=5e-5)
    assert report.kind is PairKind.STRICT_SUBSTITUTES


def test_spillover_hin_is_perfect_substitution():
    v = (1.0, 1.0, 1.0)
    m = ReducedFormMarket(v, (1.0, 1.0, 7.0), hin_step_cdf(v))
    report = m.spillover()
    assert report.second_difference == -7.0  # exactly -pi_3
    assert report.kind is PairKind.STRICT_SUBSTITUTES


def test_spillover_argument_checks():
    m = exp_market()
    with pytest.raises(ValueError):
        m.spillover(pair=(1, 3), target=3)
    with pytest.raises(ValueError):
        m.spillover(background=Portfolio.from_indices(3, (3,)))


def test_spillover_with_background_on_larger_market():
    m = ReducedFormMarket((1.0,) * 4, (1.0,) * 4, ExponentialCdf(1.0))
    report = m.spillover(pair=(1, 2), target=3)  # product 4 carried in the background
    g = lambda s: 1 - math.exp(-s)
    assert report.values[(1, 1)] == pytest.approx(g(4) - g(2), abs=1e-14)


def test_complementarity_condition_without_third_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_reduced_form_market(rng, "exponential")
        cc = m.complementarity_condition(0)
        assert cc.rhs == 0.0
        assert cc.lhs > 0
        assert cc.kind is PairKind.STRICT_COMPLEMENTS


def test_complementarity_condition_affine():
    m = ReducedFormMarket((1.0, 1.0, 1.0), (1.0, 1.0, 5.0), AffineClampedCdf(0.0, 10.0))
    cc = m.complementarity_condition(1)
    assert cc.rhs == pytest.approx(0.0, abs=1e-15)
    assert cc.kind is PairKind.STRICT_COMPLEMENTS


def test_complementarity_condition_exponential_matches_second_difference():
    m = exp_market()
    cc = m.complementarity_condition(1)
    assert cc.lhs == pytest.approx(0.1711, abs=5e-5)
    assert cc.rhs == pytest.approx(1.4700, abs=5e-5)
    assert cc.kind is PairKind.STRICT_SUBSTITUTES
    f = m.profit_function()
    sd = second_difference(f, 1, 2, Portfolio.from_indices(3, (3,)))
    assert cc.lhs - cc.rhs == pytest.approx(sd, abs=1e-12)
    assert sd == pytest.approx(-1.2989, abs=5e-5)


def test_condition_equals_profit_second_difference_for_random_markets():
    rng = np.random.default_rng(17)
    for family in ALL_FAMILIES:
        for _ in range(10):
            m = random_reduced_form_market(rng, family, strict=(family != "step"))
            f = m.profit_function()
            for x3 in (0, 1):
                cc = m.complementarity_condition(x3)
                rest = Portfolio.from_indices(3, (3,) if x3 else ())
                sd = second_difference(f, 1, 2, rest)
                assert cc.lhs - cc.rhs == pytest.approx(sd, abs=1e-12)


def test_loss_ratios_affine_gap_zero():
    m = ReducedFormMarket((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), AffineClampedCdf(0.0, 10.0))
    assert m.loss_ratios().gap == pytest.approx(0.0, abs=1e-15)


def test_loss_ratios_exponential():
    lr = exp_market().loss_ratios()
    assert lr.cl_1 == pytest.approx(0.0855, abs=5e-5)
    assert lr.cl_2 == lr.cl_1
    assert lr.cl_12 == pytest.approx(0.3181, abs=5e-5)
    assert lr.gap == pytest.approx(-0.1470, abs=5e-5)


def test_loss_ratios_hin():
    v = (1.0, 1.0, 1.0)
    lr = ReducedFormMarket(v, (1.0, 1.0, 1.0), hin_step_cdf(v)).loss_ratios()
    assert (lr.cl_1, lr.cl_2, lr.cl_12, lr.gap) == (0.0, 0.0, 1.0, -1.0)


def test_loss_ratio_and_spillover_identities():
    rng = np.random.default_rng(23)
    for family in ALL_FAMILIES:
        for _ in range(10):
            m = random_reduced_form_market(rng, family, strict=(family != "step"))
            lr = m.loss_ratios()
            sp = m.spillover()
            cc = m.complementarity_condition(1)
            pi3 = m.pi[2]
            assert 0.0 <= lr.cl_1 <= lr.cl_12 <= 1.0
            assert 0.0 <= lr.cl_2 <= lr.cl_12
            assert lr.gap * pi3 == pytest.approx(sp.second_difference, abs=1e-12)
            assert sp.second_difference == pytest.approx(-cc.rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# Gross relations from the traffic table
# ---------------------------------------------------------------------------


def brute_force_gross(market, tolerance=1e-12):
    """Reference scan: one ``demand`` call per (pair, rest, order)."""
    n = market.n
    pairs = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            diffs = [
                market.demand(a, rest.with_product(a).with_product(b))
                - market.demand(a, rest.with_product(a))
                for rest in rest_portfolios(n, i, j)
                for a, b in ((i, j), (j, i))
            ]
            hi, lo = max(diffs), min(diffs)
            if lo > tolerance:
                kind = GrossKind.STRICT_GROSS_COMPLEMENTS
            elif hi < -tolerance:
                kind = GrossKind.STRICT_GROSS_SUBSTITUTES
            elif abs(hi) <= tolerance and abs(lo) <= tolerance:
                kind = GrossKind.INDEPENDENT
            else:
                kind = GrossKind.MIXED
            pairs[f"{i},{j}"] = kind.value
    kinds = set(pairs.values())
    if kinds == {GrossKind.STRICT_GROSS_COMPLEMENTS.value}:
        overall = GrossKind.STRICT_GROSS_COMPLEMENTS.value
    elif kinds == {GrossKind.INDEPENDENT.value}:
        overall = GrossKind.INDEPENDENT.value
    else:
        overall = GrossKind.MIXED.value
    return {"overall": overall, "pairs": pairs, "tolerance": tolerance}


def test_traffic_table_is_demand_bit_for_bit():
    rng = np.random.default_rng(41)
    for family in ALL_FAMILIES:
        market = random_reduced_form_market(rng, family, n=6, strict=False)
        table = market.traffic_table()
        assert table.shape == (64,)
        for x in all_portfolios(6):
            assert table[x.mask] == market.cdf(x.dot(market.v))
            for i in x.indices():
                assert table[x.mask] == market.demand(i, x)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_gross_relations_match_brute_force(family):
    rng = np.random.default_rng(43)
    for n in range(2, 9):
        market = random_reduced_form_market(rng, family, n=n, strict=False)
        assert gross_relations(market, market.traffic_table()) == brute_force_gross(market)


def test_gross_relations_step_cdf_with_tied_thresholds():
    # integer surpluses land exactly on the tied thresholds, so some
    # partners move demand and others do not: mixed and independent pairs
    market = ReducedFormMarket(
        (1.0, 2.0, 1.0, 3.0, 1.0), (1.0, 1.0, 2.0, 1.0, 1.0), StepCdf([3.0, 3.0, 5.0], [0.25, 0.25, 0.5])
    )
    got = gross_relations(market, market.traffic_table())
    assert got == brute_force_gross(market)
    assert set(got["pairs"].values()) == {GrossKind.MIXED.value}
    high = ReducedFormMarket((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), StepCdf([4.0, 4.0]))
    assert gross_relations(high, high.traffic_table()) == brute_force_gross(high)
    assert gross_relations(high, high.traffic_table())["overall"] == GrossKind.INDEPENDENT.value


def test_gross_relations_saturated_cdf_is_independent():
    for n in (2, 3, 6):
        market = ReducedFormMarket(tuple(range(1, n + 1)), (1.0,) * n, saturated_cdf())
        got = gross_relations(market, market.traffic_table())
        assert got == brute_force_gross(market)
        assert got["overall"] == GrossKind.INDEPENDENT.value
        assert set(got["pairs"].values()) == {GrossKind.INDEPENDENT.value}


def test_gross_relations_n12_from_sampler():
    market = random_reduced_form_market(np.random.default_rng(4), "exponential", n=12)
    assert sum(market.v) > 60.0  # the draw the sampler's large-market branch covers
    got = gross_relations(market, market.traffic_table())
    assert got == brute_force_gross(market)
    assert got["overall"] == GrossKind.STRICT_GROSS_COMPLEMENTS.value


class FallingTraffic(ShoppingCostCdf):
    """Not a CDF: traffic falls as the portfolio's surplus grows."""

    family = "falling"

    def __call__(self, s):
        return math.exp(-max(s, 0.0))

    def params(self):
        return {}


def test_gross_relations_all_substitutes_overall():
    # the overall verdict is the kind every pair shares, substitutes included
    market = ReducedFormMarket((1.0, 2.0, 0.5), (1.0, 1.0, 1.0), FallingTraffic())
    got = gross_relations(market, market.traffic_table())
    assert set(got["pairs"].values()) == {GrossKind.STRICT_GROSS_SUBSTITUTES.value}
    assert got["overall"] == GrossKind.STRICT_GROSS_SUBSTITUTES.value


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [12, 14, 16])
def test_exponential_sampler_large_markets(n):
    rng = np.random.default_rng(n)
    totals = []
    for _ in range(5):
        market = random_reduced_form_market(rng, "exponential", n=n)
        totals.append(sum(market.v))
        assert 0 < market.cdf.lam * totals[-1] <= 3.0 + 1e-12
    assert max(totals) > 60.0


def test_exponential_sampler_small_draws_unchanged():
    # sum(v) <= 60 keeps the original draw lam ~ U(0.05, 3 / sum(v))
    checked = 0
    for seed in range(40):
        for n in (3, 8, 11):
            market = random_reduced_form_market(np.random.default_rng(seed), "exponential", n=n)
            ref = np.random.default_rng(seed)
            v = ref.uniform(0.1, 10.0, size=n)
            ref.uniform(0.1, 10.0, size=n)
            total = float(np.sum(v))
            if total <= 60.0:
                assert market.cdf.lam == ref.uniform(0.05, 3.0 / total)
                checked += 1
    assert checked > 80
