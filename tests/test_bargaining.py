import math
from itertools import combinations

import numpy as np
import pytest

from mergerfees.bargaining import (
    BargainingEnv,
    OwnershipStructure,
    merger_report,
    nash_in_nash,
    shapley_fees,
)
from mergerfees.optimize import OptimizerConfig, profit_oracle
from mergerfees.demand_systems import Eq7Demand
from mergerfees.portfolios import (
    Portfolio,
    SetFunction,
    additive_function,
    second_difference,
)
from mergerfees.reduced_form import ExponentialCdf, ReducedFormMarket
from mergerfees.sampling import (
    ALL_FAMILIES,
    random_monotone_set_function,
    random_reduced_form_market,
)


def exp_market_oracle():
    market = ReducedFormMarket((1.0, 1.0, 1.0), (1.0, 1.0, 10.0), ExponentialCdf(1.0))
    return market.profit_function()


# ---------------------------------------------------------------------------
# Ownership
# ---------------------------------------------------------------------------


def test_ownership_validation():
    OwnershipStructure.from_groups(3, [[1, 2], [3]])
    with pytest.raises(ValueError):
        OwnershipStructure.from_groups(3, [[1, 2]])  # supplier 3 unassigned
    with pytest.raises(ValueError):
        OwnershipStructure.from_groups(3, [[1, 2], [2, 3]])  # overlap
    with pytest.raises(IndexError):
        OwnershipStructure.from_groups(2, [[1], [5]])
    with pytest.raises(ValueError):
        OwnershipStructure.from_groups(2, [[1], [], [2]])


def test_ownership_merge():
    own = OwnershipStructure.singletons(3).merge(1, 2)
    assert frozenset([1, 2]) in own.firms
    assert frozenset([3]) in own.firms
    with pytest.raises(ValueError):
        own.merge(1, 2)


# ---------------------------------------------------------------------------
# Nash-in-Nash
# ---------------------------------------------------------------------------


def test_nash_in_nash_additive_oracle():
    env = BargainingEnv(0.5, OwnershipStructure.singletons(2), additive_function((1.0, 2.0)))
    fees = nash_in_nash(env)
    assert fees.fee_of(1) == pytest.approx(0.5, abs=1e-15)
    assert fees.fee_of(2) == pytest.approx(1.0, abs=1e-15)
    assert fees.retailer_net == pytest.approx(1.5, abs=1e-15)


def test_nash_in_nash_three_product_exponential():
    env = BargainingEnv(0.5, OwnershipStructure.singletons(3), exp_market_oracle())
    fees = nash_in_nash(env)
    pair_total = fees.fee_of(1) + fees.fee_of(2)
    expected = 0.5 * (
        2 * 12 * (1 - math.exp(-3)) - 2 * 11 * (1 - math.exp(-2))
    )
    assert pair_total == pytest.approx(expected, abs=1e-12)
    assert pair_total == pytest.approx(1.890, abs=2e-3)


def test_nash_in_nash_conglomerate_fee():
    env = BargainingEnv(0.5, OwnershipStructure.from_groups(3, [[1, 2], [3]]), exp_market_oracle())
    fees = nash_in_nash(env)
    expected = 0.5 * (12 * (1 - math.exp(-3)) - 10 * (1 - math.exp(-1)))
    assert fees.fee_of(1, 2) == pytest.approx(expected, abs=1e-12)
    assert fees.fee_of(1, 2) == pytest.approx(2.541, abs=1e-3)
    # budget balance
    assert fees.retailer_net + fees.total_fees == pytest.approx(
        12 * (1 - math.exp(-3)), abs=1e-12
    )


def test_supplier_attribution_defined_for_singletons_only():
    env = BargainingEnv(0.5, OwnershipStructure.from_groups(3, [[1, 2], [3]]), exp_market_oracle())
    attribution = nash_in_nash(env).supplier_attribution()
    assert attribution[1] is None and attribution[2] is None
    assert attribution[3] is not None


def test_env_validation():
    with pytest.raises(ValueError):
        BargainingEnv(1.0, OwnershipStructure.singletons(2), additive_function((1.0, 2.0)))
    with pytest.raises(ValueError):
        BargainingEnv(0.5, OwnershipStructure.singletons(3), additive_function((1.0, 2.0)))


# ---------------------------------------------------------------------------
# Merger reports
# ---------------------------------------------------------------------------


def test_merger_additive_oracle_is_neutral():
    env = BargainingEnv(0.3, OwnershipStructure.singletons(3), additive_function((1.0, 2.0, 3.0)))
    rep = merger_report(env, (1, 2))
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    assert rep.pair_relation.kind.value == "additive"


def test_merger_raises_fees_with_third_product():
    env = BargainingEnv(0.5, OwnershipStructure.singletons(3), exp_market_oracle())
    rep = merger_report(env, (1, 2))
    assert rep.gap > 0.6
    assert rep.pair_relation.kind.value == "strict_substitutes"
    assert rep.max_non_merging_change == 0.0
    assert abs(rep.sign_identity_residual) < 1e-12


def test_merger_lowers_fees_without_third_product():
    market = ReducedFormMarket((1.0, 1.0), (1.0, 1.0), ExponentialCdf(1.0))
    env = BargainingEnv(0.5, OwnershipStructure.singletons(2), market.profit_function())
    rep = merger_report(env, (1, 2))
    assert rep.t_pre == pytest.approx(1.097, abs=1e-3)
    assert rep.t_post == pytest.approx(0.865, abs=1e-3)
    assert rep.gap < 0


def test_merger_requires_singleton_pair():
    env = BargainingEnv(0.5, OwnershipStructure.from_groups(3, [[1, 2], [3]]), exp_market_oracle())
    with pytest.raises(ValueError):
        merger_report(env, (1, 2))
    with pytest.raises(ValueError):
        merger_report(env, (3, 3))


def test_x3_off_restriction_lowers_fees():
    # same three-product market, but the third product is not on the shelf
    market = ReducedFormMarket((1.0, 1.0, 1.0), (1.0, 1.0, 10.0), ExponentialCdf(1.0))
    restricted = market.profit_function().restrict({3: 0})
    env = BargainingEnv(0.5, OwnershipStructure.singletons(2), restricted)
    assert merger_report(env, (1, 2)).gap < 0


def test_sign_identity_for_random_oracles():
    rng = np.random.default_rng(14)
    for k in range(60):
        if k % 2 == 0:
            family = ALL_FAMILIES[k % len(ALL_FAMILIES)]
            oracle = random_reduced_form_market(
                rng, family, n=3, strict=(family != "step")
            ).profit_function()
        else:
            oracle = random_monotone_set_function(rng, n=int(rng.integers(2, 5)))
        n = oracle.n
        beta = float(rng.uniform(0.1, 0.9))
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        env = BargainingEnv(beta, OwnershipStructure.singletons(n), oracle)
        rep = merger_report(env, (int(i), int(j)))
        rest = Portfolio.from_indices(n, [k2 for k2 in range(1, n + 1) if k2 not in (i, j)])
        sd = second_difference(oracle, int(i), int(j), rest)
        assert abs(rep.gap + (1 - beta) * sd) <= 1e-9
        assert rep.max_non_merging_change <= 1e-9


def test_beta_scaling():
    oracle = exp_market_oracle()
    own = OwnershipStructure.singletons(3)
    rep_a = merger_report(BargainingEnv(0.3, own, oracle), (1, 2))
    rep_b = merger_report(BargainingEnv(0.7, own, oracle), (1, 2))
    ratio = (1 - 0.3) / (1 - 0.7)
    assert rep_a.t_pre == pytest.approx(ratio * rep_b.t_pre, rel=1e-12)
    assert rep_a.t_post == pytest.approx(ratio * rep_b.t_post, rel=1e-12)
    assert math.copysign(1, rep_a.gap) == math.copysign(1, rep_b.gap)
    fees_a = nash_in_nash(BargainingEnv(0.3, own, oracle))
    fees_b = nash_in_nash(BargainingEnv(0.7, own, oracle))
    for firm in fees_a.fees:
        assert fees_a.fees[firm] == pytest.approx(ratio * fees_b.fees[firm], rel=1e-12)


def test_sign_identity_for_optimized_profit_oracle():
    oracle = profit_oracle(Eq7Demand(0.0, 0.5), OptimizerConfig(multistart=4))
    env = BargainingEnv(0.5, OwnershipStructure.singletons(3), oracle)
    rep = merger_report(env, (1, 2))
    assert rep.gap > 0  # profit substitutes: merger extracts more
    assert abs(rep.sign_identity_residual) <= 1e-9


# ---------------------------------------------------------------------------
# Shapley
# ---------------------------------------------------------------------------


def test_shapley_single_supplier_splits_surplus():
    oracle = SetFunction(1, lambda x: 1.0 if x.contains(1) else 0.0)
    fees = shapley_fees(BargainingEnv(0.5, OwnershipStructure.singletons(1), oracle))
    assert fees.fee_of(1) == pytest.approx(0.5, abs=1e-15)
    assert fees.retailer_net == pytest.approx(0.5, abs=1e-15)


def test_shapley_additive_oracle():
    env = BargainingEnv(0.5, OwnershipStructure.singletons(2), additive_function((1.0, 2.0)))
    fees = shapley_fees(env)
    assert fees.fee_of(1) == pytest.approx(0.5, abs=1e-12)
    assert fees.fee_of(2) == pytest.approx(1.0, abs=1e-12)
    merged = shapley_fees(BargainingEnv(0.5, OwnershipStructure.from_groups(2, [[1, 2]]), additive_function((1.0, 2.0))))
    assert merged.fee_of(1, 2) == pytest.approx(1.5, abs=1e-12)


def test_shapley_efficiency_symmetry_dummy():
    rng = np.random.default_rng(19)
    for _ in range(10):
        base = random_monotone_set_function(rng, n=3)
        # product 4 never contributes: a dummy supplier
        oracle = SetFunction(4, lambda x, b=base: b(Portfolio(3, x.mask & 0b111)))
        env = BargainingEnv(0.5, OwnershipStructure.singletons(4), oracle)
        fees = shapley_fees(env)
        assert fees.retailer_net + fees.total_fees == pytest.approx(
            oracle(Portfolio.full(4)), abs=1e-9
        )
        assert abs(fees.fee_of(4)) <= 1e-12
    # symmetric products get equal fees
    market = ReducedFormMarket((1.3, 1.3, 0.7), (2.0, 2.0, 1.0), ExponentialCdf(0.8))
    env = BargainingEnv(0.5, OwnershipStructure.singletons(3), market.profit_function())
    fees = shapley_fees(env)
    assert fees.fee_of(1) == pytest.approx(fees.fee_of(2), abs=1e-12)


def test_shapley_player_limit():
    oracle = additive_function(tuple(float(i) for i in range(1, 13)))
    env = BargainingEnv(0.5, OwnershipStructure.singletons(12), oracle)
    with pytest.raises(ValueError):
        shapley_fees(env)


def test_shapley_main_effect_direction_matches_nash():
    # with the third product on the shelf, the merged pair extracts more
    # under the Shapley protocol as well
    oracle = exp_market_oracle()
    own = OwnershipStructure.singletons(3)
    env = BargainingEnv(0.5, own, oracle)
    pre = shapley_fees(env)
    post = shapley_fees(env.merged(1, 2))
    assert post.fee_of(1, 2) > pre.fee_of(1) + pre.fee_of(2)


def brute_force_shapley(env):
    """Reference Shapley value over every coalition, the intermediary included."""
    firms = env.ownership.firms
    n = env.oracle.n
    players = len(firms) + 1

    def worth(subset, with_retailer):
        if not with_retailer:
            return 0.0
        return env.oracle(Portfolio.from_indices(n, [i for k in subset for i in firms[k]]))

    indices = range(len(firms))
    fees = {}
    for k in indices:
        others = [m for m in indices if m != k]
        total = 0.0
        for size in range(len(others) + 1):
            for combo in combinations(others, size):
                for with_r in (False, True):
                    weight = 1.0 / (players * math.comb(players - 1, size + with_r))
                    total += weight * (worth(combo + (k,), with_r) - worth(combo, with_r))
        fees[firms[k]] = total
    retailer = 0.0
    for size in range(len(firms) + 1):
        for combo in combinations(indices, size):
            weight = 1.0 / (players * math.comb(players - 1, size))
            retailer += weight * worth(combo, True)
    return fees, retailer


def random_partition(rng, n):
    order = [int(i) for i in rng.permutation(np.arange(1, n + 1))]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]


def test_shapley_fees_equal_brute_force_exactly():
    rng = np.random.default_rng(29)
    for trial in range(12):
        n = int(rng.integers(2, 9))
        if trial % 2:
            oracle = random_monotone_set_function(rng, n=n)
        else:
            family = ALL_FAMILIES[trial // 2 % len(ALL_FAMILIES)]
            oracle = random_reduced_form_market(rng, family, n=n, strict=False).profit_function()
        env = BargainingEnv(0.4, OwnershipStructure.from_groups(n, random_partition(rng, n)), oracle)
        fees = shapley_fees(env)
        ref_fees, ref_retailer = brute_force_shapley(env)
        assert fees.fees == ref_fees
        assert list(fees.fees) == list(ref_fees)
        assert fees.retailer_net == ref_retailer
