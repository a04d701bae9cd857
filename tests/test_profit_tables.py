"""Tables read by bit pattern give the floats the per-portfolio paths give.

``ReducedFormMarket.profit_function(traffic)`` seeds the oracle's cache
from one traffic table, and ``SetFunction.table`` and ``classify_pair`` read
values by bit pattern. These tests hold each against its per-portfolio
reference with ``==``: ``ReducedFormMarket.profit``, ``Portfolio.key`` and
``second_difference``.
"""

import itertools
import json

import numpy as np
import pytest

from mergerfees.cli import main
from mergerfees.demand_systems import LinearDemand
from mergerfees.errors import DomainError
from mergerfees.optimize import OptimizerConfig, profit_oracle
from mergerfees.portfolios import (
    Portfolio,
    SetFunction,
    classify_pair,
    second_difference,
)
from mergerfees.reduced_form import ExponentialCdf, ReducedFormMarket
from mergerfees.sampling import random_reduced_form_market
from support import ALL_FAMILIES, all_portfolios, rest_portfolios


def _outcome(f: SetFunction, x: Portfolio):
    """f(x), or the message of the DomainError that reading it raises."""
    try:
        return f(x)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_seeded_profit_table_is_profit_bit_for_bit(family):
    rng = np.random.default_rng(61)
    for n in range(2, 11):
        market = random_reduced_form_market(rng, family, n=n, strict=False)
        seeded = market.profit_function(market.traffic_table())
        cache = seeded.cache
        assert sorted(cache) == list(range(1 << n))
        for x in all_portfolios(n):
            assert cache[x.mask] == market.profit(x), (n, x.key())
        assert seeded.table() == market.profit_function().table()


def test_seeding_leaves_non_finite_profits_to_the_oracle():
    # pairs of the first two margins overflow to inf; every other entry is finite
    market = ReducedFormMarket((1.0,) * 4, (1e308, 1e308, 1.0, 1.0), ExponentialCdf(1.0))
    seeded = market.profit_function(market.traffic_table())
    lazy = market.profit_function()
    assert sorted(seeded.cache) == [m for m in range(16) if m & 3 != 3]
    for x in all_portfolios(4):
        assert _outcome(seeded, x) == _outcome(lazy, x)
    with pytest.raises(DomainError, match="reduced_form_profit is inf at portfolio 1100"):
        seeded(Portfolio.from_indices(4, (1, 2)))


def test_seed_cache_keeps_values_already_computed():
    f = SetFunction(2, lambda x: float(x.mask))
    assert f(Portfolio(2, 1)) == 1.0
    f.seed_cache([10.0, 11.0, float("nan"), 13.0])
    assert f.cache == {0: 10.0, 1: 1.0, 3: 13.0}
    assert f(Portfolio(2, 2)) == 2.0  # unseeded: evaluated
    with pytest.raises(ValueError, match="expected 4 table entries"):
        f.seed_cache([1.0, 2.0])


def test_cli_overflowing_margins_name_the_first_portfolio_read(tmp_path, capsys):
    raw = {
        "schema_version": 1,
        "model": {
            "kind": "reduced_form",
            "v": [1e308, 1e308, 1e308],
            "pi": [1e308, 1e308, 1e308],
            "cdf": {"family": "exponential", "lam": 1.0},
        },
        "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["analyze", str(path), "--shapley"]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: reduced_form_profit is inf at portfolio 111\n"


def _random_function(rng, n):
    values = rng.normal(size=1 << n)
    return SetFunction(n, lambda x: values[x.mask], name="random")


def test_table_reads_keys_and_values_by_bit_pattern():
    rng = np.random.default_rng(67)
    for n in range(1, 8):
        f = _random_function(rng, n)
        table = f.table()
        assert list(table) == [x.key() for x in all_portfolios(n)]
        assert list(table.values()) == [f(x) for x in all_portfolios(n)]


def test_classify_pair_is_second_difference_at_every_rest():
    rng = np.random.default_rng(71)
    for n in range(2, 7):
        f = _random_function(rng, n)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            rel = classify_pair(f, i, j)
            rests = list(rest_portfolios(n, i, j))
            assert [w.rest for w in rel.witnesses] == rests
            assert [w.value for w in rel.witnesses] == [second_difference(f, i, j, r) for r in rests]


@pytest.mark.parametrize("i,j,error", [(2, 2, ValueError), (0, 2, IndexError), (1, 5, IndexError)])
def test_classify_pair_rejects_what_second_difference_rejects(i, j, error):
    f = SetFunction(4, lambda x: 0.0)
    with pytest.raises(error):
        second_difference(f, i, j, Portfolio.empty(4))
    with pytest.raises(error):
        classify_pair(f, i, j)


def _per_portfolio_order(n, i, j):
    """Portfolios in the order the per-portfolio classify_pair, then table, first read them."""
    order = []
    lo, hi = min(i, j), max(i, j)
    for rest in rest_portfolios(n, i, j):
        for x in (rest.with_product(lo).with_product(hi), rest, rest.with_product(lo), rest.with_product(hi)):
            if x.mask not in order:
                order.append(x.mask)
    order += [x.mask for x in all_portfolios(n) if x.mask not in order]
    return order


def test_mask_reads_evaluate_portfolios_in_the_per_portfolio_order():
    calls = []

    def fn(x):
        calls.append(x.mask)
        return float(x.size()) ** 1.5

    for n, i, j in ((2, 1, 2), (4, 3, 1), (5, 2, 4)):
        calls.clear()
        f = SetFunction(n, fn)
        classify_pair(f, i, j)
        f.table()
        assert calls == _per_portfolio_order(n, i, j)


def test_priced_oracle_runs_max_profit_in_the_per_portfolio_order():
    model = LinearDemand([1.0, 1.1, 0.9], [[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
    oracle = profit_oracle(model, OptimizerConfig(multistart=2))
    classify_pair(oracle, 2, 3)
    oracle.table()
    assert list(oracle.results) == [Portfolio(3, m).key() for m in _per_portfolio_order(3, 2, 3)]
