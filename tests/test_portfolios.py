import math

import numpy as np
import pytest

from mergerfees.errors import DomainError
from mergerfees.portfolios import (
    ModularityKind,
    PairKind,
    Portfolio,
    SetFunction,
    classify_modularity,
    classify_pair,
    second_difference,
    sign_kind,
)
from mergerfees.reduced_form import ExponentialCdf, ReducedFormMarket
from support import additive_function, all_portfolios, rest_portfolios


def test_portfolio_basics():
    x = Portfolio.from_indices(4, (1, 3))
    assert x.indices() == (1, 3)
    assert x.contains(3) and not x.contains(2)
    assert x.with_product(2).indices() == (1, 2, 3)
    assert x.with_product(1, on=False).indices() == (3,)
    assert x.key() == "1010"
    assert x.dot([1.0, 2.0, 3.0, 4.0]) == 4.0
    assert Portfolio.full(3).size() == 3
    assert Portfolio.empty(3).size() == 0


def test_portfolio_validation():
    with pytest.raises(ValueError):
        Portfolio(0)
    with pytest.raises(ValueError):
        Portfolio(25)
    with pytest.raises(IndexError):
        Portfolio.from_indices(3, (4,))
    with pytest.raises(IndexError):
        Portfolio.full(3).contains(0)
    with pytest.raises(ValueError):
        Portfolio.full(3).dot([1.0, 2.0])


def test_enumeration_counts():
    assert len(list(all_portfolios(4))) == 16
    rests = list(rest_portfolios(5, 2, 4))
    assert len(rests) == 8
    for rest in rests:
        assert not rest.contains(2) and not rest.contains(4)
    # n=2 has exactly one (empty) rest portfolio
    assert [r.mask for r in rest_portfolios(2, 1, 2)] == [0]


def test_set_function_caches_and_counts_calls():
    calls = []

    def fn(x):
        calls.append(x.mask)
        return float(x.size())

    f = SetFunction(3, fn)
    x = Portfolio.from_indices(3, (1, 2))
    assert f(x) == 2.0
    assert f(x) == 2.0
    assert calls == [x.mask]
    assert f.cache[x.mask] == 2.0


def test_set_function_concurrent_enumeration():
    # hypercube scans may fan out: concurrent cache fills must agree with
    # a fresh sequential evaluation
    from concurrent.futures import ThreadPoolExecutor

    f = SetFunction(6, lambda x: float(x.size()) ** 1.5 + x.mask * 1e-6)
    xs = list(all_portfolios(6))
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(f, xs))
    assert results == [float(x.size()) ** 1.5 + x.mask * 1e-6 for x in xs]
    assert len(f.cache) == 64


def test_set_function_restrict_renumbers():
    f = additive_function((1.0, 10.0, 100.0))
    g = f.restrict({3: 1})  # products 1,2 keep labels, product 3 pinned on
    assert g.n == 2
    assert g(Portfolio.empty(2)) == 100.0
    assert g(Portfolio.from_indices(2, (2,))) == 110.0
    h = f.restrict({1: 0, 2: 0})
    assert h.n == 1
    assert h(Portfolio.full(1)) == 100.0


def test_second_difference_additive_is_zero():
    f = additive_function((0.3, 1.7, 2.9))
    for rest in rest_portfolios(3, 1, 2):
        assert second_difference(f, 1, 2, rest) == pytest.approx(0.0, abs=1e-13)


def test_second_difference_symmetry_and_shift_invariance():
    rng = np.random.default_rng(7)
    values = rng.normal(size=16)
    f = SetFunction(4, lambda x: float(values[x.mask]))
    pi = rng.normal(size=4)
    g = SetFunction(4, lambda x: float(values[x.mask]) + x.dot(pi))
    for i, j in [(1, 2), (2, 4), (1, 3)]:
        for rest in rest_portfolios(4, i, j):
            a = second_difference(f, i, j, rest)
            assert second_difference(f, j, i, rest) == a  # exact symmetry
            assert second_difference(g, i, j, rest) == pytest.approx(a, abs=1e-12)


def test_second_difference_argument_checks():
    f = additive_function((1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        second_difference(f, 2, 2, Portfolio.empty(3))
    with pytest.raises(ValueError):
        second_difference(f, 1, 2, Portfolio.from_indices(3, (1,)))
    with pytest.raises(IndexError):
        second_difference(f, 1, 9, Portfolio.empty(3))


def test_classify_pair_additive():
    rel = classify_pair(additive_function((1.0, 2.0, 3.0)), 1, 2)
    assert rel.kind is PairKind.ADDITIVE
    assert len(rel.witnesses) == 2  # one rest portfolio per state of product 3


def test_classify_pair_two_product_market_complements():
    market = ReducedFormMarket((1.0, 1.0), (1.0, 1.0), ExponentialCdf(1.0))
    f = market.profit_function()
    expected = 2 * (1 - math.exp(-2)) - 2 * (1 - math.exp(-1))
    rel = classify_pair(f, 1, 2)
    assert rel.kind is PairKind.STRICT_COMPLEMENTS
    assert len(rel.witnesses) == 1
    assert rel.witnesses[0].value == pytest.approx(expected, abs=1e-12)
    assert rel.witnesses[0].value == pytest.approx(0.465, abs=5e-4)


def test_classify_pair_mixed_carries_extreme_witnesses():
    # complements without product 3, substitutes with it
    def fn(x):
        if x.contains(3):
            return {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.2}[x.mask & 0b11]
        return {0: 0.0, 1: 1.0, 2: 1.0, 3: 2.5}[x.mask]

    f = SetFunction(3, lambda x: fn(x) + (10.0 if x.contains(3) else 0.0))
    rel = classify_pair(f, 1, 2)
    assert rel.kind is PairKind.MIXED
    assert rel.most_positive.value > 0 > rel.most_negative.value
    assert rel.most_positive.rest.mask == 0
    assert rel.most_negative.rest.contains(3)


def test_classify_modularity_product_interaction():
    f = SetFunction(2, lambda x: float(x.contains(1) and x.contains(2)))
    report = classify_modularity(f)
    assert report.kind is ModularityKind.SUPERMODULAR
    assert report.pair(1, 2).kind is PairKind.STRICT_COMPLEMENTS


def test_classify_modularity_additive():
    assert classify_modularity(additive_function((1.0, 2.0, 3.0))).kind is ModularityKind.ADDITIVE


def test_classify_modularity_negation_duality():
    rng = np.random.default_rng(11)
    w = rng.uniform(0.1, 1.0, size=3)
    f = SetFunction(3, lambda x: float(x.dot(w) ** 2))  # convex in the total: supermodular
    report = classify_modularity(f)
    assert report.kind is ModularityKind.SUPERMODULAR
    assert classify_modularity(SetFunction(3, lambda x: -f(x))).kind is ModularityKind.SUBMODULAR


def test_classify_modularity_neither():
    values = {0: 0.0, 1: 1.0, 2: 1.0, 3: 2.5, 4: 0.0, 5: 1.0, 6: 1.0, 7: 1.5}
    f = SetFunction(3, lambda x: values[x.mask])
    assert classify_modularity(f).kind is ModularityKind.NEITHER


@pytest.mark.parametrize(
    "lo,hi,expected",
    [
        (2e-9, 5.0, PairKind.STRICT_COMPLEMENTS),
        (-5.0, -2e-9, PairKind.STRICT_SUBSTITUTES),
        (-1e-9, 1e-9, PairKind.ADDITIVE),  # exactly at -tolerance and +tolerance
        (1e-9, 1e-9, PairKind.ADDITIVE),
        (-1e-9, -1e-9, PairKind.ADDITIVE),
        (0.0, 0.0, PairKind.ADDITIVE),
        (1e-9, 5.0, PairKind.MIXED),  # a value at +tolerance is not strict
        (-5.0, -1e-9, PairKind.MIXED),
        (-2e-9, 2e-9, PairKind.MIXED),
    ],
)
def test_sign_kind_tolerance_boundaries(lo, hi, expected):
    assert sign_kind(lo, hi, 1e-9) is expected


def test_set_function_rejects_non_finite_values():
    f = SetFunction(2, lambda x: math.nan if x.mask == 3 else 1.0, name="broken")
    assert f(Portfolio(2, 1)) == 1.0
    with pytest.raises(DomainError, match="broken is nan at portfolio 11"):
        f(Portfolio.full(2))
    assert 3 not in f.cache
