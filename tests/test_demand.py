import itertools
import math

import numpy as np
import pytest

from mergerfees.demand_systems import (
    INVERSION_STEPS,
    INVERSION_TOL,
    AppendixBDemand,
    CustomDemand,
    DemandModel,
    Eq7Demand,
    EvaluationRegion,
    GrossKind,
    InverseModularityKind,
    LinearDemand,
    OneStopDemand,
    _fd_jacobian,
    gross_relation,
    inverse_modularity,
)
from mergerfees.errors import ConvergenceError, DomainError
from mergerfees.portfolios import GROSS_KIND, sign_kind
from mergerfees.reduced_form import (
    AffineClampedCdf,
    ExponentialCdf,
    PowerCdf,
    ShoppingCostCdf,
    StepCdf,
    TableCdf,
)
from support import random_linear_demand, saturated_cdf


def fd_jacobian(fn, x, h=1e-6):
    cols = []
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = h * max(1.0, abs(x[k]))
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * e[k]))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Region
# ---------------------------------------------------------------------------


def test_region_validation_and_nodes():
    region = EvaluationRegion((0.0, 0.0), (1.0, 2.0), resolution=3)
    nodes = list(region.nodes())
    assert len(nodes) == 9
    assert tuple(nodes[0]) == (0.0, 0.0)
    assert tuple(nodes[-1]) == (1.0, 2.0)
    with pytest.raises(ValueError):
        EvaluationRegion((0.0,), (0.0,))
    with pytest.raises(ValueError):
        EvaluationRegion((0.0,), (1.0,), resolution=2)


# ---------------------------------------------------------------------------
# Linear family
# ---------------------------------------------------------------------------


def test_linear_inverse_at_origin():
    m = LinearDemand([1.0, 1.0], np.eye(2))
    assert np.allclose(m.inverse_demand([0.0, 0.0]), [1.0, 1.0])
    assert np.allclose(m.demand([1.0, 1.0]), [0.0, 0.0])


def test_linear_jacobians_consistent():
    rng = np.random.default_rng(1)
    m = random_linear_demand(rng, 3, "substitutes")
    q = np.array([0.2, 0.3, 0.25])
    assert np.allclose(m.inverse_jacobian(q), -m.B)
    p = m.inverse_demand(q)
    assert np.allclose(m.demand_jacobian(p) @ m.inverse_jacobian(q), np.eye(3), atol=1e-12)


def test_linear_validation():
    with pytest.raises(ValueError):
        LinearDemand([1.0], [[-1.0]])
    with pytest.raises(ValueError):
        LinearDemand([0.5, 0.5], np.eye(2), costs=[0.6, 0.0])


# ---------------------------------------------------------------------------
# Square-root-spillover family
# ---------------------------------------------------------------------------


def test_eq7_demand_at_choke_prices():
    m = Eq7Demand(0.0, 0.7)
    assert np.allclose(m.demand([1.0, 1.0, 1.0]), [0.0, 0.0, 0.0])


def test_eq7_demand_direct_substitution():
    m = Eq7Demand(0.1, 0.5)
    d = m.demand([0.5, 0.5, 0.5])
    assert d[0] == pytest.approx(0.5 + 0.1 * (0.5 + 0.5), abs=1e-15)
    assert d[1] == pytest.approx(0.6, abs=1e-15)
    assert d[2] == pytest.approx(0.5 + 0.5 * math.sqrt(1.0), abs=1e-15)


def test_eq7_domain_error():
    m = Eq7Demand(0.0, 0.5)
    with pytest.raises(DomainError):
        m.demand([1.5, 0.8, 0.5])
    with pytest.raises(ValueError):
        Eq7Demand(1.0, 0.5)


def test_eq7_inverse_closed_form_at_b_zero():
    m = Eq7Demand(0.0, 0.5)
    q = np.array([0.589, 0.589, 0.771])
    p = m.inverse_demand(q)
    assert p[0] == pytest.approx(1 - 0.589, abs=1e-12)
    assert p[2] == pytest.approx(1 - 0.771 + 0.5 * math.sqrt(1.178), abs=1e-12)
    assert p[2] == pytest.approx(0.772, abs=1e-3)


def test_eq7_round_trip_with_coupling():
    for b in (0.05, -0.05, 0.3, -0.3):
        m = Eq7Demand(b, 0.4)
        for q in ([0.5, 0.6, 0.7], [0.1, 0.9, 0.3], [0.4, 0.4, 0.01]):
            q = np.array(q)
            assert np.max(np.abs(m.demand(m.inverse_demand(q)) - q)) < 1e-10


def test_eq7_restricted_inverse_drops_absent_products():
    m = Eq7Demand(0.1, 0.5)
    # only product 3 carried: its inverse demand must be the standalone one
    p = m.portfolio_inverse(np.array([0.0, 0.0, 0.4]), (3,))
    assert p[2] == pytest.approx(0.6, abs=1e-14)
    # one coupled product + 3: solves the reduced two-equation system
    q = np.array([0.5, 0.0, 0.4])
    p = m.portfolio_inverse(q, (1, 3))
    s1 = 1 - p[0]
    s3 = 1 - p[2]
    assert s1 + 0.1 * s3 == pytest.approx(0.5, abs=1e-12)
    assert s3 + 0.5 * math.sqrt(s1) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ValueError):
        m.portfolio_inverse(np.array([0.5, 0.2, 0.4]), (1, 3))


def test_eq7_closed_form_cross_slope_matches_differences():
    m = Eq7Demand(0.0, 0.5)
    p = np.array([0.4, 0.3, 0.6])
    jac = m.demand_jacobian(p)
    assert jac[2, 0] == pytest.approx(-0.5 * 0.5 / math.sqrt(2 - 0.4 - 0.3), abs=1e-12)
    fd = fd_jacobian(m.demand, p)
    assert np.max(np.abs(jac - fd)) < 1e-6


def test_eq7_inverse_jacobian_matches_differences():
    m = Eq7Demand(0.2, 0.5)
    q = np.array([0.4, 0.5, 0.6])
    assert np.max(np.abs(m.inverse_jacobian(q) - fd_jacobian(m.inverse_demand, q))) < 1e-6


def _reference_eq7_demand_jacobian(m, p):
    """The 3x3 dD/dp literal that Eq7Demand.demand_jacobian once built."""
    p = np.asarray(p, dtype=float)
    radicand = (1.0 - p[0]) + (1.0 - p[1])
    if radicand <= 0:
        raise DomainError("cross-price slope of product 3 undefined at p1 + p2 >= 2")
    b, g = m.b, m.gamma
    d3 = -0.5 * g / math.sqrt(radicand)
    return np.array([[-1.0, -b, -b], [-b, -1.0, -b], [d3, d3, -1.0]])


def _reference_eq7_portfolio_inverse_jacobian(m, q, carried):
    """The carried-subsystem loop that portfolio_inverse_jacobian once ran inline."""
    p = m.portfolio_inverse(q, carried)
    pair = [i for i in (1, 2) if i in carried]
    k = len(carried)
    jac_d = np.zeros((k, k))
    pos = {prod: idx for idx, prod in enumerate(carried)}
    for prod in carried:
        r = pos[prod]
        if prod in (1, 2):
            for other in carried:
                jac_d[r, pos[other]] = -1.0 if other == prod else -m.b
        else:
            if pair:
                u = sum(1.0 - p[i - 1] for i in pair)
                if u <= 0:
                    raise DomainError("inverse Jacobian singular: zero spillover surplus")
                slope = -0.5 * m.gamma / math.sqrt(u)
                for i in pair:
                    jac_d[r, pos[i]] = slope
            jac_d[r, r] = -1.0
    return np.linalg.inv(jac_d)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, np.linalg.LinAlgError) as exc:
        return type(exc)


def test_eq7_slopes_match_reference_construction_bit_for_bit():
    rng = np.random.default_rng(11)
    subsets = [c for r in (1, 2, 3) for c in itertools.combinations((1, 2, 3), r)]
    errors = [0, 0]
    for draw in range(1500):
        b = 0.0 if draw % 5 == 0 else rng.uniform(-0.9, 0.9)
        gamma = 0.0 if draw % 7 == 0 else rng.uniform(-1.0, 1.0)
        m = Eq7Demand(b, gamma)
        p = np.array([1.0, 1.0, 0.5]) if draw % 11 == 0 else rng.uniform(-0.2, 1.4, 3)
        pairs = [(_outcome(m.demand_jacobian, p), _outcome(_reference_eq7_demand_jacobian, m, p))]
        carried = subsets[draw % len(subsets)]
        q = np.zeros(3)
        for i in carried:
            q[i - 1] = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 1.2)
        pairs.append(
            (
                _outcome(lambda: m.portfolio_inverse_jacobian(q, m.portfolio_inverse(q, carried), carried)),
                _outcome(_reference_eq7_portfolio_inverse_jacobian, m, q, carried),
            )
        )
        for k, (got, want) in enumerate(pairs):
            if isinstance(want, type):
                errors[k] += 1
                assert got is want
            else:
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
    assert min(errors) > 50  # both methods fail on some draws, not only succeed


def _reference_eq7_inverse_with_product_3(m, q, carried):
    """The two hand-derived quadratics that _restricted_inverse once solved
    when product 3 is carried with one or both of products 1 and 2."""
    b, g = m.b, m.gamma
    pair = [i for i in (1, 2) if i in carried]
    s = np.full(3, np.nan)
    if len(pair) == 2:
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
    elif len(pair) == 1:
        i = pair[0]
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
        s[2] = q[2]
    p = np.full(3, np.nan)
    for i in carried:
        p[i - 1] = 1.0 - s[i - 1]
    return p


def _inverse_outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def test_eq7_inverse_one_quadratic_matches_the_two_it_replaced_bit_for_bit():
    rng = np.random.default_rng(17)
    subsets = [(3,), (1, 3), (2, 3), (1, 2, 3)]
    errors = 0
    for draw in range(8000):
        b = 0.0 if draw % 5 == 0 else rng.uniform(-0.95, 0.95)
        gamma = 0.0 if draw % 7 == 0 else rng.uniform(-1.5, 1.5)
        m = Eq7Demand(b, gamma)
        carried = subsets[draw % len(subsets)]
        q = np.zeros(3)
        for i in carried:
            q[i - 1] = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 1.5)
        got = _inverse_outcome(m.portfolio_inverse, q, carried)
        want = _inverse_outcome(_reference_eq7_inverse_with_product_3, m, q, carried)
        if isinstance(want, tuple):
            errors += 1
            assert got == want
        else:
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    assert errors > 100  # the invertible region's edge is reached, not only its inside


# ---------------------------------------------------------------------------
# Log-coupled inverse-demand family
# ---------------------------------------------------------------------------


def test_appendix_b_inverse_at_origin():
    m = AppendixBDemand(b=-0.125, gamma=-0.8, alpha=0.0)
    assert np.allclose(m.inverse_demand([0.0, 0.0, 0.0]), [1.0, 1.0, 1.0])


def test_appendix_b_round_trip():
    m = AppendixBDemand(b=-0.125, gamma=-0.8, alpha=-1e-4)
    for p in ([0.5, 0.5, 0.5], [0.2, 0.7, 0.9], [0.05, 0.95, 0.4]):
        p = np.array(p)
        q = m.demand(p)
        assert np.max(np.abs(m.inverse_demand(q) - p)) < 1e-9


def test_appendix_b_demand_jacobian_matches_differences():
    """The implicit-function-theorem slopes (inverse of the closed-form
    price Jacobian) must agree with finite differences of the numerically
    inverted demand, across a price grid."""
    m = AppendixBDemand(b=-0.125, gamma=-0.8, alpha=-0.05)
    for p in EvaluationRegion((0.2,) * 3, (0.8,) * 3, 3).nodes():
        jac = m.demand_jacobian(p)
        fd = fd_jacobian(m.demand, p)
        assert np.max(np.abs(jac - fd)) < 1e-5


def test_appendix_b_cross_slope_formula():
    # cofactor expansion of the price Jacobian at asymmetric quantities
    m = AppendixBDemand(b=-0.125, gamma=-0.8, alpha=-0.05)
    q = np.array([0.2, 0.7, 0.4])
    b, g, a = m.b, m.gamma, m.alpha
    phi = (
        1 - b * b + q[0] + q[1] + q[0] * q[1]
        - a * g * (2 * (1 + q[0]) * (1 + q[1]) + b * (2 + q[0] + q[1]))
    )
    jac = np.linalg.inv(m.inverse_jacobian(q))
    assert jac[0, 1] == pytest.approx(-(1 + q[0]) * (b + a * g * (1 + q[1])) / phi, abs=1e-12)
    assert jac[0, 2] == pytest.approx(-a * (1 + q[0]) * (1 + q[1] + b) / phi, abs=1e-12)
    # the third product's slope pairs (1+q_j) with the *other* product's
    # (1+q_i+b) factor; verified against finite differences of D
    assert jac[2, 0] == pytest.approx(-g * (1 + q[1]) * (1 + q[0] + b) / phi, abs=1e-12)
    p = m.inverse_demand(q)
    fd = fd_jacobian(m.demand, p)
    assert fd[2, 0] == pytest.approx(jac[2, 0], abs=1e-7)


# ---------------------------------------------------------------------------
# One-stop and custom families
# ---------------------------------------------------------------------------


def test_one_stop_saturated_traffic_decouples():
    m = OneStopDemand([1.0, 1.2], [1.0, 0.8], saturated_cdf())
    p = np.array([0.3, 0.5])
    assert np.allclose(m.demand(p), m.sub_demand(p))


def test_one_stop_round_trip():
    m = OneStopDemand([1.0, 1.2, 0.9], [1.0, 0.8, 1.1], ExponentialCdf(1.5))
    for p in ([0.3, 0.5, 0.2], [0.6, 0.2, 0.4]):
        q = m.demand(np.array(p))
        assert np.max(np.abs(m.demand(m.inverse_demand(q)) - q)) < 1e-10
    assert np.allclose(m.inverse_demand(np.zeros(3)), m.alpha / m.beta)


def test_one_stop_traffic_is_the_smallest_float_root():
    # residual(theta) = theta - G(k / theta^2) rises in theta; inverse_demand's
    # prices must come from the first float at which it is >= 0
    rng = np.random.default_rng(19)
    alpha, beta = rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3)
    models = [m for m in _one_stop_models(alpha, beta) if m.cdf.family != "step"]
    for m in models + [OneStopDemand(alpha, beta, saturated_cdf())]:
        region = m.default_quantity_region()
        for _ in range(10):
            q = rng.uniform(region.lower, region.upper)
            p = m.inverse_demand(q)
            k = float(np.sum(q * q / (2.0 * m.beta)))

            def residual(theta):
                return theta - m.cdf(k / (theta * theta))

            # walk from the traffic p implies to the float where the sign changes
            theta = float(np.max(q / (m.alpha - m.beta * p)))
            for _ in range(1000):
                if residual(theta) < 0:
                    theta = np.nextafter(theta, 2.0)
                elif residual(np.nextafter(theta, 0.0)) >= 0:
                    theta = np.nextafter(theta, 0.0)
                else:
                    break
            assert residual(theta) >= 0 > residual(np.nextafter(theta, 0.0)), m.cdf.family
            assert np.array_equal(p, (m.alpha - q / theta) / m.beta), m.cdf.family
            assert np.max(np.abs(m.demand(p) - q)) <= 1e-12, m.cdf.family


def _halving_traffic_share(model, k):
    """The traffic solve by plain halving of [0, 1] down to adjacent floats:
    the reference OneStopDemand._traffic_share must match bit for bit."""

    def residual(theta):
        return theta - model.cdf(k / (theta * theta))

    if residual(1.0) < 0:
        raise ConvergenceError("traffic equation has no root at theta = 1")
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid < 2.0**-80:
            raise ConvergenceError("required store traffic is unattainable under this CDF")
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
    if residual(hi) > 1e-9:
        raise ConvergenceError("traffic equation residual too large (discontinuous CDF?)")
    return hi


def _traffic_outcome(solve, *args):
    try:
        return solve(*args)
    except ConvergenceError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "cdfs",
    [
        [ExponentialCdf(0.26), ExponentialCdf(3.0)],
        [AffineClampedCdf(0.0, 2.0), AffineClampedCdf(0.2, 1.5)],
        [PowerCdf(2.0, 1.5), PowerCdf(0.5, 2.0)],
        [TableCdf([(0.0, 0.0), (0.5, 0.4), (1.5, 1.0)]), TableCdf([(0.1, 0.0), (0.3, 0.2), (0.9, 0.7), (2.0, 1.0)])],
        [StepCdf([0.05, 0.3], [0.5, 0.5]), StepCdf([0.0, 10.0])],
    ],
    ids=["exponential", "affine", "power", "table", "step"],
)
def test_one_stop_traffic_share_is_the_halving_float(cdfs):
    # the solve narrows its bracket by other points than halving; the float it
    # ends on, or the error it raises, must be halving's at every sub-demand mass
    rng = np.random.default_rng(23)
    seen = set()
    for cdf in cdfs:
        model = OneStopDemand([1.0, 1.0], [1.0, 1.0], cdf)
        for k in (10.0 ** rng.uniform(-7.0, 3.0, 2500)).tolist():
            want = _traffic_outcome(_halving_traffic_share, model, k)
            assert _traffic_outcome(model._traffic_share, k) == want, (cdf, k)
            seen.add(type(want))
    assert float in seen


def test_one_stop_hooks_under_a_table_cdf_give_a_nan_row_for_a_nan_row():
    # TableCdf placed NaN past its last breakpoint and raised IndexError, which
    # escaped the stacked hooks' per-row catch
    cdf = TableCdf([(0.0, 0.0), (0.5, 0.4), (1.5, 1.0)])
    assert math.isnan(cdf(math.nan))
    model = OneStopDemand([1.1, 1.4, 1.9], [1.8, 1.2, 1.9], cdf)
    every = (1, 2, 3)
    q = np.array([[0.2, 0.3, 0.4], [math.nan, 0.3, 0.4]])
    p = model.portfolio_inverses(q, every)
    assert np.isfinite(p[0]).all() and np.isnan(p[1]).all()
    p[1] = [math.nan, 0.4, 0.5]
    jac, ok = model.portfolio_inverse_jacobians(q, p, every)
    assert ok.tolist() == [True, False] and np.isnan(jac[1]).all()
    hess, exact = model.demand_hessians(p, every)
    assert not exact[1] and np.isnan(hess[1]).all()
    slopes, failures = model.demand_jacobians(p)
    assert np.isfinite(slopes[0]).all() and np.isnan(slopes[1]).all()
    assert np.isnan(model.demand(p[1])).all()


class _CountingTableCdf(TableCdf):
    def __init__(self, points):
        super().__init__(points)
        self.calls = 0

    def __call__(self, s):
        self.calls += 1
        return super().__call__(s)


def test_one_stop_rejects_a_quantity_that_is_not_finite_before_the_traffic_solve():
    # a NaN quantity ran the traffic solve (81 CDF calls) into "unattainable traffic"
    cdf = _CountingTableCdf([(0.0, 0.0), (0.5, 0.4), (1.5, 1.0)])
    model = OneStopDemand([1.1, 1.4, 1.9], [1.8, 1.2, 1.9], cdf)
    for q in ([math.nan, 0.3, 0.4], [math.inf, 0.3, 0.4]):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            model.inverse_demand(q)
    assert cdf.calls == 0
    p = model.portfolio_inverses(np.array([[math.nan, 0.3, 0.4]]), (1, 2, 3))
    assert np.isnan(p).all() and cdf.calls == 0


class _AboveOneCdf(ShoppingCostCdf):
    family = "above_one"

    def __call__(self, s):
        return 1.5


@pytest.mark.parametrize(
    "cdf,q,message",
    [
        # G = 0 everywhere: no traffic level above 2^-80 is self-consistent
        (TableCdf([(0.0, 0.0), (1.0, 0.0)]), [0.1, 0.1], "unattainable"),
        # G jumps from 1 to 0.5 at theta = 0.79, so the residual jumps over 0
        (StepCdf([0.0, 10.0]), [2.5, 2.5], "residual too large"),
        (_AboveOneCdf(), [0.1, 0.1], "no root at theta = 1"),
    ],
)
def test_one_stop_traffic_failures_are_convergence_errors(cdf, q, message):
    with pytest.raises(ConvergenceError, match=message):
        OneStopDemand([3.0, 3.0], [1.0, 1.0], cdf).inverse_demand(q)


def test_custom_demand_inverts_numerically():
    m = CustomDemand(
        2,
        lambda q: np.array([1.0 - q[0] - 0.2 * q[1], 1.0 - q[1] - 0.2 * q[0]]),
        quantity_region=EvaluationRegion((0.01, 0.01), (0.6, 0.6)),
        price_region=EvaluationRegion((0.1, 0.1), (0.9, 0.9)),
    )
    q = m.demand(np.array([0.4, 0.5]))
    assert np.max(np.abs(m.inverse_demand(q) - [0.4, 0.5])) < 1e-9


def test_round_trip_every_family_on_interior_points():
    rng = np.random.default_rng(4)
    models = [
        random_linear_demand(rng, 3, "complements"),
        Eq7Demand(0.1, 0.4),
        Eq7Demand(-0.1, -0.4),
        AppendixBDemand(-0.125, -0.8, -1e-4),
        OneStopDemand([1.0, 1.1, 0.9], [1.0, 1.0, 1.0], ExponentialCdf(1.0)),
    ]
    for m in models:
        region = m.default_quantity_region()
        for _ in range(5):
            q = np.array(
                [rng.uniform(lo, hi) for lo, hi in zip(region.lower, region.upper)]
            )
            err = np.max(np.abs(m.demand(m.inverse_demand(q)) - q))
            assert err <= 1e-7, f"{m.kind}: round-trip error {err}"


# ---------------------------------------------------------------------------
# Exact inverse Hessians
# ---------------------------------------------------------------------------


def _hessian_cases():
    """(model, carried, quantity draw) over every family with an exact
    Hessian: seeded parameters, interior quantities off every kink."""
    rng = np.random.default_rng(47)
    cases = []
    for relation in ("complements", "substitutes"):
        cases.append((random_linear_demand(rng, 3, relation), (1, 2, 3), (0.1, 0.6)))
    for b in (0.0, 0.0, rng.uniform(0.05, 0.3), -rng.uniform(0.05, 0.3)):
        gamma = rng.uniform(0.2, 0.7) * (1 if b >= 0 else -1)
        for carried in ((1, 2, 3), (1, 3), (2, 3), (1, 2)):
            cases.append((Eq7Demand(b, gamma), carried, (0.2, 0.8)))
    for sign in (1.0, -1.0):
        b, gamma, alpha = sign * rng.uniform(0.02, 0.3), sign * rng.uniform(0.1, 0.8), sign * rng.uniform(0, 0.2)
        for carried in ((1, 2, 3), (1, 2), (2, 3)):
            cases.append((AppendixBDemand(b, gamma, alpha), carried, (0.1, 0.9)))
    for _ in range(2):
        alpha, beta = rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3)
        total = float(np.sum(np.square(alpha) / (2.0 * beta)))
        for cdf in (
            ExponentialCdf(rng.uniform(0.5, 3.0) / total),
            AffineClampedCdf(0.0, rng.uniform(1.05, 2.0) * total),
            PowerCdf(rng.uniform(0.5, 3.0), rng.uniform(1.05, 2.0) * total),
        ):
            for carried in ((1, 2, 3), (1, 3)):
                cases.append((OneStopDemand(alpha, beta, cdf), carried, (0.1, 0.5)))
    return rng, cases


def _second_differences(fn, x, h=1e-4):
    """Central second differences d2 fn / dx_k dx_l of a vector fn, indexed [i, k, l]."""
    k = len(x)
    out = np.empty((len(fn(x)), k, k))
    for a, b in itertools.product(range(k), repeat=2):
        ea, eb = np.eye(k)[a] * h, np.eye(k)[b] * h
        out[:, a, b] = (fn(x + ea + eb) - fn(x + ea - eb) - fn(x - ea + eb) + fn(x - ea - eb)) / (4 * h * h)
    return out


def test_exact_inverse_hessians_match_second_differences():
    rng, cases = _hessian_cases()
    families = set()
    for model, carried, (lo, hi) in cases:
        idx = [i - 1 for i in carried]

        def prices(z):
            q = np.zeros(model.n)
            q[idx] = z
            return model.portfolio_inverse(q, carried)[idx]

        for _ in range(3):
            z = rng.uniform(lo, hi, len(carried))
            if model.kind == "one_stop":
                z = z * model.alpha[idx]
            q = np.zeros(model.n)
            q[idx] = z
            p = model.portfolio_inverse(q, carried)
            jac = model.portfolio_inverse_jacobian(q, p, carried)
            curvature, has = model.portfolio_inverse_hessians(q[None], p[None], jac[None], carried)
            assert has[0], (model.describe(), carried)
            exact = curvature[0]
            assert exact.shape == (len(carried),) * 3
            reference = _second_differences(prices, z)
            err = np.max(np.abs(exact - reference)) / max(1.0, np.max(np.abs(reference)))
            assert err < 1e-6, (model.describe(), carried, z, err)
        families.add(model.cdf.family if model.kind == "one_stop" else model.kind)
    assert families == {"linear", "eq7", "appendix_b", "exponential", "affine", "power"}


@pytest.mark.parametrize(
    "model",
    [
        OneStopDemand([1.0, 1.2], [1.0, 0.8], StepCdf([0.2, 0.6], [0.5, 0.5])),
        OneStopDemand([1.0, 1.2], [1.0, 0.8], TableCdf([(0.0, 0.0), (0.5, 0.4), (1.5, 1.0)])),
        CustomDemand(2, lambda q: np.array([1.0 - q[0] - 0.2 * q[1], 1.0 - q[1] - 0.2 * q[0]])),
    ],
    ids=["step", "table", "custom"],
)
def test_families_without_an_exact_form_have_no_inverse_hessian(model):
    q = np.array([0.2, 0.3])
    p = model.portfolio_inverse(q, (1, 2))
    jac = model.portfolio_inverse_jacobian(q, p, (1, 2))
    assert not model.portfolio_inverse_hessians(q[None], p[None], jac[None], (1, 2))[1][0]


def test_one_stop_has_no_inverse_hessian_on_a_kink():
    m = OneStopDemand([1.0, 1.2], [1.0, 0.8], AffineClampedCdf(0.0, 2.0))
    for q in ([0.0, 0.3], [0.0, 0.0]):  # a carried product at its choke price
        q = np.array(q)
        assert not m.demand_hessians(m.portfolio_inverse(q, (1, 2))[None], (1, 2))[1][0]
    # store traffic exactly on the CDF's corner at s = a
    kinked = OneStopDemand([1.0, 1.2], [1.0, 0.8], AffineClampedCdf(0.5, 2.0))
    p = np.array([0.0, 1.2 / 0.8])  # product 2 is not carried
    assert not kinked.demand_hessians(p[None], (1,))[1][0]
    assert kinked.demand_hessians((p + [0.1, 0.0])[None], (1,))[1][0]


# ---------------------------------------------------------------------------
# Gross relations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "b,gamma,expected",
    [
        (0.1, 0.5, GrossKind.STRICT_GROSS_COMPLEMENTS),
        (1e-4, 0.3, GrossKind.STRICT_GROSS_COMPLEMENTS),
        (-0.1, -0.5, GrossKind.STRICT_GROSS_SUBSTITUTES),
        (-1e-4, -0.3, GrossKind.STRICT_GROSS_SUBSTITUTES),
    ],
)
def test_eq7_gross_relation(b, gamma, expected):
    report = gross_relation(Eq7Demand(b, gamma))
    assert report.overall is expected
    assert all(kind is expected for kind in report.pairs.values())


class FixedSlopes(DemandModel):
    """Two products whose demand Jacobian is one fixed matrix."""

    kind = "fixed_slopes"

    def __init__(self, d12, d21):
        super().__init__(2)
        self.jac = np.array([[-1.0, d12], [d21, -1.0]])

    def demand_jacobian(self, p):
        return self.jac

    def default_price_region(self):
        return EvaluationRegion((0.1, 0.1), (0.9, 0.9), resolution=3)


@pytest.mark.parametrize(
    "d12,d21,expected",
    [
        # a negative cross-price slope means complements
        (-2e-10, -3.0, GrossKind.STRICT_GROSS_COMPLEMENTS),
        (2e-10, 3.0, GrossKind.STRICT_GROSS_SUBSTITUTES),
        (1e-10, -1e-10, GrossKind.INDEPENDENT),  # slopes exactly at the tolerance
        (0.0, 0.0, GrossKind.INDEPENDENT),
        (-1e-10, -3.0, GrossKind.MIXED),
        (-2e-10, 2e-10, GrossKind.MIXED),
    ],
)
def test_gross_relation_reads_negative_slopes_as_complements(d12, d21, expected):
    report = gross_relation(FixedSlopes(d12, d21))
    assert report.tolerance == 1e-10
    assert report.pair(1, 2) is expected
    assert report.overall is expected


def test_appendix_b_gross_substitutes():
    report = gross_relation(AppendixBDemand(-0.125, -0.8, -1e-4))
    assert report.overall is GrossKind.STRICT_GROSS_SUBSTITUTES


def test_appendix_b_gross_complements_when_positive():
    report = gross_relation(
        AppendixBDemand(0.125, 0.3, 0.05), EvaluationRegion((0.3,) * 3, (0.9,) * 3, 5)
    )
    assert report.overall is GrossKind.STRICT_GROSS_COMPLEMENTS


def test_linear_decoupled_is_independent():
    report = gross_relation(LinearDemand([1.0, 1.0], np.eye(2)))
    assert report.overall is GrossKind.INDEPENDENT


def test_gross_complements_imply_nonnegative_price_cross_slopes():
    # direction check only: the converse is not asserted
    rng = np.random.default_rng(8)
    for model in [Eq7Demand(0.1, 0.5), random_linear_demand(rng, 3, "complements")]:
        report = gross_relation(model)
        assert report.overall is GrossKind.STRICT_GROSS_COMPLEMENTS
        region = model.default_quantity_region()
        for _ in range(10):
            q = np.array([rng.uniform(lo, hi) for lo, hi in zip(region.lower, region.upper)])
            jac = model.inverse_jacobian(q)
            off = jac[~np.eye(model.n, dtype=bool)]
            assert np.all(off >= -1e-10)


def test_gross_substitutes_imply_nonpositive_price_cross_slopes():
    rng = np.random.default_rng(12)
    for model in [Eq7Demand(-0.1, -0.5), random_linear_demand(rng, 3, "substitutes")]:
        report = gross_relation(model)
        assert report.overall is GrossKind.STRICT_GROSS_SUBSTITUTES
        region = model.default_quantity_region()
        for _ in range(10):
            q = np.array([rng.uniform(lo, hi) for lo, hi in zip(region.lower, region.upper)])
            jac = model.inverse_jacobian(q)
            off = jac[~np.eye(model.n, dtype=bool)]
            assert np.all(off <= 1e-10)


def reference_gross_relation(model, region=None, tolerance=1e-10):
    """``gross_relation(...).describe()`` by the earlier per-sample scan.

    Every cross-price slope becomes a (node, i, j, value) sample, and each
    pair's verdict is read off its most negative and most positive sample.
    """
    if region is None:
        region = model.default_price_region()
    samples = {(i, j): [] for i, j in itertools.combinations(range(1, model.n + 1), 2)}
    failures = []
    for node in region.nodes():
        try:
            jac = model.demand_jacobian(node)
        except (DomainError, ConvergenceError) as exc:
            failures.append(f"node {tuple(round(float(x), 6) for x in node)}: {exc}")
            continue
        coords = tuple(float(x) for x in node)
        for (i, j), acc in samples.items():
            acc.append((coords, i, j, float(jac[i - 1, j - 1])))
            acc.append((coords, j, i, float(jac[j - 1, i - 1])))
    kinds = {}
    for key, acc in samples.items():
        if not acc:
            raise ConvergenceError("no usable grid node for gross classification")
        hi = max(acc, key=lambda s: s[3])
        lo = min(acc, key=lambda s: s[3])
        kinds[key] = GROSS_KIND[sign_kind(-hi[3], -lo[3], tolerance)]
    distinct = set(kinds.values())
    return {
        "overall": (distinct.pop() if len(distinct) == 1 else GrossKind.MIXED).value,
        "tolerance": tolerance,
        "pairs": {f"{i},{j}": kind.value for (i, j), kind in sorted(kinds.items())},
        "failures": failures,
    }


class PatchySlopes(DemandModel):
    """Three products whose slopes change sign over the grid; some nodes fail.

    The Jacobian raises DomainError above ``cutoff`` in the first price,
    ConvergenceError at one value of the second, and holds a NaN in one
    slope where the third is high. The scan skips a NaN that is not its
    first value, so that pair keeps its strict verdict.
    """

    kind = "patchy_slopes"

    def __init__(self, cutoff):
        super().__init__(3)
        self.cutoff = cutoff

    def demand_jacobian(self, p):
        if p[0] > self.cutoff:
            raise DomainError(f"first price {p[0]:.3f} above {self.cutoff}")
        if p[1] == 0.5:
            raise ConvergenceError("no root at the middle second price")
        jac = np.outer(p - 0.45, p[::-1] - 0.35) - np.eye(3)
        if p[2] > 0.6:
            jac[0, 2] = math.nan
        return jac

    def default_price_region(self):
        return EvaluationRegion((0.1,) * 3, (0.9,) * 3, resolution=5)


def _reference_models():
    rng = np.random.default_rng(20)
    models = [Eq7Demand(0.0, 0.5), Eq7Demand(0.0, -0.4), Eq7Demand(0.1, -0.5)]
    models += [Eq7Demand(rng.uniform(-0.1, 0.1), rng.uniform(-0.7, 0.7)) for _ in range(3)]
    models += [
        random_linear_demand(rng, n, kind)
        for n in (2, 3, 4)
        for kind in ("complements", "substitutes")
    ]
    models += [
        AppendixBDemand(-0.125, -0.8, -1e-4),
        AppendixBDemand(0.125, 0.3, 0.05),
        OneStopDemand([1.1, 1.4, 1.9], [1.8, 1.2, 1.9], ExponentialCdf(1.5)),
        PatchySlopes(0.75),
    ]
    return models


@pytest.mark.parametrize("model", _reference_models(), ids=lambda m: m.kind)
def test_gross_relation_matches_per_sample_reference(model):
    expected = reference_gross_relation(model)
    assert gross_relation(model).describe() == expected
    if isinstance(model, PatchySlopes):
        assert expected["failures"]
        assert expected["pairs"]["1,2"] == GrossKind.MIXED.value
        assert expected["pairs"]["1,3"] == GrossKind.STRICT_GROSS_SUBSTITUTES.value


def test_gross_relation_without_usable_node_raises_like_reference():
    model = PatchySlopes(0.0)
    with pytest.raises(ConvergenceError, match="no usable grid node"):
        reference_gross_relation(model)
    with pytest.raises(ConvergenceError, match="no usable grid node"):
        gross_relation(model)


def per_node_jacobians(model, nodes):
    """``demand_jacobians`` by one ``demand_jacobian`` call per node, as
    gross_relation once scanned the grid."""
    jacobians, failures = [], []
    for node in nodes:
        try:
            jacobians.append(model.demand_jacobian(node))
        except (DomainError, ConvergenceError) as exc:
            failures.append(f"node {tuple(round(float(x), 6) for x in node)}: {exc}")
    return np.array(jacobians, dtype=float).reshape(-1, model.n, model.n), failures


def _one_stop_models(alpha, beta):
    """The model under each CDF family, scaled to its total surplus at zero prices."""
    total = float(np.sum(np.square(alpha) / (2.0 * np.asarray(beta))))
    cdfs = [
        AffineClampedCdf(0.0, 1.5 * total),
        ExponentialCdf(1.2 / total),
        PowerCdf(2.0, 1.5 * total),
        StepCdf([0.3 * total, 0.8 * total], [0.4, 0.6]),
        TableCdf([(0.0, 0.0), (0.4 * total, 0.3), (0.9 * total, 0.8), (1.5 * total, 1.0)]),
    ]
    return [OneStopDemand(alpha, beta, cdf) for cdf in cdfs]


def _batched_jacobian_cases():
    """(model, region) pairs: seeded draws of each family on its default
    region, plus regions where some nodes fail."""
    rng = np.random.default_rng(31)
    cases = [(Eq7Demand(rng.uniform(-0.3, 0.3), rng.uniform(-0.7, 0.7)), None) for _ in range(3)]
    cases += [(Eq7Demand(0.0, g), None) for g in (0.5, -0.4)]
    # p1 + p2 >= 2 at 1155 of these 9261 nodes
    cases.append((Eq7Demand(0.1, 0.5), EvaluationRegion((0.05,) * 3, (1.3, 1.3, 0.95), 21)))
    cases += [
        (random_linear_demand(rng, n, kind), None)
        for n in (2, 3, 4, 5)
        for kind in ("complements", "substitutes")
    ]
    for sign in (1.0, -1.0):
        b, gamma, alpha = (sign * rng.uniform(lo, hi) for lo, hi in ((0.02, 0.3), (0.1, 0.8), (1e-4, 0.2)))
        cases.append((AppendixBDemand(b, gamma, alpha), None))
    # wide price boxes where the inversion stalls at some nodes
    cases.append((AppendixBDemand(0.9, 0.9, 0.5), EvaluationRegion((-3.0,) * 3, (3.0,) * 3, 5)))
    cases.append((AppendixBDemand(-0.9, -0.9, -0.5), EvaluationRegion((-3.0,) * 3, (3.0,) * 3, 5)))
    cases += [(m, None) for m in _one_stop_models(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3))]
    return cases


@pytest.mark.parametrize(
    "model,region", _batched_jacobian_cases(), ids=lambda x: getattr(x, "kind", "region")
)
def test_demand_jacobians_match_per_node_path(model, region):
    nodes = (region or model.default_price_region()).nodes()
    got, got_failures = model.demand_jacobians(nodes)
    want, want_failures = per_node_jacobians(model, nodes)
    assert got_failures == want_failures
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    if region is not None and model.kind == "eq7":
        assert len(want_failures) == 1155
    elif region is not None:
        assert want_failures and len(want) > 0  # the per-node fallback ran, and not only it


def _default_region_models():
    models = [
        random_linear_demand(np.random.default_rng(4), 3, "complements"),
        Eq7Demand(0.1, 0.5),
        Eq7Demand(0.0, -0.4),
        AppendixBDemand(-0.125, -0.8, -1e-4),
        AppendixBDemand(0.125, 0.3, 0.05),
    ]
    return models + _one_stop_models([1.1, 1.4, 1.9], [1.8, 1.2, 1.9])


@pytest.mark.parametrize("model", _default_region_models(), ids=lambda m: m.kind)
def test_gross_relation_makes_no_per_node_calls_on_default_region(model, monkeypatch):
    calls = []
    per_node = type(model).demand_jacobian

    def counted(self, p):
        calls.append(p)
        return per_node(self, p)

    monkeypatch.setattr(type(model), "demand_jacobian", counted)
    report = gross_relation(model)
    assert not report.failures
    assert len(calls) == 0


def reference_invert(forward, target, start, jacobian=None):
    """Damped Newton solve forward(x) = target for one row, as the per-node
    loop that DemandModel._invert replaced; ``jacobian`` None means central
    differences of ``forward``."""
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


# the appendix_b box where the inversion fails at 533 of 729 nodes
FAILING_BOX = (AppendixBDemand(0.5, 0.8, 0.2), EvaluationRegion((-1.0,) * 3, (4.0,) * 3))


def _log_coupled_custom():
    """Two-product log coupling given as a callback: math.log1p raises
    ValueError below -1, so line-search candidates there are halved."""
    return CustomDemand(
        2,
        lambda q: np.array([1.0 - q[0] + 0.6 * math.log1p(q[1]), 1.0 - q[1] + 0.6 * math.log1p(q[0])]),
    )


def _kinked_custom():
    """P2 = P1 where q2 <= 0, so the difference Jacobian is exactly singular
    there and regular (slope 2 in q2) where q2 > 0."""
    return CustomDemand(2, lambda q: np.array([q[0] + q[1], q[0] + q[1] + max(q[1], 0.0)]))


def _invert_cases():
    """(model, targets, starts, reference Jacobian, failing rows): every
    appendix_b case of _batched_jacobian_cases and the failing box, with
    appendix_b's start and closed-form Jacobian, and two CustomDemand grids
    on the difference path. ``failing rows`` is a count, or a text that
    some but not all failure lines hold."""
    boxes = [(m, r) for m, r in _batched_jacobian_cases() if m.kind == "appendix_b"]
    cases = []
    for k, (model, region) in enumerate(boxes + [FAILING_BOX]):
        nodes = (region or model.default_price_region()).nodes()
        failing = 533 if region is FAILING_BOX[1] else 0 if region is None else "stalled"
        start = np.maximum(1.0 - nodes, -0.5)
        cases.append(pytest.param(model, nodes, start, model.inverse_jacobian, failing, id=f"appendix_b-{k}"))
    nodes = EvaluationRegion((-3.0, -3.0), (3.0, 3.0), 9).nodes()
    start = np.ones_like(nodes)
    cases.append(pytest.param(_log_coupled_custom(), nodes, start, None, "stalled", id="custom-log1p"))
    # one stacked solve with singular and regular rows: starts alternate q2 = -1 and q2 = 1
    nodes = EvaluationRegion((-1.0, 0.5), (3.0, 4.0), 5).nodes()
    start = np.column_stack((np.ones(len(nodes)), np.resize([-1.0, 1.0], len(nodes))))
    cases.append(pytest.param(_kinked_custom(), nodes, start, None, "singular", id="custom-singular"))
    return cases


@pytest.mark.parametrize("model,targets,starts,jacobian,failing", _invert_cases())
def test_invert_matches_per_node_reference(model, targets, starts, jacobian, failing):
    got, errors = model._invert(targets, starts)
    want_failures = []
    for r, (target, start) in enumerate(zip(targets, starts)):
        try:
            want = reference_invert(model.inverse_demand, target, start, jacobian)
        except ConvergenceError as exc:
            want_failures.append((r, str(exc)))
            continue
        assert errors[r] is None
        assert np.array_equal(got[r], want)
        assert np.array_equal(np.signbit(got[r]), np.signbit(want))
    assert [(r, str(e)) for r, e in enumerate(errors) if e is not None] == want_failures
    if isinstance(failing, int):
        assert len(want_failures) == failing
    else:
        assert any(failing in text for _, text in want_failures)
        assert len(want_failures) < len(targets)


def test_gross_relation_on_failing_box_makes_no_per_node_calls(monkeypatch):
    calls = []
    for name in ("demand", "demand_jacobian"):
        per_node = getattr(AppendixBDemand, name)

        def counted(self, p, per_node=per_node):
            calls.append(p)
            return per_node(self, p)

        monkeypatch.setattr(AppendixBDemand, name, counted)
    report = gross_relation(*FAILING_BOX)
    assert len(report.failures) == 533
    assert len(calls) == 0


def test_custom_demand_error_at_the_start_propagates():
    """A model error at the inversion's start is raised as it is, not read
    as a rejected point: demand raises it and each grid node reports it."""

    def inverse(q):
        if q[0] > 0.9:
            raise DomainError(f"q1 = {q[0]} is above 0.9")
        return 1.0 - q

    model = CustomDemand(2, inverse, price_region=EvaluationRegion((0.1, 0.1), (0.9, 0.9), 3))
    with pytest.raises(DomainError, match="q1 = 1.0 is above 0.9"):
        model.demand([0.5, 0.5])
    _, failures = model.demand_jacobians(model.default_price_region().nodes())
    assert len(failures) == 9
    assert all(line.endswith("q1 = 1.0 is above 0.9") for line in failures)
    with pytest.raises(ConvergenceError, match=r"failures: node \(0\.1, 0\.1\): q1 = 1\.0 is above 0\.9"):
        gross_relation(model)


def test_a_stack_with_a_rejected_row_prices_each_row_once():
    """The per-row default of portfolio_inverses, which _invert's line search
    also uses, calls inverse_demand once per row and gives the rejected row
    NaN; it does not price the stack again row by row."""
    calls = []

    def inverse(q):
        calls.append(q.copy())
        if q[0] < 0:
            raise DomainError("quantities must be nonnegative")
        return 1.0 - q

    model = CustomDemand(2, inverse)
    q = np.array([[0.1, 0.2], [0.3, 0.1], [-0.5, 0.2], [0.3, 0.4], [0.6, 0.7]])
    prices = model.portfolio_inverses(q, (1, 2))
    assert len(calls) == 5
    assert np.isnan(prices[2]).all()
    assert np.array_equal(np.delete(prices, 2, axis=0), 1.0 - np.delete(q, 2, axis=0))


# ---------------------------------------------------------------------------
# Inverse-demand modularity
# ---------------------------------------------------------------------------


def test_linear_inverse_modularity_is_both():
    rng = np.random.default_rng(2)
    report = inverse_modularity(random_linear_demand(rng, 3, "complements"))
    assert report.kind is InverseModularityKind.BOTH
    assert report.weakly_submodular


def test_appendix_b_inverse_modularity_weakly_submodular():
    # every cross partial vanishes identically, so weak submodularity holds
    # (jointly with weak supermodularity) for any parameter values
    for b in (-0.125, 0.0, 0.3):
        report = inverse_modularity(AppendixBDemand(b, -0.8, -1e-4))
        assert report.weakly_submodular
        assert abs(report.most_negative.value) <= 1e-8
        assert abs(report.most_positive.value) <= 1e-8


def test_eq7_spillover_curvature_blocks_supermodularity():
    report = inverse_modularity(Eq7Demand(0.0, 0.5))
    assert report.kind is InverseModularityKind.WEAKLY_SUBMODULAR
    node = report.most_negative
    assert node.m == 3 and {node.i, node.j} == {1, 2}
    u = node.node[0] + node.node[1]
    assert node.value == pytest.approx(-0.5 / (4 * u ** 1.5), rel=1e-9)


def test_eq7_negative_spillover_blocks_submodularity():
    report = inverse_modularity(Eq7Demand(0.0, -0.5))
    assert not report.weakly_submodular
    assert report.kind is InverseModularityKind.WEAKLY_SUPERMODULAR


def test_eq7_with_coupling_uses_differences_and_agrees():
    # finite-difference fallback must reproduce the closed-form b=0 curvature
    closed = inverse_modularity(Eq7Demand(0.0, 0.5), EvaluationRegion((0.2,) * 3, (0.8,) * 3, 3))
    fd = inverse_modularity(Eq7Demand(1e-9, 0.5), EvaluationRegion((0.2,) * 3, (0.8,) * 3, 3))
    assert fd.most_negative.value == pytest.approx(closed.most_negative.value, rel=1e-3)
    assert fd.kind not in (InverseModularityKind.WEAKLY_SUPERMODULAR, InverseModularityKind.BOTH)
