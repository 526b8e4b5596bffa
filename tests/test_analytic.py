import math

import numpy as np
import pytest

from rgw import analytic
from rgw.errors import DomainError, UnsupportedTie
from rgw.model import ModelParams, new_law
from tests.conftest import random_law

# frozen oracle values, computed independently before the build:
# I(1/2) for law {1:.5, 2:.5}, q=.5 from the antiderivative of
# sqrt((1-t)(1-2t)) (completing the square), and Gamma(2/3)
MIXED_INTEGRAL = 0.29709684498247119
MIXED_RATE = 0.5 / MIXED_INTEGRAL  # 1.6829529106224611
GAMMA_TWO_THIRDS = 1.3541179394264005


# ---------------------------------------------------------------------------
# weight vectors and contexts
# ---------------------------------------------------------------------------

def test_weight_constructors(binary_params):
    law = binary_params.law
    lin = analytic.linear_weights(law)
    assert lin.weights == {0: 0.0, 2: 2.0}
    assert lin.amax == 2.0 and lin.argmax_unique
    const = analytic.constant_weights(law, 2.0)
    assert const.weights == {0: 2.0, 2: 2.0}
    assert not const.argmax_unique


def test_weight_validation(binary_params):
    law = binary_params.law
    with pytest.raises(DomainError):
        analytic.weights_from_map(law, {0: 1.0})          # wrong keys
    with pytest.raises(DomainError):
        analytic.weights_from_map(law, {0: -1.0, 2: 1.0})  # negative
    with pytest.raises(DomainError):
        analytic.weights_from_map(law, {0: 0.0, 2: 0.0})   # all zero
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            analytic.weights_from_map(law, {0: bad, 2: 1.0})
        with pytest.raises(DomainError):
            analytic.constant_weights(law, bad)


def test_context_criticality(mixed_params):
    ctx = analytic.AnalyticContext(mixed_params, analytic.linear_weights(mixed_params.law))
    assert ctx.criticality == "subcritical-explosive"
    crit = analytic.critical_context(mixed_params)
    assert crit.criticality == "critical"
    assert abs(crit.i_total - mixed_params.q) <= 1e-10
    big = analytic.AnalyticContext(
        mixed_params, analytic.linear_weights(mixed_params.law, 0.25)
    )
    assert big.criticality == "non-explosive"


# ---------------------------------------------------------------------------
# Pi and its integral
# ---------------------------------------------------------------------------

def test_pi_weighted_values(binary_params):
    ctx = analytic.AnalyticContext(binary_params, analytic.linear_weights(binary_params.law))
    assert analytic.pi_weighted(ctx, 0.25) == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert analytic.pi_weighted(ctx, 0.0) == 1.0
    assert analytic.pi_weighted(ctx, 0.5) == 0.0
    with pytest.raises(DomainError):
        analytic.pi_weighted(ctx, 0.6)
    with pytest.raises(DomainError):
        analytic.pi_weighted(ctx, -0.1)


def test_pi_strictly_decreasing(mixed_params):
    ctx = analytic.AnalyticContext(mixed_params, analytic.linear_weights(mixed_params.law))
    xs = np.linspace(0.0, ctx.x_star, 50)
    vals = [analytic.pi_weighted(ctx, float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_integral_binary_closed_form(binary_params):
    # integral of (1-2t)^{p(1-q)/q}: I(x) = (1 - (1-2x)^{a+1}) / (2(a+1))
    ctx = analytic.AnalyticContext(binary_params, analytic.linear_weights(binary_params.law))
    assert analytic.pi_integral(ctx, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert analytic.pi_integral(ctx, 0.0) == 0.0
    for x in (0.1, 0.3, 0.45, 0.499):
        want = (1.0 - (1.0 - 2 * x) ** 2.0) / 4.0 * 4.0 / 3.0
        want = (1.0 - (1.0 - 2 * x) ** 1.5) / 3.0
        assert analytic.pi_integral(ctx, x) == pytest.approx(want, rel=1e-12)


def test_integral_mixed_frozen_value(mixed_params):
    ctx = analytic.AnalyticContext(mixed_params, analytic.linear_weights(mixed_params.law))
    assert analytic.pi_integral(ctx, 0.5) == pytest.approx(MIXED_INTEGRAL, abs=1e-6)
    assert analytic.pi_integral(ctx, 0.5) == pytest.approx(MIXED_INTEGRAL, rel=1e-12)


def test_integral_monotone_and_inverse(mixed_params):
    ctx = analytic.AnalyticContext(mixed_params, analytic.linear_weights(mixed_params.law))
    xs = np.linspace(0.0, ctx.x_star, 23)
    vals = [analytic.pi_integral(ctx, float(x)) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for x, v in zip(xs, vals):
        assert analytic.pi_integral_inverse(ctx, v) == pytest.approx(float(x), abs=1e-13)
    with pytest.raises(DomainError):
        analytic.pi_integral_inverse(ctx, ctx.i_total * 1.01)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rate_binary_closed_form():
    for p, q in ((0.5, 0.5), (0.3, 0.7), (0.8, 0.2)):
        params = ModelParams(new_law({0: 1 - p, 2: p}), q)
        prof = analytic.malthusian_rate(params)
        assert prof.m == pytest.approx(2 * (q + (1 - q) * p), rel=1e-13)


def test_rate_mixed_profile(mixed_params):
    prof = analytic.malthusian_rate(mixed_params)
    assert prof.m == pytest.approx(1.682949, abs=1e-5)
    assert prof.m == pytest.approx(MIXED_RATE, rel=1e-12)
    assert prof.lower == pytest.approx(1.5)
    assert prof.upper == pytest.approx(1.75)
    assert prof.beta == pytest.approx(1.5)
    assert prof.mean_limit == pytest.approx(2.0 / 3.0)
    assert prof.error_exponent == pytest.approx(2.0 / 3.0)
    assert prof.error_exponent == pytest.approx(1.0 / prof.beta, rel=1e-15)
    assert prof.log_m == pytest.approx(math.log(prof.m))


def test_rate_exceeds_qkstar():
    rng = np.random.default_rng(11)
    for _ in range(20):
        law = random_law(rng)
        q = float(rng.uniform(0.05, 0.95))
        prof = analytic.malthusian_rate(ModelParams(law, q))
        assert prof.m > q * law.kstar
        assert prof.lower <= prof.m <= prof.upper


def test_rate_limits(mixed_params):
    law = mixed_params.law
    m_lo, m_hi = analytic.rate_limits(law, 1e-4, 1 - 1e-4)
    assert abs(m_lo / 1.5 - 1) < 0.01   # q -> 0: mean of the law
    assert abs(m_hi / 2.0 - 1) < 0.01   # q -> 1: max support point
    a, b = analytic.rate_limits(law, 0.3, 0.6)
    assert a < b
    with pytest.raises(DomainError):
        analytic.rate_limits(law, 0.6, 0.3)


# ---------------------------------------------------------------------------
# explosion time and flow
# ---------------------------------------------------------------------------

def test_explosion_time_binary(binary_params):
    a = analytic.linear_weights(binary_params.law)
    rho = analytic.explosion_time(binary_params, a)
    assert rho == pytest.approx(math.log(3.0), rel=1e-12)


def test_explosion_time_constant_weights(mixed_params, binary_params):
    for params in (mixed_params, binary_params):
        a = analytic.constant_weights(params.law, 2.0)
        rho = analytic.explosion_time(params, a)
        assert rho == pytest.approx(math.log(2.0), abs=1e-10)


def test_explosion_time_critical_is_infinite(mixed_params):
    a = analytic.critical_weights(mixed_params)
    assert analytic.explosion_time(mixed_params, a) == math.inf


def test_flow_initial_conditions(mixed_params):
    ctx = analytic.critical_context(mixed_params)
    value, deriv = analytic.flow(ctx, 0.0)
    assert value == pytest.approx(0.0, abs=1e-14)
    assert deriv == pytest.approx(1.0, abs=1e-12)


def test_flow_constant_weight_closed_form(mixed_params):
    c, q = 2.0, mixed_params.q
    a = analytic.constant_weights(mixed_params.law, c)
    ctx = analytic.AnalyticContext(mixed_params, a)
    for t in (0.1, 0.3, 0.5, 0.65):
        want = (1.0 - (1.0 - c * (1.0 - math.exp(-t))) ** q) / (q * c)
        got, _ = analytic.flow(ctx, t)
        assert got == pytest.approx(want, rel=1e-11)


def test_flow_critical_limit(mixed_params):
    ctx = analytic.critical_context(mixed_params)
    value, _ = analytic.flow(ctx, 45.0)
    assert value == pytest.approx(1.0 / (mixed_params.q * ctx.a.amax), rel=1e-10)


def test_flow_consistency_derivative(mixed_params):
    # d/dt I_a(q A(t)) = q e^{-t}, checked by finite differences
    ctx = analytic.critical_context(mixed_params)
    q = mixed_params.q
    h = 1e-5
    for t in np.linspace(0.05, 3.0, 50):
        ap, _ = analytic.flow(ctx, float(t + h))
        am, _ = analytic.flow(ctx, float(t - h))
        lhs = (analytic.pi_integral(ctx, q * ap) - analytic.pi_integral(ctx, q * am)) / (2 * h)
        assert lhs == pytest.approx(q * math.exp(-t), abs=1e-6)


def test_flow_domain_errors(mixed_params):
    a = analytic.linear_weights(mixed_params.law)
    ctx = analytic.AnalyticContext(mixed_params, a)
    rho = ctx.explosion_time
    with pytest.raises(DomainError):
        analytic.flow(ctx, rho)
    with pytest.raises(DomainError):
        analytic.flow(ctx, -0.5)


# ---------------------------------------------------------------------------
# phi and the closed-form moment generating functions
# ---------------------------------------------------------------------------

def test_phi_initial_value(mixed_params):
    ctx = analytic.critical_context(mixed_params)
    m = analytic.malthusian_rate(mixed_params).m
    want = 0.5 * (0.5 * (1.0 / m) + 0.5 * (2.0 / m)) - 1.0
    assert analytic.phi(ctx, 0.0) == pytest.approx(want, abs=1e-12)
    assert analytic.phi(ctx, 0.0) == pytest.approx(-0.554346, abs=1e-5)


def test_phi_binary_is_constant(binary_params):
    ctx = analytic.critical_context(binary_params)
    limit = analytic.phi_limit(ctx)
    p, q = 0.5, 0.5
    assert limit == pytest.approx(-q / (q + (1 - q) * p), rel=1e-14)
    for t in (0.0, 0.5, 2.0, 10.0, 25.0):
        assert analytic.phi(ctx, t) == pytest.approx(limit, abs=1e-12)


def test_phi_converges_to_limit(mixed_params):
    ctx = analytic.critical_context(mixed_params)
    limit = analytic.phi_limit(ctx)
    assert abs(analytic.phi(ctx, 30.0) - limit) < 1e-4
    assert abs(analytic.phi(ctx, 40.0) - limit) < 1e-5


def test_phi_limit_requires_unique_argmax(mixed_params):
    # constant critical weights (c = 1 makes i_a = q) tie at the maximum
    a = analytic.constant_weights(mixed_params.law, 1.0)
    ctx = analytic.AnalyticContext(mixed_params, a)
    assert ctx.criticality == "critical"
    with pytest.raises(UnsupportedTie):
        analytic.phi_limit(ctx)
    lin = analytic.AnalyticContext(mixed_params, analytic.linear_weights(mixed_params.law))
    with pytest.raises(DomainError):
        analytic.phi_limit(lin)  # not critical


def test_mgf_closed_basics(mixed_params, binary_params):
    ctx = analytic.critical_context(mixed_params)
    for j in (1, 2):
        assert analytic.mgf_closed(ctx, j, 0.0) == pytest.approx(ctx.a[j], rel=1e-12)
    bctx = analytic.critical_context(binary_params)
    assert analytic.mgf_closed(bctx, 0, 5.0) == 0.0
    with pytest.raises(DomainError):
        analytic.mgf_closed(ctx, 3, 0.0)


def test_mgf_closed_constant_weights_monotype(mixed_params):
    # constant weights reduce to the single-type population: c e^-t / (1 - c(1-e^-t))
    c = 2.0
    a = analytic.constant_weights(mixed_params.law, c)
    ctx = analytic.AnalyticContext(mixed_params, a)
    for t in (0.05, 0.2, 0.4, 0.6):
        want = c * math.exp(-t) / (1.0 - c * (1.0 - math.exp(-t)))
        for j in (1, 2):
            assert analytic.mgf_closed(ctx, j, t) == pytest.approx(want, rel=1e-11)


# ---------------------------------------------------------------------------
# gamma and the conditional limit constants
# ---------------------------------------------------------------------------

def test_gamma_binary_is_one(binary_params):
    assert analytic.gamma_constant(binary_params) == pytest.approx(1.0, abs=1e-10)
    assert analytic.gamma_closed_form(binary_params) == pytest.approx(1.0, rel=1e-14)


def test_gamma_quadrature_matches_closed_form(mixed_params):
    quad = analytic.gamma_constant(mixed_params)
    closed = analytic.gamma_closed_form(mixed_params)
    assert quad == pytest.approx(closed, abs=1e-7)
    # regression anchor recorded at build time
    assert quad == pytest.approx(1.3091926758, abs=1e-6)


def test_gamma_stability_under_horizon_doubling(mixed_params):
    seq = analytic._gamma_sequence(mixed_params)
    finite = [g for T, g in seq if math.isfinite(T)]
    assert len(finite) >= 2
    assert abs(finite[-1] - finite[-2]) < 1e-6


def test_conditional_limit_binary(binary_params):
    # ell = k*: 1/(q + nu(k*)(1-q)) = 4/3, and the scaled mean is exactly
    # that for every generation (checked against the DP in test_exact)
    val = analytic.conditional_limit_constant(binary_params, 2)
    assert val == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert analytic.conditional_limit_constant(binary_params, 0) == 0.0


def test_conditional_limit_mixed(mixed_params):
    m = analytic.malthusian_rate(mixed_params).m
    gam = analytic.gamma_constant(mixed_params)
    want = gam / (math.gamma(1.0 / 3.0) * m * 0.5)
    got = analytic.conditional_limit_constant(mixed_params, 1)
    assert got == pytest.approx(want, rel=1e-9)
    with pytest.raises(DomainError):
        analytic.conditional_limit_constant(mixed_params, 7)


def test_gamma_function_values():
    assert analytic.gamma_function(1.0) == 1.0
    assert analytic.gamma_function(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert analytic.gamma_function(2.0 / 3.0) == pytest.approx(GAMMA_TWO_THIRDS, abs=1e-7)
    assert analytic.gamma_function(5.0) == pytest.approx(24.0, rel=1e-14)
    # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
    for x in (0.25, 0.4, 0.7):
        lhs = analytic.gamma_function(x) * analytic.gamma_function(1 - x)
        assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)
    with pytest.raises(DomainError):
        analytic.gamma_function(0.0)
    with pytest.raises(DomainError):
        analytic.gamma_function(-1.5)
