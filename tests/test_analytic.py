import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rgw import analytic
from rgw.errors import DomainError, NotConverged, UnsupportedTie
from rgw.model import ModelParams, new_law
from tests.conftest import random_law

# frozen oracle values, computed independently before the build:
# I(1/2) for law {1:.5, 2:.5}, q=.5 from the antiderivative of
# sqrt((1-t)(1-2t)) (completing the square)
MIXED_INTEGRAL = 0.29709684498247119
MIXED_RATE = 0.5 / MIXED_INTEGRAL  # 1.6829529106224611


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

def test_pi_values_and_domain(binary_params):
    ctx = analytic.AnalyticContext(binary_params, analytic.linear_weights(binary_params.law))
    assert float(ctx._pi(0.25)) == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert float(ctx._pi(0.0)) == 1.0
    assert float(ctx._pi(0.5)) == 0.0
    with pytest.raises(DomainError):
        analytic.pi_integral(ctx, 0.6)
    with pytest.raises(DomainError):
        analytic.pi_integral(ctx, -0.1)


def test_pi_strictly_decreasing(mixed_params):
    ctx = analytic.AnalyticContext(mixed_params, analytic.linear_weights(mixed_params.law))
    xs = np.linspace(0.0, ctx.x_star, 50)
    vals = [float(ctx._pi(float(x))) for x in xs]
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


def _mp_integral(law, q, x):
    """I(x) for linear weights by mpmath's tanh-sinh quadrature at 30 digits,
    on panels graded towards 0 (where Pi_a concentrates when q is small)
    and with the singular endpoint x* = 1/k* as a panel end."""
    with mpmath.workdps(30):
        expo = {j: mpmath.mpf(law.mass(j)) * (1 - mpmath.mpf(q)) / q
                for j in law.support if j > 0}

        def pi(y):
            return mpmath.fprod((1 - y * j) ** e for j, e in expo.items())

        def graded(b):
            return [b * f for f in (0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1)]

        x_star = mpmath.mpf(1) / law.kstar
        x = min(mpmath.mpf(x), x_star)  # the double x* may round above 1/k*
        if x < x_star / 2:
            return mpmath.quad(pi, graded(x))
        return mpmath.quad(pi, graded(x_star)) - mpmath.quad(pi, [x, x_star])


# 2-4 point laws; q down to 1e-3 puts E far above _GJ_MAX_EXPONENT
_laws = st.lists(st.integers(0, 7), min_size=2, max_size=4, unique=True).filter(
    lambda pts: max(pts) > 0).flatmap(
    lambda pts: st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)).map(
        lambda w: new_law({k: v / sum(w) for k, v in zip(sorted(pts), w)})))
_qs = st.floats(math.log(1e-3), math.log(0.95)).map(math.exp)
_FRACTIONS = (1e-9, 1e-3, 0.3, 0.7, 1 - 1e-6)


@settings(max_examples=15, deadline=None)
@given(law=_laws, q=_qs)
@example(law=new_law({1: 0.5, 7: 0.5}), q=1e-3)
@example(law=new_law({0: 0.5, 5: 0.5}), q=math.exp(-1.0))
def test_rate_and_integral_match_mpmath(law, q):
    params = ModelParams(law, q)
    ctx = analytic.AnalyticContext(params, analytic.linear_weights(law))
    m = analytic.malthusian_rate(params).m
    assert abs(m / float(q / _mp_integral(law, q, ctx.x_star)) - 1) <= 1e-12
    for f in _FRACTIONS:
        x = f * ctx.x_star
        want = float(_mp_integral(law, q, x))
        assert abs(analytic.pi_integral(ctx, x) / want - 1) <= 1e-12, f


@settings(max_examples=40, deadline=None)
@given(law=_laws, q=_qs)
@example(law=new_law({1: 0.5, 7: 0.5}), q=1e-3)
@example(law=new_law({2: 0.25, 4: 0.25, 6: 0.25, 7: 0.25}), q=1e-3)  # subnormal tails
def test_inverse_residual(law, q):
    # at small q, I saturates to i_total in double precision, so the inverse
    # is judged by its residual, not by its distance to x
    ctx = analytic.AnalyticContext(ModelParams(law, q), analytic.linear_weights(law))
    for f in _FRACTIONS:
        v = analytic.pi_integral(ctx, f * ctx.x_star)
        x_hat = analytic.pi_integral_inverse(ctx, v)
        assert abs(analytic.pi_integral(ctx, x_hat) - v) <= 1e-13 * ctx.i_total, f


def test_small_x_integral_keeps_relative_accuracy(mixed_params):
    ctx = analytic.AnalyticContext(mixed_params, analytic.linear_weights(mixed_params.law))
    x = 1e-9 * ctx.x_star
    want = float(_mp_integral(mixed_params.law, mixed_params.q, x))
    assert abs(analytic.pi_integral(ctx, x) / want - 1) <= 1e-13


@pytest.mark.parametrize("d", [1e-2, 1e-5, 1e-8, 1e-12])
def test_near_tied_weights_total(mixed_params, d):
    # the second branch point sits d/(2(2-d)) beyond x* = 1/2
    a = analytic.weights_from_map(mixed_params.law, {1: 2.0 - d, 2: 2.0})
    ctx = analytic.AnalyticContext(mixed_params, a)
    with mpmath.workdps(40):
        a1 = 2 - mpmath.mpf(d)
        half = mpmath.mpf(1) / 2
        want = mpmath.quad(lambda y: mpmath.sqrt((1 - y * a1) * (1 - 2 * y)),
                           [0, half * (1 - mpmath.mpf(d)), half])
    assert abs(ctx.i_total / float(want) - 1) <= 1e-15


@pytest.mark.parametrize("masses", [{1: 0.5, 6: 0.5}, {5: 0.5, 6: 0.5}])
def test_newton_start_does_not_overflow(masses):
    # E = 499.5 and a_max = 6: a_max**E overflows a float; for {5, 6} the
    # smooth factor (1/6)^499.5 at x* also underflows to 0
    law, q = new_law(masses), 0.001
    ctx = analytic.AnalyticContext(ModelParams(law, q), analytic.linear_weights(law))
    for t in (0.1, 0.5, 0.9):
        t *= ctx.explosion_time
        value, deriv = analytic.flow(ctx, t)
        assert 0.0 < q * value < ctx.x_star and math.isfinite(deriv)
        v = -q * math.expm1(-t)
        assert abs(analytic.pi_integral(ctx, q * value) - v) <= 1e-13 * ctx.i_total


def test_panel_rule_raises_when_not_converged(mixed_params, monkeypatch):
    a = analytic.weights_from_map(mixed_params.law, {1: 2.0 - 1e-8, 2: 2.0})
    monkeypatch.setattr(analytic, "_PANEL_BUDGET", 8)
    with pytest.raises(NotConverged):
        analytic.AnalyticContext(mixed_params, a)  # needs ~27 halvings at x*
    monkeypatch.undo()
    ctx = analytic.AnalyticContext(mixed_params, analytic.linear_weights(mixed_params.law))
    monkeypatch.setattr(ctx, "_smooth", lambda y: np.full(np.shape(y), math.nan))
    with pytest.raises(NotConverged):
        analytic.pi_integral(ctx, 0.1)


def test_panel_rule_missing_the_peak_raises():
    # Pi_a = (1 - x)^(1/q - 1) here, so i_a = q exactly; at q = 1e-6 every
    # Gauss node misses the peak at 0 and both orders read 0
    law = new_law({1: 0.5, 2: 0.5})
    a = analytic.constant_weights(law, 1.0)
    with pytest.raises(NotConverged):
        analytic.explosion_time(ModelParams(law, 1e-6), a)
    with pytest.raises(NotConverged):
        analytic.malthusian_rate(ModelParams(law, 3e-7))
    ctx = analytic.AnalyticContext(ModelParams(law, 1.5e-6), a)
    assert ctx.i_total == pytest.approx(1.5e-6, rel=1e-12)
    assert ctx.explosion_time == math.inf


def test_newton_raises_at_iteration_cap(mixed_params, monkeypatch):
    ctx = analytic.critical_context(mixed_params)
    monkeypatch.setattr(analytic, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NotConverged):
        analytic.flow(ctx, 2.0)
    with pytest.raises(NotConverged):
        analytic.pi_integral_inverse(ctx, 0.1 * ctx.i_total)


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


@st.composite
def _bound_laws(draw):
    """2-5 support points in 0..12, with or without 0, masses from integer weights 1-20."""
    zero = draw(st.booleans())
    pts = draw(st.lists(st.integers(1, 12), min_size=2 - zero, max_size=5 - zero, unique=True))
    pts = sorted(pts + [0] * zero)
    w = draw(st.lists(st.integers(1, 20), min_size=len(pts), max_size=len(pts)))
    return new_law({k: x / sum(w) for k, x in zip(pts, w)})


@settings(max_examples=150, deadline=None)
@given(law=_bound_laws(), q=st.floats(0.01, 0.99))
def test_rate_within_domination_bounds(law, q):
    prof = analytic.malthusian_rate(ModelParams(law, q))
    tol = 1e-12 * law.kstar
    assert prof.lower - tol <= prof.m <= prof.upper + tol
    if len(law.positive_support) >= 2:
        assert prof.lower < prof.m < prof.upper
    else:
        # one positive point: both bounds are k* (q + (1 - q) nu_k*)
        assert prof.upper - prof.lower <= tol


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
    # on a critical context q e^{-t} leaves the normal float range at t = 708
    crit = analytic.critical_context(mixed_params)
    for fn in (analytic.flow, analytic.phi, lambda c, t: analytic.mgf_closed(c, 1, t)):
        with pytest.raises(DomainError):
            fn(ctx, math.nan)
        for t in (745.0, 800.0):
            with pytest.raises(DomainError):
                fn(crit, t)
        assert np.all(np.isfinite(fn(crit, 700.0)))


def _mp_pi_and_log_slope(law, q, x):
    """Pi_a(x) for linear weights at 30 digits, and |d log Pi_a / dx| there."""
    with mpmath.workdps(30):
        expo = {j: mpmath.mpf(law.mass(j)) * (1 - mpmath.mpf(q)) / q
                for j in law.support if j > 0}
        pi = mpmath.fprod((1 - x * j) ** e for j, e in expo.items())
        return pi, mpmath.fsum(e * j / (1 - x * j) for j, e in expo.items())


@settings(max_examples=15, deadline=None)
@given(law=_laws, q=st.floats(0.05, 0.95))
def test_explosion_time_matches_mpmath(law, q):
    # pi_integral promises i_a to relative 1e-11, and rho = -log(1 - i_a/q)
    # moves by d i_a / (q - i_a), so rho may be off by 1e-11 i_a / (q - i_a)
    rho = analytic.explosion_time(ModelParams(law, q), analytic.linear_weights(law))
    with mpmath.workdps(30):
        i_a = _mp_integral(law, q, mpmath.mpf(1) / law.kstar)
        if i_a >= q * (1 + 1e-9):
            assert rho == math.inf
            return
        assume(i_a <= q * (1 - 1e-9))
        want = -mpmath.log(1 - i_a / q)
        assert abs(rho - want) <= 1e-11 * i_a / (q - i_a)


@settings(max_examples=15, deadline=None)
@given(law=_laws, q=st.floats(0.05, 0.95), frac=st.floats(0.01, 0.9))
@example(law=new_law({1: 0.5, 2: 0.5}), q=0.5, frac=0.9)
def test_flow_matches_mpmath_root(law, q, frac):
    # flow promises x = q A(t) to absolute 1e-13; A'(t) = e^{-t} / Pi_a(x)
    # then moves by |d log Pi_a / dx| times that, and by 1e-13 from Pi_a itself
    ctx = analytic.AnalyticContext(ModelParams(law, q), analytic.linear_weights(law))
    assume(math.isfinite(ctx.explosion_time))
    t = frac * ctx.explosion_time
    value, deriv = analytic.flow(ctx, t)
    with mpmath.workdps(30):
        target = q * -mpmath.expm1(-mpmath.mpf(t))
        x = mpmath.mpf(q * value)
        for _ in range(2):  # Newton from flow's own root, I_a' = Pi_a
            x -= (_mp_integral(law, q, x) - target) / _mp_pi_and_log_slope(law, q, x)[0]
        pi, slope = _mp_pi_and_log_slope(law, q, x)
        assert abs(q * value - x) <= 1e-13
        assert abs(deriv * pi / mpmath.exp(-mpmath.mpf(t)) - 1) <= 1e-13 * (1 + slope)


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


def test_mgf_closed_checks_time_at_zero_weight(binary_params):
    # a_0 = 0 under linear weights: M_0 is 0, but only at admissible times
    ctx = analytic.AnalyticContext(binary_params, analytic.linear_weights(binary_params.law))
    rho = ctx.explosion_time
    assert math.isfinite(rho)
    for t in (math.nan, -1.0, rho, 2.0 * rho):
        for ell in (0, 2):
            with pytest.raises(DomainError):
                analytic.mgf_closed(ctx, ell, t)
    assert analytic.mgf_closed(ctx, 0, 0.5 * rho) == 0.0


_weight_values = st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(0.1, 3.0)


@settings(max_examples=30, deadline=None)
@given(law=_laws, q=st.floats(0.1, 0.9), weights=st.lists(_weight_values, min_size=4,
       max_size=4), frac=st.floats(0.0, 0.95))
def test_mgf_vector_is_mgf_closed_and_gives_phi(law, q, weights, frac):
    assume(max(weights[:len(law.support)]) > 0)
    a = analytic.weights_from_map(law, dict(zip(law.support, weights)))
    ctx = analytic.AnalyticContext(ModelParams(law, q), a)
    rho = ctx.explosion_time
    t = frac * (rho if math.isfinite(rho) else 10.0)
    vec = analytic.mgf_vector(ctx, t)
    closed = [analytic.mgf_closed(ctx, j, t) for j in law.support]
    assert vec == closed
    want = (1.0 - q) * sum(law.mass(j) * m for j, m in zip(law.support, closed)) - 1.0
    assert abs(analytic.phi(ctx, t) - want) <= 1e-13 * max(1.0, abs(want))


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


def test_gamma_unsettled_at_horizon_cap_raises(mixed_params, binary_params, monkeypatch):
    # at T = 8 the mixed law's tail correction is about 5e-3; the binary
    # law's phi is constant, so its correction is 0 and the value stands
    monkeypatch.setattr(analytic, "_GAMMA_HORIZON", 8.0)
    with pytest.raises(NotConverged):
        analytic.gamma_constant(mixed_params)
    assert analytic.gamma_constant(binary_params) == pytest.approx(1.0, abs=1e-10)


def test_gamma_small_q_within_cap():
    # beta = 25.5: gamma needs the full horizon cap, where the tail
    # correction (about 7e-9) is still small enough to stand
    params = ModelParams(new_law({1: 0.5, 2: 0.5}), 0.02)
    want = analytic.gamma_closed_form(params)
    assert analytic.gamma_constant(params) == pytest.approx(want, rel=1e-11)
    # beta = 50.5: the correction at the cap is still about 1.5e-4
    with pytest.raises(NotConverged):
        analytic.gamma_constant(ModelParams(new_law({1: 0.5, 2: 0.5}), 0.01))


@settings(max_examples=40, deadline=None)
@given(law=_laws, q=st.floats(0.05, 0.95))
def test_gamma_constant_matches_closed_form(law, q):
    params = ModelParams(law, q)
    want = analytic.gamma_closed_form(params)
    assert analytic.gamma_constant(params) == pytest.approx(want, rel=1e-11)


def _phi_shift_integral(ctx, beta, lo, hi):
    """integral_lo^hi (phi(t) + 1/beta) dt by composite 24-node
    Gauss-Legendre on panels of width at most 2: a quadrature of phi,
    independent of the flow identity gamma_T = A'(T) e^{T/beta}."""
    nodes, wts = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / 2.0)) + 1)
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        vals = [analytic.phi(ctx, float(mid + half * u)) + 1.0 / beta for u in nodes]
        pieces.append(half * math.fsum(w * v for w, v in zip(wts, vals)))
    return math.fsum(pieces)


@pytest.mark.parametrize("masses, q", [({1: 0.5, 2: 0.5}, 0.5), ({0: 0.2, 1: 0.3, 3: 0.5}, 0.4)])
def test_gamma_sequence_matches_phi_quadrature(masses, q):
    params = ModelParams(new_law(masses), q)
    ctx = analytic.critical_context(params)
    beta = analytic.malthusian_rate(params).beta
    seq = [(T, g) for T, g in analytic._gamma_sequence(params) if math.isfinite(T)]
    assert len(seq) >= 2
    total, lo = 0.0, 0.0
    for T, g in seq:
        total += _phi_shift_integral(ctx, beta, lo, T)
        assert g == pytest.approx(math.exp(total), rel=1e-12)
        lo = T


def test_gamma_solves_one_flow_point_per_horizon(mixed_params, monkeypatch):
    # horizons 8, 16, 32 and 64, and phi(64) for the tail correction
    real, times = analytic._flow_point, []

    def counted(ctx, t):
        times.append(t)
        return real(ctx, t)

    monkeypatch.setattr(analytic, "_flow_point", counted)
    analytic.gamma_constant(mixed_params)
    assert 0 < len(times) <= 6


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
