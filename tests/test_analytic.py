import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rgw import analytic
from rgw.errors import DomainError, NotConverged, RgwError, UnsupportedTie
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

def test_integral_binary_closed_form(binary_params):
    # Pi_a(x) = (1-2x)^{1/2}: the tail of width 1/2 - x is (1-2x)^{3/2} / 3,
    # checked on its own down to widths of 1e-12 x*
    ctx = analytic.AnalyticContext(binary_params, analytic.linear_weights(binary_params.law))
    assert ctx.i_total == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert ctx._integral(0.0) == 0.0
    for x in (0.1, 0.3, 0.45, 0.499, 0.5 - 0.5e-6, 0.5 - 0.5e-9, 0.5 - 0.5e-12):
        want = (1.0 - 2 * x) ** 1.5 / 3.0
        assert ctx._integral(0.5 - x) == pytest.approx(want, rel=1e-12)


def test_integral_mixed_frozen_value(mixed_params):
    ctx = analytic.AnalyticContext(mixed_params, analytic.linear_weights(mixed_params.law))
    assert ctx.i_total == pytest.approx(MIXED_INTEGRAL, abs=1e-6)
    assert ctx.i_total == pytest.approx(MIXED_INTEGRAL, rel=1e-12)


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


# 2-4 point laws; q down to 1e-3 puts E near 1000, where the tail spans
# hundreds of decades
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
        if f >= 0.5:  # I_a(x) = i_a - tail(x* - x)
            x = f * ctx.x_star
            got = ctx.i_total - ctx._integral(ctx.x_star - x)
            assert abs(got / float(_mp_integral(law, q, x)) - 1) <= 1e-12, f


@settings(max_examples=40, deadline=None)
@given(law=_laws, q=_qs)
@example(law=new_law({1: 0.5, 7: 0.5}), q=1e-3)
@example(law=new_law({2: 0.25, 4: 0.25, 6: 0.25, 7: 0.25}), q=1e-3)  # subnormal tails
@example(law=new_law({4: 0.5625, 5: 0.3125, 7: 0.125}), q=0.003)  # f = 0.3: start clamped to x*
@example(law=new_law({4: 0.5, 5: 0.5}), q=math.exp(-4.125))  # f = 1e-9: tail 4.2e-307
def test_inverse_residual(law, q):
    # at small q the tail spans hundreds of decades, so the inverse is
    # judged by its residual, not by its distance to the width; below about
    # 1e-300 the panel products go subnormal, and the residual may reach
    # the panel rule's own absolute floor of 1e-305
    ctx = analytic.AnalyticContext(ModelParams(law, q), analytic.linear_weights(law))
    for f in _FRACTIONS:
        eps = ctx._integral(f * ctx.x_star)
        sigma, _ = ctx._inverse_tail(eps)
        assert abs(ctx._integral(sigma) - eps) <= 1e-13 * eps + 1e-305, f


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
        assert abs(float(_mp_integral(law, q, q * value)) - v) <= 1e-13 * ctx.i_total


def test_panel_rule_raises_when_not_converged(mixed_params, monkeypatch):
    law = new_law({1: 0.5, 2: 0.5})
    monkeypatch.setattr(analytic, "_PANEL_BUDGET", 8)
    with pytest.raises(NotConverged):  # the peak of Pi_a at 0, about q wide, takes 13 panels
        analytic.AnalyticContext(ModelParams(law, 1e-3), analytic.linear_weights(law))
    monkeypatch.undo()
    ctx = analytic.AnalyticContext(mixed_params, analytic.linear_weights(mixed_params.law))
    monkeypatch.setattr(ctx, "_smooth", lambda y: np.full(np.shape(y), math.nan))
    with pytest.raises(NotConverged):
        ctx._integral(0.1)


def test_panel_rule_stops_at_a_panel_it_cannot_halve():
    # below q = 1e-17 the peak of Pi_a at 0, about q wide, lies in a panel
    # whose ends in s are adjacent floats next to x* = 1/2, which halving
    # would only split into itself and an empty panel
    law = new_law({1: 0.5, 2: 0.5})
    for q in (1e-18, 1e-20):
        with pytest.raises(NotConverged, match="adjacent floats"):
            analytic.malthusian_rate(ModelParams(law, q))


def test_panel_rule_missing_the_peak_raises():
    # Pi_a = (1 - x)^(1/q - 1) here, so i_a = q exactly; at q = 1e-30 the
    # peak at 0 is narrower than the first node and every node reads 0
    law = new_law({1: 0.5, 2: 0.5})
    a = analytic.constant_weights(law, 1.0)
    with pytest.raises(NotConverged):
        analytic.explosion_time(ModelParams(law, 1e-30), a)
    with pytest.raises(NotConverged):
        analytic.malthusian_rate(ModelParams(law, 1e-30))
    for q in (1e-6, 1.5e-6):
        ctx = analytic.AnalyticContext(ModelParams(law, q), a)
        assert abs(ctx.i_total / q - 1) <= 1e-15
        assert ctx.explosion_time == math.inf


def test_newton_raises_at_iteration_cap(mixed_params, monkeypatch):
    ctx = analytic.critical_context(mixed_params)
    monkeypatch.setattr(analytic, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NotConverged):
        analytic.flow(ctx, 2.0)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rate_binary_closed_form():
    for p, q in ((0.5, 0.5), (0.3, 0.7), (0.8, 0.2)):
        params = ModelParams(new_law({0: 1 - p, 2: p}), q)
        prof = analytic.malthusian_rate(params)
        assert prof.m == pytest.approx(2 * (q + (1 - q) * p), rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 8), p=st.floats(0.05, 0.95),
       q=st.floats(math.log(1e-6), math.log(0.95)).map(math.exp))
def test_binary_rate_closed_form_at_small_q(k, p, q):
    # E = p(1-q)/q reaches 1e6: the rate is still k (q + (1-q) nu_k)
    law = new_law({0: 1 - p, k: p})
    m = analytic.malthusian_rate(ModelParams(law, q)).m
    assert abs(m / (k * (q + (1 - q) * law.mass(k))) - 1) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(law=_laws, q=st.floats(math.log(1e-12), math.log(0.95)).map(math.exp))
def test_constant_weights_integral_is_q(law, q):
    # a_j = 1 makes Pi_a = (1 - x)^(1/q - 1), so i_a = q exactly
    ctx = analytic.AnalyticContext(ModelParams(law, q), analytic.constant_weights(law, 1.0))
    assert abs(ctx.i_total / q - 1) <= 1e-15


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


@settings(max_examples=25, deadline=None)
@given(law=_laws, q=_qs, kind=st.sampled_from(["random", "critical"]),
       w=st.lists(st.integers(0, 8), min_size=8, max_size=8),
       c=st.floats(math.log(0.1), math.log(10.0)).map(math.exp))
@example(law=new_law({1: 0.5, 2: 0.5}), q=0.5, kind="random", w=[1] * 8, c=1.0000000001)
def test_explosion_time_is_finite_iff_explosive(law, q, kind, w, c):
    params = ModelParams(law, q)
    if kind == "critical":
        a = analytic.critical_weights(params)
    else:
        assume(any(w[j] for j in law.support))
        a = analytic.weights_from_map(law, {j: c * w[j] for j in law.support})
    ctx = analytic.AnalyticContext(params, a)
    rho = ctx.explosion_time
    assert math.isfinite(rho) == (ctx.criticality == analytic.EXPLOSIVE)
    assert rho > 0
    assert analytic.explosion_time(params, a) == rho


@settings(max_examples=40, deadline=None)
@given(law=_laws, q=st.floats(math.log(1e-6), math.log(0.95)).map(math.exp))
def test_critical_context_is_critical(law, q):
    # computed critical contexts sit within 1e-15 q of q, far inside the
    # relative criticality tolerance
    ctx = analytic.critical_context(ModelParams(law, q))
    assert ctx.criticality == analytic.CRITICAL
    assert ctx.explosion_time == math.inf


def test_near_critical_constant_weights_are_explosive(mixed_params):
    # Pi_a(x) = 1 - c x, so I(x) = x - c x^2/2 and i_a = 1/(2c) < q = 1/2:
    # 1e-10 below critical is explosive, and the flow must not snap i_a to q
    c = 1.0000000001
    ctx = analytic.AnalyticContext(mixed_params, analytic.constant_weights(mixed_params.law, c))
    assert ctx.criticality == analytic.EXPLOSIVE
    with mpmath.workdps(40):
        mc = mpmath.mpf(c)
        assert abs(ctx.explosion_time - float(-mpmath.log(1 - 1 / mc))) <= 1e-10
        for t in (5.0, 15.0, 20.0):
            # x = q A solves x - c x^2/2 = q (1 - e^{-t}); A' = e^{-t} / (1 - c x)
            root = mpmath.sqrt(1 - mc * -mpmath.expm1(-mpmath.mpf(t)))
            value, deriv = analytic.flow(ctx, t)
            assert abs(value / float((1 - root) / (mc / 2)) - 1) <= 1e-10, t
            assert abs(deriv / float(mpmath.exp(-t) / root) - 1) <= 1e-10, t


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
    # the tail target at t = 700 is 1.03e-305, where a difference of two
    # logs near -700 keeps only 1e-13 of the Newton step's ratio
    params = ModelParams(new_law({0: 2 / 7, 6: 5 / 7}), 0.10414544960854119)
    ctx = analytic.critical_context(params)
    value, deriv = analytic.flow(ctx, 700.0)
    assert value == pytest.approx(ctx.x_star / params.q, rel=1e-15) and deriv > 0


def test_flow_consistency_derivative(mixed_params):
    # d/dt I_a(q A(t)) = q e^{-t}, checked by finite differences
    ctx = analytic.critical_context(mixed_params)
    q = mixed_params.q
    h = 1e-5
    for t in np.linspace(0.05, 3.0, 50):
        ap, _ = analytic.flow(ctx, float(t + h))
        am, _ = analytic.flow(ctx, float(t - h))
        # I_a(x) = i_a - tail(x* - x), and i_a cancels in the difference
        lhs = (ctx._integral(ctx.x_star - q * am) - ctx._integral(ctx.x_star - q * ap)) / (2 * h)
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
    # the panel rule promises i_a to relative 1e-11, and rho = -log(1 - i_a/q)
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
    for ell in (3, True, 1.0):
        with pytest.raises(DomainError):
            analytic.mgf_closed(ctx, ell, 0.0)


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


def _moments_at(make, t):
    """flow, mgf_vector, every mgf_closed and phi at t, each from make(),
    as the hex strings of their floats."""
    ctx = make()
    values = [*analytic.flow(ctx, t), *analytic.mgf_vector(make(), t),
              *(analytic.mgf_closed(make(), j, t) for j in ctx.a.support),
              analytic.phi(make(), t)]
    return [float(v).hex() for v in values]


@settings(max_examples=25, deadline=None)
@given(law=_laws, q=_qs, kind=st.sampled_from(["linear", "constant", "critical"]),
       fracs=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3))
def test_flow_memo_is_exact(law, q, kind, fracs):
    params = ModelParams(law, q)
    a = {"linear": lambda: analytic.linear_weights(law),
         "constant": lambda: analytic.constant_weights(law, 2.0),
         "critical": lambda: analytic.critical_weights(params)}[kind]()
    ctx = analytic.AnalyticContext(params, a)
    real, solves, seen = ctx._inverse_tail, [], set()
    ctx._inverse_tail = lambda eps: solves.append(eps) or real(eps)
    rho = ctx.explosion_time
    for frac in fracs + fracs:  # every t twice: the second time reads the memo
        t = frac * (0.9 * rho if math.isfinite(rho) else 8.0)
        try:  # a fresh context for every value: no memo between them
            want = _moments_at(lambda: analytic.AnalyticContext(params, a), t)
        except RgwError as exc:  # e.g. Pi_a underflows at the flow point
            with pytest.raises(type(exc)):
                _moments_at(lambda: ctx, t)
            continue
        before = len(solves)
        for j in law.support:
            analytic.mgf_closed(ctx, j, t)
        analytic.phi(ctx, t)
        assert len(solves) - before == (t not in seen)
        seen.add(t)
        assert _moments_at(lambda: ctx, t) == want
        assert [v.hex() for v in analytic.flow(ctx, np.float64(t))] == want[:2]
        assert len(solves) == len(seen)
        for bad in (math.nan, -1.0, math.inf, rho, 2.0 * rho):
            with pytest.raises(DomainError):
                analytic.flow(ctx, bad)


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


def _mp_gamma_direct(law, q, m):
    """(P*(x*) / (a_max beta q))^(1 - 1/beta) / P*(x*) at 50 digits, with
    a_max = k*/m and P*(x*) the product of (1 - j/k*)^(nu(j)(1-q)/q)."""
    with mpmath.workdps(50):
        k, q, m = law.kstar, mpmath.mpf(q), mpmath.mpf(m)
        beta = 1 + (1 - q) * law.mass(k) / q
        p_star = mpmath.fprod((1 - mpmath.mpf(j) / k) ** (law.mass(j) * (1 - q) / q)
                              for j in law.support if j < k)
        return float((p_star / (k / m * beta * q)) ** (1 - 1 / beta) / p_star)


def test_gamma_closed_form_at_small_q():
    # P*(x*) = 5^-499.5 underflows to 0; gamma itself is about 8.95
    params = ModelParams(new_law({4: 0.5, 5: 0.5}), 1e-3)
    want = _mp_gamma_direct(params.law, params.q, analytic.malthusian_rate(params).m)
    assert analytic.gamma_closed_form(params) == pytest.approx(want, rel=1e-13)
    assert analytic.gamma_closed_form(params) == pytest.approx(8.95175283173, rel=1e-11)
    # gamma is about e^1600, past the float range
    params = ModelParams(new_law({4: 0.999, 5: 0.001}), 5e-6)
    for fn in (analytic.gamma_closed_form, lambda p: analytic.conditional_limit_constant(p, 4)):
        with pytest.raises(DomainError, match="overflows"):
            fn(params)


def test_closed_form_routes_build_one_context(mixed_params, monkeypatch):
    contexts, flow_points = [], []
    real_init, real_flow = analytic.AnalyticContext.__init__, analytic._flow_point

    def init(self, params, a):
        contexts.append(a)
        real_init(self, params, a)

    def flow_point(ctx, t):
        flow_points.append(t)
        return real_flow(ctx, t)

    monkeypatch.setattr(analytic.AnalyticContext, "__init__", init)
    monkeypatch.setattr(analytic, "_flow_point", flow_point)
    for fn in (analytic.gamma_closed_form,
               lambda p: analytic.conditional_limit_constant(p, 1)):
        contexts.clear()
        fn(mixed_params)
        assert len(contexts) == 1
    assert flow_points == []


@settings(max_examples=30, deadline=None)
@given(law=_laws, q=_qs)
def test_conditional_limit_matches_flow_route(law, q):
    params = ModelParams(law, q)
    try:
        gam = analytic.gamma_constant(params)
    except NotConverged:
        return  # the flow route has not settled by its horizon cap
    prof, kstar = analytic.malthusian_rate(params), law.kstar
    for ell in law.support:
        if 0 < ell < kstar:
            want = gam / (math.gamma(1 - 1 / prof.beta) * prof.m * (1 / ell - 1 / kstar))
            assert analytic.conditional_limit_constant(params, ell) == pytest.approx(
                want, rel=1e-10)


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
    # horizons 8, 16, 32 and 64; phi(64) for the tail correction reads the
    # flow point of the last horizon from the context's memo
    real, solves = analytic.AnalyticContext._inverse_tail, []

    def counted(ctx, eps):
        solves.append(eps)
        return real(ctx, eps)

    monkeypatch.setattr(analytic.AnalyticContext, "_inverse_tail", counted)
    seq = analytic._gamma_sequence(mixed_params)
    assert len(solves) == sum(math.isfinite(T) for T, _ in seq) == 4


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


def test_conditional_limit_reads_ell_as_an_integer(mixed_params):
    # True == 1 and 1.0 == 1 are support points by value, but not integers
    for ell in (True, 1.0):
        with pytest.raises(DomainError):
            analytic.conditional_limit_constant(mixed_params, ell)
