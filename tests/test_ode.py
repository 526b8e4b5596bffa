import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate._ivp import rk

from rgw import analytic, ode
from rgw.errors import BlowUpDetected, DomainError, NotConverged
from rgw.model import ModelParams, new_law


def test_initial_condition(mixed_params):
    a = analytic.linear_weights(mixed_params.law)
    sol = ode.integrate_M(mixed_params, a, 0.3, rel_tol=1e-9)
    assert sol.grid[0] == 0.0
    assert np.allclose(sol.values[0], [1.0, 2.0])
    assert sol.accepted > 0


def test_constant_weights_monotype_closed_form(mixed_params):
    c = 2.0
    a = analytic.constant_weights(mixed_params.law, c)
    ts = np.linspace(0.0, 0.6, 25)  # below log 2
    sol = ode.integrate_M(mixed_params, a, 0.6, rel_tol=1e-10, t_eval=ts)
    want = c * np.exp(-ts) / (1.0 - c * (1.0 - np.exp(-ts)))
    for i in range(len(sol.support)):
        rel = np.abs(sol.values[:, i] - want) / want
        assert rel.max() < 1e-6


def test_matches_closed_form_linear_weights(mixed_params):
    a = analytic.linear_weights(mixed_params.law)
    ctx = analytic.AnalyticContext(mixed_params, a)
    rho = ctx.explosion_time
    # i_a = q/m for linear weights, so rho = -log(1 - 1/m)
    m = analytic.malthusian_rate(mixed_params).m
    assert rho == pytest.approx(-math.log1p(-1.0 / m), rel=1e-11)
    ts = np.linspace(0.0, 0.9 * rho, 33)
    sol = ode.integrate_M(mixed_params, a, float(ts[-1]), rel_tol=1e-9, t_eval=ts)
    for i, j in enumerate(sol.support):
        closed = np.array([analytic.mgf_closed(ctx, j, float(t)) for t in ts])
        rel = np.abs(sol.values[:, i] - closed) / np.abs(closed)
        assert rel.max() < 1e-6


def test_derivative_identity_at_zero(mixed_params):
    # M_j'(0) = a_j (q a_j + (1-q)<nu; a> - 1), by finite differences
    law, q = mixed_params.law, mixed_params.q
    a = analytic.weights_from_map(law, {1: 0.7, 2: 1.3})
    h = 1e-6
    sol = ode.integrate_M(mixed_params, a, h, rel_tol=1e-12, t_eval=[h])
    inner = sum(law.mass(j) * a[j] for j in law.support)
    for i, j in enumerate(sol.support):
        fd = (sol.values[0, i] - a[j]) / h
        want = a[j] * (q * a[j] + (1 - q) * inner - 1.0)
        assert fd == pytest.approx(want, abs=1e-4)


def test_domain_and_blowup(mixed_params):
    a = analytic.constant_weights(mixed_params.law, 2.0)
    rho = analytic.explosion_time(mixed_params, a)
    with pytest.raises(DomainError):
        ode.integrate_M(mixed_params, a, rho)
    with pytest.raises(BlowUpDetected) as exc:
        ode.integrate_M(mixed_params, a, rho * (1 - 1e-12), rel_tol=1e-9)
    assert abs(exc.value.time - rho) / rho < 0.02


@pytest.mark.parametrize("kwargs", [
    {"t_max": math.nan}, {"t_max": math.inf}, {"t_max": -0.1},
    {"t_max": 0.3, "rel_tol": math.nan}, {"t_max": 0.3, "rel_tol": -1.0},
    {"t_max": 0.3, "rel_tol": 0.0}, {"t_max": 0.3, "rel_tol": 1.0},
    {"t_max": 0.3, "rel_tol": math.inf}, {"t_max": 0.3, "t_eval": [0.0, math.nan]},
    {"t_max": 0.3, "t_eval": [math.nan]}, {"t_max": 0.3, "rel_tol": 1e-15},
])
def test_bad_horizon_and_tolerance(mixed_params, kwargs):
    a = analytic.linear_weights(mixed_params.law)
    with pytest.raises(DomainError):
        ode.integrate_M(mixed_params, a, **kwargs)


@pytest.mark.parametrize("t_eval", [None, [0.0]])
def test_zero_horizon_is_one_point(mixed_params, t_eval):
    a = analytic.linear_weights(mixed_params.law)
    sol = ode.integrate_M(mixed_params, a, 0.0, t_eval=t_eval)
    assert sol.grid.tolist() == [0.0]
    assert sol.values.tolist() == [[1.0, 2.0]]
    assert (sol.accepted, sol.rejected) == (0, 0)


def test_step_counts_match_solver_attempts(mixed_params, monkeypatch):
    # each attempted step is one rk_step call, accepted or not
    attempts = []
    step = rk.rk_step

    def counting(*args):
        attempts.append(1)
        return step(*args)

    monkeypatch.setattr(rk, "rk_step", counting)
    a = analytic.constant_weights(mixed_params.law, 2.0)
    rho = analytic.explosion_time(mixed_params, a)
    # approach the blow-up, stopping just short of the 1e8 norm
    sol = ode.integrate_M(mixed_params, a, rho * (1 - 1e-6), rel_tol=1e-9)
    assert sol.values.max() > 1e6
    assert sol.accepted == len(sol.grid) - 1
    assert sol.rejected > 0
    assert sol.accepted + sol.rejected == len(attempts)


_laws = st.lists(st.integers(0, 5), min_size=2, max_size=3, unique=True).flatmap(
    lambda pts: st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)).map(
        lambda w: {k: v / sum(w) for k, v in zip(sorted(pts), w)}
    )
)


@settings(max_examples=25, deadline=None)
@given(law=_laws, q=st.floats(0.1, 0.9),
       weights=st.lists(st.floats(0.1, 3.0), min_size=3, max_size=3))
def test_matches_closed_form_random_laws(law, q, weights):
    params = ModelParams(new_law(law), q)
    a = analytic.weights_from_map(params.law, dict(zip(params.law.support, weights)))
    ctx = analytic.AnalyticContext(params, a)
    rho = ctx.explosion_time
    ts = np.linspace(0.0, 0.9 * rho if math.isfinite(rho) else 4.0, 9)
    sol = ode.integrate_M(params, a, float(ts[-1]), rel_tol=1e-9, t_eval=ts)
    for i, j in enumerate(sol.support):
        closed = np.array([analytic.mgf_closed(ctx, j, float(t)) for t in ts])
        assert np.max(np.abs(sol.values[:, i] - closed) / closed) < 1e-6


def test_closed_form_error_solves_one_flow_point_per_time(monkeypatch):
    params = ModelParams(new_law({0: 0.2, 1: 0.3, 3: 0.5}), 0.35)
    a = analytic.linear_weights(params.law)
    ctx = analytic.AnalyticContext(params, a)
    rho = ctx.explosion_time
    ts = np.linspace(0.0, 0.9 * rho if math.isfinite(rho) else 4.0, 9)
    sol = ode.integrate_M(params, a, float(ts[-1]), rel_tol=1e-9, t_eval=ts)
    real, times = analytic._flow_point, []

    def counted(c, t):
        times.append(t)
        return real(c, t)

    monkeypatch.setattr(analytic, "_flow_point", counted)
    assert ode.closed_form_error(sol, ctx) < 1e-6
    assert times == ts.tolist()


def test_critical_weights_no_blowup(mixed_params):
    a = analytic.critical_weights(mixed_params)
    sol = ode.integrate_M(mixed_params, a, 8.0, rel_tol=1e-9)
    assert np.all(np.isfinite(sol.values))
    ctx = analytic.critical_context(mixed_params)
    got = sol.values[-1]
    want = [analytic.mgf_closed(ctx, j, float(sol.grid[-1])) for j in sol.support]
    assert np.allclose(got, want, rtol=1e-6)


def test_critical_weights_stop_at_the_evaluation_budget():
    # M stays bounded under critical weights, so DOP853 would go on to
    # t_max = 1e5 (235,502 evaluations, 2.3 s); the budget stops it near
    # t = 2e4, in under 2 s
    params = ModelParams(new_law({0: 0.2, 1: 0.3, 3: 0.5}), 0.4)
    a = analytic.critical_weights(params)
    ode.integrate_M(params, a, 1.0)  # scipy is imported outside the timed call
    start = time.perf_counter()
    with pytest.raises(NotConverged, match="50000 right-hand-side evaluations"):
        ode.integrate_M(params, a, 1e5)
    assert time.perf_counter() - start < 2.0


def test_pde_residual_small_and_s0_line(mixed_params):
    a = analytic.critical_weights(mixed_params)
    t_grid = np.linspace(0.0, 2.0, 41)
    sol = ode.integrate_M(mixed_params, a, 2.0, rel_tol=1e-10, t_eval=t_grid)
    s_hi = 0.3 / float(np.max(np.abs(sol.values)))
    res = ode.pde_residual_G(mixed_params, a, t_grid, np.linspace(0.0, s_hi, 41),
                             rel_tol=1e-10)
    assert res < 1e-3
    # s = 0 line: d/dt <nu; M> equals q sum nu_j M_j^2 + phi <nu; M>
    law, q = mixed_params.law, mixed_params.q
    nu = np.array([law.mass(j) for j in sol.support])
    inner = sol.values @ nu
    phi = (1 - q) * inner - 1.0
    lhs = np.gradient(inner, t_grid)
    rhs = q * (sol.values**2) @ nu + phi * inner
    assert np.max(np.abs(lhs[2:-2] - rhs[2:-2])) < 1e-2 * max(1, np.max(np.abs(rhs)))


def test_pde_residual_refines_second_order(mixed_params):
    a = analytic.critical_weights(mixed_params)
    sol = ode.integrate_M(mixed_params, a, 2.0, rel_tol=1e-10)
    s_hi = 0.35 / float(np.max(np.abs(sol.values)))
    coarse = ode.pde_residual_G(mixed_params, a, np.linspace(0, 2.0, 21),
                                np.linspace(0, s_hi, 21), rel_tol=1e-10)
    fine = ode.pde_residual_G(mixed_params, a, np.linspace(0, 2.0, 41),
                              np.linspace(0, s_hi, 41), rel_tol=1e-10)
    assert 3.2 <= coarse / fine <= 4.8


def test_pde_residual_constant_weights_small():
    # bounded constant-weight case: closed-form dynamics, small truncation
    params = ModelParams(new_law({0: 0.5, 2: 0.5}), 0.5)
    a = analytic.constant_weights(params.law, 0.5)
    sol = ode.integrate_M(params, a, 1.0, rel_tol=1e-12)
    s_hi = 0.35 / float(np.max(np.abs(sol.values)))
    res = ode.pde_residual_G(params, a, np.linspace(0, 1.0, 51),
                             np.linspace(0, s_hi, 51), rel_tol=1e-12)
    assert res <= 1e-5


def test_pde_grid_validation(mixed_params):
    a = analytic.critical_weights(mixed_params)
    with pytest.raises(DomainError):
        ode.pde_residual_G(mixed_params, a, [0.0, 0.1, 0.3], np.linspace(0, 0.1, 5))
    with pytest.raises(DomainError):
        ode.pde_residual_G(mixed_params, a, np.linspace(0, 1, 5), [0.0, 0.5])
    with pytest.raises(DomainError):
        ode.pde_residual_G(mixed_params, a, np.linspace(0, 1, 5),
                           np.linspace(0, 50.0, 5))


def test_ratio_monotonicity(mixed_params):
    a = analytic.linear_weights(mixed_params.law)  # a_1 = 1 < a_2 = 2
    rho = analytic.explosion_time(mixed_params, a)
    sol = ode.integrate_M(mixed_params, a, 0.85 * rho, rel_tol=1e-10)
    assert ode.ratio_monotonicity_check(sol, 1, 2)
    # equal weights: ratio identically one
    eq = analytic.constant_weights(mixed_params.law, 1.2)
    sol_eq = ode.integrate_M(mixed_params, eq, 1.0, rel_tol=1e-10)
    ratio = sol_eq.column(2) / sol_eq.column(1)
    assert np.allclose(ratio, 1.0, atol=1e-9)
    assert ode.ratio_monotonicity_check(sol_eq, 1, 2)
    with pytest.raises(DomainError):
        ode.ratio_monotonicity_check(sol, 2, 1)  # a_2 > a_1


def test_bounded_case_lower_weight_vanishes(mixed_params):
    # critical weights keep M bounded; the smaller-weight coordinate decays
    a = analytic.critical_weights(mixed_params)
    sol = ode.integrate_M(mixed_params, a, 25.0, rel_tol=1e-9)
    m1 = sol.column(1)
    assert m1[-1] < 0.05 * m1[0]
    assert ode.ratio_monotonicity_check(sol, 1, 2)
