"""Numerical integration of the coupled moment system and PDE residuals.

The factorial-moment vector M = (M_j) over the support satisfies the
autonomous system

    M_j' = M_j (q M_j + phi),   phi = (1-q) <nu; M> - 1,

with initial condition M(0) = a.  The solution blows up at the explosion
time of the weights, so it is integrated with scipy's DOP853 (the
Dormand-Prince 8(5,3) pair) and a terminal event at max |M| = 1e8 that
raises BlowUpDetected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticContext, WeightVector, mgf_vector
from .errors import BlowUpDetected, DomainError, RgwError
from .model import ModelParams

BLOWUP_NORM = 1e8
# solve_ivp lifts any rtol below this to it, with a warning
_REL_TOL_FLOOR = 100 * np.finfo(float).eps
# a fall in M_ell / M_j of at most this times max(1, |ratio|) between grid
# points still counts as nondecreasing
_RATIO_SLACK = 1e-9


@dataclass(frozen=True)
class OdeSolution:
    """Moment trajectories on an increasing time grid.

    values[k, i] is M_j at grid[k] for the i-th support point; the
    solver's accepted and rejected step counts are kept for diagnostics.
    """

    grid: np.ndarray
    values: np.ndarray
    support: tuple[int, ...]
    accepted: int
    rejected: int
    a: WeightVector

    def column(self, j: int) -> np.ndarray:
        return self.values[:, self.support.index(j)]


def _step_counts(sol) -> tuple[int, int]:
    """Accepted and rejected DOP853 steps of a solve_ivp run with an event.

    The run costs 2 evaluations to start, 12 per attempted step and 3 per
    accepted step for its dense output, which the event search needs.
    """
    accepted = len(sol.t) - 1
    attempts, rest = divmod(sol.nfev - 2 - 3 * accepted, 12)
    if rest or attempts < accepted:
        raise RgwError(f"cannot count DOP853 steps from nfev={sol.nfev}, accepted={accepted}")
    return accepted, attempts - accepted


def integrate_M(params: ModelParams, a: WeightVector, t_max: float,
                rel_tol: float = 1e-8, t_eval=None) -> OdeSolution:
    """Adaptive integration of the moment system on [0, t_max].

    t_max must be finite and lie strictly below the explosion time
    (DomainError otherwise); keeping t_max <= 0.9 * rho leaves a safety
    margin.  rel_tol must lie in [100 eps, 1), scipy's range for rtol.  If
    the max-norm of the state crosses 1e8 the integrator raises
    BlowUpDetected carrying the crossing time.  When t_eval is given, only
    those times are recorded, read off the solver's dense output.
    """
    if not math.isfinite(t_max):
        raise DomainError(f"t_max must be finite, got {t_max!r}")
    if not (math.isfinite(rel_tol) and _REL_TOL_FLOOR <= rel_tol < 1):
        raise DomainError(f"rel_tol must lie in [{_REL_TOL_FLOOR:.3g}, 1), got {rel_tol!r}")
    if t_max < 0:
        raise DomainError(f"t_max must be >= 0, got {t_max!r}")
    ctx = AnalyticContext(params, a)
    rho = ctx.explosion_time
    if t_max >= rho:
        raise DomainError(f"t_max={t_max!r} is not below the explosion time {rho!r}")
    law, q = params.law, params.q
    support = law.support
    nu = np.array([law.mass(j) for j in support])
    y0 = np.array([a[j] for j in support], dtype=float)
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if len(t_eval) == 0 or not t_eval[0] >= 0 or not np.all(np.diff(t_eval) > 0):
            raise DomainError("t_eval must be nonempty and strictly increasing")
        if t_eval[-1] > t_max:
            raise DomainError("t_eval exceeds t_max")
    if t_max == 0:
        return OdeSolution(np.zeros(1), y0[None, :], support, 0, 0, a)

    def f(t, state):
        phi = (1.0 - q) * float(state @ nu) - 1.0
        return state * (q * state + phi)

    def blowup(t, state):
        return float(np.max(np.abs(state))) - BLOWUP_NORM

    blowup.terminal = True
    from scipy.integrate import solve_ivp

    sol = solve_ivp(f, (0.0, t_max), y0, method="DOP853", rtol=rel_tol, atol=1e-12,
                    events=blowup, dense_output=True)
    if sol.status == -1:
        raise RgwError(f"moment ODE solver failed: {sol.message}")
    if sol.status == 1:
        raise BlowUpDetected(float(sol.t_events[0][0]))
    accepted, rejected = _step_counts(sol)
    if t_eval is None:
        grid, values = sol.t, sol.y.T
    else:
        grid, values = t_eval, sol.sol(t_eval).T
    return OdeSolution(grid, values, support, accepted, rejected, a)


def closed_form_error(sol: OdeSolution, ctx: AnalyticContext) -> float:
    """Sup over the grid of |M_j / closed form - 1| (of |M_j| where a_j = 0),
    the closed form being analytic.mgf_vector for the same weights, one
    flow point per grid time."""
    closed = np.array([mgf_vector(ctx, float(t)) for t in sol.grid])
    a = np.array([sol.a[j] for j in sol.support])
    scale = np.where(a == 0.0, 1.0, np.abs(closed))
    return float(np.max(np.abs(sol.values - closed) / scale))


def pde_residual_G(params: ModelParams, a: WeightVector, t_grid, s_grid,
                   rel_tol: float = 1e-9) -> float:
    """Max |residual| of the transport identity for the bivariate
    generating function G(t,s) = sum_j nu(j) M_j / (1 - s M_j):

        dG/dt - (q + s phi) dG/ds - phi G = 0,

    measured with central differences on the interior of a uniform grid.
    The residual decays at second order under grid refinement.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    for name, g in (("t_grid", t_grid), ("s_grid", s_grid)):
        if len(g) < 3:
            raise DomainError(f"{name} needs at least 3 points")
        steps = np.diff(g)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise DomainError(f"{name} must be uniformly increasing")
    if t_grid[0] < 0 or s_grid[0] < 0:
        raise DomainError("grids must start at nonnegative values")

    sol = integrate_M(params, a, float(t_grid[-1]), rel_tol=rel_tol, t_eval=t_grid)
    M = sol.values                      # (K, s)
    if s_grid[-1] * float(np.max(np.abs(M))) >= 0.9 + 1e-12:
        raise DomainError("s_grid reaches past 0.9 / max |M|")
    q = params.q
    nu = np.array([params.law.mass(j) for j in sol.support])
    phi = (1.0 - q) * M @ nu - 1.0      # (K,)
    denom = 1.0 - s_grid[None, :, None] * M[:, None, :]
    G = np.sum(nu[None, None, :] * M[:, None, :] / denom, axis=2)  # (K, L)

    ht = t_grid[1] - t_grid[0]
    hs = s_grid[1] - s_grid[0]
    dGdt = (G[2:, 1:-1] - G[:-2, 1:-1]) / (2 * ht)
    dGds = (G[1:-1, 2:] - G[1:-1, :-2]) / (2 * hs)
    advect = q + s_grid[None, 1:-1] * phi[1:-1, None]
    residual = dGdt - advect * dGds - phi[1:-1, None] * G[1:-1, 1:-1]
    return float(np.max(np.abs(residual)))


def ratio_monotonicity_check(solution: OdeSolution, j: int, ell: int) -> bool:
    """True iff t -> M_ell / M_j is nondecreasing along the solution grid
    (within _RATIO_SLACK).  Requires a_j <= a_ell with both weights positive."""
    a = solution.a
    if j not in a.weights or ell not in a.weights:
        raise DomainError("both indices must be support points")
    if a[j] <= 0 or a[ell] <= 0:
        raise DomainError("both weights must be strictly positive")
    if a[j] > a[ell]:
        raise DomainError(f"need a_j <= a_ell, got a_{j}={a[j]!r} > a_{ell}={a[ell]!r}")
    ratio = solution.column(ell) / solution.column(j)
    diffs = np.diff(ratio)
    tol = _RATIO_SLACK * np.maximum(1.0, np.abs(ratio[:-1]))
    return bool(np.all(diffs >= -tol))
