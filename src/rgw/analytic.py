"""Closed-form and quadrature-based quantities of the reinforced process.

Everything here is derived from the weighted product function

    Pi_a(x) = prod_j (1 - x a_j)^(nu(j)(1-q)/q),   0 <= x <= 1/max(a),

its integral I_a, and the inverse of that integral.  The Malthusian rate,
explosion times, the time-change flow A, the growth correction phi, the
closed-form moment generating functions, and the conditional limit
constants all reduce to these three primitives.

The integrand has a branch point at the right endpoint x* = 1/max(a) with
exponent E = sum of nu(j)(1-q)/q over the maximal-weight group.  Tail
integrals are computed with Gauss-Jacobi quadrature in the weight
(1 - x a_max)^E, which restores spectral accuracy there; naive adaptive
rules lose several digits when E < 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np
from scipy import integrate as _scipy_integrate
from scipy import special as _scipy_special

from .errors import DomainError, QuadratureInconsistent, UnsupportedTie
from .model import ModelParams, ReproductionLaw, mean

# |i_a - q| below this counts as critical; critical contexts are always
# built from a computed rate which carries quadrature error
CRITICALITY_TOL = 1e-10
# i_a >= q - EXPLOSION_TOL means no explosion
EXPLOSION_TOL = 1e-12
# above this combined endpoint exponent the integrand is flat at x*, not
# singular, and plain adaptive quadrature is the better tool
_GJ_MAX_EXPONENT = 50.0
_GJ_ORDERS = (8, 16, 32, 64, 128, 256, 512)
_QUAD_OPTS = dict(epsabs=1e-300, epsrel=1e-13, limit=400)

CRITICAL = "critical"
EXPLOSIVE = "subcritical-explosive"
NON_EXPLOSIVE = "non-explosive"


# ---------------------------------------------------------------------------
# weight vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights a_j indexed by the support of the law.

    argmax_unique records whether the maximum weight is attained at a
    single support point (required by the critical asymptotics).
    """

    weights: Mapping[int, float]
    amax: float
    argmax_unique: bool

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.weights))

    def __getitem__(self, j: int) -> float:
        return self.weights[j]


def weights_from_map(law: ReproductionLaw, mapping: Mapping[int, float]) -> WeightVector:
    keys = set(int(k) for k in mapping)
    if keys != set(law.support):
        raise DomainError(
            f"weight keys {sorted(keys)} must equal the law support {list(law.support)}"
        )
    vals = {int(k): float(v) for k, v in mapping.items()}
    if not all(math.isfinite(v) for v in vals.values()):
        raise DomainError("weights must be finite")
    if any(v < 0 for v in vals.values()):
        raise DomainError("weights must be nonnegative")
    amax = max(vals.values())
    if amax <= 0:
        raise DomainError("at least one weight must be strictly positive")
    n_max = sum(1 for v in vals.values() if v == amax)
    return WeightVector(MappingProxyType(dict(sorted(vals.items()))), amax, n_max == 1)


def linear_weights(law: ReproductionLaw, c: float = 1.0) -> WeightVector:
    """a_j = c * j."""
    if c <= 0:
        raise DomainError(f"linear weight factor must be positive, got {c!r}")
    return weights_from_map(law, {j: c * j for j in law.support})


def constant_weights(law: ReproductionLaw, c: float) -> WeightVector:
    """a_j = c for every support point."""
    if c <= 0:
        raise DomainError(f"constant weight must be positive, got {c!r}")
    return weights_from_map(law, {j: c for j in law.support})


def critical_weights(params: ModelParams, rate: float | None = None) -> WeightVector:
    """a_j = j / m, the scaling that puts the series singularity at radius 1."""
    m = rate if rate is not None else malthusian_rate(params).m
    return linear_weights(params.law, 1.0 / m)


# ---------------------------------------------------------------------------
# analytic context: precomputed quadrature state for a fixed (law, q, a)
# ---------------------------------------------------------------------------

class AnalyticContext:
    """Precomputed state for Pi_a, I_a and their inverse at fixed (law, q, a).

    Immutable after construction; all methods are pure, so contexts may be
    shared freely across threads.
    """

    def __init__(self, params: ModelParams, a: WeightVector):
        law = params.law
        if set(a.support) != set(law.support):
            raise DomainError("weight vector does not match the law support")
        self.params = params
        self.a = a
        q = params.q
        self.exponents = {j: law.mass(j) * (1.0 - q) / q for j in law.support}
        self.x_star = 1.0 / a.amax

        pos = [(j, a[j]) for j in law.support if a[j] > 0]
        grp = [j for j, w in pos if w == a.amax]
        rest = [(j, w) for j, w in pos if w != a.amax]
        self._E = math.fsum(self.exponents[j] for j in grp)
        self._rest_w = np.array([w for _, w in rest], dtype=float)
        self._rest_e = np.array([self.exponents[j] for j, _ in rest], dtype=float)
        self._jacobi_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        self.i_total = self._tail(0.0)
        gap = self.i_total - q
        if abs(gap) <= CRITICALITY_TOL:
            self.criticality = CRITICAL
        elif gap < 0:
            self.criticality = EXPLOSIVE
        else:
            self.criticality = NON_EXPLOSIVE

    # -- primitives ---------------------------------------------------------

    def _smooth(self, y):
        """Product of the non-maximal factors; analytic on [0, x*]."""
        if self._rest_w.size == 0:
            return np.ones_like(np.asarray(y, dtype=float))
        y = np.asarray(y, dtype=float)[..., None]
        return np.prod((1.0 - y * self._rest_w) ** self._rest_e, axis=-1)

    def _pi(self, y):
        base = np.maximum(1.0 - np.asarray(y, dtype=float) * self.a.amax, 0.0)
        return self._smooth(y) * base**self._E

    def _pi_from_sigma(self, sigma: float) -> float:
        """Pi_a(x* - sigma) without forming 1 - x*a_max (cancellation-free)."""
        return float(self._smooth(self.x_star - sigma)) * (self.a.amax * sigma) ** self._E

    def _jacobi(self, order: int):
        if order not in self._jacobi_cache:
            self._jacobi_cache[order] = _scipy_special.roots_jacobi(order, self._E, 0.0)
        return self._jacobi_cache[order]

    def _panel_width_cap(self) -> float:
        """Widest Gauss-Jacobi panel on which the smooth factor stays tame:
        clear of the other branch points and of fast local variation."""
        w = self.x_star
        if self._rest_w.size:
            d_next = 1.0 / self._rest_w.max() - self.x_star
            w = min(w, 0.5 * d_next)
            local = float(np.sum(self._rest_e * self._rest_w / (1.0 - self.x_star * self._rest_w)))
            if local > 0:
                w = min(w, 3.0 / local)
        return w

    def _gj_panel(self, width: float) -> tuple[float, bool]:
        """integral over [x* - width, x*], parametrized by the width so the
        endpoint distance never suffers absolute-position rounding.

        With s = x* - y the integrand is (a_max s)^E * smooth(x* - s); the
        (1-u)^E Gauss-Jacobi weight absorbs the first factor exactly.
        """
        amax = self.a.amax
        half = 0.5 * width
        prev = None
        for order in _GJ_ORDERS:
            nodes, wts = self._jacobi(order)
            # s = half * (1 - u); u = 1 is the singular endpoint y = x*
            g = self._smooth(self.x_star - half * (1.0 - nodes))
            cur = (amax * half) ** self._E * half * float(np.dot(wts, g))
            if prev is not None and abs(cur - prev) <= 1e-14 * abs(cur) + 1e-305:
                return cur, True
            prev = cur
        return prev, False

    def _tail_sigma(self, sigma: float) -> float:
        """integral over [x* - sigma, x*] as an exact function of sigma."""
        if sigma <= 0:
            return 0.0
        sigma = min(sigma, self.x_star)
        if self._E > _GJ_MAX_EXPONENT:
            lo = self.x_star - sigma
            val, _ = _scipy_integrate.quad(
                lambda y: float(self._pi(y)), lo, self.x_star, **_QUAD_OPTS
            )
            return val
        w = min(sigma, self._panel_width_cap())
        for _ in range(6):
            val, converged = self._gj_panel(w)
            if converged:
                break
            w *= 0.25
        if w < sigma:
            # remainder is far from the endpoint; absolute positions are fine
            rest, _ = _scipy_integrate.quad(
                lambda y: float(self._pi(y)), self.x_star - sigma, self.x_star - w,
                **_QUAD_OPTS,
            )
            val = math.fsum((val, rest))
        return val

    def _tail(self, x: float) -> float:
        """integral_x^{x*} Pi_a(y) dy with the endpoint weight integrated exactly."""
        return self._tail_sigma(self.x_star - x)

    def _inverse_tail(self, eps: float) -> float:
        """Solve tail(x* - sigma) = eps for sigma (safeguarded Newton).

        The tail behaves like C sigma^(E+1) near 0, so the power-law guess
        lands within a few Newton steps at any scale; the bracket is always
        maintained because the derivative Pi_a vanishes at x*.
        """
        if eps <= 0.0:
            return 0.0
        if eps >= self.i_total:
            return self.x_star
        E = self._E
        g0 = float(self._smooth(self.x_star))
        sigma = (eps * (E + 1.0) / (g0 * self.a.amax**E)) ** (1.0 / (E + 1.0))
        sigma = min(max(sigma, 1e-300), self.x_star)
        lo, hi = 0.0, self.x_star
        for _ in range(100):
            f = self._tail_sigma(sigma) - eps
            if f > 0:
                hi = sigma
            else:
                lo = sigma
            if abs(f) <= 2e-14 * eps:
                break
            deriv = self._pi_from_sigma(sigma)
            step = f / deriv if deriv > 0 else None
            new = sigma - step if step is not None else 0.5 * (lo + hi)
            if not (lo < new < hi):
                new = 0.5 * (lo + hi)
            if abs(new - sigma) <= 1e-16 * sigma:
                sigma = new
                break
            sigma = new
        return sigma

    @property
    def explosion_time(self) -> float:
        if self.i_total >= self.params.q - EXPLOSION_TOL:
            return math.inf
        return -math.log1p(-self.i_total / self.params.q)


# ---------------------------------------------------------------------------
# Pi_a, I_a and the inverse
# ---------------------------------------------------------------------------

def _check_in_domain(ctx: AnalyticContext, x: float) -> float:
    slack = 4e-16 * ctx.x_star
    if not (-slack <= x <= ctx.x_star + slack):
        raise DomainError(f"x={x!r} outside [0, {ctx.x_star!r}]")
    return min(max(x, 0.0), ctx.x_star)


def pi_weighted(ctx: AnalyticContext, x: float) -> float:
    """The product Pi_a(x); equals 1 at 0 and 0 at x* = 1/max(a)."""
    x = _check_in_domain(ctx, x)
    return float(ctx._pi(x))


def pi_integral(ctx: AnalyticContext, x: float) -> float:
    """I_a(x) = integral_0^x Pi_a(y) dy, relative error <= 1e-11."""
    x = _check_in_domain(ctx, x)
    if x == 0.0:
        return 0.0
    if x < 0.5 * ctx.x_star:
        val, _ = _scipy_integrate.quad(lambda y: float(ctx._pi(y)), 0.0, x, **_QUAD_OPTS)
        return val
    return ctx.i_total - ctx._tail(x)


def pi_integral_inverse(ctx: AnalyticContext, v: float) -> float:
    """Inverse of I_a on [0, i_a], by bracketed Newton (derivative = Pi_a)."""
    slack = 1e-14 * ctx.i_total
    if not (-slack <= v <= ctx.i_total + slack):
        raise DomainError(f"value {v!r} outside [0, {ctx.i_total!r}]")
    v = min(max(v, 0.0), ctx.i_total)
    if v >= 0.5 * ctx.i_total:
        return ctx.x_star - ctx._inverse_tail(ctx.i_total - v)
    # lower half: Newton on I directly, I'(x) = Pi_a(x) >= Pi_a(x*/2) > 0 here
    x = min(v, 0.5 * ctx.x_star)  # I(x) <= x so the root is >= v
    lo, hi = 0.0, ctx.x_star
    for _ in range(100):
        f = pi_integral(ctx, x) - v
        if f > 0:
            hi = x
        else:
            lo = x
        if abs(f) <= 1e-14 * max(v, 1e-300):
            break
        new = x - f / float(ctx._pi(x))
        if not (lo < new < hi):
            new = 0.5 * (lo + hi)
        if abs(new - x) <= 1e-16 * max(x, 1.0):
            x = new
            break
        x = new
    return x


# ---------------------------------------------------------------------------
# rates and bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateProfile:
    """Malthusian rate of the mean population size, with companions.

    mean_limit is the limit of m^-n E[Z(n)]; error_exponent = 1/beta is the
    power-law order of the correction; lower/upper are the closed-form
    domination bounds.
    """

    m: float
    log_m: float
    beta: float
    mean_limit: float
    error_exponent: float
    lower: float
    upper: float


def malthusian_rate(params: ModelParams) -> RateProfile:
    """Growth rate m = q / integral_0^{1/k*} Pi(t) dt and companions."""
    law, q = params.law, params.q
    ctx = AnalyticContext(params, linear_weights(law))
    m = q / ctx.i_total
    kstar = law.kstar
    nk = law.mass(kstar)
    lower = kstar * (q + (1.0 - q) * nk)
    upper = kstar * q + (1.0 - q) * mean(law)
    beta = 1.0 + (1.0 - q) * nk / q
    profile = RateProfile(
        m=m,
        log_m=math.log(m),
        beta=beta,
        mean_limit=nk / (q + nk * (1.0 - q)),
        error_exponent=q / (q + (1.0 - q) * nk),
        lower=lower,
        upper=upper,
    )
    if not (lower - 1e-9 * kstar <= m <= upper + 1e-9 * kstar) or m <= q * kstar:
        raise QuadratureInconsistent(f"rate quadrature inconsistent: {lower} <= {m} <= {upper}")
    return profile


def rate_limits(law: ReproductionLaw, q_lo: float, q_hi: float) -> tuple[float, float]:
    """Rate evaluated at both endpoints of a q-interval (for limit checks)."""
    if not (0.0 < q_lo < q_hi < 1.0):
        raise DomainError(f"need 0 < q_lo < q_hi < 1, got {q_lo!r}, {q_hi!r}")
    return (
        malthusian_rate(ModelParams(law, q_lo)).m,
        malthusian_rate(ModelParams(law, q_hi)).m,
    )


def explosion_time(params: ModelParams, a: WeightVector) -> float:
    """Time at which the weighted moment generating functions become infinite.

    Finite, equal to -log(1 - i_a/q), exactly when i_a < q; +inf otherwise.
    """
    return AnalyticContext(params, a).explosion_time


# ---------------------------------------------------------------------------
# the flow A, the growth correction phi, and closed-form mgfs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FlowPoint:
    t: float
    x: float          # q A(t) = I_a^{-1}(q (1 - e^{-t}))
    sigma: float      # x* - x, kept separately for cancellation-free factors
    value: float      # A(t)
    deriv: float      # A'(t) = e^{-t} / Pi_a(q A(t))


def _flow_point(ctx: AnalyticContext, t: float) -> _FlowPoint:
    q = ctx.params.q
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t!r}")
    if t >= ctx.explosion_time:
        raise DomainError(f"t={t!r} is not below the explosion time {ctx.explosion_time!r}")
    # eps = i_a - q(1 - e^{-t}); critical contexts snap i_a to q so that the
    # large-t regime is free of cancellation between i_a and q
    delta = 0.0 if ctx.criticality == CRITICAL else ctx.i_total - q
    eps = delta + q * math.exp(-t)
    sigma = ctx._inverse_tail(eps)
    x = ctx.x_star - sigma
    if sigma > 0:
        pi_x = ctx._pi_from_sigma(sigma)
    else:
        pi_x = 0.0
    deriv = math.exp(-t) / pi_x if pi_x > 0 else math.inf
    return _FlowPoint(t=t, x=x, sigma=sigma, value=x / q, deriv=deriv)


def flow(ctx: AnalyticContext, t: float) -> tuple[float, float]:
    """The time change A and its derivative A'; A(0)=0, A'(0)=1.

    A is recovered by inverting I_a at q(1 - e^{-t}) with bracketed
    Newton steps (the derivative Pi_a is available in closed form), to
    absolute tolerance well below 1e-13 in the argument.
    """
    fp = _flow_point(ctx, t)
    return fp.value, fp.deriv


def phi(ctx: AnalyticContext, t: float) -> float:
    """Growth correction phi(t) = (1-q) <nu; M(a,t)> - 1.

    Evaluated through the flow identity phi = (1-q) A'(t) S(q A(t)) - 1
    where S(s) = sum_j nu(j) a_j / (1 - s a_j).
    """
    fp = _flow_point(ctx, t)
    law = ctx.params.law
    amax = ctx.a.amax
    terms = []
    for j in law.support:
        aj = ctx.a[j]
        if aj == 0.0:
            continue
        denom = amax * fp.sigma if aj == amax else 1.0 - fp.x * aj
        terms.append(law.mass(j) * aj / denom)
    return (1.0 - ctx.params.q) * fp.deriv * math.fsum(terms) - 1.0


def phi_limit(ctx: AnalyticContext) -> float:
    """Large-time limit of phi for critical contexts: -1/beta.

    Requires a unique maximal weight; raises UnsupportedTie otherwise.
    """
    if ctx.criticality != CRITICAL:
        raise DomainError("phi has the -1/beta limit only in the critical case")
    if not ctx.a.argmax_unique:
        raise UnsupportedTie("maximal weight attained at several support points")
    return -1.0 / (1.0 + ctx._E)


def mgf_closed(ctx: AnalyticContext, ell: int, t: float) -> float:
    """Closed-form M_ell(a,t) = a_ell A'(t) / (1 - q a_ell A(t))."""
    if ell not in ctx.a.weights:
        raise DomainError(f"{ell} is not a support point")
    a_ell = ctx.a[ell]
    if a_ell == 0.0:
        return 0.0
    fp = _flow_point(ctx, t)
    if a_ell == ctx.a.amax:
        denom = ctx.a.amax * fp.sigma
    else:
        denom = 1.0 - fp.x * a_ell
    return a_ell * fp.deriv / denom


# ---------------------------------------------------------------------------
# critical asymptotics: gamma and the conditional limit constants
# ---------------------------------------------------------------------------

def critical_context(params: ModelParams, rate: float | None = None) -> AnalyticContext:
    return AnalyticContext(params, critical_weights(params, rate))


_LEGENDRE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _legendre(order: int):
    if order not in _LEGENDRE_CACHE:
        _LEGENDRE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _LEGENDRE_CACHE[order]


def _integrate_phi_shift(ctx: AnalyticContext, beta: float, lo: float, hi: float) -> float:
    """integral_lo^hi (phi(t) + 1/beta) dt by composite Gauss-Legendre."""
    nodes, wts = _legendre(24)
    n_panels = max(1, int(math.ceil((hi - lo) / 2.0)))
    edges = np.linspace(lo, hi, n_panels + 1)
    pieces = []
    inv_beta = 1.0 / beta
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        vals = [phi(ctx, float(mid + half * u)) + inv_beta for u in nodes]
        pieces.append(half * math.fsum(w * v for w, v in zip(wts, vals)))
    return math.fsum(pieces)


def _gamma_sequence(params: ModelParams) -> list[tuple[float, float]]:
    """(T, gamma_T) for T doubling until the exponentially small tail is
    negligible; the last entry carries the analytic tail correction."""
    ctx = critical_context(params)
    beta = 1.0 + ctx._E
    seq: list[tuple[float, float]] = []
    total = 0.0
    lo = 0.0
    T = 8.0
    while True:
        total += _integrate_phi_shift(ctx, beta, lo, T)
        seq.append((T, math.exp(total)))
        done = len(seq) > 1 and abs(seq[-1][1] - seq[-2][1]) < 1e-9
        if done or T >= 512.0:
            # remaining mass: integrand ~ C e^{-t/beta}, tail ~ f(T)*beta
            tail_est = (phi(ctx, T) + 1.0 / beta) * beta
            seq.append((math.inf, math.exp(total + tail_est)))
            return seq
        lo, T = T, 2.0 * T


def gamma_constant(params: ModelParams) -> float:
    """gamma = exp(integral_0^inf (phi(t) + 1/beta) dt) in the critical scaling.

    The horizon doubles until successive values agree to 1e-9; the
    exponentially small remainder beyond the final horizon is then added
    from its leading-order estimate.
    """
    return _gamma_sequence(params)[-1][1]


def gamma_closed_form(params: ModelParams) -> float:
    """Independent closed form for gamma.

    Matching the constant term of <nu; M> at the singularity forces
    gamma = (P*(x*) / (a_max beta q))^(1 - 1/beta) / P*(x*), with P* the
    product of the non-maximal factors.  Used as a cross-check oracle for
    the quadrature route.
    """
    ctx = critical_context(params)
    if not ctx.a.argmax_unique:
        raise UnsupportedTie("closed form requires a unique maximal weight")
    beta = 1.0 + ctx._E
    p_star = float(ctx._smooth(ctx.x_star))
    return (p_star / (ctx.a.amax * beta * params.q)) ** (1.0 - 1.0 / beta) / p_star


def conditional_limit_constant(params: ModelParams, ell: int) -> float:
    """Limit of n^(1/beta) m^-n E_ell[Z(n)] (of m^-n E_ell[Z(n)] when ell = k*).

    For 0 < ell < k* the value is gamma / (Gamma(1-1/beta) m (1/ell - 1/k*));
    for ell = k* it is 1/(q + nu(k*)(1-q)); for ell = 0 the chain is absorbed
    immediately and the constant is 0.
    """
    law, q = params.law, params.q
    if ell not in law.masses:
        raise DomainError(f"{ell} is not a support point")
    kstar = law.kstar
    if ell == 0:
        return 0.0
    nk = law.mass(kstar)
    if ell == kstar:
        return 1.0 / (q + nk * (1.0 - q))
    ctx = critical_context(params)
    if not ctx.a.argmax_unique:
        raise UnsupportedTie("conditional limit requires a unique maximal weight")
    profile = malthusian_rate(params)
    beta = profile.beta
    gam = gamma_constant(params)
    return gam / (gamma_function(1.0 - 1.0 / beta) * profile.m * (1.0 / ell - 1.0 / kstar))


def gamma_function(x: float) -> float:
    """Euler Gamma on (0, inf); relative error at the libm level (<1e-12 on (0,10])."""
    if not (x > 0) or math.isinf(x):
        raise DomainError(f"gamma_function needs x > 0, got {x!r}")
    return math.gamma(x)
