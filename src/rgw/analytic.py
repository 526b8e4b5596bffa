"""Closed-form and quadrature-based quantities of the reinforced process.

Everything here is derived from the weighted product function

    Pi_a(x) = prod_j (1 - x a_j)^(nu(j)(1-q)/q),   0 <= x <= 1/max(a),

its integral I_a, and the inverse of that integral.  The Malthusian rate,
explosion times, the time-change flow A, the growth correction phi, the
closed-form moment generating functions, and the conditional limit
constants all reduce to these three primitives.

The integrand has a branch point at the right endpoint x* = 1/max(a) with
exponent E = sum of nu(j)(1-q)/q over the maximal-weight group.  Every
integral of Pi_a goes through one adaptive panel rule (no QUADPACK): a
tanh-sinh pair (Takahasi and Mori, Publ. RIMS 9, 1974) on every panel,
halved until the pair agrees.  Its nodes crowd both panel ends and do not
depend on E, so one node set resolves the branch point and the peak at 0.
The rule runs in the distance s from x*: it integrates Pi_a over
[x* - s, x*] (the tail), i_a is the tail of width x*, and
I_a(x) = i_a - tail(x* - x); each node is also held as x, so that each
factor is formed from its own singular end.  One bracketed Newton
iteration, on log tail against log s, inverts the tail; one that does not
settle raises NotConverged.  gamma and the limits use gamma's closed form
and the rate; the flow route (A'' = phi A') is their oracle.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DomainError, NotConverged, QuadratureInconsistent, UnsupportedTie
from .model import ModelParams, ReproductionLaw, check_integer, mean

# |i_a - q| <= CRITICALITY_TOL * q counts as critical (computed critical
# contexts sit within 1e-15 q of q); it decides the flow and explosion_time too
CRITICALITY_TOL = 1e-12
# the panel rule: the agreement asked of the tanh-sinh pair relative to the
# running total, and the panel budget
_PANEL_TOL = 1e-14
_PANEL_BUDGET = 4096
_NEWTON_MAX_ITER = 100
_FLOW_MEMO_SIZE = 1024  # flow points a context keeps before its memo starts afresh
# gamma: the horizon doubles up to this cap, and the analytic tail
# correction at an unsettled cap may be at most this large
_GAMMA_HORIZON = 512.0
_GAMMA_TAIL_MAX = 1e-6

CRITICAL = "critical"
EXPLOSIVE = "subcritical-explosive"
NON_EXPLOSIVE = "non-explosive"


@functools.cache
def _tanh_sinh() -> tuple[np.ndarray, np.ndarray]:
    """Nodes v in (0, 1) and weights of the tanh-sinh rule on [0, 1] at
    t = k/16, |k| <= 56; the even nodes at twice the weight are the rule at
    step 1/8.  v = (1 + tanh u)/2 with u = (pi/2) sinh t is formed from
    e = exp(-2|u|), so that v[::-1] is 1 - v without cancellation."""
    t = np.arange(-56, 57) / 16.0
    u = 0.5 * np.pi * np.sinh(t)
    e = np.exp(-2.0 * np.abs(u))
    v = np.where(u >= 0.0, 1.0, e) / (1.0 + e)
    return v, np.pi / 16.0 * np.cosh(t) * e / (1.0 + e) ** 2


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


def critical_weights(params: ModelParams) -> WeightVector:
    """a_j = j / m, the scaling that puts the series singularity at radius 1;
    the maximal weight is attained only at k*."""
    return linear_weights(params.law, 1.0 / malthusian_rate(params).m)


# ---------------------------------------------------------------------------
# analytic context: precomputed quadrature state for a fixed (law, q, a)
# ---------------------------------------------------------------------------

class AnalyticContext:
    """Precomputed state for Pi_a, I_a and their inverse at fixed (law, q, a).

    Fixed after construction but for a memo of flow points keyed by float(t)
    (at most _FLOW_MEMO_SIZE); an entry is a pure function of its key, so
    threads sharing a context at worst solve one point twice.
    """

    def __init__(self, params: ModelParams, a: WeightVector):
        law = params.law
        if set(a.support) != set(law.support):
            raise DomainError("weight vector does not match the law support")
        self.params = params
        self.a = a
        q = params.q
        exponents = {j: law.mass(j) * (1.0 - q) / q for j in law.support}
        self.x_star = 1.0 / a.amax

        pos = [(j, a[j]) for j in law.support if a[j] > 0]
        grp = [j for j, w in pos if w == a.amax]
        rest = [(j, w) for j, w in pos if w != a.amax]
        self._E = math.fsum(exponents[j] for j in grp)
        self._rest_w = np.array([w for _, w in rest], dtype=float)
        self._rest_e = np.array([exponents[j] for j, _ in rest], dtype=float)
        self._smooth_star = float(self._smooth(self.x_star))
        self._flow_memo: dict[float, tuple[float, float, float]] = {}

        self.i_total = self._integral(self.x_star)
        # Pi_a(x) >= (1 - x a_max)^(sum of the exponents of a_j > 0) on [0, x*]
        floor = self.x_star / (1.0 + self._E + math.fsum(self._rest_e))
        if self.i_total < floor * (1.0 - 1e-9):
            raise NotConverged(f"I_a(x*) = {self.i_total:.6g} is below its floor {floor:.6g}: "
                               "the panel rule missed the peak of Pi_a at 0")
        gap = self.i_total - q
        if abs(gap) <= CRITICALITY_TOL * q:
            self.criticality = CRITICAL
        elif gap < 0:
            self.criticality = EXPLOSIVE
        else:
            self.criticality = NON_EXPLOSIVE

    # -- primitives ---------------------------------------------------------

    def _smooth(self, y):
        """Product of the non-maximal factors (1 if none), summed in logs as
        e_j log1p(-a_j y); analytic on [0, x*]."""
        y = np.asarray(y, dtype=float)[..., None]
        return np.exp((self._rest_e * np.log1p(-y * self._rest_w)).sum(axis=-1))

    def _pi_from_sigma(self, sigma: float) -> float:
        """Pi_a(x* - sigma) without forming 1 - x*a_max (cancellation-free)."""
        return float(self._smooth(self.x_star - sigma)) * (self.a.amax * sigma) ** self._E

    def _integral(self, width: float) -> float:
        """The tail integral_0^width of Pi_a(x* - s) ds, in the distance s
        from x*, so that tiny tails keep their relative accuracy; i_a is the
        tail of width x*, and I_a(x) = i_a - tail(x* - x).

        Every pending panel [lo, hi] is computed by the tanh-sinh pair in one
        pass; a panel whose two values agree to _PANEL_TOL of the running
        total is accepted and every other one is halved (NotConverged if its
        ends are adjacent floats, which halving cannot part).  Each node is held
        both as s = lo + span v and as x = (x* - hi) + span (1 - v): the
        maximal factor is (a_max s)^E on the half nearer x* and
        exp(E log1p(-a_max x)) on the half nearer 0, and the smooth factor
        reads x, so no factor takes the rounding of the other frame.
        """
        amax, E = self.a.amax, self._E
        v, w = _tanh_sinh()
        lo, hi = np.zeros(1), np.array([float(width)])
        done: list[float] = []
        evaluated = 0
        while True:
            evaluated += lo.size
            if evaluated > _PANEL_BUDGET:
                raise NotConverged(f"panel rule exceeded {_PANEL_BUDGET} panels")
            span = (hi - lo)[:, None]
            s = lo[:, None] + span * v
            x = (self.x_star - hi)[:, None] + span * v[::-1]
            # min(x, s) keeps log1p off -1 where the other branch is taken
            power = np.where(s <= x, (amax * s) ** E,
                             np.exp(E * np.log1p(-amax * np.minimum(x, s))))
            # span * w first: a product with a tiny power would go subnormal
            fw = self._smooth(x) * power * (span * w)
            high, low = fw.sum(axis=1), 2.0 * fw[:, ::2].sum(axis=1)
            if not np.all(np.isfinite(high)):
                raise NotConverged("panel rule met a non-finite panel sum")
            total = math.fsum(done) + float(high.sum())
            # the absolute floor only acts on subnormal totals, which lack the digits
            ok = np.abs(high - low) <= _PANEL_TOL * abs(total) + 1e-305
            done.extend(high[ok].tolist())
            lo, hi = lo[~ok], hi[~ok]
            if not lo.size:
                return math.fsum(done)
            mid = 0.5 * (lo + hi)
            stuck = (mid == lo) | (mid == hi)
            if stuck.any():
                raise NotConverged(f"panel rule cannot halve s in [{float(lo[stuck][0])!r}, "
                                   f"{float(hi[stuck][0])!r}]: its ends are adjacent floats")
            lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()

    def _inverse_tail(self, eps: float) -> tuple[float, float]:
        """Solve tail(sigma) = eps for sigma by Newton steps on log tail
        against log sigma (slope sigma Pi_a / tail), kept inside the
        shrinking bracket [0, x*] and bisecting where a step leaves it.
        Returns sigma and the tail computed there (eps itself at the clamped
        ends 0 and x*), so a caller can refine by the last residual.

        The tail behaves like C sigma^(E+1) near 0, a line in these logs, so
        the power-law guess (in logs: a_max^E may overflow) lands within a
        few steps at any scale.  The guess is clamped to x* (and is x* if
        the smooth factor underflows), from which steps in sigma would crawl.
        A tail that does not settle raises NotConverged.
        """
        if eps <= 0.0:
            return 0.0, eps
        if eps >= self.i_total:
            return self.x_star, eps
        E, g0 = self._E, self._smooth_star
        lo, hi, sigma = 0.0, self.x_star, self.x_star
        if g0 > 0:
            log_sigma = (math.log(eps) + math.log1p(E) - math.log(g0)
                         - E * math.log(self.a.amax)) / (E + 1.0)
            sigma = min(math.exp(min(log_sigma, math.log(sigma))), sigma)
        last = 0.0
        for _ in range(_NEWTON_MAX_ITER):
            tail = self._integral(sigma)
            if tail > eps:
                hi = sigma
            else:
                lo = sigma
            # a tail equal to the last one is one the panel rule cannot
            # resolve further (its panel products go subnormal near 1e-300)
            if abs(tail - eps) <= 2e-14 * eps or (tail == last and tail > 0.0):
                return sigma, tail
            last = tail
            # log(eps / tail): a difference of logs near -700 keeps only 1e-13
            slope = sigma * self._pi_from_sigma(sigma) / tail if tail > 0 else 0.0
            ratio = eps / tail if slope > 0 else 0.0
            step = math.log(ratio) / slope if ratio > 0 else math.inf
            new = sigma * math.exp(step) if step < 1.0 else hi
            if not (lo < new < hi):
                new = 0.5 * (lo + hi)
            if abs(new - sigma) <= 1e-16 * sigma:
                return sigma, tail
            sigma = new
        raise NotConverged(f"Newton unsettled after {_NEWTON_MAX_ITER} iterations "
                           f"(target {eps!r})")

    @property
    def explosion_time(self) -> float:
        if self.criticality != EXPLOSIVE:
            return math.inf
        return -math.log1p(-self.i_total / self.params.q)


# ---------------------------------------------------------------------------
# rates and bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateProfile:
    """Malthusian rate of the mean population size, with companions.

    mean_limit is the limit of m^-n E[Z(n)]; error_exponent = 1/beta is the
    power-law order of the correction; lower/upper are the closed-form
    domination bounds; explosion_time_linear_weights is the explosion time
    of the weights a_j = j, read off the context that gives m.
    """

    m: float
    log_m: float
    beta: float
    mean_limit: float
    error_exponent: float
    lower: float
    upper: float
    explosion_time_linear_weights: float


def malthusian_rate(params: ModelParams) -> RateProfile:
    """Growth rate m = q / integral_0^{1/k*} Pi(t) dt and companions."""
    law, q = params.law, params.q
    ctx = AnalyticContext(params, linear_weights(law))
    m = q / ctx.i_total
    kstar = law.kstar
    nk = law.mass(kstar)
    lower = kstar * (q + (1.0 - q) * nk)
    upper = kstar * q + (1.0 - q) * mean(law)
    if not (lower - 1e-9 * kstar <= m <= upper + 1e-9 * kstar) or m <= q * kstar:
        raise QuadratureInconsistent(f"rate quadrature inconsistent: {lower} <= {m} <= {upper}")
    return RateProfile(
        m=m,
        log_m=math.log(m),
        beta=1.0 + (1.0 - q) * nk / q,
        mean_limit=nk / (q + nk * (1.0 - q)),
        error_exponent=q / (q + (1.0 - q) * nk),
        lower=lower,
        upper=upper,
        explosion_time_linear_weights=ctx.explosion_time,
    )


def explosion_time(params: ModelParams, a: WeightVector) -> float:
    """Time at which the weighted moment generating functions become infinite.

    Finite, equal to -log(1 - i_a/q), exactly when the context's criticality
    is subcritical-explosive; +inf otherwise.
    """
    return AnalyticContext(params, a).explosion_time


# ---------------------------------------------------------------------------
# the flow A, the growth correction phi, and closed-form mgfs
# ---------------------------------------------------------------------------

def _flow_point(ctx: AnalyticContext, t: float) -> tuple[float, float, float]:
    """(x, sigma, deriv) at time t: x = q A(t) = I_a^{-1}(q (1 - e^{-t})),
    sigma = x* - x, kept for cancellation-free factors, and
    deriv = A'(t) = e^{-t} / Pi_a(q A(t)).  x is refined by one more Newton
    step from the tail the inverse computed at its sigma, (tail - eps) / Pi_a,
    which resolves x below the spacing of floats near x*.  A time at which
    i_a - I_a(x) or Pi_a(x) underflows the normal float range raises
    DomainError.  The point is solved once per context and float(t): a
    later call, after the same checks on t, reads it from ctx's memo."""
    q = ctx.params.q
    if not t >= 0:
        raise DomainError(f"time must be >= 0, got {t!r}")
    if t >= ctx.explosion_time:
        raise DomainError(f"t={t!r} is not below the explosion time {ctx.explosion_time!r}")
    # eps = i_a - q(1 - e^{-t}); critical contexts snap i_a to q so that the
    # large-t regime is free of cancellation between i_a and q
    delta = 0.0 if ctx.criticality == CRITICAL else ctx.i_total - q
    eps = delta + q * math.exp(-t)
    if eps < sys.float_info.min:
        raise DomainError(f"t={t!r} is too large: i_a - I_a(q A(t)) = {eps!r} underflows")
    memo, key = ctx._flow_memo, float(t)
    point = memo.get(key)
    if point is None:
        sigma, tail = ctx._inverse_tail(eps)
        pi_x = ctx._pi_from_sigma(sigma)
        if pi_x == 0.0:
            raise DomainError(f"t={t!r}: Pi_a at the flow point underflows to 0")
        point = (ctx.x_star - sigma) + (tail - eps) / pi_x, sigma, math.exp(-t) / pi_x
        if len(memo) >= _FLOW_MEMO_SIZE:
            memo.clear()
        memo[key] = point
    return point


def flow(ctx: AnalyticContext, t: float) -> tuple[float, float]:
    """The time change A and its derivative A'; A(0)=0, A'(0)=1.

    A is recovered by inverting I_a at q(1 - e^{-t}) with bracketed
    Newton steps (the derivative Pi_a is available in closed form), to
    absolute tolerance well below 1e-13 in the argument.
    """
    x, _, deriv = _flow_point(ctx, t)
    return x / ctx.params.q, deriv


def mgf_vector(ctx: AnalyticContext, t: float) -> list[float]:
    """Closed-form M_j(a,t) = a_j A'(t) / (1 - q a_j A(t)) for every j of
    ctx.a.support, from one flow point.

    At the maximal weight the denominator is a_max sigma, free of the
    cancellation in 1 - x a_max; an entry with a_j = 0 is 0.
    """
    x, sigma, deriv = _flow_point(ctx, t)
    a = ctx.a
    return [a[j] * deriv / (a.amax * sigma if a[j] == a.amax else 1.0 - x * a[j])
            if a[j] else 0.0 for j in a.support]


def mgf_closed(ctx: AnalyticContext, ell: int, t: float) -> float:
    """Closed-form M_ell(a,t), the ell entry of mgf_vector; every ell at
    one t reads one flow point, solved once and kept in ctx's memo."""
    ell = check_integer(ell, "ell must be a support point, got {!r}", 0)
    if ell not in ctx.a.weights:
        raise DomainError(f"{ell} is not a support point")
    return mgf_vector(ctx, t)[ctx.a.support.index(ell)]


def phi(ctx: AnalyticContext, t: float) -> float:
    """Growth correction phi(t) = (1-q) <nu; M(a,t)> - 1, on the closed-form
    moment vector (the identity the moment ODE uses), from the flow point
    that mgf_vector and mgf_closed at the same t share through ctx's memo."""
    law = ctx.params.law
    terms = [law.mass(j) * m for j, m in zip(ctx.a.support, mgf_vector(ctx, t))]
    return (1.0 - ctx.params.q) * math.fsum(terms) - 1.0


def phi_limit(ctx: AnalyticContext) -> float:
    """Large-time limit of phi for critical contexts: -1/beta.

    Requires a unique maximal weight; raises UnsupportedTie otherwise.
    """
    if ctx.criticality != CRITICAL:
        raise DomainError("phi has the -1/beta limit only in the critical case")
    if not ctx.a.argmax_unique:
        raise UnsupportedTie("maximal weight attained at several support points")
    return -1.0 / (1.0 + ctx._E)


# ---------------------------------------------------------------------------
# critical asymptotics: gamma and the conditional limit constants
# ---------------------------------------------------------------------------

def critical_context(params: ModelParams) -> AnalyticContext:
    return AnalyticContext(params, critical_weights(params))


def _gamma_sequence(params: ModelParams) -> list[tuple[float, float]]:
    """(T, gamma_T) for T doubling until the exponentially small tail is
    negligible; the last entry carries the analytic tail correction.
    phi = -d/dt log Pi_a(q A(t)) - 1 = A''/A' with A'(0) = 1, so gamma_T =
    exp(integral_0^T (phi + 1/beta) dt) = A'(T) e^{T/beta}: one flow point."""
    ctx = critical_context(params)
    beta = 1.0 + ctx._E
    seq: list[tuple[float, float]] = []
    T = 8.0
    while True:
        seq.append((T, _flow_point(ctx, T)[2] * math.exp(T / beta)))
        done = len(seq) > 1 and abs(seq[-1][1] - seq[-2][1]) < 1e-9
        if done or T >= _GAMMA_HORIZON:
            # remaining mass: integrand ~ C e^{-t/beta}, tail ~ f(T)*beta; the
            # error of that estimate is about its square
            tail_est = (phi(ctx, T) + 1.0 / beta) * beta
            if not done and abs(tail_est) > _GAMMA_TAIL_MAX:
                raise NotConverged(f"gamma unsettled at T={T:g}: tail correction {tail_est:.3g}")
            seq.append((math.inf, seq[-1][1] * math.exp(tail_est)))
            return seq
        T = 2.0 * T


def gamma_constant(params: ModelParams) -> float:
    """gamma = exp(integral_0^inf (phi(t) + 1/beta) dt) in the critical scaling.

    The value at horizon T is A'(T) e^{T/beta}, read off one flow point
    (A'' = phi A').  The horizon doubles until successive values agree to
    1e-9; the exponentially small remainder beyond the final horizon is
    then added from its leading-order estimate.  Raises NotConverged when
    the horizon cap is reached unsettled with a correction above 1e-6.
    """
    return _gamma_sequence(params)[-1][1]


def _gamma_closed(params: ModelParams, profile: RateProfile, log_divisor: float) -> float:
    """gamma / e^log_divisor, in logs: log P*(x*) = ((1-q)/q) sum over j < k*
    of nu(j) log1p(-j/k*) does not depend on m, and a_max = k*/m."""
    q, beta, kstar = params.q, profile.beta, params.law.kstar
    log_p = (1.0 - q) / q * math.fsum(nu * math.log1p(-j / kstar)
                                      for j, nu in params.law.masses.items() if j < kstar)
    log_value = (-log_p / beta - log_divisor
                 - (1.0 - 1.0 / beta) * (math.log(kstar * beta * q) - profile.log_m))
    if log_value > math.log(sys.float_info.max):
        raise DomainError(f"the constant e^{log_value:.6g} built from gamma overflows floats")
    return math.exp(log_value)


def gamma_closed_form(params: ModelParams) -> float:
    """gamma from its closed form and one rate quadrature, no flow point.

    Matching the constant term of <nu; M> at the singularity forces
    gamma = (P*(x*) / (a_max beta q))^(1 - 1/beta) / P*(x*), with P* the
    product of the non-maximal factors; in logs, so an underflowing P*(x*)
    is no error.  gamma_constant, the flow route, is its oracle.
    """
    return _gamma_closed(params, malthusian_rate(params), 0.0)


def conditional_limit_constant(params: ModelParams, ell: int) -> float:
    """Limit of n^(1/beta) m^-n E_ell[Z(n)] (of m^-n E_ell[Z(n)] when ell = k*).

    For 0 < ell < k* it is gamma / (Gamma(1-1/beta) m (1/ell - 1/k*)), from
    gamma_closed_form's route; for ell = k* it is 1/(q + nu(k*)(1-q)); for
    ell = 0 the chain is absorbed immediately and the constant is 0.
    """
    law, q = params.law, params.q
    ell = check_integer(ell, "ell must be a support point, got {!r}", 0)
    if ell not in law.masses:
        raise DomainError(f"{ell} is not a support point")
    kstar = law.kstar
    if ell == 0:
        return 0.0
    if ell == kstar:
        return 1.0 / (q + law.mass(kstar) * (1.0 - q))
    profile = malthusian_rate(params)
    # 1 - 1/beta lies in (0, 1), where Gamma is finite and above 1
    return _gamma_closed(params, profile, math.lgamma(1.0 - 1.0 / profile.beta)
                         + profile.log_m + math.log(1.0 / ell - 1.0 / kstar))
