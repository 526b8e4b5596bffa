"""Exact expected population sizes via two independent routes.

spine_dp reads E[Z(n)] off the Taylor coefficients of the paper's
closed-form generating function, the one mgf_vector evaluates at a point.
urn_dp evolves the block-size partition of a reinforced urn and combines
blocks through the law's power moments.  The two routes share no code and
serve as mutual oracles.

Values grow like m^n, so tables store E[Z(n)] * scale^-n for a caller
supplied scale (default: the computed Malthusian rate); the scaled
coefficients stay O(1) through the recursion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeriesDiverges, StateExplosion
from .model import ModelParams, check_initial

# bounds spine_dp's s x n_max coefficient table of 1/(1 - a_j y)
_STATE_CAP = 10**7
_URN_N_CAP = 60
_SERIES_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class MomentTable:
    """E[Z(n)] for n = 0..N, stored in scaled form E[Z(n)] * scale^-n."""

    scaled: np.ndarray
    scale: float

    @property
    def values(self) -> np.ndarray:
        """Unscaled E[Z(n)]; may overflow to inf for extreme (law, n)."""
        n = np.arange(len(self.scaled), dtype=float)
        with np.errstate(over="ignore"):
            return self.scaled * self.scale**n


def _resolve_scale(params: ModelParams, scale: float | None, what: str = "scale") -> float:
    """The caller's scale, which must be finite and positive, or the
    computed Malthusian rate."""
    if scale is None:
        from .analytic import malthusian_rate

        return malthusian_rate(params).m
    if not (math.isfinite(scale) and scale > 0):
        raise DomainError(f"{what} must be finite and positive, got {scale!r}")
    return scale


def spine_dp(params: ModelParams, n_max: int, initial: str | int = "law",
             scale: float | None = None) -> MomentTable:
    """Exact E[Z(n)] (or E_ell[Z(n)]) as Taylor coefficients of the paper's
    closed-form generating function.

    With a_j = j/scale over the positive support, y = I_a^-1(q x),
    P = 1/Pi_a(y) and w_j = 1/(1 - a_j y), the series
    sum_{n>=1} scale^-n E_ell[Z(n)] x^(n-1) is a_ell P w_ell, and its nu
    mixture is P g with g = sum_j nu(j) a_j w_j (put x = 1 - e^-t in
    mgf_vector's M_ell).  From y' = q P, Pi_a(y)' = -(1-q) g, P Pi_a(y) = 1
    and w_j (1 - a_j y) = 1, each coefficient is a sum of nonnegative terms,
    so nothing cancels.  Each sum is an elementwise product and .sum(), never
    BLAS, so the tables do not depend on the BLAS build.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    law, q = params.law, params.q
    initial = check_initial(law, initial)
    pos = law.positive_support
    if len(pos) * n_max > _STATE_CAP:
        raise StateExplosion(f"{len(pos)} x {n_max} series coefficients exceed cap {_STATE_CAP}")
    scale = _resolve_scale(params, scale)

    scaled = np.zeros(n_max + 1)
    scaled[0] = 1.0
    if initial == 0:
        return MomentTable(scaled, scale)
    a = np.array(pos, dtype=float) / scale
    nu_a = np.array([law.mass(j) for j in pos]) * a
    # index k holds the x^k coefficient of y, of d = -Pi_a(y) (from k = 1),
    # of P and g, and of w_j in row j of w
    y, d, P, g = np.zeros(n_max + 1), np.zeros(n_max + 1), np.zeros(n_max), np.zeros(n_max)
    w = np.zeros((len(pos), n_max))
    P[0] = w[:, 0] = 1.0
    out = g if initial == "law" else w[pos.index(initial)]
    for k in range(n_max):
        if k:
            P[k] = (d[1:k + 1] * P[k - 1::-1]).sum()
            w[:, k] = a * (y[1:k + 1] * w[:, k - 1::-1]).sum(axis=1)
        g[k] = (nu_a * w[:, k]).sum()
        y[k + 1] = q * P[k] / (k + 1)
        d[k + 1] = (1.0 - q) * g[k] / (k + 1)
        scaled[k + 1] = (P[:k + 1] * out[k::-1]).sum()
    if initial != "law":
        scaled[1:] *= a[pos.index(initial)]
    return MomentTable(scaled, scale)


def urn_dp(params: ModelParams, n_max: int, scale: float | None = None) -> MomentTable:
    """Exact E[Z(n)] from the urn coupling: E prod_k m_nu(N_k(n)).

    The urn state is the partition of block sizes; a size-s block grows
    with probability q s / n and a new singleton appears with probability
    1 - q.  Valid under the law-initial measure only.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if n_max > _URN_N_CAP:
        raise StateExplosion(f"urn partitions beyond n={_URN_N_CAP} are not tabulated")
    law, q = params.law, params.q
    scale = _resolve_scale(params, scale)
    pos = np.array(law.positive_support, dtype=float)
    pr = np.array([law.mass(int(j)) for j in pos])
    # scaled moments sum_j nu(j) (j/scale)^s stay finite where j^s would not
    mom = np.array([np.dot(pr, (pos / scale) ** k) for k in range(n_max + 1)])

    scaled = np.zeros(n_max + 1)
    scaled[0] = 1.0
    scaled[1] = mom[1]
    dist: dict[tuple[int, ...], float] = {(1,): 1.0}
    for n in range(1, n_max):
        new: dict[tuple[int, ...], float] = {}
        for part, p in sorted(dist.items()):
            i = 0
            while i < len(part):
                size = part[i]
                count = 1
                while i + count < len(part) and part[i + count] == size:
                    count += 1
                grown = tuple(sorted(part[:i] + (size + 1,) + part[i + count:] +
                                     (size,) * (count - 1), reverse=True))
                inc = p * q * size * count / n
                new[grown] = new.get(grown, 0.0) + inc
                i += count
            fresh = tuple(sorted(part + (1,), reverse=True))
            new[fresh] = new.get(fresh, 0.0) + p * (1.0 - q)
        dist = new
        scaled[n + 1] = math.fsum(
            p * math.prod(mom[sz] for sz in part) for part, p in sorted(dist.items())
        )
    return MomentTable(scaled, scale)


def yule_functional_series(params: ModelParams, ell: int, c: float, t: float,
                           n_terms: int, rate: float | None = None) -> float:
    """Series e^-t sum_n (1-e^-t)^(n-1) c^n E_ell[Z(n)], truncated with a
    certified geometric tail bound below 1e-10.

    Equals the expected weighted type product of the typed pure-birth
    population at time t started from type ell.  Raises SeriesDiverges when
    c(1-e^-t) is at or beyond the series radius 1/m.
    """
    if not t >= 0:
        raise DomainError(f"time must be >= 0, got {t!r}")
    if not (math.isfinite(c) and c > 0):
        raise DomainError(f"weight factor must be finite and positive, got {c!r}")
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    mhat = _resolve_scale(params, rate, "rate")
    x = -math.expm1(-t)  # 1 - e^-t
    r = c * x * mhat
    if r >= 1.0:
        raise SeriesDiverges(
            f"c(1-e^-t)m = {r:.6g} >= 1: t exceeds the explosion time of weights c*j"
        )
    table = spine_dp(params, n_terms, initial=ell, scale=mhat)
    sc = table.scaled
    emt = math.exp(-t)
    terms = [emt * x ** (n - 1) * (c * mhat) ** n * sc[n] for n in range(1, n_terms + 1)]
    total = math.fsum(terms)
    bound_const = 2.0 * float(np.max(sc[1:])) if len(sc) > 1 else 0.0
    if bound_const > 0.0:
        tail = emt * bound_const * (c * mhat) * r**n_terms / (1.0 - r)
        if tail > _SERIES_TAIL_TOL:
            raise DomainError(
                f"certified tail bound {tail:.3e} exceeds {_SERIES_TAIL_TOL}; "
                f"increase n_terms (r={r:.4g})"
            )
    return total
