"""Exact expected population sizes via two independent dynamic programs.

spine_dp follows the single-lineage chain (zeta_1, ..., zeta_n), whose
running count vector is a sufficient statistic: the next value equals a
past value with probability q * (its count)/n and a fresh draw otherwise.
urn_dp evolves the block-size partition of a reinforced urn and combines
blocks through the law's power moments.  The two routes share no code and
serve as mutual oracles.

Values grow like m^n, so tables store E[Z(n)] * scale^-n for a caller
supplied scale (default: the computed Malthusian rate); the scaled weights
stay O(1) through the recursion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeriesDiverges, StateExplosion
from .model import ModelParams, check_initial

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


def _rank(counts: np.ndarray, n: int, binom: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each column of counts among the compositions of n: a
    part c of a rest r with k parts after it skips binom[k, r] - binom[k, r - c]."""
    rank, r = np.zeros(counts.shape[1], dtype=np.int64), np.full(counts.shape[1], n)
    for i, c in enumerate(counts[:-1]):
        k = len(counts) - 1 - i
        rank += binom[k, r] - binom[k, r - c]
        r -= c
    return rank


def spine_dp(params: ModelParams, n_max: int, initial: str | int = "law",
             scale: float | None = None) -> MomentTable:
    """Exact E[Z(n)] (or E_ell[Z(n)]) from the lineage-chain recursion.

    Generation n holds one column per count composition of n over the
    positive support and the weight of the histories reaching it (0 if none
    do).  np.bincount adds a composition's terms from its predecessors
    c - e_0 < c - e_1 < ... in lexicographic order from 0.0, and math.fsum
    rounds each generation exactly, so sums are bit-reproducible.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    law, q = params.law, params.q
    initial = check_initial(law, initial)
    pos = np.array(law.positive_support, dtype=float)
    s = len(pos)
    n_states = math.comb(n_max + s - 1, s - 1)
    if n_states > _STATE_CAP:
        raise StateExplosion(f"{n_states} composition states exceed cap {_STATE_CAP}")
    scale = _resolve_scale(params, scale)

    probs = np.array([law.mass(int(j)) for j in pos])
    counts = step = np.eye(s, dtype=np.int64)
    binom = np.array([[math.comb(m + k, k) for m in range(n_max + 1)] for k in range(s)])
    w = (probs if initial == "law" else pos == initial) * pos / scale
    scaled = np.zeros(n_max + 1)
    scaled[0], scaled[1] = 1.0, math.fsum(w.tolist())
    for n in range(1, n_max):
        inc = w * (q / n * counts + (1.0 - q) * probs[:, None]) * pos[:, None] / scale
        nxt = (counts[:, None, :] + step[:, :, None]).reshape(s, -1)  # part-major successors
        idx = _rank(nxt, n + 1, binom)
        w = np.bincount(idx, weights=inc.ravel())
        counts = np.empty((s, len(w)), dtype=np.int64)
        counts[:, idx] = nxt
        scaled[n + 1] = math.fsum(w.tolist())
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
