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

from .errors import DomainError, SeriesDiverges, StateExplosion, ZeroPopulationMean
from .model import ModelParams

_STATE_CAP = 10**7
_URN_N_CAP = 60
_SERIES_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class MomentTable:
    """E[Z(n)] for n = 0..N, stored in scaled form E[Z(n)] * scale^-n.

    initial is "law" (first generation drawn from the law) or a fixed
    first-generation size ell.
    """

    scaled: np.ndarray
    scale: float
    initial: str | int

    @property
    def values(self) -> np.ndarray:
        """Unscaled E[Z(n)]; may overflow to inf for extreme (law, n)."""
        n = np.arange(len(self.scaled), dtype=float)
        return self.scaled * self.scale**n

    def __len__(self) -> int:
        return len(self.scaled)

    def to_csv(self, fh) -> None:
        fh.write("n,EZ,scaled\n")
        values = self.values
        for n, (ez, sc) in enumerate(zip(values, self.scaled)):
            fh.write(f"{n},{ez:.12g},{sc:.12g}\n")


def _default_scale(params: ModelParams) -> float:
    from .analytic import malthusian_rate

    return malthusian_rate(params).m


def spine_dp(params: ModelParams, n_max: int, initial: str | int = "law",
             scale: float | None = None) -> MomentTable:
    """Exact E[Z(n)] (or E_ell[Z(n)]) from the lineage-chain recursion.

    States are count compositions over the positive support; histories that
    reach offspring count 0 carry zero product weight and are pruned.
    States are visited in lexicographic order so sums are bit-reproducible.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    law, q = params.law, params.q
    pos = law.positive_support
    s = len(pos)
    n_states = math.comb(n_max + s - 1, s - 1)
    if n_states > _STATE_CAP:
        raise StateExplosion(f"{n_states} composition states exceed cap {_STATE_CAP}")
    if scale is None:
        scale = _default_scale(params)

    scaled = np.zeros(n_max + 1)
    scaled[0] = 1.0
    states: dict[tuple[int, ...], float] = {}
    if initial == "law":
        for i, j in enumerate(pos):
            unit = tuple(1 if k == i else 0 for k in range(s))
            states[unit] = law.mass(j) * j / scale
    else:
        ell = int(initial)
        if ell not in law.masses:
            raise DomainError(f"{ell} is not a support point")
        if ell > 0:
            unit = tuple(1 if pos[k] == ell else 0 for k in range(s))
            states[unit] = ell / scale
    scaled[1] = math.fsum(states.values())

    probs = [law.mass(j) for j in pos]
    for n in range(1, n_max):
        new: dict[tuple[int, ...], float] = {}
        qn = q / n
        for st, w in sorted(states.items()):
            for i in range(s):
                p = qn * st[i] + (1.0 - q) * probs[i]
                st2 = st[:i] + (st[i] + 1,) + st[i + 1:]
                inc = w * p * pos[i] / scale
                if st2 in new:
                    new[st2] += inc
                else:
                    new[st2] = inc
        states = new
        scaled[n + 1] = math.fsum(states.values())
    return MomentTable(scaled, scale, initial)


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
    if scale is None:
        scale = _default_scale(params)
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
    return MomentTable(scaled, scale, "law")


def effective_reproduction(table: MomentTable) -> np.ndarray:
    """Ratios E[Z(n+1)]/E[Z(n)]; converge to the Malthusian rate."""
    sc = table.scaled
    if np.any(sc[:-1] <= 0.0):
        raise ZeroPopulationMean("table contains a zero mean; ratios undefined")
    return sc[1:] / sc[:-1] * table.scale


def yule_functional_series(params: ModelParams, ell: int, c: float, t: float,
                           n_terms: int, rate: float | None = None) -> float:
    """Series e^-t sum_n (1-e^-t)^(n-1) c^n E_ell[Z(n)], truncated with a
    certified geometric tail bound below 1e-10.

    Equals the expected weighted type product of the typed pure-birth
    population at time t started from type ell.  Raises SeriesDiverges when
    c(1-e^-t) is at or beyond the series radius 1/m.
    """
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t!r}")
    if not (math.isfinite(c) and c > 0):
        raise DomainError(f"weight factor must be finite and positive, got {c!r}")
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    mhat = rate if rate is not None else _default_scale(params)
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
