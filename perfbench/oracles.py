"""Reference values recomputed apart from rgw.

Nothing here imports rgw.  Each function rebuilds a quantity from the
paper's formulas with the standard library, numpy and scipy, so a fault in
an rgw engine cannot hide inside the check that judges it.  Laws are plain
dicts {offspring count: probability}.
"""
from __future__ import annotations

import math
from typing import Mapping

from scipy import integrate

Law = Mapping[int, float]


def _exponents(law: Law, q: float) -> dict[int, float]:
    return {j: p * (1.0 - q) / q for j, p in law.items()}


def weighted_integral(law: Law, q: float, weights: Mapping[int, float]) -> float:
    """I_a = integral_0^{1/max a} prod_j (1 - x a_j)^(nu(j)(1-q)/q) dx.

    The factors at the maximal weight vanish at the right endpoint like
    (x* - x)^E; scipy's QAWS rule (weight='alg') integrates that power
    exactly and leaves a smooth remainder.
    """
    e = _exponents(law, q)
    amax = max(weights.values())
    x_star = 1.0 / amax
    top = [j for j, a in weights.items() if a == amax]
    big_e = math.fsum(e[j] for j in top)
    rest = [(a, e[j]) for j, a in weights.items() if 0.0 < a < amax]

    def smooth(x: float) -> float:
        out = amax**big_e
        for a, ex in rest:
            out *= (1.0 - x * a) ** ex
        return out

    val, _ = integrate.quad(smooth, 0.0, x_star, weight="alg", wvar=(0.0, big_e),
                            epsabs=0.0, epsrel=5e-14, limit=200)
    return val


def malthusian_rate(law: Law, q: float) -> float:
    """m = q / integral_0^{1/k*} prod_j (1 - x j)^(nu(j)(1-q)/q) dx."""
    return q / weighted_integral(law, q, {j: float(j) for j in law})


def binary_rate(p: float, q: float) -> float:
    """Rate of the law {0: 1-p, 2: p}: an ordinary Galton-Watson process."""
    return 2.0 * (q + (1.0 - q) * p)


def binary_scaled_mean(p: float, q: float) -> float:
    """m^-n E[Z(n)] for the law {0: 1-p, 2: p}, the same for every n >= 1."""
    return p / (q + (1.0 - q) * p)


def rate_bounds(law: Law, q: float) -> tuple[float, float]:
    """Domination bounds k*(q + (1-q) nu(k*)) < m < k* q + (1-q) E[nu]."""
    kstar = max(law)
    nk = law[kstar]
    mean = math.fsum(j * p for j, p in law.items())
    return kstar * (q + (1.0 - q) * nk), kstar * q + (1.0 - q) * mean


def beta(law: Law, q: float) -> float:
    return 1.0 + (1.0 - q) * law[max(law)] / q


def mean_limit(law: Law, q: float) -> float:
    """Limit of m^-n E[Z(n)] under the law-initial measure."""
    nk = law[max(law)]
    return nk / (q + nk * (1.0 - q))


def gamma_closed_form(law: Law, q: float, m: float) -> float:
    """gamma = (P*(x*) / (a_max beta q))^(1 - 1/beta) / P*(x*) in the critical
    scaling a_j = j/m, with P* the product of the non-maximal factors."""
    kstar = max(law)
    e = _exponents(law, q)
    p_star = math.prod((1.0 - j / kstar) ** e[j] for j in law if 0 < j < kstar)
    b = beta(law, q)
    return (p_star / ((kstar / m) * b * q)) ** (1.0 - 1.0 / b) / p_star


def conditional_limit(law: Law, q: float, m: float, ell: int) -> float:
    """Limit of n^(1/beta) m^-n E_ell[Z(n)] for 0 < ell < k*."""
    b = beta(law, q)
    kstar = max(law)
    return (gamma_closed_form(law, q, m)
            / (math.gamma(1.0 - 1.0 / b) * m * (1.0 / ell - 1.0 / kstar)))


def lineage_means(law: Law, q: float, n_max: int, initial: str | int = "law") -> list[float]:
    """E[zeta_1 ... zeta_n] for n = 0..n_max by enumerating every lineage.

    zeta_1 follows the law (or equals ell); zeta_{k+1} repeats one of the k
    earlier values, chosen uniformly, with probability q and is a fresh
    draw otherwise.  Sequences through 0 have product 0 and are skipped.
    Work grows like s^n for s positive support points.
    """
    pos = sorted(j for j in law if j > 0)
    probs = [law[j] for j in pos]
    terms: list[list[float]] = [[] for _ in range(n_max + 1)]
    counts = [0] * len(pos)

    def walk(depth: int, weight: float) -> None:
        terms[depth].append(weight)
        if depth == n_max:
            return
        for i, j in enumerate(pos):
            p = q * counts[i] / depth + (1.0 - q) * probs[i]
            counts[i] += 1
            walk(depth + 1, weight * p * j)
            counts[i] -= 1

    firsts = list(zip(range(len(pos)), probs)) if initial == "law" else (
        [(pos.index(int(initial)), 1.0)] if int(initial) > 0 else [])
    for i, p in firsts:
        counts[i] = 1
        walk(1, p * pos[i])
        counts[i] = 0
    return [1.0] + [math.fsum(t) for t in terms[1:]]


def composition_states(support_size: int, n_max: int, initial: str | int = "law") -> int:
    """Count vectors a lineage DP over the positive support can visit in
    generations 1..n_max: compositions of n into s parts, with the initial
    point's part at least 1 under P_ell."""
    s = support_size
    if initial == "law":
        return math.comb(n_max + s, s) - 1
    if int(initial) == 0:
        return 0
    return math.comb(n_max - 1 + s, s)


def partition_states(n_max: int) -> int:
    """Partitions of n summed over n = 1..n_max: the urn DP's states."""
    ways = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            ways[total] += ways[total - part]
    return sum(ways[1:])
