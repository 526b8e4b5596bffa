"""Exact expected population sizes via two independent routes.

spine_dp reads E[Z(n)] off the Taylor coefficients of the paper's
closed-form generating function, the one mgf_vector evaluates at a point.
urn_dp evolves the block-size partition of a reinforced urn over a ranked
lattice of integer partitions and combines blocks through the law's power
moments.  The two routes share no code and serve as mutual oracles.

Values grow like m^n, so tables store E[Z(n)] * scale^-n for a caller
supplied scale (default: the computed Malthusian rate); the scaled
coefficients stay O(1) through the recursion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeriesDiverges, StateExplosion
from .model import ModelParams, check_initial, check_integer

# bounds spine_dp's work, s x n_max^2 multiply-adds for s positive support
# points: at the cap a table takes 0.6-2.3 s (s = 1..16, 2-core host)
_STATE_CAP = 10**9
_URN_N_CAP = 60
# rows x parts per block of urn_dp's rank temporaries
_URN_BLOCK = 1 << 16
_SERIES_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class MomentTable:
    """E[Z(n)] for n = 0..N, stored in scaled form E[Z(n)] * scale^-n."""

    scaled: np.ndarray
    scale: float

    @property
    def values(self) -> np.ndarray:
        """Unscaled E[Z(n)]; may overflow to inf for extreme (law, n).  A zero
        coefficient stays zero even where scale^n overflows."""
        n = np.arange(len(self.scaled), dtype=float)
        with np.errstate(over="ignore"):
            powers = self.scale**n
        return np.multiply(self.scaled, powers, out=np.zeros_like(self.scaled),
                           where=self.scaled != 0)


def _resolve_scale(params: ModelParams, scale: float | None) -> float:
    """The caller's scale, which must be finite and positive, or the
    computed Malthusian rate."""
    if scale is None:
        from .analytic import malthusian_rate

        return malthusian_rate(params).m
    if not (math.isfinite(scale) and scale > 0):
        raise DomainError(f"scale must be finite and positive, got {scale!r}")
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
    n_max = check_integer(n_max, "n_max must be an integer >= 1, got {!r}")
    law, q = params.law, params.q
    initial = check_initial(law, initial)
    pos = law.positive_support
    if len(pos) * n_max**2 > _STATE_CAP:
        raise StateExplosion(
            f"{len(pos)} x {n_max}^2 series multiply-adds exceed cap {_STATE_CAP}")
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


def _partitions_below(size: int) -> np.ndarray:
    """below[r, k]: the partitions of r into parts < k for r, k < size, with
    below[:, 0] = 0 so that a zero (padding) part ranks nothing."""
    at_most = [[1] + [0] * (size - 1)]  # at_most[j][r]: parts <= j
    for j in range(1, size - 1):
        row = at_most[-1][:]
        for r in range(j, size):
            row[r] += row[r - j]
        at_most.append(row)
    return np.array([[0] * size] + at_most, dtype=np.int32).T.copy()


def urn_dp(params: ModelParams, n_max: int, scale: float | None = None) -> MomentTable:
    """Exact E[Z(n)] from the urn coupling: E prod_k m_nu(N_k(n)).

    The urn state is the partition of block sizes; a size-s block grows
    with probability q s / n and a new singleton appears with probability
    1 - q.  Valid under the law-initial measure only.

    Level n holds every partition of n as an int8 row of descending parts,
    zero padded, in ascending tuple order.  With r_i = n - sum_{j<i} lam_j,
    a row's rank is sum_i below[r_i, lam_i], so each move's target rank is
    read off prefix and suffix sums of the row, and one np.bincount per
    level merges the moves in the order a dict keyed by sorted partitions
    would add them.  Each weight and each moment product (left to right,
    carried from the parent row) takes the same float operations as that
    dict loop, and the level sum is math.fsum, so tables are bit-identical
    to it.
    """
    n_max = check_integer(n_max, "n_max must be an integer >= 1, got {!r}")
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
    dim = n_max + 2
    below = _partitions_below(dim)
    flat = below.ravel()
    rows = np.ones((1, 1), dtype=np.int8)
    nparts = np.ones(1, dtype=np.int8)
    dist = np.ones(1)
    # prod of mom over a row's parts: all but the last (head), and all (full)
    head, full = np.ones(1), mom[1:2].copy()
    for n in range(1, n_max):
        n_next = int(below[n + 1, n + 2])
        # one move per distinct part and one fresh singleton per row; the
        # partitions of n with part j number p(n - j), so sum_{k<=n} p(k)
        n_moves = int(below[np.arange(n + 1), np.arange(1, n + 2)].sum())
        target = np.empty(n_moves, dtype=np.intp)  # bincount's index type
        weight = np.empty(n_moves)
        rows_next = np.zeros((n_next, n + 1), dtype=np.int8)
        nparts_next = np.empty(n_next, dtype=np.int8)
        head_next, full_next = np.empty(n_next), np.empty(n_next)
        done, step = 0, _URN_BLOCK // n
        for lo in range(0, len(rows), step):
            hi = lo + step
            parts = nparts[lo:hi]
            width = int(parts.max())
            lam = rows[lo:hi, :width]
            # flat[cell] = below[r_i, lam_i]; ranks fit int32 as p(61) < 2^31
            cell = (lam - np.cumsum(lam, axis=1, dtype=np.int32) + n) * dim + lam
            up = np.cumsum(flat[cell + dim], axis=1, dtype=np.int32)
            own = np.cumsum(flat[cell], axis=1, dtype=np.int32)
            fresh = up[:, -1]
            # grow the first of each run of equal parts, runs in row order
            first = lam > 0
            first[:, 1:] &= lam[:, 1:] != lam[:, :-1]
            k, i = np.nonzero(first)
            at = k * width + i
            part = lam.ravel()[at]
            ends = np.cumsum(first.sum(axis=1))
            run_end = np.empty_like(i)
            run_end[:-1] = i[1:]
            run_end[ends - 1] = parts
            count = run_end - i
            # growing part i adds one to r_j for j <= i: parts before i rank
            # by up, part i by below[r_i + 1, lam_i + 1], the rest by own
            c = cell.ravel()[at]
            grow = (up.ravel()[at] - flat[c + dim] + flat[c + dim + 1]
                    + own[k, -1] - own.ravel()[at])
            # each row's grows, then its fresh singleton
            slot = done + np.arange(len(k)) + k
            target[slot] = grow
            weight[slot] = dist[lo:hi][k] * q * part * count / n
            slot = done + ends + np.arange(len(lam))
            target[slot] = fresh
            weight[slot] = dist[lo:hi] * (1.0 - q)
            done += len(k) + len(lam)
            # level n + 1, each partition once: a fresh singleton appended
            # to any row, or a row's unique last part grown
            rows_next[fresh, :width] = lam
            rows_next[fresh, parts] = 1
            nparts_next[fresh] = parts + 1
            head_next[fresh] = full[lo:hi]
            full_next[fresh] = full[lo:hi] * mom[1]
            src = np.flatnonzero(count[ends - 1] == 1)
            dst = grow[ends - 1][src]
            rows_next[dst, :width] = lam[src]
            rows_next[dst, parts[src] - 1] += 1
            nparts_next[dst] = parts[src]
            head_next[dst] = head[lo:hi][src]
            full_next[dst] = head[lo:hi][src] * mom[part[ends - 1][src] + 1]
        dist = np.bincount(target, weight, minlength=n_next)
        rows, nparts, head, full = rows_next, nparts_next, head_next, full_next
        scaled[n + 1] = math.fsum((dist * full).tolist())
    return MomentTable(scaled, scale)


def yule_functional_series(params: ModelParams, ell: int, c: float, t: float,
                           n_terms: int) -> float:
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
    n_terms = check_integer(n_terms, "n_terms must be an integer >= 1, got {!r}")
    mhat = _resolve_scale(params, None)
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
