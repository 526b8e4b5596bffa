"""Seeded Monte Carlo: population trajectories, lineage-chain estimates,
and the typed pure-birth (Yule) process.

Replica r draws every variate from a counter-based stream keyed by
(seed, r), so estimates are reproducible bit-for-bit independent of batch
sizes.  Reductions run in replica order.  Every engine is vectorised
across replicas.  Lineage and population share one step rule (`_step`,
`_absorb`) over forebear count vectors, one uniform per child; the Yule
engine advances all live replicas by one birth per round (counter layout
in `simulate_yule`).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PopulationCapExceeded
from .model import ModelParams
from .rng import derive_keys, uniforms

_SALT_SPINE = 0x53
_SALT_POP = 0x61
_SALT_YULE = 0x79

_SPINE_BATCH = 1 << 18
_POP_CELL_BUDGET = 1.5e7


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: seed, replica count and population cap."""

    seed: int
    replicas: int
    population_cap: int = 10**6

    def __post_init__(self):
        if self.replicas < 1:
            raise DomainError(f"replicas must be >= 1, got {self.replicas}")
        if self.population_cap < 1:
            raise DomainError(f"population_cap must be >= 1, got {self.population_cap}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    replicas_used: int
    capped_fraction: float

    def to_dict(self, seed: int | None = None) -> dict:
        out = {
            "mean": self.mean,
            "std_error": self.std_error,
            "replicas_used": self.replicas_used,
            "capped_fraction": self.capped_fraction,
        }
        if seed is not None:
            out["seed"] = seed
        return out


def _estimate_from_samples(samples: np.ndarray, capped: np.ndarray | None = None) -> Estimate:
    n_total = len(samples)
    if capped is not None and capped.any():
        samples = samples[~capped]
        capped_fraction = float(np.count_nonzero(capped)) / n_total
    else:
        capped_fraction = 0.0
    if len(samples) == 0:
        raise PopulationCapExceeded("all replicas hit the population cap")
    se = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return Estimate(float(samples.mean()), se, len(samples), capped_fraction)


def _law_tables(params: ModelParams):
    law = params.law
    support = np.array(law.support, dtype=np.int64)
    cum = np.cumsum([law.mass(int(k)) for k in support])
    cum[-1] = 1.0
    pos = np.array(law.positive_support, dtype=np.int64)
    return support, cum, pos


def _law_index(cum, u):
    """Support index that u in [0, 1) draws."""
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _step(cols, i, u, q, zero, cum):
    """Support index of the next value on lines with i values so far.

    cols[j] counts a line's values among pos[0..j], j < s-1, and
    pos[j] has support index j + zero.  u < q repeats a uniform earlier
    value, picked from u/q; otherwise (u-q)/(1-q) draws a fresh one.
    """
    uq = u / q
    rep = np.full(u.size, zero)
    for c in cols:
        rep += uq >= c / i
    u_fresh = np.clip((u - q) / (1.0 - q), 0.0, np.nextafter(1.0, 0.0))
    # _law_index as a scan: the step is O(s) per line already
    fresh = np.zeros(u.size, dtype=np.int64)
    for c in cum[:-1]:
        fresh += u_fresh >= c
    return np.where(u < q, rep, fresh)


def _absorb(cols, idx, zero):
    """Add the positive values at support indices idx to their lines' cols."""
    p = idx - zero
    for j, c in enumerate(cols):
        c += p <= j


# ---------------------------------------------------------------------------
# lineage-chain estimator
# ---------------------------------------------------------------------------

def simulate_spine(params: ModelParams, n: int, config: SimConfig,
                   initial: str | int = "law") -> Estimate:
    """Unbiased estimate of E[Z(n)] by averaging the lineage products
    zeta_1 * ... * zeta_n; O(n) work per replica.

    Replica r reads its stream at counter i for step i.  A lineage whose
    product hits 0 is extinct: its sample is written at once and the row is
    dropped, so it draws nothing further.  A live lineage carries its
    running cumulative counts over the first s-1 positive support points
    (the last one is always i after i steps), from which a repeat picks a
    uniform earlier value.  Raises DomainError if a product, or the sum or
    spread of the products, overflows float64.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    law, q = params.law, params.q
    support, cum, pos = _law_tables(params)
    s = len(pos)
    zero = int(support[0] == 0)  # support index of pos[j] is j + zero
    value = support.astype(float)
    if initial != "law":
        ell = int(initial)
        if ell not in law.masses:
            raise DomainError(f"{ell} is not a support point")

    samples = np.empty(config.replicas)
    for lo in range(0, config.replicas, _SPINE_BATCH):
        hi = min(lo + _SPINE_BATCH, config.replicas)
        slot = np.arange(lo, hi)
        keys = derive_keys(config.seed, _SALT_SPINE, slot.astype(np.uint64))
        if initial == "law":
            idx = _law_index(cum, uniforms(keys, 0))
        else:
            idx = np.full(hi - lo, np.searchsorted(support, ell))
        prod = value[idx]
        # cols[j]: how many values drawn so far are among pos[0..j], j < s-1
        cols = np.zeros((s - 1, hi - lo))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, n + 1):
                dead = idx < zero
                if dead.any():
                    samples[slot[dead]] = prod[dead]
                    live = np.flatnonzero(~dead)
                    slot, keys, prod, idx = (
                        np.take(a, live) for a in (slot, keys, prod, idx)
                    )
                    cols = np.take(cols, live, axis=1)
                if i == n or slot.size == 0:
                    break
                _absorb(cols, idx, zero)
                idx = _step(cols, i, uniforms(keys, i), q, zero, cum)
                prod = prod * value[idx]
        samples[slot] = prod
    # an overflowed product is inf, and inf * 0 = nan
    if not np.isfinite(samples).all():
        raise DomainError(f"the lineage products overflow float64 by n={n}; use a smaller n")
    with np.errstate(over="ignore"):
        est = _estimate_from_samples(samples)
    if not (math.isfinite(est.mean) and math.isfinite(est.std_error)):
        raise DomainError(
            f"the sum or spread of the lineage products overflows float64 at n={n}; "
            "use a smaller n"
        )
    return est


# ---------------------------------------------------------------------------
# population simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationResult:
    """Per-replica trajectories Z(0..n); NaN marks generations past a cap hit."""

    z: np.ndarray        # (replicas, n+1) float
    capped: np.ndarray   # (replicas,) bool
    seed: int

    def estimate(self, gen: int | None = None) -> Estimate:
        gen = self.z.shape[1] - 1 if gen is None else gen
        return _estimate_from_samples(self.z[:, gen], self.capped)

    def to_csv(self, fh) -> None:
        fh.write("replica,generation,Z\n")
        for r in range(self.z.shape[0]):
            for g in range(self.z.shape[1]):
                v = self.z[r, g]
                if math.isnan(v):
                    break
                fh.write(f"{r},{g},{v:.12g}\n")


def _population_batch(params, n, config, initial, lo, hi, support, cum):
    q = params.q
    b = hi - lo
    zero = int(support[0] == 0)
    s = len(support) - zero
    keys = derive_keys(config.seed, _SALT_POP, np.arange(lo, hi, dtype=np.uint64))
    z = np.zeros((b, n + 1))
    z[:, 0] = 1.0
    capped = np.zeros(b, dtype=bool)
    cap_gen = np.full(b, n + 2, dtype=np.int64)
    base = np.zeros(b, dtype=np.uint64)
    # individuals are grouped by replica, counts_per_rep of each; cols[:, k]
    # counts individual k's forebear values as in _step
    counts_per_rep = np.ones(b, dtype=np.int64)
    cols = np.zeros((s - 1, b))
    for g in range(n):
        rep = np.repeat(np.arange(b), counts_per_rep)
        rows = len(rep)
        if rows == 0:
            break
        starts = np.cumsum(counts_per_rep) - counts_per_rep
        # individual k of replica r reads counter base[r] + k
        with np.errstate(over="ignore"):
            ctr = np.arange(rows, dtype=np.uint64)
            ctr += np.repeat(base - starts.astype(np.uint64), counts_per_rep)
        u = uniforms(np.repeat(keys, counts_per_rep), ctr)
        if g > 0:
            idx = _step(cols, g, u, q, zero, cum)
        elif initial == "law":
            idx = _law_index(cum, u)
        else:
            idx = np.full(rows, np.searchsorted(support, int(initial)))
        cnt = support[idx]
        with np.errstate(over="ignore"):
            base += counts_per_rep.astype(np.uint64)
        z_next = np.bincount(rep, weights=cnt.astype(float), minlength=b)
        z[:, g + 1] = z_next
        newly = (~capped) & (z_next > config.population_cap)
        capped |= newly
        cap_gen[newly] = g + 1
        keep = np.flatnonzero(~capped[rep] & (cnt > 0))
        counts_per_rep = np.where(capped, 0, z_next).astype(np.int64)
        cols = np.take(cols, keep, axis=1)
        _absorb(cols, np.take(idx, keep), zero)
        cols = np.repeat(cols, np.take(cnt, keep), axis=1)
    for r in np.nonzero(capped)[0]:
        z[r, cap_gen[r] + 1:] = np.nan
    return z, capped


def simulate_rgw(params: ModelParams, n: int, config: SimConfig,
                 initial: str | int = "law") -> PopulationResult:
    """Simulate the full reinforced branching population for n generations.

    Each individual carries the count vector of its forebears' values and
    steps with the lineage rule (`_step`) on one uniform: individual k of
    replica r (its k-th in generation order) reads counter base + k, where
    base counts r's individuals in earlier generations; a law-drawn root
    reads counter 0.  Replicas hitting the population cap are flagged and
    excluded from estimates rather than silently kept.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    law = params.law
    if initial != "law" and int(initial) not in law.masses:
        raise DomainError(f"{initial} is not a support point")
    support, cum, _ = _law_tables(params)

    from .analytic import malthusian_rate

    # m ** n overflows a float at deep horizons, so compare in log space first
    m, cap = malthusian_rate(params).m, config.population_cap
    est_final = min(cap, 4.0 * m ** n + 4.0) if n * math.log(m) < math.log(cap) else cap
    batch = int(_POP_CELL_BUDGET / ((n + 1) * est_final))
    batch = max(16, min(config.replicas, batch))

    z = np.empty((config.replicas, n + 1))
    capped = np.empty(config.replicas, dtype=bool)
    for lo in range(0, config.replicas, batch):
        hi = min(lo + batch, config.replicas)
        z[lo:hi], capped[lo:hi] = _population_batch(
            params, n, config, initial, lo, hi, support, cum
        )
    return PopulationResult(z=z, capped=capped, seed=config.seed)


# ---------------------------------------------------------------------------
# typed pure-birth (Yule) process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class YuleResult:
    """Type counts at the horizon, one row per replica (columns follow
    the law's sorted support)."""

    counts: np.ndarray   # (replicas, |support|) int64
    support: tuple[int, ...]
    capped: np.ndarray
    seed: int

    @property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def to_csv(self, fh) -> None:
        fh.write("replica," + ",".join(f"Y_{j}" for j in self.support) + "\n")
        for r in range(self.counts.shape[0]):
            fh.write(f"{r}," + ",".join(str(v) for v in self.counts[r]) + "\n")


def simulate_yule(params: ModelParams, t: float, config: SimConfig,
                  initial: str | int = "law") -> YuleResult:
    """Event-driven unit-rate pure-birth process with type inheritance.

    With k individuals alive the next birth arrives after Exponential(k);
    the parent is uniform and the child copies its type with probability q,
    otherwise draws a fresh type from the law.  Exponential jumps keep the
    marginal law of the population size exactly geometric.

    Replicas run in parallel rounds: round e (from 0) gives every replica
    still below the horizon its e-th event, so all of them hold k = e + 1
    individuals.  Replica r reads its stream at counter 0 for a law-drawn
    root type (off = 1, else off = 0) and then, for event e, at off + 3e
    (holding time), off + 3e + 1 (parent) and off + 3e + 2 (copy or fresh
    type).  A replica's counts are thus a pure function of (seed, r) and
    do not depend on how many replicas run beside it.  Memory is the
    (replicas x |support|) count table plus temporaries the size of the
    live set.  Each round has a fixed numpy cost, so a run of very few
    replicas to a deep horizon is slower than a per-replica loop would be;
    from about 50 replicas up the rounds are faster.
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        # a NaN horizon would stop every replica at once, an infinite one never
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    law, q = params.law, params.q
    support = law.support
    if initial != "law" and int(initial) not in law.masses:
        raise DomainError(f"{initial} is not a support point")
    s = len(support)
    cum = np.cumsum([law.mass(j) for j in support])
    cum[-1] = 1.0

    def law_index(u):
        # first support index whose cumulative mass reaches u
        return np.minimum(np.searchsorted(cum, u, side="left"), s - 1)

    n = config.replicas
    keys = derive_keys(config.seed, _SALT_YULE, np.arange(n, dtype=np.uint64))
    counts = np.zeros((n, s), dtype=np.int64)
    capped = np.zeros(n, dtype=bool)
    if initial == "law":
        counts[np.arange(n), law_index(uniforms(keys, 0))] = 1
        off = 1
    else:
        counts[:, support.index(int(initial))] = 1
        off = 0
    live = np.arange(n)
    now = np.zeros(n)
    k = 1
    while True:
        ctr = off + 3 * (k - 1)
        lkeys = keys[live]
        step = now[live] + -np.log1p(-uniforms(lkeys, ctr)) / k
        going = step <= t
        live, lkeys = live[going], lkeys[going]
        if live.size == 0:
            break
        now[live] = step[going]
        u = uniforms(lkeys, ctr + 1) * k
        below = counts[live].cumsum(axis=1) < u[:, None]
        # the child takes its parent's type unless it draws a fresh one
        child = np.minimum(below.sum(axis=1), s - 1)
        u2 = uniforms(lkeys, ctr + 2)
        fresh = u2 >= q
        child[fresh] = law_index((u2[fresh] - q) / (1.0 - q))
        counts[live, child] += 1
        k += 1
        if k >= config.population_cap:
            capped[live] = True
            break
    return YuleResult(counts=counts, support=support, capped=capped, seed=config.seed)


def estimate_yule_functional(params: ModelParams, ell: int, c: float, t: float,
                             config: SimConfig) -> Estimate:
    """Monte Carlo estimate of E_ell[ prod_j (c j)^{Y_j(t)} ].

    Replicas containing a type-0 individual contribute exactly 0
    (convention 0^0 = 1 applies only to absent types).
    """
    if not (math.isfinite(c) and c > 0):
        raise DomainError(f"weight factor must be finite and positive, got {c!r}")
    if c * params.law.kstar > 1.0 + 1e-12:
        warnings.warn(
            f"c*k* = {c * params.law.kstar:.4g} > 1: heavy-tailed product, "
            "standard errors may converge slowly",
            stacklevel=2,
        )
    res = simulate_yule(params, t, config, initial=ell)
    base = c * np.array(res.support, dtype=float)
    vals = np.prod(base[None, :] ** res.counts, axis=1)
    return _estimate_from_samples(vals, res.capped)
