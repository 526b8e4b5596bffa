"""Seeded Monte Carlo: population trajectories, lineage-chain estimates,
and the typed pure-birth (Yule) process.

Replica r draws every variate from a counter-based stream keyed by
(seed, r), so estimates are reproducible bit-for-bit independent of batch
sizes.  Reductions run in replica order.  Every engine is vectorised
across replicas.  All three engines share one root draw (`_roots`), one
step rule (`_step`) over cumulative forebear counts with one uniform per
child, and one law sampler (`_law_index`); the Yule engine advances all
live replicas by one birth per round (counter layout in `simulate_yule`).
The step compares uniforms with cuts (`_cuts`), not float quotients.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PopulationCapExceeded
from .model import ModelParams, check_initial, check_integer
from .rng import advance, derive_keys, uniforms

_SALT_SPINE = 0x53
_SALT_POP = 0x61
_SALT_YULE = 0x79

_SPINE_BATCH = 1 << 16
# a population batch holds at most _POP_GROWTH times the replicas of the last,
# and about _POP_CELL_BUDGET individuals in its widest generation (its replicas
# times the widest mean generation per replica of the batches before it)
_POP_CELL_BUDGET = 2**17
_POP_GROWTH = 4


@dataclass(frozen=True)
class SimConfig:
    """Replication plan: seed, replica count and population cap."""

    seed: int
    replicas: int
    population_cap: int = 10**6

    def __post_init__(self):
        # frozen: the checked ints replace the given values
        object.__setattr__(self, "seed", check_integer(
            self.seed, "seed must satisfy 0 <= seed < 2**64, got {!r}", 0, 2**64))
        object.__setattr__(self, "replicas", check_integer(
            self.replicas, "replicas must be >= 1, got {!r}"))
        object.__setattr__(self, "population_cap", check_integer(
            self.population_cap, "population_cap must be >= 1, got {!r}"))


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    replicas_used: int
    capped_fraction: float


def _estimate_from_samples(samples: np.ndarray, capped: np.ndarray | None = None,
                           what: str = "samples", hint: str = "") -> Estimate:
    """Mean and standard error of the uncapped samples; DomainError, naming
    `what` and ending in `hint`, if a sample, their sum or spread overflows."""
    n_total = len(samples)
    if capped is not None and capped.any():
        samples = samples[~capped]
        capped_fraction = float(np.count_nonzero(capped)) / n_total
    else:
        capped_fraction = 0.0
    if len(samples) == 0:
        raise PopulationCapExceeded("all replicas hit the population cap")
    if not np.isfinite(samples).all():
        raise DomainError(f"the {what} overflow float64{hint}")
    with np.errstate(over="ignore"):
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise DomainError(f"the sum or spread of the {what} overflows float64{hint}")
    return Estimate(mean, se, len(samples), capped_fraction)


def _law_tables(params: ModelParams):
    law = params.law
    support = np.array(law.support, dtype=np.int64)
    cum = np.cumsum([law.mass(int(k)) for k in support])
    cum[-1] = 1.0
    pos = np.array(law.positive_support, dtype=np.int64)
    return support, cum, pos


def _law_index(cum, u, idx=None):
    """Support index that u in [0, 1) draws (added to idx if given): how many
    of cum[:-1] are <= u, as searchsorted(cum, u, side="right"), by a scan."""
    idx = np.zeros(np.shape(u), dtype=np.int64) if idx is None else idx
    for c in cum[:-1]:
        idx += u >= c
    return idx


def _roots(keys, initial, support, cum):
    """Support index of each stream's first value; a law draw reads counter 0."""
    if initial == "law":
        return _law_index(cum, uniforms(keys, 0))
    return np.full(np.shape(keys), np.searchsorted(support, initial))


def _cuts(a, b, x):
    """Least u = k * 2**-53 (a value of `uniforms`) with (u - a) / b >= x in
    floats, per x, else 1.0: rounding is monotone, so u >= cut exactly where
    the quotient clears x.  The walk starts at the real root a + b x."""
    k = np.clip(np.ceil((a + b * x) * 2.0**53), 0.0, 2.0**53)
    while True:
        down = (k > 0) & (((k - 1) * 2.0**-53 - a) / b >= x)
        up = (k < 2.0**53) & ((k * 2.0**-53 - a) / b < x)
        if not (down.any() or up.any()):
            return k * 2.0**-53
        k += np.subtract(up, down, dtype=float)


def _fresh_cuts(cum, q):
    """cum in u-space, for clip((u - q) / (1 - q), 0, 1 - 2**-53) at u >= q."""
    return np.append(_cuts(q, 1.0 - q, cum[:-1]), 1.0)


def _step(cols, i, u, q, zero, fresh, tables=None):
    """Support index of the next value on lines with i values so far.

    cols[j] (intp) counts a line's values among pos[0..j], j < s-1, and pos[j]
    has support index j + zero; cols[:, k] is u[k]'s line.  u < q repeats an
    earlier value, index zero + #{j : u/q >= cols[j]/i}; u >= q, which clears
    every c/i, draws through `_fresh_cuts`: one small-int count takes both.  A
    step of over max(i, 2**14) draws caches u-space cuts of c/i in tables[i]
    (fewer do not repay them).
    """
    table = None if tables is None else tables.get(i)
    if table is None and tables is not None and u.size > max(i, 1 << 14):
        table = tables[i] = _cuts(0.0, q, np.arange(i + 1) / i)
    x = u / q if table is None else u
    idx = np.multiply(u < q, zero + len(cols), dtype=np.min_scalar_type(len(fresh)))
    for c in cols:
        idx -= x < (c / i if table is None else np.take(table, c))
    return _law_index(fresh, u, idx)


def _absorb(cols, idx, zero):
    """Add the positive values at support indices idx to their lines' cols."""
    for j, c in enumerate(cols):
        c += idx <= j + zero


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
    n = check_integer(n, "n must be >= 1, got {!r}")
    law, q = params.law, params.q
    support, cum, pos = _law_tables(params)
    s = len(pos)
    zero = int(support[0] == 0)  # support index of pos[j] is j + zero
    value = support.astype(float)
    initial = check_initial(law, initial)

    fresh, tables = _fresh_cuts(cum, q), {}
    samples = np.empty(config.replicas)
    for lo in range(0, config.replicas, _SPINE_BATCH):
        hi = min(lo + _SPINE_BATCH, config.replicas)
        slot = np.arange(lo, hi)
        keys = derive_keys(config.seed, _SALT_SPINE, slot.astype(np.uint64))
        idx = _roots(keys, initial, support, cum)
        prod = value[idx]
        # cols[j]: how many values drawn so far are among pos[0..j], j < s-1
        cols = np.zeros((s - 1, hi - lo), dtype=np.intp)
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
                idx = _step(cols, i, uniforms(keys, i), q, zero, fresh, tables)
                prod = prod * value[idx]
        samples[slot] = prod
    return _estimate_from_samples(samples, what="lineage products",
                                  hint=f" at n={n}; use a smaller n")


# ---------------------------------------------------------------------------
# population simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationResult:
    """Per-replica trajectories Z(0..n); NaN marks generations past a cap hit."""

    z: np.ndarray        # (replicas, n+1) float
    capped: np.ndarray   # (replicas,) bool

    def estimate(self, gen: int | None = None) -> Estimate:
        gen = self.z.shape[1] - 1 if gen is None else gen
        return _estimate_from_samples(self.z[:, gen], self.capped)


def _population_batch(params, n, config, initial, lo, hi, support, cum, fresh, tables):
    b = hi - lo
    zero = int(support[0] == 0)
    s = len(support) - zero
    keys = derive_keys(config.seed, _SALT_POP, np.arange(lo, hi, dtype=np.uint64))
    z = np.zeros((b, n + 1))
    z[:, 0] = 1.0
    capped = np.zeros(b, dtype=bool)
    # individual k belongs to replica rep[k], in order, and cols[:, k] counts
    # its forebears' values as in _step
    rep = np.arange(b)
    idx = _roots(keys, initial, support, cum)
    base = np.ones(b, dtype=np.uint64)
    cols = np.zeros((s - 1, b), dtype=np.intp)
    for g in range(1, n + 1):
        cnt = support[idx]
        size = np.bincount(rep, cnt, minlength=b).astype(np.uint64)
        z[:, g] = np.where(capped, np.nan, size)
        capped |= size > config.population_cap
        if capped.any():
            cnt[capped[rep]] = 0
            size[capped] = 0
        if g == n or not size.any():
            z[capped, g + 1:] = np.nan
            break
        _absorb(cols, idx, zero)
        parent = np.repeat(np.arange(cnt.size), cnt)
        cols, rep = np.take(cols, parent, axis=1), np.take(rep, parent)
        del parent  # one R-long array fewer while the uniforms are drawn
        # child k of replica r reads counter base[r] + k - start[r]
        start = np.cumsum(size) - size
        u = uniforms(np.take(advance(keys, base - start), rep),
                     np.arange(rep.size, dtype=np.uint64))
        base += size
        idx = _step(cols, g, u, params.q, zero, fresh, tables)
    return z, capped


def simulate_rgw(params: ModelParams, n: int, config: SimConfig,
                 initial: str | int = "law") -> PopulationResult:
    """Simulate the full reinforced branching population for n generations.

    Each individual carries its replica index and its forebears' value
    counts, both copied from its parent's, and steps by the lineage rule
    (`_step`) on one uniform:
    individual k of replica r (its k-th in generation order) reads counter
    base + k, where base counts r's individuals in earlier generations; a
    law-drawn root reads counter 0.  Replicas hitting the population cap are
    flagged and excluded from estimates rather than silently kept.  The
    first batch holds 16 replicas; later ones follow `_POP_CELL_BUDGET`.
    """
    n = check_integer(n, "n must be >= 1, got {!r}")
    initial = check_initial(params.law, initial)
    support, cum, _ = _law_tables(params)

    fresh, tables = _fresh_cuts(cum, params.q), {}
    z = np.empty((config.replicas, n + 1))
    capped = np.empty(config.replicas, dtype=bool)
    lo, batch, widest = 0, 16, 0.0
    while lo < config.replicas:
        hi = min(lo + batch, config.replicas)
        z[lo:hi], capped[lo:hi] = _population_batch(
            params, n, config, initial, lo, hi, support, cum, fresh, tables
        )
        # nansum skips the NaN past a cap
        widest = max(widest, np.nansum(z[lo:hi], axis=0).max() / (hi - lo))
        batch = max(16, min(_POP_GROWTH * batch, int(_POP_CELL_BUDGET / widest)))
        lo = hi
    return PopulationResult(z=z, capped=capped)


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

    @property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def simulate_yule(params: ModelParams, t: float, config: SimConfig,
                  initial: str | int = "law") -> YuleResult:
    """Event-driven unit-rate pure-birth process with type inheritance.

    With k individuals alive the next birth arrives after Exponential(k);
    the child steps by the lineage rule (`_step`) with the k individuals as
    its forebears: it copies a uniform one's type with probability q, and
    otherwise draws a fresh type from the law.  Exponential jumps keep the
    marginal law of the population size exactly geometric.

    Replicas run in parallel rounds: round e (from 0) gives every replica
    still below the horizon its e-th event, so all of them hold k = e + 1
    individuals.  Replica r reads its stream at counter 0 for a law-drawn
    root type (off = 1, else off = 0) and then, for event e, at off + 2e
    (holding time) and off + 2e + 1 (the step uniform of the child's
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
    initial = check_initial(law, initial)
    support, cum, _ = _law_tables(params)
    fresh = _fresh_cuts(cum, q)
    n = config.replicas
    keys = derive_keys(config.seed, _SALT_YULE, np.arange(n, dtype=np.uint64))
    counts = np.zeros((n, len(support)), dtype=np.int64)
    capped = np.zeros(n, dtype=bool)
    counts[np.arange(n), _roots(keys, initial, support, cum)] = 1
    off = int(initial == "law")
    live = np.arange(n)
    now = np.zeros(n)
    k = 1
    while True:
        ctr = off + 2 * (k - 1)
        lkeys = keys[live]
        step = now[live] + -np.log1p(-uniforms(lkeys, ctr)) / k
        going = step <= t
        live, lkeys = live[going], lkeys[going]
        if live.size == 0:
            break
        now[live] = step[going]
        # the k living individuals are the forebears (a cut table costs O(k))
        cols = counts[live, :-1].cumsum(axis=1).T
        child = _step(cols, k, uniforms(lkeys, ctr + 1), q, 0, fresh)
        counts[live, child] += 1
        k += 1
        if k >= config.population_cap:
            capped[live] = True
            break
    return YuleResult(counts=counts, support=law.support, capped=capped)


def estimate_yule_functional(params: ModelParams, ell: int, c: float, t: float,
                             config: SimConfig) -> Estimate:
    """Monte Carlo estimate of E_ell[ prod_j (c j)^{Y_j(t)} ].

    Replicas containing a type-0 individual contribute exactly 0
    (convention 0^0 = 1 applies only to absent types).
    """
    if not (math.isfinite(c) and c > 0):
        raise DomainError(f"weight factor must be finite and positive, got {c!r}")
    res = simulate_yule(params, t, config, initial=ell)
    base = c * np.array(res.support, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.prod(base[None, :] ** res.counts, axis=1)
    est = _estimate_from_samples(vals, res.capped, what="functional's products",
                                 hint=f" at c={c!r}, t={t!r}; use a smaller c or t")
    if c * params.law.kstar > 1.0 + 1e-12:
        warnings.warn(f"c*k* = {c * params.law.kstar:.4g} > 1: heavy-tailed product, "
                      "standard errors may converge slowly", stacklevel=2)
    return est
