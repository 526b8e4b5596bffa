import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgw import exact, sim
from rgw.errors import DomainError, PopulationCapExceeded
from rgw.model import ModelParams, new_law
from rgw.rng import advance, derive_keys, uniforms


# ---------------------------------------------------------------------------
# counter streams
# ---------------------------------------------------------------------------

def test_uniforms_are_deterministic_and_uniform():
    keys = derive_keys(123, 7, np.arange(4, dtype=np.uint64))
    a = uniforms(keys, 5)
    b = uniforms(keys, 5)
    assert np.array_equal(a, b)
    big = uniforms(derive_keys(9, 1, np.arange(200_000, dtype=np.uint64)), 0)
    assert abs(big.mean() - 0.5) < 0.005
    assert 0.0 <= big.min() and big.max() < 1.0


def test_streams_differ_across_replicas_and_salts():
    u1 = uniforms(derive_keys(1, 2, 0), np.arange(8))
    u2 = uniforms(derive_keys(1, 2, 1), np.arange(8))
    u3 = uniforms(derive_keys(1, 3, 0), np.arange(8))
    assert not np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)


def test_long_arrays_match_short_calls():
    # long arrays, broadcasts and scalars give the variates of short calls
    n = 50_005
    keys = derive_keys(4, 2, np.arange(n, dtype=np.uint64))
    ctr = np.arange(n, dtype=np.uint64) * np.uint64(7)
    pieces = [uniforms(keys[lo:lo + 1000], ctr[lo:lo + 1000]) for lo in range(0, n, 1000)]
    assert np.array_equal(uniforms(keys, ctr), np.concatenate(pieces))
    assert np.array_equal(uniforms(keys, 3), uniforms(keys, np.full(n, 3)))
    assert np.array_equal(uniforms(keys[9], ctr)[:50],
                          [uniforms(keys[9], int(c)) for c in ctr[:50]])
    grid = uniforms(keys[:6].reshape(2, 3), np.arange(3))
    assert grid.shape == (2, 3)
    assert grid[1, 2] == uniforms(keys[5], 2)


def test_advanced_keys_read_later_counters():
    keys = derive_keys(3, 5, np.arange(6, dtype=np.uint64))
    off = np.array([0, 1, 7, 2**63, 2**64 - 1, 12345], dtype=np.uint64)
    ctr = np.arange(6, dtype=np.uint64) * np.uint64(3)
    # counters add mod 2**64, so an offset near 2**64 wraps
    assert np.array_equal(uniforms(advance(keys, off), ctr), uniforms(keys, off + ctr))
    assert np.array_equal(uniforms(advance(keys[2], 9), 4), uniforms(keys[2], 13))


def test_sim_config_validation():
    with pytest.raises(DomainError):
        sim.SimConfig(seed=1, replicas=0)
    with pytest.raises(DomainError):
        sim.SimConfig(seed=1, replicas=10, population_cap=0)
    # the streams key on the seed's low 64 bits, so any other seed would alias one
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(DomainError):
            sim.SimConfig(seed=seed, replicas=10)
    assert sim.SimConfig(seed=2**64 - 1, replicas=10).seed == 2**64 - 1
    # each field is read by operator.index: a float or a bool is no integer
    for bad in ({"seed": 1.5}, {"seed": True}, {"replicas": 2.5}, {"replicas": True},
                {"population_cap": 2.5}, {"population_cap": True}):
        with pytest.raises(DomainError):
            sim.SimConfig(**{"seed": 1, "replicas": 10, **bad})
    cfg = sim.SimConfig(seed=np.uint64(7), replicas=np.int64(3), population_cap=np.int32(9))
    assert (cfg.seed, cfg.replicas, cfg.population_cap) == (7, 3, 9)
    assert all(type(v) is int for v in (cfg.seed, cfg.replicas, cfg.population_cap))


@pytest.mark.parametrize("n", [2.5, True, 0, "3"])
def test_engines_reject_bad_depth(mixed_params, n):
    config = sim.SimConfig(seed=1, replicas=10)
    with pytest.raises(DomainError):
        sim.simulate_spine(mixed_params, n, config)
    with pytest.raises(DomainError):
        sim.simulate_rgw(mixed_params, n, config)


@pytest.mark.parametrize("initial", [5, "foo", 2.7, True])
def test_engines_reject_bad_initial(mixed_params, initial):
    config = sim.SimConfig(seed=1, replicas=10)
    with pytest.raises(DomainError):
        sim.simulate_spine(mixed_params, 3, config, initial=initial)
    with pytest.raises(DomainError):
        sim.simulate_rgw(mixed_params, 3, config, initial=initial)
    with pytest.raises(DomainError):
        sim.simulate_yule(mixed_params, 0.5, config, initial=initial)


@settings(max_examples=60, deadline=None)
@given(masses=st.lists(st.integers(1, 9), min_size=2, max_size=8),
       us=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_law_index_is_searchsorted_right(masses, us):
    law = new_law({k: m / sum(masses) for k, m in enumerate(masses)})
    _, cum, _ = sim._law_tables(ModelParams(law, 0.5))
    # the ends of [0, 1) and every inner cumulative mass, where a tie decides
    u = np.array([0.0, np.nextafter(1.0, 0.0), *cum[:-1], *us])
    assert np.array_equal(sim._law_index(cum, u), np.searchsorted(cum, u, side="right"))


def _division_step(cols, i, u, q, zero, cum):
    """The step rule as float quotients, kept verbatim from before the cuts:
    u < q repeats (u/q against c/i), else (u-q)/(1-q) draws through cum."""
    uq = u / q
    rep = np.full(u.size, zero)
    for c in cols:
        rep += uq >= c / i
    fresh = sim._law_index(cum, np.clip((u - q) / (1.0 - q), 0.0, np.nextafter(1.0, 0.0)))
    return np.where(u < q, rep, fresh)


_GRID = 2.0**-53


@settings(max_examples=50, deadline=None)
@given(points=st.lists(st.integers(0, 9), min_size=2, max_size=5, unique=True),
       weights=st.lists(st.integers(1, 10**6), min_size=5, max_size=5),
       q=st.floats(1e-4, 1 - 1e-4), i=st.integers(1, 10**6), data=st.data())
def test_cut_step_matches_division_formula(points, weights, q, i, data):
    points = sorted(points)
    w = weights[:len(points)]
    law = new_law({k: v / sum(w) for k, v in zip(points, w)})
    support, cum, pos = sim._law_tables(ModelParams(law, q))
    zero = int(support[0] == 0)
    fresh = sim._fresh_cuts(cum, q)
    table = sim._cuts(0.0, q, np.arange(i + 1) / i)
    # each cut is a value of uniforms that passes its quotient, one grid step below fails
    c = np.arange(i + 1)
    assert np.all(table / q >= c / i)
    assert np.all((table[1:] - _GRID) / q < c[1:] / i) and table[0] == 0.0
    fq = np.clip((fresh[:-1] - q) / (1.0 - q), 0.0, np.nextafter(1.0, 0.0))
    bq = np.clip((fresh[:-1] - _GRID - q) / (1.0 - q), 0.0, np.nextafter(1.0, 0.0))
    assert np.all((fq >= cum[:-1]) | (fresh[:-1] == 1.0)) and np.all(bq < cum[:-1])
    assert np.all(np.rint(table / _GRID) * _GRID == table) and np.all(np.diff(table) >= 0)

    # a few parents with cumulative counts over pos[:-1], and children of them
    lines = data.draw(st.integers(1, 4))
    counts = data.draw(st.lists(st.lists(st.integers(0, i), min_size=len(pos) - 1,
                                         max_size=len(pos) - 1),
                                min_size=lines, max_size=lines))
    cols = np.sort(np.array(counts, dtype=np.intp).reshape(lines, len(pos) - 1), axis=1).T
    cuts = [*fresh[:-1], q, *table[cols.ravel()]]
    u = np.array([x for cut in cuts for x in (cut - _GRID, cut, cut + _GRID) if 0 <= x < 1.0]
                 + data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20)))
    u = np.rint(u / _GRID) * _GRID  # values of uniforms lie on the 2**-53 grid
    u = u[u < 1.0]
    parent = np.arange(u.size) % lines
    want = _division_step(cols[:, parent], i, u, q, zero, cum)
    for tables in ({i: table}, None):
        assert np.array_equal(sim._step(cols[:, parent], i, u, q, zero, fresh, tables), want)


# ---------------------------------------------------------------------------
# lineage-chain estimator
# ---------------------------------------------------------------------------

def test_spine_single_step_mean(mixed_params):
    est = sim.simulate_spine(mixed_params, 1, sim.SimConfig(seed=3, replicas=200_000))
    assert abs(est.mean - 1.5) <= 4 * est.std_error
    assert est.replicas_used == 200_000
    assert est.capped_fraction == 0.0


def test_spine_matches_dp(mixed_params):
    dp = exact.spine_dp(mixed_params, 12, scale=1.0)
    est = sim.simulate_spine(mixed_params, 12, sim.SimConfig(seed=11, replicas=400_000))
    assert abs(est.mean - dp.values[12]) <= 4 * est.std_error


def test_spine_binary_closed_form(binary_params):
    p = q = 0.5
    m = 2 * (q + (1 - q) * p)
    want = 2 * p * m ** 14
    est = sim.simulate_spine(binary_params, 15, sim.SimConfig(seed=5, replicas=400_000))
    assert abs(est.mean - want) <= 4 * est.std_error


def test_spine_conditional_initial(mixed_params):
    dp = exact.spine_dp(mixed_params, 6, initial=2, scale=1.0)
    est = sim.simulate_spine(mixed_params, 6, sim.SimConfig(seed=8, replicas=200_000),
                             initial=2)
    assert abs(est.mean - dp.values[6]) <= 4 * est.std_error


def test_spine_determinism(mixed_params):
    cfg = sim.SimConfig(seed=77, replicas=5000)
    a = sim.simulate_spine(mixed_params, 8, cfg)
    b = sim.simulate_spine(mixed_params, 8, cfg)
    assert a == b


def _spine_reference(params, n, config, initial):
    """The whole-batch lineage loop: every row steps to n, extinct or not,
    with an (b x s) count table.  simulate_spine must match it draw for draw."""
    law, q = params.law, params.q
    support, cum, pos = sim._law_tables(params)
    s = len(pos)

    def sample_law(u):
        return support[np.minimum(np.searchsorted(cum, u, side="right"), len(support) - 1)]

    samples = np.empty(config.replicas)
    for lo in range(0, config.replicas, sim._SPINE_BATCH):
        hi = min(lo + sim._SPINE_BATCH, config.replicas)
        keys = derive_keys(config.seed, 0x53, np.arange(lo, hi, dtype=np.uint64))
        b = hi - lo
        counts = np.zeros((b, s))
        u = uniforms(keys, 0)
        vals = sample_law(u) if initial == "law" else np.full(b, initial, dtype=np.int64)
        prod = vals.astype(float)
        ppos = np.searchsorted(pos, vals)
        hit = vals > 0
        counts[np.nonzero(hit)[0], ppos[hit]] = 1.0
        for i in range(1, n):
            alive = prod > 0
            if not alive.any():
                break
            u = uniforms(keys, i)
            cumc = counts.cumsum(axis=1) / i
            idx_rep = np.minimum((u[:, None] / q >= cumc).sum(axis=1), s - 1)
            u_fresh = np.clip((u - q) / (1.0 - q), 0.0, np.nextafter(1.0, 0.0))
            vals = np.where(u < q, pos[idx_rep], sample_law(u_fresh))
            vals = np.where(alive, vals, 0)
            prod = prod * vals
            hit = vals > 0
            counts[np.nonzero(hit)[0], np.searchsorted(pos, vals[hit])] += 1.0
        samples[lo:hi] = prod
    return samples


@pytest.mark.parametrize("law, q, n, initial", [
    ({0: 0.3, 1: 0.2, 3: 0.5}, 0.6, 12, "law"),
    ({0: 0.3, 1: 0.2, 3: 0.5}, 0.6, 12, 0),
    ({0: 0.3, 1: 0.2, 3: 0.5}, 0.6, 12, 3),
    ({0: 0.4, 2: 0.6}, 0.5, 15, "law"),
    ({0: 0.4, 2: 0.6}, 0.5, 15, 2),
    ({1: 0.2, 2: 0.5, 4: 0.3}, 0.7, 10, "law"),
    ({0: 0.1, 1: 0.2, 2: 0.3, 5: 0.4}, 0.3, 10, 2),
    ({1: 0.5, 2: 0.5}, 0.5, 1, "law"),
])
@pytest.mark.parametrize("batch", [1 << 18, 333])
def test_spine_matches_whole_batch_loop(law, q, n, initial, batch, monkeypatch):
    monkeypatch.setattr(sim, "_SPINE_BATCH", batch)
    params = ModelParams(new_law(law), q)
    cfg = sim.SimConfig(seed=23, replicas=2000)
    est = sim.simulate_spine(params, n, cfg, initial=initial)
    ref = sim._estimate_from_samples(_spine_reference(params, n, cfg, initial))
    assert est.mean == ref.mean
    assert est.std_error == ref.std_error
    assert est.replicas_used == ref.replicas_used
    assert est.capped_fraction == ref.capped_fraction


@pytest.mark.parametrize("law, q", [
    ({6: 0.3, 7: 0.4, 8: 0.3}, 0.3),
    ({0: 0.05, 6: 0.3, 7: 0.35, 8: 0.3}, 0.9),
])
def test_spine_overflow_is_an_error(law, q):
    params = ModelParams(new_law(law), q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="lineage products overflow"):
            sim.simulate_spine(params, 400, sim.SimConfig(seed=1, replicas=2000))


def test_spine_spread_overflow_is_an_error():
    # every product lies in [6**200, 8**200] and is finite; their squares are not
    params = ModelParams(new_law({6: 0.3, 7: 0.4, 8: 0.3}), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="spread of the lineage products overflows"):
            sim.simulate_spine(params, 200, sim.SimConfig(seed=1, replicas=2000))


# ---------------------------------------------------------------------------
# population simulation
# ---------------------------------------------------------------------------

def test_rgw_trajectory_shape_and_start(mixed_params):
    res = sim.simulate_rgw(mixed_params, 6, sim.SimConfig(seed=1, replicas=100))
    assert res.z.shape == (100, 7)
    assert np.all(res.z[:, 0] == 1.0)
    assert not res.capped.any()


def test_rgw_binary_support_is_even(binary_params):
    res = sim.simulate_rgw(binary_params, 8, sim.SimConfig(seed=2, replicas=300))
    vals = res.z[:, 1:]
    assert np.all(vals % 2 == 0)
    assert np.all(vals <= 2.0 ** np.arange(1, 9))


def test_rgw_matches_dp(mixed_params):
    dp = exact.spine_dp(mixed_params, 8, scale=1.0)
    res = sim.simulate_rgw(mixed_params, 8, sim.SimConfig(seed=4, replicas=30_000))
    est = res.estimate(8)
    assert abs(est.mean - dp.values[8]) <= 4 * est.std_error


def test_rgw_determinism_across_batches(mixed_params, monkeypatch):
    cfg = sim.SimConfig(seed=9, replicas=700)
    full = sim.simulate_rgw(mixed_params, 6, cfg)
    # force tiny batches; counter-based streams must give identical output
    monkeypatch.setattr(sim, "_POP_CELL_BUDGET", 2000.0)
    small = sim.simulate_rgw(mixed_params, 6, cfg)
    assert np.array_equal(full.z, small.z, equal_nan=True)


def test_rgw_population_cap():
    # about 31 % of replicas stay under the cap, so 50 all capped has
    # probability near 1e-8 whatever the draws
    params = ModelParams(new_law({1: 0.5, 3: 0.5}), 0.8)
    res = sim.simulate_rgw(params, 12, sim.SimConfig(seed=3, replicas=50,
                                                     population_cap=40))
    assert res.capped.any()
    r = int(np.nonzero(res.capped)[0][0])
    row = res.z[r]
    crossing = np.nonzero(row > 40)[0]
    assert len(crossing) >= 1
    assert np.all(np.isnan(row[crossing[0] + 1:]))
    est = res.estimate(12)
    assert est.capped_fraction > 0
    assert est.replicas_used == 50 - res.capped.sum()


def test_rgw_batches_follow_the_widest_generation(monkeypatch):
    # about half the replicas pass the cap of 40, so generation 5 (about 22
    # individuals per replica) is wider than the last, and a budget of 3000
    # holds the batches near 125 replicas after 16 and 64
    params = ModelParams(new_law({0: 0.2, 1: 0.3, 3: 0.5}), 0.4)
    cfg = sim.SimConfig(seed=5, replicas=600, population_cap=40)
    budget = 3000.0
    monkeypatch.setattr(sim, "_POP_CELL_BUDGET", budget)
    sizes, widths = [], []
    real = sim._population_batch

    def spy(*args):
        z, capped = real(*args)
        lo, hi = args[4], args[5]
        sizes.append(hi - lo)
        widths.append(np.nansum(z, axis=0).max() / (hi - lo))
        return z, capped

    monkeypatch.setattr(sim, "_population_batch", spy)
    res = sim.simulate_rgw(params, 6, cfg)
    assert res.capped.any() and sum(sizes) == 600
    assert sizes[0] == 16
    grow = sim._POP_GROWTH
    limits = [max(16, min(grow * sizes[k - 1], int(budget / max(widths[:k]))))
              for k in range(1, len(sizes))]
    assert all(b <= grow * a for a, b in zip(sizes, sizes[1:]))
    # each batch takes its whole limit, but the last may hold fewer
    assert sizes[1:-1] == limits[:-1] and sizes[-1] <= limits[-1]
    # the growth binds first, then the budget
    assert sizes[1] == grow * 16
    assert any(lim < grow * a for a, lim in zip(sizes, limits))


def test_rgw_all_capped_raises():
    params = ModelParams(new_law({2: 0.5, 3: 0.5}), 0.5)
    res = sim.simulate_rgw(params, 8, sim.SimConfig(seed=1, replicas=10,
                                                    population_cap=3))
    with pytest.raises(PopulationCapExceeded):
        res.estimate(8)


def _population_reference(params, n, config, initial):
    """One history row per individual, rebuilt every generation with
    np.repeat; each individual's forebear counts come from its own row and
    it reads one counter.  simulate_rgw must match it draw for draw."""
    q = params.q
    support, cum, pos = sim._law_tables(params)
    zero = int(support[0] == 0)

    def law_index(u):
        return np.minimum(np.searchsorted(cum, u, side="right"), len(support) - 1)

    b = config.replicas
    keys = derive_keys(config.seed, 0x61, np.arange(b, dtype=np.uint64))
    z = np.zeros((b, n + 1))
    z[:, 0] = 1.0
    capped = np.zeros(b, dtype=bool)
    cap_gen = np.full(b, n + 2, dtype=np.int64)
    base = np.zeros(b, dtype=np.uint64)
    rep = np.arange(b, dtype=np.int64)
    hist = np.empty((b, 0), dtype=np.int64)
    for g in range(n):
        rows = len(rep)
        if rows == 0:
            break
        counts_per_rep = np.bincount(rep, minlength=b)
        starts = np.concatenate(([0], np.cumsum(counts_per_rep)[:-1]))
        local = (np.arange(rows) - starts[rep]).astype(np.uint64)
        u = uniforms(keys[rep], base[rep] + local)
        if g == 0:
            if initial == "law":
                idx = law_index(u)
            else:
                idx = np.full(rows, list(support).index(initial))
        else:
            # cols[:, j]: forebear values among pos[0..j]
            cols = (hist[:, :, None] <= pos[None, None, :-1]).sum(axis=1)
            rep_idx = zero + (u[:, None] / q >= cols / g).sum(axis=1)
            u_fresh = np.clip((u - q) / (1.0 - q), 0.0, np.nextafter(1.0, 0.0))
            idx = np.where(u < q, rep_idx, law_index(u_fresh))
        cnt = support[idx]
        base += counts_per_rep.astype(np.uint64)
        z_next = np.bincount(rep, weights=cnt.astype(float), minlength=b)
        z[:, g + 1] = z_next
        newly = (~capped) & (z_next > config.population_cap)
        capped |= newly
        cap_gen[newly] = g + 1
        keep = ~capped[rep] & (cnt > 0)
        rep = np.repeat(rep[keep], cnt[keep])
        hist = np.repeat(np.column_stack([hist[keep], cnt[keep]]), cnt[keep], axis=0)
    for r in np.nonzero(capped)[0]:
        z[r, cap_gen[r] + 1:] = np.nan
    return z, capped


@pytest.mark.parametrize("law, q, n, initial, cap", [
    ({0: 0.3, 1: 0.2, 3: 0.5}, 0.6, 8, "law", 10**6),
    ({0: 0.3, 1: 0.2, 3: 0.5}, 0.6, 8, 0, 10**6),
    ({0: 0.3, 1: 0.2, 3: 0.5}, 0.6, 8, 3, 10**6),
    ({1: 0.2, 2: 0.5, 4: 0.3}, 0.7, 6, "law", 10**6),
    ({0: 0.4, 2: 0.6}, 0.5, 9, 2, 10**6),
    ({1: 0.05, 3: 0.95}, 0.8, 10, "law", 200),
    ({1: 0.1, 2: 0.2, 300: 0.7}, 0.5, 3, "law", 10**6),
])
def test_rgw_matches_per_individual_history(law, q, n, initial, cap):
    params = ModelParams(new_law(law), q)
    cfg = sim.SimConfig(seed=29, replicas=300, population_cap=cap)
    res = sim.simulate_rgw(params, n, cfg, initial=initial)
    z, capped = _population_reference(params, n, cfg, initial)
    assert np.array_equal(res.z, z, equal_nan=True)
    assert np.array_equal(res.capped, capped)
    if cap == 200:
        # about 3 % of replicas stay under the cap: all 300 capped has
        # probability near 1e-4, none capped near 0
        assert capped.any() and not capped.all()


def test_rgw_capped_rows_stay_nan_after_the_last_death():
    # every replica is capped or extinct by generation 6 of 15, so the run stops early
    params = ModelParams(new_law({0: 0.6, 4: 0.4}), 0.3)
    cfg = sim.SimConfig(seed=29, replicas=300, population_cap=5)
    res = sim.simulate_rgw(params, 15, cfg)
    z, capped = _population_reference(params, 15, cfg, "law")
    assert np.array_equal(res.z, z, equal_nan=True)
    assert np.array_equal(res.capped, capped)
    assert capped.any() and np.isnan(res.z[capped, -1]).all()


_small_laws = st.lists(st.integers(0, 5), min_size=2, max_size=4, unique=True).flatmap(
    lambda pts: st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)).map(
        lambda w: {k: v / sum(w) for k, v in zip(sorted(pts), w)}
    )
)


@settings(max_examples=40, deadline=None)
@given(law=_small_laws, q=st.floats(0.05, 0.95), n=st.integers(1, 8),
       replicas=st.integers(1, 40), seed=st.integers(0, 2**64 - 1),
       cap=st.sampled_from([3, 10**6]), data=st.data())
def test_rgw_matches_per_individual_history_on_any_law(law, q, n, replicas, seed, cap, data):
    params = ModelParams(new_law(law), q)
    initial = data.draw(st.sampled_from(["law", *sorted(law)]))
    cfg = sim.SimConfig(seed=seed, replicas=replicas, population_cap=cap)
    res = sim.simulate_rgw(params, n, cfg, initial=initial)
    z, capped = _population_reference(params, n, cfg, initial)
    assert np.array_equal(res.z, z, equal_nan=True)
    assert np.array_equal(res.capped, capped)


@settings(max_examples=30, deadline=None)
@given(law=_small_laws, q=st.floats(0.05, 0.95), n=st.integers(1, 8),
       replicas=st.integers(1, 64), seed=st.integers(0, 2**32),
       spine_batch=st.integers(1, 9), cell_budget=st.sampled_from([1.0, 50.0, 400.0]),
       cap=st.sampled_from([5, 10**6]))
def test_output_does_not_depend_on_batch_size(law, q, n, replicas, seed, spine_batch,
                                              cell_budget, cap):
    params = ModelParams(new_law(law), q)
    cfg = sim.SimConfig(seed=seed, replicas=replicas, population_cap=cap)
    spine = sim.simulate_spine(params, n, cfg)
    pop = sim.simulate_rgw(params, n, cfg)
    saved = sim._SPINE_BATCH, sim._POP_CELL_BUDGET
    sim._SPINE_BATCH, sim._POP_CELL_BUDGET = spine_batch, cell_budget
    try:
        small_spine = sim.simulate_spine(params, n, cfg)
        small_pop = sim.simulate_rgw(params, n, cfg)
    finally:
        sim._SPINE_BATCH, sim._POP_CELL_BUDGET = saved
    assert small_spine == spine
    assert np.array_equal(small_pop.z, pop.z, equal_nan=True)
    assert np.array_equal(small_pop.capped, pop.capped)


def _draw_fingerprint(law, q, n, t, initial, cap):
    """sha256 over one spine estimate, one population run (z and capped) and
    one Yule run (counts and capped), each at a fixed seed."""
    params = ModelParams(new_law(law), q)
    h = hashlib.sha256()
    spine = sim.simulate_spine(params, n, sim.SimConfig(seed=31, replicas=70_000),
                               initial=initial)
    h.update(np.array([spine.mean, spine.std_error]).tobytes())
    pop = sim.simulate_rgw(params, n, sim.SimConfig(seed=31, replicas=300, population_cap=cap),
                           initial=initial)
    h.update(pop.z.tobytes())
    h.update(pop.capped.tobytes())
    yule = sim.simulate_yule(params, t, sim.SimConfig(seed=31, replicas=200, population_cap=cap),
                             initial=initial)
    h.update(yule.counts.tobytes())
    h.update(yule.capped.tobytes())
    return h.hexdigest()


# Recorded before the division-free step; a change to any draw of any engine
# must show here rather than by chance in verify's Monte Carlo checks.
@pytest.mark.parametrize("law, q, n, t, initial, cap, digest", [
    ({0: 0.4, 2: 0.6}, 0.5, 12, 1.5, 2, 10**6,
     "0cd744f44e8085e3fa023693457db90f24ef0097db7b7b39357d6d9fd4fbe362"),
    ({0: 0.3, 1: 0.2, 3: 0.5}, 0.6, 8, 1.5, "law", 10**6,
     "ac62019fd52d9960b4319e514647e6489db13441ab7310e1ff7fc623e7a638a6"),
    ({1: 0.2, 2: 0.5, 4: 0.3}, 0.7, 6, 2.0, "law", 10**6,
     "3c40e2470ca7b574f3221549e9606f00d51dce8e48cb5056982a922df5496189"),
    ({0: 0.1, 1: 0.2, 2: 0.3, 5: 0.4}, 0.3, 7, 1.2, 2, 10**6,
     "4167140bc907472fc45fd1df8ce95a3894974b85c414997aefe0d2e391392807"),
    ({1: 0.05, 3: 0.95}, 0.8, 10, 4.0, "law", 200,
     "46e70664bb024ccffc7403d6be7de76399c01023b5fd8a70af1d9715303e72e8"),
    ({0: 0.6, 1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1}, 0.05, 9, 2.5, 4, 10**6,
     "56d78c66697ab3524a795bff2b5d0b9ca2d537ce13e5125eb907349ced1f7e57"),
])
def test_draws_match_recorded_fingerprints(law, q, n, t, initial, cap, digest):
    assert _draw_fingerprint(law, q, n, t, initial, cap) == digest


# ---------------------------------------------------------------------------
# typed pure-birth process
# ---------------------------------------------------------------------------

def _yule_reference(params, t, config, initial):
    """One replica at a time, one counter at a time: the event loop that
    simulate_yule's rounds must reproduce draw for draw."""
    q = params.q
    support = params.law.support
    s = len(support)
    cum = np.cumsum([params.law.mass(j) for j in support])
    cum[-1] = 1.0

    def law_draw(u):
        idx = 0
        while idx < s - 1 and u >= cum[idx]:
            idx += 1
        return idx

    counts = np.zeros((config.replicas, s), dtype=np.int64)
    capped = np.zeros(config.replicas, dtype=bool)
    for r in range(config.replicas):
        key = derive_keys(config.seed, 0x79, r)
        ctr = 0

        def u01():
            nonlocal ctr
            ctr += 1
            return float(uniforms(key, ctr - 1))

        row = [0] * s
        if initial == "law":
            row[law_draw(u01())] = 1
        else:
            row[support.index(initial)] = 1
        k, now = 1, 0.0
        while True:
            now += -math.log1p(-u01()) / k
            if now > t:
                break
            u = u01()
            if u < q:
                # copy a uniform individual: walk the cumulative counts
                child, acc = 0, row[0]
                while child < s - 1 and u / q >= acc / k:
                    child += 1
                    acc += row[child]
            else:
                child = law_draw(min(max((u - q) / (1.0 - q), 0.0), np.nextafter(1.0, 0.0)))
            row[child] += 1
            k += 1
            if k >= config.population_cap:
                capped[r] = True
                break
        counts[r] = row
    return counts, capped


@pytest.mark.parametrize("law, q, t, initial, cap", [
    ({1: 0.5, 2: 0.5}, 0.5, 1.0, "law", 10**6),
    ({1: 0.5, 2: 0.5}, 0.5, 1.5, 2, 10**6),
    ({0: 0.2, 1: 0.3, 3: 0.5}, 0.7, 1.5, "law", 10**6),
    ({0: 0.6, 2: 0.4}, 0.3, 0.7, 0, 10**6),
    ({1: 0.05, 3: 0.95}, 0.8, 4.0, "law", 20),
    ({1: 0.5, 2: 0.5}, 0.5, 0.0, "law", 10**6),
])
def test_yule_rounds_match_event_loop(law, q, t, initial, cap):
    params = ModelParams(new_law(law), q)
    cfg = sim.SimConfig(seed=17, replicas=150, population_cap=cap)
    res = sim.simulate_yule(params, t, cfg, initial=initial)
    counts, capped = _yule_reference(params, t, cfg, initial)
    assert np.array_equal(res.counts, counts)
    assert np.array_equal(res.capped, capped)
    if cap == 20:
        assert capped.any() and not capped.all()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), short=st.integers(1, 40), extra=st.integers(1, 40),
       t=st.floats(0.0, 2.5), initial=st.sampled_from(["law", 0, 1, 3]),
       cap=st.sampled_from([5, 30, 10**6]))
def test_yule_rows_do_not_depend_on_replica_count(seed, short, extra, t, initial, cap):
    params = ModelParams(new_law({0: 0.2, 1: 0.3, 3: 0.5}), 0.6)

    def run(n):
        cfg = sim.SimConfig(seed=seed, replicas=n, population_cap=cap)
        return sim.simulate_yule(params, t, cfg, initial=initial)

    a, b = run(short), run(short + extra)
    assert np.array_equal(a.counts, b.counts[:short])
    assert np.array_equal(a.capped, b.capped[:short])


def test_yule_at_time_zero(mixed_params):
    res = sim.simulate_yule(mixed_params, 0.0, sim.SimConfig(seed=1, replicas=500))
    assert np.all(res.totals == 1)
    res2 = sim.simulate_yule(mixed_params, 0.0, sim.SimConfig(seed=1, replicas=500),
                             initial=2)
    assert np.all(res2.counts[:, res2.support.index(2)] == 1)


@pytest.mark.parametrize("t", [-0.5, float("nan"), float("inf")])
def test_yule_rejects_bad_horizon(mixed_params, t):
    with pytest.raises(DomainError):
        sim.simulate_yule(mixed_params, t, sim.SimConfig(seed=1, replicas=10))


def test_yule_population_mean(mixed_params):
    res = sim.simulate_yule(mixed_params, 1.0, sim.SimConfig(seed=6, replicas=50_000))
    totals = res.totals
    se = totals.std(ddof=1) / math.sqrt(len(totals))
    assert abs(totals.mean() - math.e) <= 4 * se


def test_yule_type_sharing_increases_with_memory():
    # with matched seeds, stronger memory means more individuals carry the
    # root's type (monotone trend, not an exact law)
    law = new_law({1: 0.5, 2: 0.5})
    frac = {}
    for q in (0.2, 0.99):
        res = sim.simulate_yule(ModelParams(law, q), 2.0,
                                sim.SimConfig(seed=31, replicas=4000), initial=2)
        share = res.counts[:, res.support.index(2)] / res.totals
        frac[q] = float(share.mean())
    assert frac[0.99] > frac[0.2]


def test_yule_functional_zero_time(mixed_params):
    est = sim.estimate_yule_functional(mixed_params, 2, 0.3, 0.0,
                                       sim.SimConfig(seed=2, replicas=1000))
    assert est.mean == pytest.approx(0.6, rel=1e-14)
    assert est.std_error <= 1e-12  # identical samples up to rounding


def test_yule_functional_zero_type_annihilates():
    params = ModelParams(new_law({0: 0.6, 2: 0.4}), 0.3)
    est = sim.estimate_yule_functional(params, 0, 0.5, 0.7,
                                       sim.SimConfig(seed=3, replicas=2000))
    # root has type 0, so every replica contains a type-0 individual
    assert est.mean == 0.0 and est.std_error == 0.0


def test_yule_functional_matches_series(mixed_params):
    series = exact.yule_functional_series(mixed_params, 2, 0.3, 0.5, n_terms=80)
    est = sim.estimate_yule_functional(mixed_params, 2, 0.3, 0.5,
                                       sim.SimConfig(seed=13, replicas=60_000))
    assert abs(est.mean - series) <= 3 * est.std_error


def test_yule_functional_warns_for_large_weights(mixed_params):
    with pytest.warns(UserWarning):
        sim.estimate_yule_functional(mixed_params, 2, 0.8, 0.2,
                                     sim.SimConfig(seed=1, replicas=100))
