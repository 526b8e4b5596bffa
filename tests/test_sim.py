import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgw import exact, sim
from rgw.errors import DomainError, PopulationCapExceeded
from rgw.model import ModelParams, new_law
from rgw.rng import derive_keys, uniforms


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


def test_sim_config_validation():
    with pytest.raises(DomainError):
        sim.SimConfig(seed=1, replicas=0)
    with pytest.raises(DomainError):
        sim.SimConfig(seed=1, replicas=10, population_cap=0)


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
    monkeypatch.setenv("RGW_THREADS", "4")
    threaded = sim.simulate_rgw(mixed_params, 6, cfg)
    assert np.array_equal(full.z, threaded.z, equal_nan=True)


def test_rgw_population_cap():
    params = ModelParams(new_law({1: 0.05, 3: 0.95}), 0.8)
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


def test_rgw_all_capped_raises():
    params = ModelParams(new_law({2: 0.5, 3: 0.5}), 0.5)
    res = sim.simulate_rgw(params, 8, sim.SimConfig(seed=1, replicas=10,
                                                    population_cap=3))
    with pytest.raises(PopulationCapExceeded):
        res.estimate(8)


def test_rgw_csv(mixed_params):
    res = sim.simulate_rgw(mixed_params, 3, sim.SimConfig(seed=1, replicas=4))
    buf = io.StringIO()
    res.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "replica,generation,Z"
    assert lines[1] == "0,0,1"
    assert len(lines) == 1 + 4 * 4


# ---------------------------------------------------------------------------
# typed pure-birth process
# ---------------------------------------------------------------------------

def _yule_reference(params, t, config, initial):
    """One replica at a time, one counter at a time: the event loop that
    simulate_yule's rounds must reproduce draw for draw."""
    support = params.law.support
    s = len(support)
    cum = np.cumsum([params.law.mass(j) for j in support])
    cum[-1] = 1.0
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
            u, idx = u01(), 0
            while u > cum[idx]:
                idx += 1
            row[idx] = 1
        else:
            row[support.index(initial)] = 1
        k, now = 1, 0.0
        while True:
            now += -math.log1p(-u01()) / k
            if now > t:
                break
            u, parent, acc = u01() * k, 0, row[0]
            while u > acc and parent < s - 1:
                parent += 1
                acc += row[parent]
            u2, child = u01(), parent
            if u2 >= params.q:
                u3, child = (u2 - params.q) / (1.0 - params.q), 0
                while u3 > cum[child] and child < s - 1:
                    child += 1
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


def test_estimate_json_shape(mixed_params):
    est = sim.simulate_spine(mixed_params, 3, sim.SimConfig(seed=1, replicas=100))
    d = est.to_dict(seed=1)
    assert set(d) == {"mean", "std_error", "replicas_used", "capped_fraction", "seed"}


def test_horizon_from_config(mixed_params):
    cfg = sim.SimConfig(seed=1, replicas=50, horizon=4)
    res = sim.simulate_rgw(mixed_params, None, cfg)
    assert res.z.shape[1] == 5
    with pytest.raises(DomainError):
        sim.simulate_rgw(mixed_params, None, sim.SimConfig(seed=1, replicas=50))
