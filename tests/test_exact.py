import io
import math
from fractions import Fraction

import numpy as np
import pytest

from rgw import analytic, exact
from rgw.errors import DomainError, SeriesDiverges, StateExplosion, ZeroPopulationMean
from rgw.model import ModelParams, new_law
from tests.conftest import random_law


def brute_force_means(masses, q, n_max, initial="law"):
    """Independent oracle: expected generation sizes of the reinforced
    branching process from its definition (uniform ancestor on the lineage,
    repeat with probability q), in exact rational arithmetic.

    By linearity, E[descendants] factors over children sharing a lineage
    count history, so the recursion below enumerates histories only.
    """
    qf = Fraction(q).limit_denominator(10**12)
    nu = {k: Fraction(p).limit_denominator(10**12) for k, p in masses.items()}

    def descend(history, gens_left):
        if gens_left == 0:
            return Fraction(1)
        g = len(history)
        dist: dict[int, Fraction] = {}
        if g == 0:
            if initial == "law":
                dist = dict(nu)
            else:
                dist = {initial: Fraction(1)}
        else:
            for k, p in nu.items():
                dist[k] = dist.get(k, Fraction(0)) + (1 - qf) * p
            for u in range(g):
                dist[history[u]] = dist.get(history[u], Fraction(0)) + qf / g
        total = Fraction(0)
        for k, pk in dist.items():
            if k > 0:
                total += pk * k * descend(history + (k,), gens_left - 1)
        return total

    return [1.0] + [float(descend((), n)) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# spine DP
# ---------------------------------------------------------------------------

def test_spine_dp_hand_values(mixed_params):
    table = exact.spine_dp(mixed_params, 2)
    assert table.values[0] == 1.0
    assert table.values[1] == pytest.approx(1.5, rel=1e-14)
    assert table.values[2] == pytest.approx(2.375, rel=1e-14)
    t2 = exact.spine_dp(mixed_params, 2, initial=2)
    t1 = exact.spine_dp(mixed_params, 2, initial=1)
    assert t2.values[2] == pytest.approx(3.5, rel=1e-13)
    assert t1.values[2] == pytest.approx(1.25, rel=1e-13)
    assert t2.values[1] == pytest.approx(2.0, rel=1e-14)


def test_spine_dp_binary_closed_form():
    for p, q in ((0.5, 0.5), (0.3, 0.6)):
        params = ModelParams(new_law({0: 1 - p, 2: p}), q)
        table = exact.spine_dp(params, 12)
        mu = q + (1 - q) * p
        for n in range(1, 13):
            want = 2 * p * (2 * mu) ** (n - 1)
            assert table.values[n] == pytest.approx(want, rel=1e-12)


def test_spine_dp_matches_brute_force_process():
    configs = [
        ({1: 0.5, 2: 0.5}, 0.5),
        ({0: 0.3, 1: 0.2, 3: 0.5}, 0.4),
        ({0: 0.25, 2: 0.5, 4: 0.25}, 0.7),
    ]
    for masses, q in configs:
        params = ModelParams(new_law(masses), q)
        oracle = brute_force_means(masses, q, 4)
        table = exact.spine_dp(params, 4)
        for n in range(5):
            assert table.values[n] == pytest.approx(oracle[n], rel=1e-12)


def test_spine_dp_conditional_matches_brute_force():
    masses, q = {0: 0.3, 1: 0.2, 3: 0.5}, 0.4
    params = ModelParams(new_law(masses), q)
    for ell in (0, 1, 3):
        oracle = brute_force_means(masses, q, 3, initial=ell)
        table = exact.spine_dp(params, 3, initial=ell)
        for n in range(4):
            assert table.values[n] == pytest.approx(oracle[n], rel=1e-12, abs=1e-15)


def test_spine_dp_mixture_identity(mixed_params):
    n = 12
    law = mixed_params.law
    full = exact.spine_dp(mixed_params, n, scale=2.0)
    parts = {
        ell: exact.spine_dp(mixed_params, n, initial=ell, scale=2.0)
        for ell in law.support
    }
    for k in range(n + 1):
        mix = sum(law.mass(ell) * parts[ell].scaled[k] for ell in law.support)
        assert mix == pytest.approx(full.scaled[k], rel=1e-12)


def test_spine_dp_monotone_in_q():
    law = new_law({1: 0.5, 2: 0.5})
    lo = exact.spine_dp(ModelParams(law, 0.4), 20, scale=1.0)
    hi = exact.spine_dp(ModelParams(law, 0.6), 20, scale=1.0)
    assert np.all(hi.scaled[1:] >= lo.scaled[1:])


def test_binary_conditional_scaled_mean_is_constant(binary_params):
    # started from k* children, the scaled mean equals the conditional limit
    # 1/(q + nu(k*)(1-q)) = 4/3 exactly for every generation
    from rgw import analytic

    prof = analytic.malthusian_rate(binary_params)
    table = exact.spine_dp(binary_params, 20, initial=2, scale=prof.m)
    want = analytic.conditional_limit_constant(binary_params, 2)
    assert want == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert np.allclose(table.scaled[1:], want, rtol=1e-12)


def test_error_decay_band(mixed_params):
    # |m^-n E[Z(n)] - limit| decays like n^(-2/3): doubling ratio lands in
    # the wide band [0.5, 1.5] * 2^(-2/3) at n = 32
    from rgw import analytic

    prof = analytic.malthusian_rate(mixed_params)
    table = exact.spine_dp(mixed_params, 64, scale=prof.m)
    e32 = abs(table.scaled[32] - prof.mean_limit)
    e64 = abs(table.scaled[64] - prof.mean_limit)
    assert 0.5 * 2 ** (-2 / 3) <= e64 / e32 <= 1.5 * 2 ** (-2 / 3)


def test_spine_dp_zero_initial():
    params = ModelParams(new_law({0: 0.5, 2: 0.5}), 0.5)
    table = exact.spine_dp(params, 5, initial=0)
    assert table.values[0] == 1.0
    assert np.all(table.values[1:] == 0.0)


def test_spine_dp_errors(mixed_params):
    with pytest.raises(DomainError):
        exact.spine_dp(mixed_params, 0)
    with pytest.raises(DomainError):
        exact.spine_dp(mixed_params, 3, initial=5)
    wide = ModelParams(new_law({k: 1 / 8 for k in range(1, 9)}), 0.5)
    with pytest.raises(StateExplosion):
        exact.spine_dp(wide, 120)


# ---------------------------------------------------------------------------
# urn DP
# ---------------------------------------------------------------------------

def test_urn_dp_hand_values(mixed_params):
    table = exact.urn_dp(mixed_params, 2)
    assert table.values[0] == 1.0
    assert table.values[1] == pytest.approx(1.5, rel=1e-14)
    # partitions of 2: one doubleton w.p. q, two singletons w.p. 1-q
    assert table.values[2] == pytest.approx(0.5 * 2.5 + 0.5 * 1.5**2, rel=1e-14)


def test_urn_matches_spine_randomized():
    rng = np.random.default_rng(5)
    for _ in range(8):
        law = random_law(rng, kstar_max=4)
        q = float(rng.uniform(0.1, 0.9))
        n = int(rng.integers(5, 18))
        params = ModelParams(law, q)
        scale = analytic.malthusian_rate(params).m
        a = exact.spine_dp(params, n, scale=scale).scaled
        b = exact.urn_dp(params, n, scale=scale).scaled
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-11


def test_urn_dp_errors(mixed_params):
    with pytest.raises(StateExplosion):
        exact.urn_dp(mixed_params, 61)
    with pytest.raises(DomainError):
        exact.urn_dp(mixed_params, 0)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def test_effective_reproduction_binary(binary_params):
    table = exact.spine_dp(binary_params, 10)
    ratios = exact.effective_reproduction(table)
    m = analytic.malthusian_rate(binary_params).m
    assert ratios[0] == pytest.approx(1.0, rel=1e-13)  # E[Z(1)] = 2p
    for r in ratios[1:]:
        assert r == pytest.approx(m, rel=1e-12)


def test_effective_reproduction_converges(mixed_params):
    table = exact.spine_dp(mixed_params, 40)
    ratios = exact.effective_reproduction(table)
    m = analytic.malthusian_rate(mixed_params).m
    assert ratios[1] == pytest.approx(2.375 / 1.5, rel=1e-12)
    assert abs(ratios[-1] - m) < 0.01


def test_effective_reproduction_zero_mean():
    params = ModelParams(new_law({0: 0.5, 2: 0.5}), 0.5)
    table = exact.spine_dp(params, 4, initial=0)
    with pytest.raises(ZeroPopulationMean):
        exact.effective_reproduction(table)


def test_moment_table_csv(mixed_params):
    table = exact.spine_dp(mixed_params, 3)
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,EZ,scaled"
    assert len(lines) == 5
    n, ez, sc = lines[2].split(",")
    assert n == "1" and float(ez) == pytest.approx(1.5, rel=1e-10)
    assert float(sc) == pytest.approx(1.5 / table.scale, rel=1e-10)


# ---------------------------------------------------------------------------
# the generation series <-> typed-population functional
# ---------------------------------------------------------------------------

def test_series_at_time_zero(mixed_params):
    for ell, c in ((1, 0.4), (2, 0.3)):
        val = exact.yule_functional_series(mixed_params, ell, c, 0.0, n_terms=5)
        assert val == pytest.approx(c * ell, rel=1e-14)


def test_series_binary_mixture_constant(binary_params):
    # summing the conditional series against the law gives 2p/m at every t
    p, q = 0.5, 0.5
    m = analytic.malthusian_rate(binary_params).m
    law = binary_params.law
    for t in (0.2, 0.8, 1.6):
        mix = sum(
            law.mass(ell)
            * exact.yule_functional_series(binary_params, ell, 1.0 / m, t, n_terms=160)
            for ell in law.support
        )
        assert mix == pytest.approx(2 * p / m, rel=1e-9)


def test_series_diverges_at_explosion(mixed_params):
    m = analytic.malthusian_rate(mixed_params).m
    c = 0.9
    rho = analytic.explosion_time(mixed_params, analytic.linear_weights(mixed_params.law, c))
    with pytest.raises(SeriesDiverges):
        exact.yule_functional_series(mixed_params, 2, c, rho + 0.01, n_terms=40)
    # just below the explosion time the series needs more terms than allowed
    val = exact.yule_functional_series(mixed_params, 2, 0.3, 0.5, n_terms=60)
    assert val > 0


def test_series_tail_precondition(mixed_params):
    with pytest.raises(DomainError):
        exact.yule_functional_series(mixed_params, 2, 0.55, 1.2, n_terms=4)
    for c in (math.nan, math.inf):
        with pytest.raises(DomainError):
            exact.yule_functional_series(mixed_params, 2, c, 0.5, n_terms=40)
