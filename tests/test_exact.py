import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgw import analytic, exact
from rgw.errors import DomainError, SeriesDiverges, StateExplosion
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


def test_spine_dp_numpy_integer_initial(mixed_params):
    got = exact.spine_dp(mixed_params, 4, initial=np.int64(2)).scaled
    assert np.array_equal(got, exact.spine_dp(mixed_params, 4, initial=2).scaled)


def test_spine_dp_errors(mixed_params):
    with pytest.raises(DomainError):
        exact.spine_dp(mixed_params, 0)
    for initial in (5, "foo", 2.7, True):
        with pytest.raises(DomainError):
            exact.spine_dp(mixed_params, 3, initial=initial)
    # two positive support points: one past the 2 x n_max^2 work bound
    with pytest.raises(StateExplosion):
        exact.spine_dp(mixed_params, math.isqrt(exact._STATE_CAP // 2) + 1)
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            exact.spine_dp(mixed_params, 3, scale=scale)


def test_spine_dp_eight_point_law_mixture_identity():
    # 8 positive support points to n = 120: 960 series coefficients, though
    # the lineage has C(127, 7) (about 6e10) count compositions
    law = new_law({k: 1 / 8 for k in range(1, 9)})
    params = ModelParams(law, 0.5)
    table = exact.spine_dp(params, 120)
    mix = sum(law.mass(ell) * exact.spine_dp(params, 120, initial=ell, scale=table.scale).scaled
              for ell in law.support)
    assert np.all(table.scaled[1:] > 0)
    np.testing.assert_allclose(mix, table.scaled, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the generating-function series against the lineage chain over a dict
# ---------------------------------------------------------------------------

def dict_spine_dp(params, n_max, initial, scale):
    """Reference: the lineage-chain recursion over a dict keyed by count
    tuples, visited in sorted order, each term a Python float product.
    spine_dp, which shares no step with it, must agree to rel 1e-13."""
    law, q = params.law, params.q
    pos = law.positive_support
    s = len(pos)
    scaled = np.zeros(n_max + 1)
    scaled[0] = 1.0
    states = {}
    for i, j in enumerate(pos):
        if initial in ("law", j):
            unit = tuple(1 if k == i else 0 for k in range(s))
            states[unit] = (law.mass(j) if initial == "law" else 1.0) * j / scale
    scaled[1] = math.fsum(states.values())
    probs = [law.mass(j) for j in pos]
    for n in range(1, n_max):
        new = {}
        for st_, w in sorted(states.items()):
            for i in range(s):
                p = q / n * st_[i] + (1.0 - q) * probs[i]
                succ = st_[:i] + (st_[i] + 1,) + st_[i + 1:]
                inc = w * p * pos[i] / scale
                new[succ] = new[succ] + inc if succ in new else inc
        states = new
        scaled[n + 1] = math.fsum(states.values())
    return scaled


def _panel_law(n_pos, zero):
    masses = {j: 1.0 + 0.37 * j for j in range(1, n_pos + 1)}
    if zero:
        masses[0] = 0.9
    total = sum(masses.values())
    return new_law({k: v / total for k, v in masses.items()})


_PANEL = [(n_pos, zero, n) for n_pos, n in ((1, 64), (2, 64), (3, 40), (5, 14), (7, 8))
          for zero in (False, True) if n_pos > 1 or zero]


@pytest.mark.parametrize("n_pos, zero, n", _PANEL)
def test_spine_dp_bitwise_matches_dict_panel(n_pos, zero, n):
    law = _panel_law(n_pos, zero)
    params = ModelParams(law, 0.37)
    scale = analytic.malthusian_rate(params).m
    for initial in ("law", *law.support):
        got = exact.spine_dp(params, n, initial=initial, scale=scale).scaled
        np.testing.assert_allclose(got, dict_spine_dp(params, n, initial, scale),
                                   rtol=1e-13, atol=0, err_msg=str(initial))


def test_spine_dp_bitwise_matches_dict_long_table(mixed_params):
    scale = analytic.malthusian_rate(mixed_params).m
    got = exact.spine_dp(mixed_params, 1024, scale=scale).scaled
    np.testing.assert_allclose(got, dict_spine_dp(mixed_params, 1024, "law", scale),
                               rtol=1e-13, atol=0)


_spine_laws = st.tuples(
    st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True), st.booleans(),
).filter(lambda t: len(t[0]) + t[1] >= 2).flatmap(
    lambda t: st.lists(st.integers(1, 9), min_size=len(t[0]) + t[1],
                       max_size=len(t[0]) + t[1]).map(
        lambda w: new_law({k: v / sum(w) for k, v in zip(sorted(t[0]) + [0] * t[1], w)})))


@settings(max_examples=40, deadline=None)
@given(law=_spine_laws, q=st.floats(0.05, 0.95), n=st.integers(1, 30), data=st.data())
def test_spine_dp_bitwise_matches_dict_property(law, q, n, data):
    n = min(n, {1: 30, 2: 30, 3: 30, 4: 24, 5: 18}[len(law.positive_support)])
    initial = data.draw(st.sampled_from(("law", *law.support)))
    params = ModelParams(law, q)
    got = exact.spine_dp(params, n, initial=initial, scale=2.5).scaled
    np.testing.assert_allclose(got, dict_spine_dp(params, n, initial, 2.5), rtol=1e-13, atol=0)


@settings(max_examples=30, deadline=None)
@given(pts=st.lists(st.integers(0, 8), min_size=2, max_size=4, unique=True).filter(
           lambda pts: max(pts) > 0),
       q=st.floats(0.05, 0.95), n=st.integers(1, 20), data=st.data())
def test_spine_dp_matches_urn_dp_property(pts, q, n, data):
    w = data.draw(st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)))
    params = ModelParams(new_law({k: v / sum(w) for k, v in zip(pts, w)}), q)
    scale = analytic.malthusian_rate(params).m
    a = exact.spine_dp(params, n, scale=scale).scaled
    b = exact.urn_dp(params, n, scale=scale).scaled
    assert np.max(np.abs(a - b) / np.abs(b)) < 1e-10


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
    for scale in (0.0, math.nan):
        with pytest.raises(DomainError):
            exact.urn_dp(mixed_params, 3, scale=scale)


def test_table_lengths_must_be_integers(mixed_params):
    for n_max in (2.5, True, "3", None):
        with pytest.raises(DomainError):
            exact.spine_dp(mixed_params, n_max)
        with pytest.raises(DomainError):
            exact.urn_dp(mixed_params, n_max)
        with pytest.raises(DomainError):
            exact.yule_functional_series(mixed_params, 2, 0.3, 0.5, n_terms=n_max)
    for table in (exact.spine_dp, exact.urn_dp):
        assert np.array_equal(table(mixed_params, np.int64(5)).scaled,
                              table(mixed_params, 5).scaled)


# ---------------------------------------------------------------------------
# the partition lattice against the urn over a dict
# ---------------------------------------------------------------------------

def dict_urn_dp(params, n_max, scale):
    """Reference: the urn's block-size partitions as a dict keyed by
    descending tuples, visited in sorted order, each term a Python float
    product.  urn_dp must equal it bit for bit."""
    law, q = params.law, params.q
    pos = np.array(law.positive_support, dtype=float)
    pr = np.array([law.mass(int(j)) for j in pos])
    mom = np.array([np.dot(pr, (pos / scale) ** k) for k in range(n_max + 1)])
    scaled = np.zeros(n_max + 1)
    scaled[0] = 1.0
    scaled[1] = mom[1]
    dist = {(1,): 1.0}
    for n in range(1, n_max):
        new = {}
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
    return scaled


_urn_laws = st.lists(st.integers(0, 9), min_size=2, max_size=6, unique=True).filter(
    lambda pts: max(pts) > 0).flatmap(
    lambda pts: st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)).map(
        lambda w: new_law({k: v / sum(w) for k, v in zip(pts, w)})))


@settings(max_examples=60, deadline=None)
@given(law=_urn_laws, q=st.floats(0.02, 0.98), n=st.integers(1, 26),
       scale=st.one_of(st.none(), st.floats(0.5, 6.0)))
def test_urn_dp_bitwise_matches_dict_property(law, q, n, scale):
    params = ModelParams(law, q)
    table = exact.urn_dp(params, n, scale=scale)
    assert np.array_equal(table.scaled, dict_urn_dp(params, n, table.scale))


@pytest.mark.parametrize("n", [32, 40])
def test_urn_dp_bitwise_matches_dict_deep(n):
    params = ModelParams(new_law({0: 0.1, 1: 0.3, 2: 0.25, 3: 0.2, 5: 0.15}), 0.45)
    table = exact.urn_dp(params, n)
    assert np.array_equal(table.scaled, dict_urn_dp(params, n, table.scale))


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def _reproduction_ratios(table):
    """E[Z(n+1)] / E[Z(n)] read off a moment table."""
    return table.scaled[1:] / table.scaled[:-1] * table.scale


def test_effective_reproduction_binary(binary_params):
    table = exact.spine_dp(binary_params, 10)
    ratios = _reproduction_ratios(table)
    m = analytic.malthusian_rate(binary_params).m
    assert ratios[0] == pytest.approx(1.0, rel=1e-13)  # E[Z(1)] = 2p
    for r in ratios[1:]:
        assert r == pytest.approx(m, rel=1e-12)


def test_effective_reproduction_converges(mixed_params):
    table = exact.spine_dp(mixed_params, 40)
    ratios = _reproduction_ratios(table)
    m = analytic.malthusian_rate(mixed_params).m
    assert ratios[1] == pytest.approx(2.375 / 1.5, rel=1e-12)
    assert abs(ratios[-1] - m) < 0.01


def test_spine_dp_from_a_zero_root_is_zero():
    params = ModelParams(new_law({0: 0.5, 2: 0.5}), 0.5)
    table = exact.spine_dp(params, 4, initial=0)
    assert table.values[0] == 1.0 and not table.values[1:].any()


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


@settings(max_examples=40, deadline=None)
@given(law=_spine_laws, q=st.floats(0.05, 0.95), ck=st.floats(0.05, 0.9),
       frac=st.floats(0.0, 1.0))
def test_series_matches_closed_form_property(law, q, ck, frac):
    # the series is the Taylor expansion in 1 - e^-t of the closed form
    # M_ell(a, t) with a_j = c j, so the DP and the flow meet at every t
    params, c = ModelParams(law, q), ck / law.kstar
    ctx = analytic.AnalyticContext(params, analytic.linear_weights(law, c))
    rho = ctx.explosion_time
    t = frac * (0.7 * rho if math.isfinite(rho) else 2.0)
    for ell in law.support:
        series = exact.yule_functional_series(params, ell, c, t, n_terms=400)
        closed = analytic.mgf_closed(ctx, ell, t)
        assert abs(series - closed) <= 1e-13 * abs(closed)


def test_series_tail_precondition(mixed_params):
    with pytest.raises(DomainError):
        exact.yule_functional_series(mixed_params, 2, 0.55, 1.2, n_terms=4)
    for c in (math.nan, math.inf):
        with pytest.raises(DomainError):
            exact.yule_functional_series(mixed_params, 2, c, 0.5, n_terms=40)
    with pytest.raises(DomainError):
        exact.yule_functional_series(mixed_params, 2, 0.3, math.nan, n_terms=40)
