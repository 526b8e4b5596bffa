"""Each benchmark check accepts rgw's answer and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py
"""
import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import oracles  # noqa: E402
from checks import CheckFailed  # noqa: E402
from rgw import analytic, cli, exact, ode  # noqa: E402
from rgw.model import ModelParams, new_law  # noqa: E402

PAIR = {1: 0.4, 2: 0.6}
WIDE = {0: 0.1, 1: 0.3, 2: 0.2, 3: 0.4}


def params(law, q):
    return ModelParams(new_law(law), q)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue()


def law_arg(law):
    return ",".join(f"{j}:{p}" for j, p in law.items())


def perturbed(array, index, factor):
    out = np.array(array, dtype=float)
    out[index] *= factor
    return out


def test_verify_report():
    lines = ["verify suite=all seed=42"] + [f"PASS c{i:02d} x: ok" for i in range(15)]
    good = "\n".join(lines + ["summary passed=15 failed=0"]) + "\n"
    checks.verify_report(0, good)
    with pytest.raises(CheckFailed):
        checks.verify_report(2, good)
    with pytest.raises(CheckFailed):
        checks.verify_report(0, good.replace("PASS c03", "FAIL c03"))
    with pytest.raises(CheckFailed):
        checks.verify_report(0, good.replace("PASS c03 x: ok\n", ""))
    with pytest.raises(CheckFailed):
        checks.verify_report(0, good.replace("failed=0", "failed=1"))


def test_spine_against_lineage_enumeration():
    for initial in ("law", 3):
        table = exact.spine_dp(params(WIDE, 0.4), 6, initial=initial, scale=2.0)
        means = oracles.lineage_means(WIDE, 0.4, 6, initial)
        checks.table_vs_means(table.scaled, table.scale, means, 1e-12, "spine")
        with pytest.raises(CheckFailed):
            checks.table_vs_means(perturbed(table.scaled, 4, 1 + 1e-10), table.scale,
                                  means, 1e-12, "spine")


def test_spine_against_urn():
    p = params(WIDE, 0.6)
    a = exact.spine_dp(p, 12, scale=2.0).scaled
    b = exact.urn_dp(p, 12, scale=2.0).scaled
    checks.tables_agree(a, b, 1e-10, "spine/urn")
    with pytest.raises(CheckFailed):
        checks.tables_agree(a, perturbed(b, 7, 1 + 1e-8), 1e-10, "spine/urn")


def test_binary_table():
    p, q = 0.35, 0.6
    table = exact.spine_dp(params({0: 1 - p, 2: p}, q), 64, scale=oracles.binary_rate(p, q))
    const = oracles.binary_scaled_mean(p, q)
    checks.binary_table(table.scaled, const)
    for n in (20, 60):
        with pytest.raises(CheckFailed):
            checks.binary_table(perturbed(table.scaled, n, 1 + 2e-11), const)


def test_power_law_ratio_and_conditional_trend():
    q = 0.5
    m = oracles.malthusian_rate(PAIR, q)
    p = params(PAIR, q)
    law_table = exact.spine_dp(p, 256, scale=m).scaled
    limit, exponent = oracles.mean_limit(PAIR, q), 1 / oracles.beta(PAIR, q)
    checks.power_law_ratio(law_table, limit, exponent)
    doubled = law_table.copy()
    doubled[-1] = limit + 2 * (law_table[-1] - limit)
    with pytest.raises(CheckFailed):
        checks.power_law_ratio(doubled, limit, exponent)

    ell_table = exact.spine_dp(p, 256, initial=1, scale=m).scaled
    target = oracles.conditional_limit(PAIR, q, m, 1)
    checks.conditional_trend(ell_table, exponent, target)
    with pytest.raises(CheckFailed):
        checks.conditional_trend(perturbed(ell_table, 128, 1.2), exponent, target)


def test_rate():
    law, q = dict(new_law(WIDE).masses), 0.3
    m = analytic.malthusian_rate(params(WIDE, q)).m
    bounds = oracles.rate_bounds(law, q)
    checks.rate(m, law, q, oracles.malthusian_rate(law, q), bounds, None)
    with pytest.raises(CheckFailed):
        checks.rate(m * (1 + 1e-11), law, q, oracles.malthusian_rate(law, q), bounds, None)
    with pytest.raises(CheckFailed):
        checks.rate(bounds[1], law, q, bounds[1], bounds, None)
    binary = {0: 0.4, 2: 0.6}
    mb = analytic.malthusian_rate(params(binary, q)).m
    checks.rate(mb, binary, q, mb, oracles.rate_bounds(binary, q), oracles.binary_rate(0.6, q))
    with pytest.raises(CheckFailed):
        checks.rate(mb, binary, q, mb, oracles.rate_bounds(binary, q),
                    oracles.binary_rate(0.6, q) * (1 + 1e-9))
    checks.nondecreasing(1.5, 1.5, "sweep")
    with pytest.raises(CheckFailed):
        checks.nondecreasing(1.5, 1.5 * (1 - 1e-10), "sweep")


def test_context_and_ode():
    law, q = {0: 0.5, 2: 0.5}, 0.5
    p = params(law, q)
    a = analytic.constant_weights(p.law, 2.0)
    ctx = analytic.AnalyticContext(p, a)
    integral = oracles.weighted_integral(law, q, {0: 2.0, 2: 2.0})
    checks.context(ctx.criticality, ctx.explosion_time, integral, q)
    with pytest.raises(CheckFailed):
        checks.context("critical", ctx.explosion_time, integral, q)
    with pytest.raises(CheckFailed):
        checks.context(ctx.criticality, ctx.explosion_time * (1 + 1e-8), integral, q)

    ts = np.linspace(0.0, 0.9 * ctx.explosion_time, 9)
    sol = ode.integrate_M(p, a, float(ts[-1]), rel_tol=1e-9, t_eval=ts)
    checks.ode_grid(sol.grid, sol.values, ts, [2.0, 2.0])
    with pytest.raises(CheckFailed):
        checks.ode_grid(sol.grid, sol.values, ts + 1e-9, [2.0, 2.0])
    with pytest.raises(CheckFailed):
        checks.ode_grid(sol.grid, sol.values, ts, [2.0, 2.0 + 1e-9])

    t, k = float(ts[5]), 5
    closed = analytic.mgf_closed(ctx, 2, t)
    checks.flow_vs_ode(closed, float(sol.values[k, 1]), "M_2")
    with pytest.raises(CheckFailed):
        checks.flow_vs_ode(closed * (1 + 1e-5), float(sol.values[k, 1]), "M_2")
    ode_phi = (1 - q) * float(sol.values[k] @ np.array([0.5, 0.5])) - 1
    checks.phi_vs_ode(analytic.phi(ctx, t), ode_phi, "phi")
    with pytest.raises(CheckFailed):
        checks.phi_vs_ode(analytic.phi(ctx, t) + 1e-5, ode_phi, "phi")


def test_pde_second_order():
    assert checks.pde_second_order(4.0e-6, 1.0e-6) == 4.0
    with pytest.raises(CheckFailed):
        checks.pde_second_order(2.0e-6, 1.0e-6)


def test_critical_constants():
    law, q = {1: 0.5, 2: 0.5}, 0.5
    m = oracles.malthusian_rate(law, q)
    gamma = analytic.gamma_constant(params(law, q))
    checks.rel_close(gamma, oracles.gamma_closed_form(law, q, m), 1e-8, "gamma")
    with pytest.raises(CheckFailed):
        checks.rel_close(gamma * (1 + 1e-7), oracles.gamma_closed_form(law, q, m), 1e-8, "gamma")


def test_population_csv():
    law, q, n, reps, seed = {0: 0.5, 2: 0.5}, 0.5, 6, 300, 3
    text = run_cli(["simulate", "--law", law_arg(law), "--q", str(q), "--n", str(n),
                    "--replicas", str(reps), "--seed", str(seed), "--format", "csv"])
    exact_mean = oracles.binary_rate(0.5, q) ** n * oracles.binary_scaled_mean(0.5, q)
    checks.population_csv(text, n, reps, seed, exact_mean)
    lines = text.splitlines()
    dead = next(i for i, ln in enumerate(lines)
                if ln.endswith(",0") and not ln.split(",")[1] == str(n))
    revived = lines[:]
    replica, gen, _ = revived[dead + 1].split(",")
    revived[dead + 1] = f"{replica},{gen},2"
    bad_start = [ln.replace(",0,1", ",0,2") if ln.startswith("0,0,") else ln for ln in lines]
    for bad in (revived, bad_start, lines[:-1]):
        with pytest.raises(CheckFailed):
            checks.population_csv("\n".join(bad) + "\n", n, reps, seed, exact_mean)
    with pytest.raises(CheckFailed):
        checks.population_csv(text, n, reps, seed, exact_mean * 2)
    with pytest.raises(CheckFailed):
        checks.population_csv(text, n, reps, seed + 1, exact_mean)


def test_estimate_json():
    law, q, n, reps, seed = {3: 0.5, 4: 0.5}, 0.3, 10, 20000, 5
    text = run_cli(["simulate", "--law", law_arg(law), "--q", str(q), "--n", str(n),
                    "--replicas", str(reps), "--seed", str(seed), "--engine", "spine"])
    exact_mean = float(exact.spine_dp(params(law, q), n).values[n])
    checks.estimate_json(text, reps, seed, exact_mean, "lineage mean")
    se = json.loads(text)["estimate"]["std_error"]
    with pytest.raises(CheckFailed):
        checks.estimate_json(text, reps, seed, exact_mean + 6 * se, "lineage mean")
    with pytest.raises(CheckFailed):
        checks.estimate_json(text, reps + 1, seed, exact_mean, "lineage mean")


def test_yule_csv_and_json():
    law, q, t, reps, seed = {0: 0.2, 1: 0.3, 3: 0.5}, 0.4, 2.0, 400, 8
    base = ["yule", "--law", law_arg(law), "--q", str(q), "--t", str(t),
            "--replicas", str(reps), "--seed", str(seed)]
    text = run_cli(base + ["--format", "csv"])
    support = (0, 1, 3)
    checks.yule_csv(text, support, reps, seed, t)
    lines = text.splitlines()
    emptied = [ln if not ln.startswith("7,") else "7,0,0,0" for ln in lines]
    for bad_text, bad_support, bad_t in (("\n".join(emptied), support, t),
                                         (text, (0, 1, 2), t), (text, support, t + 1.0)):
        with pytest.raises(CheckFailed):
            checks.yule_csv(bad_text, bad_support, reps, seed, bad_t)

    doc = json.loads(run_cli(base))
    checks.yule_json(json.dumps(doc), support, reps, t)
    shifted = json.loads(json.dumps(doc))
    shifted["population"]["type_means"]["1"] += 0.01
    moved = json.loads(json.dumps(doc))
    hist = moved["population"]["histogram"]
    first = min(hist, key=int)
    hist[first] -= 1
    hist[str(int(first) + 1)] = hist.get(str(int(first) + 1), 0) + 1
    for bad, bad_t in ((shifted, t), (moved, t), (doc, t + 1.0)):
        with pytest.raises(CheckFailed):
            checks.yule_json(json.dumps(bad), support, reps, bad_t)


def test_within_sigma():
    checks.within_sigma(10.0, 1.0, 14.9, "mean")
    with pytest.raises(CheckFailed):
        checks.within_sigma(10.0, 1.0, 15.1, "mean")
    with pytest.raises(CheckFailed):
        checks.within_sigma(math.nan, 1.0, 10.0, "mean")


def _reachable(s, n_max, starts):
    """Count vectors a lineage DP over s support points holds in generations 1..n_max."""
    level, total = set(starts), 0
    for _ in range(n_max):
        total += len(level)
        level = {st[:i] + (st[i] + 1,) + st[i + 1:] for st in level for i in range(s)}
    return total


def test_state_counts():
    units = [tuple(int(i == k) for i in range(3)) for k in range(3)]
    assert oracles.composition_states(3, 6) == _reachable(3, 6, units)
    assert oracles.composition_states(3, 6, initial=2) == _reachable(3, 6, units[1:2])
    assert oracles.composition_states(3, 6, initial=0) == 0
    assert oracles.partition_states(6) == 1 + 2 + 3 + 5 + 7 + 11
