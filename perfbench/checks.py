"""Checks of rgw's outputs against independent values or required properties.

Each check raises CheckFailed with a one-line reason.  The expected values
come from perfbench/oracles.py or from a second rgw engine, never from a
stored copy of an earlier output.  test_checks.py feeds every check a
perturbed answer to show that it can fail.
"""
from __future__ import annotations

import json
import math

import numpy as np

# A Monte Carlo mean passes when it lies within this many standard errors of
# the exact value.  The workloads keep the relative standard error below 5 %,
# where the sample mean is close to normal; 5 sigma then fails a correct
# engine about once in 1.7 million checks.
SIGMAS = 5.0


class CheckFailed(Exception):
    """An rgw output disagrees with its independent value or property."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def rel_close(got: float, want: float, tol: float, what: str) -> None:
    err = abs(got - want) / abs(want) if want != 0 else abs(got)
    require(math.isfinite(got) and err <= tol,
            f"{what}: got {got!r}, want {want!r} (relative error {err:.3e} > {tol:.1e})")


def within_sigma(mean: float, se: float, want: float, what: str) -> None:
    require(math.isfinite(mean) and se > 0, f"{what}: mean {mean!r} with standard error {se!r}")
    z = abs(mean - want) / se
    require(z <= SIGMAS, f"{what}: mean {mean:.6g} is {z:.2f} standard errors from {want:.6g}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_CHECKS = 15


def verify_report(code: int, text: str) -> None:
    """Exit code 0, one PASS line per check and a clean summary."""
    lines = text.splitlines()
    passes = [ln for ln in lines if ln.startswith("PASS ")]
    fails = [ln for ln in lines if ln.startswith("FAIL ")]
    require(code == 0, f"verify exited with {code}")
    require(not fails, f"verify reported {fails[:1]}")
    require(len(passes) == VERIFY_CHECKS, f"verify printed {len(passes)} PASS lines")
    require(f"summary passed={VERIFY_CHECKS} failed=0" in lines, "verify summary line missing")


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def table_vs_means(scaled, scale: float, means, tol: float, what: str) -> None:
    """A scaled DP table against unscaled E[Z(n)] for n = 1..len(means)-1."""
    for n in range(1, len(means)):
        rel_close(float(scaled[n]) * scale**n, means[n], tol, f"{what} n={n}")


def tables_agree(a, b, tol: float, what: str) -> None:
    require(len(a) == len(b), f"{what}: lengths {len(a)} and {len(b)}")
    for n in range(len(b)):
        rel_close(float(a[n]), float(b[n]), tol, f"{what} n={n}")


# the closed form holds to rounding; rounding grows with n, so beyond the
# n <= 30 gate the bound grows linearly (2.1e-12 was seen at n = 2048)
BINARY_EXACT_N = 30
BINARY_EXACT_TOL = 1e-12
BINARY_TOL_PER_N = 5e-15


def binary_table(scaled, const: float) -> None:
    """m^-n E[Z(n)] = p/(q+(1-q)p) for every n >= 1 on the law {0: 1-p, 2: p}."""
    for n in range(1, len(scaled)):
        tol = BINARY_EXACT_TOL if n <= BINARY_EXACT_N else max(BINARY_EXACT_TOL,
                                                               BINARY_TOL_PER_N * n)
        rel_close(float(scaled[n]), const, tol, f"binary scaled mean n={n}")


def power_law_ratio(scaled, limit: float, exponent: float) -> float:
    """The c08 criterion at the table's last n: the error |m^-n E Z(n) - limit|
    shrinks like n^-(1/beta), so e_n / e_{n/2} / 2^-(1/beta) is near 1."""
    n = len(scaled) - 1
    e_n = abs(float(scaled[n]) - limit)
    e_half = abs(float(scaled[n // 2]) - limit)
    ratio = e_n / e_half / 2.0 ** (-exponent)
    require(0.7 <= ratio <= 1.4, f"power-law ratio at n={n} is {ratio:.4f}, want [0.7, 1.4]")
    return ratio


# below about n = 64 the gap can still cross 0 and grow again
TREND_FROM = 64


def conditional_trend(scaled, exponent: float, target: float) -> list[float]:
    """|n^(1/beta) m^-n E_ell[Z(n)] / target - 1| falls each time n doubles
    from TREND_FROM to the table's end."""
    ns = [n for n in (2**k for k in range(6, 40)) if TREND_FROM <= n < len(scaled)]
    require(len(ns) >= 2, f"table too short for a trend: {len(scaled)} entries")
    gaps = [abs(n**exponent * float(scaled[n]) / target - 1.0) for n in ns]
    for (n0, g0), (n1, g1) in zip(zip(ns, gaps), zip(ns[1:], gaps[1:])):
        require(g1 < g0, f"conditional gap rose from {g0:.4g} at n={n0} to {g1:.4g} at n={n1}")
    return gaps


# ---------------------------------------------------------------------------
# analytic and ode
# ---------------------------------------------------------------------------

RATE_TOL = 1e-12      # against the QAWS quadrature (3e-15 seen)
BINARY_RATE_TOL = 1e-10


def rate(m: float, law: dict, q: float, m_oracle: float, bounds: tuple[float, float],
         binary: float | None) -> None:
    """With one positive support point both bounds equal m = 2(q+(1-q)p);
    otherwise m lies strictly between them."""
    rel_close(m, m_oracle, RATE_TOL, f"rate of {law} at q={q:.3f} against quadrature")
    if binary is not None:
        rel_close(m, binary, BINARY_RATE_TOL, "binary rate 2(q+(1-q)p)")
    else:
        lower, upper = bounds
        require(lower < m < upper, f"rate {m!r} outside ({lower!r}, {upper!r})")


def nondecreasing(prev: float, m: float, what: str) -> None:
    require(m >= prev - 1e-12 * abs(prev), f"{what}: rate fell from {prev!r} to {m!r}")


def context(criticality: str, explosion_time: float, integral: float, q: float) -> None:
    """Criticality and explosion time from the independent integral I_a."""
    if abs(integral - q) <= 1e-12 * q:
        require(criticality == "critical", f"I_a = q but context says {criticality}")
        require(explosion_time == math.inf, f"critical explosion time {explosion_time!r}")
    elif integral < q:
        require(criticality == "subcritical-explosive", f"I_a < q but context says {criticality}")
        rel_close(explosion_time, -math.log1p(-integral / q), 1e-10, "explosion time")
    else:
        require(criticality == "non-explosive", f"I_a > q but context says {criticality}")


ODE_TOL = 1e-6


def ode_grid(grid, values, times, initial) -> None:
    require(np.array_equal(np.asarray(grid), np.asarray(times)), "ODE grid differs from t_eval")
    require(np.all(np.isfinite(values)), "ODE values are not finite")
    require(np.allclose(values[0], initial, rtol=1e-15, atol=0.0), "ODE M(0) differs from a")


def flow_vs_ode(closed: float, ode_value: float, what: str) -> None:
    if ode_value == 0.0:
        require(closed == 0.0, f"{what}: closed form {closed!r} where the ODE gives 0")
    else:
        rel_close(closed, ode_value, ODE_TOL, what)


def phi_vs_ode(closed: float, ode_value: float, what: str) -> None:
    err = abs(closed - ode_value) / max(1.0, abs(ode_value))
    require(err <= ODE_TOL, f"{what}: phi {closed!r} against ODE {ode_value!r}")


def pde_second_order(coarse: float, fine: float) -> float:
    """Halving both grid steps divides a second-order residual by about 4."""
    ratio = coarse / fine
    require(3.2 <= ratio <= 4.8, f"PDE residual ratio {ratio:.3f}, want [3.2, 4.8]")
    return ratio


# ---------------------------------------------------------------------------
# deep Monte Carlo through the CLI
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """Split CLI CSV into its '# key=value' config echo, header and rows."""
    config, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            config[key] = value
        elif line:
            body.append(line.split(","))
    require(bool(body), "CSV has no header")
    return config, body[0], body[1:]


def echo(config: dict, expected: dict) -> None:
    for key, value in expected.items():
        require(str(config.get(key)) == str(value),
                f"config echo {key}={config.get(key)!r}, want {value!r}")


def population_csv(text: str, n: int, replicas: int, seed: int, exact_mean: float) -> None:
    """Trajectories Z(0..n): complete, start at 1, extinction is absorbing,
    and the mean of Z(n) matches the exact value."""
    config, header, rows = parse_csv(text)
    echo(config, {"n": n, "replicas": replicas, "seed": seed})
    require(header == ["replica", "generation", "Z"], f"population header {header}")
    require(len(rows) == replicas * (n + 1), f"{len(rows)} rows for {replicas} full trajectories")
    data = np.array(rows, dtype=float)
    z = data[:, 2].reshape(replicas, n + 1)
    require(np.array_equal(data[:, 0], np.repeat(np.arange(replicas), n + 1))
            and np.array_equal(data[:, 1], np.tile(np.arange(n + 1), replicas)),
            "rows are not replica-major trajectories")
    require(np.all(z == np.floor(z)) and np.all(z >= 0), "Z is not a count")
    require(np.all(z[:, 0] == 1), "Z(0) differs from 1")
    revived = (z[:, :-1] == 0) & (z[:, 1:] != 0)
    require(not revived.any(), f"{int(revived.sum())} trajectories leave 0")
    last = z[:, n]
    within_sigma(float(last.mean()), float(last.std(ddof=1)) / math.sqrt(replicas),
                 exact_mean, f"population mean Z({n})")


def estimate_json(text: str, replicas: int, seed: int, exact: float, what: str) -> None:
    doc = json.loads(text)
    est = doc["estimate"]
    require(est["seed"] == seed and doc["config"]["replicas"] == replicas,
            f"{what}: config echo {doc['config']}")
    require(est["replicas_used"] == replicas and est["capped_fraction"] == 0,
            f"{what}: {est['replicas_used']} replicas used, capped {est['capped_fraction']}")
    within_sigma(est["mean"], est["std_error"], exact, what)


def yule_csv(text: str, support, replicas: int, seed: int, t: float) -> None:
    """Type counts per replica: one column per support point, at least one
    individual per row, and the mean total near e^t."""
    config, header, rows = parse_csv(text)
    echo(config, {"t": t, "replicas": replicas, "seed": seed})
    require(header == ["replica"] + [f"Y_{j}" for j in support], f"yule header {header}")
    require(len(rows) == replicas, f"{len(rows)} rows for {replicas} replicas")
    counts = np.array(rows, dtype=np.int64)
    require(np.array_equal(counts[:, 0], np.arange(replicas)), "replica column out of order")
    totals = counts[:, 1:].sum(axis=1)
    require(np.all(counts[:, 1:] >= 0) and np.all(totals >= 1), "a replica has no individual")
    within_sigma(float(totals.mean()), yule_total_sd(t) / math.sqrt(replicas),
                 math.exp(t), f"Yule total at t={t}")


def yule_total_sd(t: float) -> float:
    """The population of a unit-rate Yule process at t is geometric with
    success probability e^-t.  Its exact spread, not the sample's, scales the
    check: a skewed sample underestimates both its mean and its spread."""
    return math.exp(t) * math.sqrt(-math.expm1(-t))


def yule_json(text: str, support, replicas: int, t: float) -> None:
    """Histogram, mean and type means agree with each other and with e^t."""
    pop = json.loads(text)["population"]
    hist = {int(k): v for k, v in pop["histogram"].items()}
    require(sum(hist.values()) == replicas, f"histogram holds {sum(hist.values())} replicas")
    mean = sum(k * v for k, v in hist.items()) / replicas
    rel_close(pop["mean"], mean, 1e-11, "Yule mean against its histogram")
    rel_close(sum(pop["type_means"].values()), pop["mean"], 1e-10, "type means against the total")
    require(sorted(int(j) for j in pop["type_means"]) == sorted(support), "type columns")
    rel_close(pop["expected_mean"], math.exp(t), 1e-11, "expected mean e^t")
    require(pop["capped_fraction"] == 0, "capped replicas")
    within_sigma(pop["mean"], yule_total_sd(t) / math.sqrt(replicas), math.exp(t),
                 f"Yule total at t={t}")
