"""The four workloads: inputs built from a seed, the operations that call
rgw, and the check each operation's output must pass.

An operation is one call into rgw: one CLI invocation, one DP table, one
rate, one flow point or one simulation.  Every round of a run repeats the
same operations on the same inputs.  Round 1's outputs are checked against
independent values (oracles.py) or required properties (checks.py); later
rounds must reproduce round 1's outputs bit for bit, since rgw promises
results that depend only on the inputs and the seed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
import oracles
from rgw import analytic, cli, exact, ode
from rgw.model import ModelParams, new_law


@dataclass
class Op:
    name: str
    call: Callable[[dict], Any]           # gets the round's earlier outputs by name
    check: Callable[[Any, dict], None]    # raises checks.CheckFailed
    key: Callable[[Any], Any] = lambda out: out   # what later rounds must repeat


@dataclass
class CliRun:
    code: int
    stdout: str
    out_path: str | None

    def text(self) -> str:
        if self.out_path is None:
            return self.stdout
        with open(self.out_path, encoding="utf-8") as fh:
            return fh.read()

    def output_bytes(self) -> int:
        size = len(self.stdout.encode())
        return size + (os.path.getsize(self.out_path) if self.out_path else 0)


def _cli(argv: list[str], out_path: str | None = None) -> Callable[[dict], CliRun]:
    full = argv + (["--out", out_path] if out_path else [])

    def call(_outputs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(full)
        return CliRun(code, buf.getvalue(), out_path)

    return call


def fingerprint(value) -> bytes:
    """Bytes that change with any bit of an operation's output."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, (tuple, list)):
        return b"(" + b"|".join(fingerprint(v) for v in value) + b")"
    if dataclasses.is_dataclass(value):
        return fingerprint([getattr(value, f.name) for f in dataclasses.fields(value)])
    return repr(value).encode()


def _cli_key(run: CliRun):
    return run.code, run.stdout, run.text()


def _masses(rng: np.random.Generator, support, floor: float = 0.05) -> dict[int, float]:
    pr = floor + (1.0 - floor * len(support)) * rng.dirichlet(np.ones(len(support)))
    return {int(j): float(p) for j, p in zip(support, pr)}


def _params(masses: dict, q: float) -> tuple[ModelParams, dict]:
    """rgw's validated parameters and the normalized masses the oracles use."""
    params = ModelParams(new_law(masses), float(q))
    return params, dict(params.law.masses)


def _law_arg(law: dict) -> str:
    return ",".join(f"{j}:{p!r}" for j, p in sorted(law.items()))


def _table_key(table):
    return table.scaled, table.scale


# ---------------------------------------------------------------------------
# verify: the ROADMAP's end-to-end number, at the suite's fixed seed
# ---------------------------------------------------------------------------

VERIFY_ARGV = ["verify", "--suite", "all", "--seed", "42"]


def verify_ops(seed: int, out_dir: str) -> list[Op]:
    """The suite runs at seed 42 whatever --seed is: its gates are pinned there."""
    return [Op("verify", _cli(VERIFY_ARGV),
               lambda out, o: checks.verify_report(out.code, out.stdout), _cli_key)]


# ---------------------------------------------------------------------------
# exact: the two dynamic programs on wide and on long tables
# ---------------------------------------------------------------------------

WIDE4_N = 40      # 4 positive support points: many states per generation
WIDE5_N = 24      # 5 positive support points
URN_N = 32        # urn partitions grow like exp(sqrt(n)); n = 50 takes 20 s
PAIR_N = 1024     # 2 positive support points: many generations
PAIR_ELL_N = 512  # the conditional trend, checked at n = 64, 128, 256, 512
BINARY_N = 2048   # 1 positive support point: the closed-form case
BRUTE_N = 8       # lineage enumeration visits s^n sequences


def exact_ops(seed: int, out_dir: str) -> list[Op]:
    """Support shapes are fixed, since they set the DP's work; the seed draws
    the masses and q, which leave the work unchanged."""
    rng = np.random.default_rng([seed, 1])
    zero = (0,) if rng.random() < 0.5 else ()
    w4, law4 = _params(_masses(rng, zero + (1, 2, 3, 4)), rng.uniform(0.2, 0.8))
    w5, law5 = _params(_masses(rng, (1, 2, 3, 4, 5)), rng.uniform(0.2, 0.8))
    # in this range the asymptotic checks hold from n = 64 (for q near 0.3
    # the conditional gap changes sign past n = 256)
    p = rng.uniform(0.3, 0.6)
    pair, law2 = _params({1: p, 2: 1.0 - p}, rng.uniform(0.45, 0.7))
    pb = rng.uniform(0.2, 0.8)
    binary, _ = _params({0: 1.0 - pb, 2: pb}, rng.uniform(0.2, 0.8))
    m4 = oracles.malthusian_rate(law4, w4.q)
    m5 = oracles.malthusian_rate(law5, w5.q)
    m2 = oracles.malthusian_rate(law2, pair.q)
    mb = oracles.binary_rate(pb, binary.q)

    def brute(table, law, q, initial="law"):
        checks.table_vs_means(table.scaled, table.scale,
                              oracles.lineage_means(law, q, BRUTE_N, initial), 1e-12,
                              f"spine_dp against lineage enumeration ({initial})")

    def pair_law(table, o):
        brute(table, law2, pair.q)
        checks.power_law_ratio(table.scaled, oracles.mean_limit(law2, pair.q),
                               1.0 / oracles.beta(law2, pair.q))

    def pair_ell(table, o):
        brute(table, law2, pair.q, initial=1)
        checks.conditional_trend(table.scaled, 1.0 / oracles.beta(law2, pair.q),
                                 oracles.conditional_limit(law2, pair.q, m2, 1))

    def urn(table, o):
        checks.tables_agree(o["spine.wide4"].scaled[:URN_N + 1], table.scaled, 1e-10,
                            "spine_dp against urn_dp")

    return [
        Op("spine.wide4", lambda o: exact.spine_dp(w4, WIDE4_N, scale=m4),
           lambda t, o: brute(t, law4, w4.q), _table_key),
        Op("spine.wide5", lambda o: exact.spine_dp(w5, WIDE5_N, scale=m5),
           lambda t, o: brute(t, law5, w5.q), _table_key),
        Op("urn.wide4", lambda o: exact.urn_dp(w4, URN_N, scale=m4), urn, _table_key),
        Op("spine.pair", lambda o: exact.spine_dp(pair, PAIR_N, scale=m2), pair_law, _table_key),
        Op("spine.pair.ell1", lambda o: exact.spine_dp(pair, PAIR_ELL_N, initial=1, scale=m2),
           pair_ell, _table_key),
        Op("spine.binary", lambda o: exact.spine_dp(binary, BINARY_N, scale=mb),
           lambda t, o: checks.binary_table(t.scaled, oracles.binary_scaled_mean(pb, binary.q)),
           _table_key),
    ]


# ---------------------------------------------------------------------------
# analytic: quadrature, flow points, critical constants and the moment ODE
# ---------------------------------------------------------------------------

RATE_SHAPES = ((0, 2), (1, 2), (0, 1, 2), (1, 2, 3), (0, 1, 3), (1, 2, 4),
               (0, 2, 3, 5), (1, 3, 4, 6))
LAWS_PER_SHAPE = 5
Q_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
T_POINTS = 65
CRITICAL_BETA = 1.25


def analytic_ops(seed: int, out_dir: str) -> list[Op]:
    """Each law shape appears equally often, since the shape sets the
    quadrature's cost; the seed draws masses and q."""
    rng = np.random.default_rng([seed, 2])
    ops: list[Op] = []

    # rate surface: laws x q grid, each q sweep checked for monotonicity
    for i in range(len(RATE_SHAPES) * LAWS_PER_SHAPE):
        masses = _masses(rng, RATE_SHAPES[i % len(RATE_SHAPES)])
        prev = None
        for q in Q_GRID:
            params, law = _params(masses, q)
            name = f"rate.{i}.q{q}"
            ops.append(Op(name, lambda o, p=params: analytic.malthusian_rate(p),
                          _rate_check(law, q, prev)))
            prev = name

    # flow points against the moment ODE, one weight family per law
    for kind, shape in (("linear", (1, 2)), ("constant", (0, 2)), ("critical", (0, 1, 3))):
        params, law = _params(_masses(rng, shape), rng.uniform(0.3, 0.6))
        ops += _flow_ops(kind, params, law)

    # transport-equation residual under grid refinement (critical weights)
    params, law = _params(_masses(rng, (1, 2)), rng.uniform(0.3, 0.7))
    ops += _pde_ops(params, law)

    # critical constants.  gamma doubles its horizon T until two values
    # agree to 1e-9, and its cost grows with T; at beta = 1.25 and q in
    # [0.4, 0.6] every law stops at T = 64 (at beta = 2, or with q near 0.15,
    # some laws go on to 128, which doubles the work for some seeds)
    params, law, m = _critical(rng, (1, 2))
    ops.append(Op("gamma", lambda o, p=params: analytic.gamma_constant(p),
                  lambda g, o, p=params, law=law, m=m: checks.rel_close(
                      g, oracles.gamma_closed_form(law, p.q, m), 1e-8,
                      "gamma against its closed form")))
    params, law, m = _critical(rng, (1, 2, 4))
    ops.append(Op("limit", lambda o, p=params: analytic.conditional_limit_constant(p, 1),
                  lambda c, o, p=params, law=law, m=m: checks.rel_close(
                      c, oracles.conditional_limit(law, p.q, m, 1), 1e-8,
                      "conditional limit constant ell=1")))
    return ops


def _critical(rng: np.random.Generator, shape) -> tuple[ModelParams, dict, float]:
    """A law on `shape` with beta = 1 + nu(k*)(1-q)/q = CRITICAL_BETA."""
    q = rng.uniform(0.4, 0.6)
    nk = (CRITICAL_BETA - 1.0) * q / (1.0 - q)
    masses = {j: p * (1.0 - nk) for j, p in _masses(rng, shape[:-1]).items()}
    masses[shape[-1]] = nk
    params, law = _params(masses, q)
    return params, law, oracles.malthusian_rate(law, q)


def _rate_check(law: dict, q: float, prev: str | None):
    def check(profile, o):
        binary = (oracles.binary_rate(law[2], q) if sorted(law) == [0, 2] else None)
        checks.rate(profile.m, law, q, oracles.malthusian_rate(law, q),
                    oracles.rate_bounds(law, q), binary)
        if prev is not None:
            checks.nondecreasing(o[prev].m, profile.m, f"q sweep of {law}")
    return check


def _flow_ops(kind: str, params: ModelParams, law: dict) -> list[Op]:
    q = params.q
    if kind == "linear":
        weights = {j: float(j) for j in law}
    elif kind == "constant":
        weights = {j: 2.0 for j in law}
    else:
        m = oracles.malthusian_rate(law, q)
        weights = {j: j / m for j in law}
    a = analytic.weights_from_map(params.law, weights)
    integral = oracles.weighted_integral(law, q, weights)
    t_hi = 0.9 * -math.log1p(-integral / q) if integral < q * (1.0 - 1e-12) else 4.0
    ts = np.linspace(0.0, t_hi, T_POINTS)
    support = params.law.support
    nu = np.array([law[j] for j in support])
    ctx_name, ode_name = f"ctx.{kind}", f"ode.{kind}"

    ops = [
        Op(ctx_name, lambda o: analytic.AnalyticContext(params, a),
           lambda c, o: checks.context(c.criticality, c.explosion_time, integral, q),
           lambda c: (c.i_total, c.criticality)),
        Op(ode_name, lambda o: ode.integrate_M(params, a, float(ts[-1]), rel_tol=1e-9, t_eval=ts),
           lambda s, o: checks.ode_grid(s.grid, s.values, ts, [a[j] for j in support])),
    ]
    for i, j in enumerate(support):
        if a[j] == 0.0:
            continue
        for k, t in enumerate(ts):
            ops.append(Op(f"mgf.{kind}.{j}.{k}",
                          lambda o, j=j, t=float(t): analytic.mgf_closed(o[ctx_name], j, t),
                          lambda v, o, i=i, k=k, j=j: checks.flow_vs_ode(
                              v, float(o[ode_name].values[k, i]), f"M_{j} at t[{k}] ({kind})")))
    for k, t in enumerate(ts):
        ops.append(Op(f"phi.{kind}.{k}", lambda o, t=float(t): analytic.phi(o[ctx_name], t),
                      lambda v, o, k=k: checks.phi_vs_ode(
                          v, (1.0 - q) * float(o[ode_name].values[k] @ nu) - 1.0,
                          f"phi at t[{k}] ({kind})")))
    return ops


PDE_T = 2.0


def _pde_ops(params: ModelParams, law: dict) -> list[Op]:
    m = oracles.malthusian_rate(law, params.q)
    a = analytic.weights_from_map(params.law, {j: j / m for j in law})

    def residual(o, points):
        s_hi = 0.35 / float(np.max(np.abs(o["pde.ode"].values)))
        return ode.pde_residual_G(params, a, np.linspace(0.0, PDE_T, points),
                                  np.linspace(0.0, s_hi, points), rel_tol=1e-10)

    def positive(v, o):
        checks.require(math.isfinite(v) and v > 0, f"PDE residual {v!r}")

    return [
        Op("pde.ode", lambda o: ode.integrate_M(params, a, PDE_T, rel_tol=1e-10),
           lambda s, o: checks.require(s.grid[-1] == PDE_T and np.all(np.isfinite(s.values)),
                                       "ODE did not reach the PDE horizon"),
           lambda s: (s.grid.tobytes(), s.values.tobytes())),
        Op("pde.coarse", lambda o: residual(o, 41), positive),
        Op("pde.fine", lambda o: residual(o, 81),
           lambda v, o: checks.pde_second_order(o["pde.coarse"], v)),
    ]


# ---------------------------------------------------------------------------
# deep-mc: few replicas, deep horizons, through the CLI with --out files
# ---------------------------------------------------------------------------

# The laws are fixed: the population's work grows like m^n, so a law drawn
# from the seed would change the work by more than the bounds allow.  The
# seed drives every random stream.
POP_LAW, POP_Q, POP_N, POP_REPLICAS = {0: 0.35, 1: 0.2, 2: 0.45}, 0.5, 18, 1000
SPINE_LAW, SPINE_Q, SPINE_N, SPINE_REPLICAS = {6: 0.3, 7: 0.4, 8: 0.3}, 0.3, 60, 200_000
YULE_LAW, YULE_Q = {1: 0.5, 2: 0.5}, 0.5
YULE_CSV_T, YULE_CSV_REPLICAS = 4.0, 300
TYPED_LAW, TYPED_Q, TYPED_T, TYPED_REPLICAS = {0: 0.2, 1: 0.3, 3: 0.5}, 0.4, 3.0, 500
FUNC_ELL, FUNC_C, FUNC_T, FUNC_REPLICAS = 2, 0.5, 1.0, 5000


def deep_mc_ops(seed: int, out_dir: str) -> list[Op]:
    s_pop, s_spine, s_yule, s_typed, s_func = (
        int(x) for x in np.random.SeedSequence([seed, 4]).generate_state(5))
    pop, _ = _params(POP_LAW, POP_Q)
    spine, _ = _params(SPINE_LAW, SPINE_Q)
    yule, _ = _params(YULE_LAW, YULE_Q)
    typed, _ = _params(TYPED_LAW, TYPED_Q)
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)

    def law_args(params):
        return ["--law", _law_arg(dict(params.law.masses)), "--q", repr(params.q)]

    def exact_mean(params, n):
        return float(exact.spine_dp(params, n).values[n])

    return [
        Op("population", _cli(["simulate", *law_args(pop), "--n", str(POP_N), "--replicas",
                               str(POP_REPLICAS), "--seed", str(s_pop), "--engine", "population",
                               "--format", "csv"], path("population.csv")),
           lambda r, o: checks.population_csv(r.text(), POP_N, POP_REPLICAS, s_pop,
                                              exact_mean(pop, POP_N)), _cli_key),
        Op("spine", _cli(["simulate", *law_args(spine), "--n", str(SPINE_N), "--replicas",
                          str(SPINE_REPLICAS), "--seed", str(s_spine), "--engine", "spine"],
                         path("spine.json")),
           lambda r, o: checks.estimate_json(r.text(), SPINE_REPLICAS, s_spine,
                                             exact_mean(spine, SPINE_N), "lineage mean"),
           _cli_key),
        Op("yule.csv", _cli(["yule", *law_args(yule), "--t", repr(YULE_CSV_T), "--replicas",
                             str(YULE_CSV_REPLICAS), "--seed", str(s_yule), "--format", "csv"],
                            path("yule.csv")),
           lambda r, o: checks.yule_csv(r.text(), yule.law.support, YULE_CSV_REPLICAS, s_yule,
                                        YULE_CSV_T), _cli_key),
        Op("yule.json", _cli(["yule", *law_args(typed), "--t", repr(TYPED_T), "--replicas",
                              str(TYPED_REPLICAS), "--seed", str(s_typed)], path("yule.json")),
           lambda r, o: checks.yule_json(r.text(), typed.law.support, TYPED_REPLICAS, TYPED_T),
           _cli_key),
        Op("functional", _cli(["yule", *law_args(yule), "--t", repr(FUNC_T), "--c", repr(FUNC_C),
                               "--ell", str(FUNC_ELL), "--replicas", str(FUNC_REPLICAS),
                               "--seed", str(s_func)], path("functional.json")),
           lambda r, o: checks.estimate_json(
               r.text(), FUNC_REPLICAS, s_func,
               exact.yule_functional_series(yule, FUNC_ELL, FUNC_C, FUNC_T, n_terms=80),
               "Yule functional"), _cli_key),
    ]


WORKLOADS = {
    "verify": verify_ops,
    "exact": exact_ops,
    "analytic": analytic_ops,
    "deep-mc": deep_mc_ops,
}
