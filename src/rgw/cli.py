"""Command-line front end: reports from every module, JSON or CSV.

Only this module formats output: the numeric modules return numbers, and
one writer, `_write`, turns each subcommand's resolved configuration, JSON
body and CSV table into text with 12 significant digits.  CSV config lines
are rounded like the JSON echo.  Every subcommand echoes its fully resolved
configuration, so identical invocations produce byte-identical reports
(timestamps and wall-clock never appear).

Exit codes: 0 success, 1 validation/usage error, 2 verification failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys

import numpy as np

from . import analytic, exact, ode, sim, verify
from .errors import NotConverged, RgwError
from .model import ModelParams, load_params, params_to_dict, parse_law, parse_pairs

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    verification failures, so remap usage problems to exit 1.  Every error,
    a subcommand's too, is reported as "rgw: error: ..."."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"rgw: error: {message}\n")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return float(f"{x:.12g}") if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise RgwError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(_jsonify(obj), indent=2) + "\n"


def _cell(v) -> str:
    """One CSV cell: a float with 12 significant digits, anything else by str."""
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _write(args, config: dict, body: dict | None, table=None) -> int:
    """Write a subcommand's report to --out or stdout and return exit code 0.

    JSON is {"config": config, **body}.  CSV is the sorted "# key=value"
    config lines, rounded as `_jsonify` rounds the JSON echo, then the header
    of table = (header, rows) and one line per row, a float cell printed
    with 12 significant digits.  Every row has its first row's cell types,
    so one format string, built from the first row, prints each row; a
    table whose rows mix types passes its cells through `_cell` first.
    """
    if args.format == "csv":
        header, rows = table
        config = _jsonify(config)
        lines = [f"# {k}={config[k]}\n" for k in sorted(config)]
        lines.append(",".join(header) + "\n")
        rows = iter(rows)
        first = next(rows, None)
        if first is not None:
            fmt = ",".join("{:.12g}" if isinstance(v, float) else "{}" for v in first) + "\n"
            lines.append(fmt.format(*first))
            lines.extend(itertools.starmap(fmt.format, rows))
        text = "".join(lines)
    else:
        text = _json_text({"config": config, **body})
    _emit(text, args.out)
    return 0


def _add_law_args(p: _Parser) -> None:
    p.add_argument("--law", help='inline law "k:p,k:p,..."')
    p.add_argument("--law-file", help="JSON file {'law': {...}, 'q': ...}")
    p.add_argument("--q", type=float, help="memory parameter in (0,1)")


def _resolve_params(args) -> ModelParams:
    if bool(args.law) == bool(args.law_file):
        raise RgwError("exactly one law source required: --law or --law-file")
    if args.law:
        if args.q is None:
            raise RgwError("--q is required with --law")
        return ModelParams(parse_law(args.law), args.q)
    params = load_params(args.law_file)
    if args.q is not None:
        params = ModelParams(params.law, args.q)
    return params


def _base_config(params: ModelParams, **extra) -> dict:
    cfg = params_to_dict(params)
    cfg.update(extra)
    return cfg


def _sim_config(args) -> sim.SimConfig:
    cap = sim.SimConfig.population_cap if args.cap is None else args.cap
    return sim.SimConfig(seed=args.seed, replicas=args.replicas, population_cap=cap)


def _parse_initial(raw: str) -> str | int:
    if raw == "law":
        return raw
    try:
        return int(raw)
    except ValueError:
        raise RgwError(f'--initial must be "law" or a support point, got {raw!r}') from None


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_rate(args) -> int:
    params = _resolve_params(args)
    rate = dataclasses.asdict(analytic.malthusian_rate(params))
    rows = ((k, _cell(v)) for k, v in rate.items())  # a key/value table mixes types
    return _write(args, _base_config(params), {"rate": rate}, (("key", "value"), rows))


def _cmd_moments(args) -> int:
    params = _resolve_params(args)
    table = exact.spine_dp(params, args.n, initial=_parse_initial(args.initial))
    config = _base_config(params, n=args.n, initial=args.initial, scale=table.scale)
    header = ("n", "EZ", "scaled")
    rows = list(zip(range(len(table.scaled)), table.values.tolist(), table.scaled.tolist()))
    return _write(args, config, {"moments": [dict(zip(header, row)) for row in rows]},
                  (header, rows))


def _cmd_simulate(args) -> int:
    if args.engine == "spine" and args.cap is not None:
        raise RgwError("the spine engine never caps; --cap applies to the population engine")
    if args.engine == "spine" and args.format == "csv":
        raise RgwError("the spine engine emits an estimate; use --format json")
    params = _resolve_params(args)
    config = _sim_config(args)
    initial = _parse_initial(args.initial)
    cfg = _base_config(params, n=args.n, seed=args.seed, replicas=args.replicas,
                       cap=config.population_cap, initial=args.initial, engine=args.engine)
    if args.engine == "spine":
        est = sim.simulate_spine(params, args.n, config, initial=initial)
    else:
        result = sim.simulate_rgw(params, args.n, config, initial=initial)
        if args.format == "csv":
            # NaN marks the generations after a replica hit the cap: a suffix
            rows = ((r, g, v) for r, zr in enumerate(result.z.tolist())
                    for g, v in enumerate(zr) if v == v)
            return _write(args, cfg, None, (("replica", "generation", "Z"), rows))
        est = result.estimate(args.n)
    return _write(args, cfg, {"estimate": {**dataclasses.asdict(est), "seed": args.seed}})


def _cmd_yule(args) -> int:
    if (args.c is None) != (args.ell is None):
        raise RgwError("--c and --ell must be given together")
    if args.c is not None and args.format == "csv":
        raise RgwError("the functional estimate is JSON only; use --format json")
    if args.c is not None and args.initial != "law":
        raise RgwError("the functional starts from --ell; --initial does not apply with --c")
    params = _resolve_params(args)
    config = _sim_config(args)
    cfg = _base_config(params, t=args.t, seed=args.seed, replicas=args.replicas,
                       cap=config.population_cap, initial=args.initial)
    if args.c is not None:
        cfg.update(c=args.c, ell=args.ell)
        est = sim.estimate_yule_functional(params, args.ell, args.c, args.t, config)
        return _write(args, cfg, {"estimate": {**dataclasses.asdict(est), "seed": args.seed}})
    res = sim.simulate_yule(params, args.t, config, initial=_parse_initial(args.initial))
    totals = res.totals
    freq = np.bincount(totals)
    population = {
        "mean": float(totals.mean()),
        "expected_mean": math.exp(args.t),
        "capped_fraction": float(res.capped.mean()),
        "histogram": {str(k): int(v) for k, v in enumerate(freq) if v > 0},
        "type_means": {str(j): float(res.counts[:, i].mean()) for i, j in enumerate(res.support)},
    }
    header = ("replica", *(f"Y_{j}" for j in res.support))
    rows = ((r, *row) for r, row in enumerate(res.counts.tolist()))
    return _write(args, cfg, {"population": population}, (header, rows))


def _cmd_ode_check(args) -> int:
    if args.weights and args.c is not None:
        raise RgwError("--weights and --c exclude each other")
    params = _resolve_params(args)
    if args.weights:
        a = analytic.weights_from_map(params.law, parse_pairs(args.weights))
    elif args.c is not None:
        a = analytic.constant_weights(params.law, args.c)
    else:
        a = analytic.critical_weights(params)
    ctx = analytic.AnalyticContext(params, a)
    rho = ctx.explosion_time
    t_hi = args.t if args.t is not None else (0.9 * rho if math.isfinite(rho) else 4.0)
    if t_hi >= rho:
        raise RgwError(f"--t must be below the explosion time {rho:.6g}")
    analytic.flow(ctx, t_hi)  # the closed form needs a flow point at the user's t
    cfg = _base_config(params, t_max=t_hi, rel_tol=args.rel_tol,
                       weights={str(j): a[j] for j in a.support})
    ts = np.linspace(0.0, t_hi, 33)
    sol = ode.integrate_M(params, a, float(ts[-1]), rel_tol=args.rel_tol, t_eval=ts)
    if args.format == "csv":
        header = ("t", *(f"M_{j}" for j in sol.support))
        rows = ((t, *row) for t, row in zip(sol.grid.tolist(), sol.values.tolist()))
        return _write(args, cfg, None, (header, rows))
    s_hi = 0.72 / float(np.max(np.abs(sol.values)))
    residual = ode.pde_residual_G(params, a, np.linspace(0.0, t_hi, 21),
                                  np.linspace(0.0, s_hi, 21), rel_tol=args.rel_tol)
    pos = [j for j in a.support if a[j] > 0]
    jlo = min(pos, key=lambda j: a[j])
    jhi = max(pos, key=lambda j: a[j])
    return _write(args, cfg, {"ode": {
        "explosion_time": rho,
        "criticality": ctx.criticality,
        "sup_rel_err_vs_closed_form": ode.closed_form_error(sol, ctx),
        "pde_residual_21x21": residual,
        "ratio_monotone": ode.ratio_monotonicity_check(sol, jlo, jhi),
        "accepted_steps": sol.accepted,
        "rejected_steps": sol.rejected,
    }})


def _cmd_asymptotics(args) -> int:
    if args.format == "csv":
        raise RgwError("asymptotics is JSON only; use --format json")
    if args.n is not None and args.n < 8:
        raise RgwError(f"--n must be at least 8, the first trend point, got {args.n}")
    if args.n is not None and args.ell == 0:
        raise RgwError("--ell 0 has no trend: from a root with no children E[Z(n)] = 0")
    params = _resolve_params(args)
    prof = analytic.malthusian_rate(params)
    try:
        gam = analytic.gamma_constant(params)
    except NotConverged:  # the flow route has not settled by its horizon cap
        gam = None
    ells = [args.ell] if args.ell is not None else list(params.law.support)
    limits = {str(ell): analytic.conditional_limit_constant(params, ell) for ell in ells}
    asymptotics = {
        "m": prof.m,
        "beta": prof.beta,
        "error_exponent": prof.error_exponent,
        "mean_limit": prof.mean_limit,
        "gamma": gam,
        "gamma_closed_form": analytic.gamma_closed_form(params),
        "conditional_limits": limits,
    }
    if args.n is not None:
        trend = {}
        for ell in ells:
            if ell == 0:
                continue
            table = exact.spine_dp(params, args.n, initial=ell, scale=prof.m)
            pts = [2**k for k in range(3, 40) if 2**k <= args.n]
            trend[str(ell)] = {
                str(n): float(n**prof.error_exponent * table.scaled[n]) for n in pts
            }
        asymptotics["scaled_trend"] = trend
    return _write(args, _base_config(params), {"asymptotics": asymptotics})


def _cmd_verify(args) -> int:
    results, timings = verify.run_suite(args.suite, args.seed)
    passed = all(r.passed for r in results)
    if args.format == "json":
        rows = [{"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results]
        _write(args, {"suite": args.suite, "seed": args.seed}, {"results": rows, "passed": passed})
    else:
        _emit(verify.format_report(results, args.suite, args.seed), args.out)
    if args.timings:
        _emit(_json_text(timings), args.timings)
    return 0 if passed else 2


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="rgw", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, need_sim=False):
        _add_law_args(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="output path (default: stdout)")
        if need_sim:
            p.add_argument("--replicas", type=int, default=10000)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--cap", type=int,
                           help="population cap of the population and Yule engines "
                                f"(default {sim.SimConfig.population_cap})")
            p.add_argument("--initial", default="law",
                           help='"law" or a support point (measure P vs P_ell)')

    p = sub.add_parser("rate", help="growth rate, exponent, bounds")
    common(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("moments", help="exact E[Z(n)] tables from the generating function")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--initial", default="law")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("simulate", help="Monte Carlo population / lineage runs")
    common(p, need_sim=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", choices=("population", "spine"), default="population")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("yule", help="typed pure-birth simulation and functionals")
    common(p, need_sim=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--c", type=float)
    p.add_argument("--ell", type=int)
    p.set_defaults(func=_cmd_yule)

    p = sub.add_parser("ode-check", help="moment ODE vs closed forms, PDE residual")
    common(p)
    p.add_argument("--t", type=float, help="horizon (default 0.9 * explosion time)")
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--weights", help='custom weights "j:a,..."')
    p.add_argument("--c", type=float, help="constant weights a_j = c")
    p.set_defaults(func=_cmd_ode_check)

    p = sub.add_parser("asymptotics", help="gamma and conditional limit constants")
    common(p)
    p.add_argument("--ell", type=int)
    p.add_argument("--n", type=int, help="include DP trend up to n")
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=verify.SUITE_ORDER + ("all",))
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.add_argument("--timings", help="write each check's wall time in seconds as JSON")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RgwError as exc:
        print(f"rgw: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
