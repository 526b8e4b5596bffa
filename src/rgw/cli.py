"""Command-line front end: reports from every module, JSON or CSV.

Numeric output is printed with 12 significant digits and every subcommand
echoes its fully resolved configuration, so identical invocations produce
byte-identical reports (timestamps and wall-clock never appear).

Exit codes: 0 success, 1 validation/usage error, 2 verification failure.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import sys

import numpy as np

from . import analytic, exact, ode, sim, verify
from .errors import RgwError
from .model import ModelParams, load_params, params_to_dict, parse_law


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    verification failures, so remap usage problems to exit 1.  Every error,
    a subcommand's too, is reported as "rgw: error: ..."."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"rgw: error: {message}\n")


def _round12(x: float) -> float:
    if isinstance(x, float) and math.isfinite(x):
        return float(f"{x:.12g}")
    return x


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return _round12(x) if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit(json.dumps(_jsonify(payload), indent=2) + "\n", out_path)


def _csv_header(config: dict) -> str:
    keys = sorted(config)
    return "".join(f"# {k}={config[k]}\n" for k in keys)


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
    prof = analytic.malthusian_rate(params)
    a = analytic.linear_weights(params.law)
    rho = analytic.explosion_time(params, a)
    payload = {
        "config": _base_config(params, quadrature_rel_tol=1e-11),
        "rate": {
            "m": prof.m,
            "log_m": prof.log_m,
            "beta": prof.beta,
            "mean_limit": prof.mean_limit,
            "error_exponent": prof.error_exponent,
            "lower": prof.lower,
            "upper": prof.upper,
            "explosion_time_linear_weights": rho if math.isfinite(rho) else "inf",
        },
    }
    if args.format == "csv":
        buf = io.StringIO()
        buf.write(_csv_header(payload["config"]))
        buf.write("key,value\n")
        for k, v in payload["rate"].items():
            buf.write(f"{k},{v:.12g}\n" if isinstance(v, float) else f"{k},{v}\n")
        _emit(buf.getvalue(), args.out)
    else:
        _emit_json(payload, args.out)
    return 0


def _cmd_moments(args) -> int:
    params = _resolve_params(args)
    initial = _parse_initial(args.initial)
    if args.method == "urn":
        if initial != "law":
            raise RgwError("the urn method computes the law-initial measure only")
        table = exact.urn_dp(params, args.n)
    else:
        table = exact.spine_dp(params, args.n, initial=initial)
    config = _base_config(params, n=args.n, initial=args.initial,
                          method=args.method, scale=_round12(table.scale))
    if args.format == "csv":
        buf = io.StringIO()
        buf.write(_csv_header(config))
        table.to_csv(buf)
        _emit(buf.getvalue(), args.out)
    else:
        rows = [
            {"n": n, "EZ": ez, "scaled": sc}
            for n, (ez, sc) in enumerate(zip(table.values, table.scaled))
        ]
        _emit_json({"config": config, "moments": rows}, args.out)
    return 0


def _cmd_simulate(args) -> int:
    params = _resolve_params(args)
    config = sim.SimConfig(seed=args.seed, replicas=args.replicas,
                           population_cap=args.cap)
    initial = _parse_initial(args.initial)
    cfg = _base_config(params, n=args.n, seed=args.seed, replicas=args.replicas,
                       cap=args.cap, initial=args.initial, engine=args.engine)
    if args.engine == "spine":
        if args.format == "csv":
            raise RgwError("the spine engine emits an estimate; use --format json")
        est = sim.simulate_spine(params, args.n, config, initial=initial)
        _emit_json({"config": cfg, "estimate": est.to_dict(seed=args.seed)}, args.out)
        return 0
    result = sim.simulate_rgw(params, args.n, config, initial=initial)
    if args.format == "csv":
        buf = io.StringIO()
        buf.write(_csv_header(cfg))
        result.to_csv(buf)
        _emit(buf.getvalue(), args.out)
    else:
        est = result.estimate(args.n)
        _emit_json({"config": cfg, "estimate": est.to_dict(seed=args.seed)}, args.out)
    return 0


def _cmd_yule(args) -> int:
    params = _resolve_params(args)
    config = sim.SimConfig(seed=args.seed, replicas=args.replicas,
                           population_cap=args.cap)
    cfg = _base_config(params, t=args.t, seed=args.seed, replicas=args.replicas,
                       cap=args.cap, initial=args.initial)
    if (args.c is None) != (args.ell is None):
        raise RgwError("--c and --ell must be given together")
    if args.c is not None:
        cfg.update(c=args.c, ell=args.ell)
        est = sim.estimate_yule_functional(params, args.ell, args.c, args.t, config)
        _emit_json({"config": cfg, "estimate": est.to_dict(seed=args.seed)}, args.out)
        return 0
    initial = _parse_initial(args.initial)
    res = sim.simulate_yule(params, args.t, config, initial=initial)
    if args.format == "csv":
        buf = io.StringIO()
        buf.write(_csv_header(cfg))
        res.to_csv(buf)
        _emit(buf.getvalue(), args.out)
        return 0
    totals = res.totals
    freq = np.bincount(totals)
    payload = {
        "config": cfg,
        "population": {
            "mean": float(totals.mean()),
            "expected_mean": math.exp(args.t),
            "capped_fraction": float(res.capped.mean()),
            "histogram": {str(k): int(v) for k, v in enumerate(freq) if v > 0},
            "type_means": {
                str(j): float(res.counts[:, i].mean())
                for i, j in enumerate(res.support)
            },
        },
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_ode_check(args) -> int:
    params = _resolve_params(args)
    if args.weights:
        mapping = {}
        for item in args.weights.split(","):
            try:
                k, v = item.split(":")
                mapping[int(k)] = float(v)
            except ValueError:
                raise RgwError(f'--weights expects "j:a,...", got {item!r}') from None
        a = analytic.weights_from_map(params.law, mapping)
    elif args.c is not None:
        a = analytic.constant_weights(params.law, args.c)
    else:
        a = analytic.critical_weights(params)
    ctx = analytic.AnalyticContext(params, a)
    rho = ctx.explosion_time
    t_hi = args.t if args.t is not None else (0.9 * rho if math.isfinite(rho) else 4.0)
    if t_hi >= rho:
        raise RgwError(f"--t must be below the explosion time {rho:.6g}")
    cfg = _base_config(params, t_max=_round12(t_hi), rel_tol=args.rel_tol,
                       weights={str(j): _round12(a[j]) for j in a.support})
    ts = np.linspace(0.0, t_hi, 33)
    sol = ode.integrate_M(params, a, float(ts[-1]), rel_tol=args.rel_tol, t_eval=ts)
    if args.format == "csv":
        buf = io.StringIO()
        buf.write(_csv_header(cfg))
        sol.to_csv(buf)
        _emit(buf.getvalue(), args.out)
        return 0
    s_hi = 0.72 / float(np.max(np.abs(sol.values)))
    residual = ode.pde_residual_G(params, a, np.linspace(0.0, t_hi, 21),
                                  np.linspace(0.0, s_hi, 21), rel_tol=args.rel_tol)
    pos = [j for j in a.support if a[j] > 0]
    jlo = min(pos, key=lambda j: a[j])
    jhi = max(pos, key=lambda j: a[j])
    payload = {
        "config": cfg,
        "ode": {
            "explosion_time": rho if math.isfinite(rho) else "inf",
            "criticality": ctx.criticality,
            "sup_rel_err_vs_closed_form": ode.closed_form_error(sol, ctx),
            "pde_residual_21x21": residual,
            "ratio_monotone": ode.ratio_monotonicity_check(sol, jlo, jhi),
            "accepted_steps": sol.accepted,
            "rejected_steps": sol.rejected,
        },
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_asymptotics(args) -> int:
    params = _resolve_params(args)
    prof = analytic.malthusian_rate(params)
    gam = analytic.gamma_constant(params)
    ells = [args.ell] if args.ell is not None else list(params.law.support)
    limits = {str(ell): analytic.conditional_limit_constant(params, ell) for ell in ells}
    payload = {
        "config": _base_config(params, gamma_tail_tol=1e-9),
        "asymptotics": {
            "m": prof.m,
            "beta": prof.beta,
            "error_exponent": prof.error_exponent,
            "mean_limit": prof.mean_limit,
            "gamma": gam,
            "gamma_closed_form": analytic.gamma_closed_form(params),
            "conditional_limits": limits,
        },
    }
    if args.n:
        trend = {}
        for ell in ells:
            if ell == 0:
                continue
            table = exact.spine_dp(params, args.n, initial=ell, scale=prof.m)
            pts = [2**k for k in range(3, 40) if 2**k <= args.n]
            trend[str(ell)] = {
                str(n): float(n**prof.error_exponent * table.scaled[n]) for n in pts
            }
        payload["asymptotics"]["scaled_trend"] = trend
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    results, _ = verify.run_suite(args.suite, args.seed)
    if args.format == "json":
        payload = {
            "config": {"suite": args.suite, "seed": args.seed},
            "results": [
                {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": all(r.passed for r in results),
        }
        _emit_json(payload, args.out)
    else:
        _emit(verify.format_report(results, args.suite, args.seed), args.out)
    return 0 if all(r.passed for r in results) else 2


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
            p.add_argument("--cap", type=int, default=10**6)
            p.add_argument("--initial", default="law",
                           help='"law" or a support point (measure P vs P_ell)')

    p = sub.add_parser("rate", help="growth rate, exponent, bounds")
    common(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("moments", help="exact E[Z(n)] tables (two DP routes)")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--initial", default="law")
    p.add_argument("--method", choices=("spine", "urn"), default="spine")
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
