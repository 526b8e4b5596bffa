"""Spans around calls into rgw's layers, recorded from outside the package.

Tracer.install replaces module attributes such as rgw.sim.uniforms and
rgw.exact.spine_dp with timing wrappers; rgw's own modules look these names
up at call time, so their internal calls are timed too.  No file of rgw
changes.

A span record is (name, start, end, parent, calls, busy_s).  Consecutive
calls of one function under the same parent share a record, so a loop that
draws a million scalar variates costs one record instead of a million, and
end - start then covers the whole run of calls while busy_s sums the calls
themselves.  A record's self time is busy_s minus the busy_s of its child
records.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import numpy as np

import oracles


class Tracer:
    def __init__(self):
        self.records: list[list] = []       # [name, start, end, parent, calls, busy_s]
        self._last_child: dict[int, int] = {}
        self._stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.check_timings: Counter = Counter()
        self.active = False
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1]
        idx = self._last_child.get(parent)
        if idx is None or self.records[idx][0] != name:
            idx = len(self.records)
            self.records.append([name, None, None, parent, 0, 0.0])
            self._last_child[parent] = idx
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        rec = self.records[idx]
        if rec[1] is None:
            rec[1] = t0
        rec[2] = t1
        rec[4] += 1
        rec[5] += t1 - t0

    def wrap(self, owner, attr: str, name: str, count=None, span: bool = True) -> None:
        """Time every call of owner.attr as span `name`.  count(counts, result,
        arguments) adds work counts, where arguments() binds the call's
        arguments by name.  With span=False the call is counted, not timed.
        Absent attributes are skipped, so a layer function that a later
        version removes reads as 0."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            return
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if span:
                idx = tracer._open(name)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, t0, time.perf_counter())
            else:
                out = fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, out, lambda: _bind(sig, args, kwargs))
            return out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- rgw's layers ---------------------------------------------------------

    def install(self) -> None:
        from rgw import analytic, cli, exact, ode, rng, sim, verify

        def variates(c, out, args):
            c["rng.variates"] += out.size

        def scalar(c, out, args):
            c["rng.scalar_stream.variates"] += 1

        # uniforms is imported by name into sim; ScalarStream reads rng's copy
        self.wrap(rng, "uniforms", "rng.uniforms", variates)
        self.wrap(sim, "uniforms", "rng.uniforms", variates)
        if hasattr(rng, "ScalarStream"):
            self.wrap(rng.ScalarStream, "u01", "rng.scalar_stream", scalar)

        def spine_steps(c, out, args):
            a = args()
            n = a["n"] if a["n"] is not None else a["config"].horizon
            c["sim.spine.replica_steps"] += a["config"].replicas * int(n)

        def individuals(c, out, args):
            c["sim.rgw.individuals"] += int(np.nansum(out.z))

        def events(c, out, args):
            c["sim.yule.events"] += int(out.counts.sum()) - out.counts.shape[0]

        self.wrap(sim, "simulate_spine", "sim.simulate_spine", spine_steps)
        self.wrap(sim, "simulate_rgw", "sim.simulate_rgw", individuals)
        self.wrap(sim, "simulate_yule", "sim.simulate_yule", events)
        self.wrap(sim, "estimate_yule_functional", "sim.estimate_yule_functional")

        def states(c, out, args):
            a = args()
            s = len(a["params"].law.positive_support)
            c["exact.spine_dp.states"] += oracles.composition_states(s, a["n_max"], a["initial"])

        def partitions(c, out, args):
            c["exact.urn_dp.partitions"] += oracles.partition_states(args()["n_max"])

        self.wrap(exact, "spine_dp", "exact.spine_dp", states)
        self.wrap(exact, "urn_dp", "exact.urn_dp", partitions)
        self.wrap(exact, "yule_functional_series", "exact.yule_functional_series")

        def contexts(c, out, args):
            c["analytic.contexts"] += 1

        # counted, not timed: the context's quadrature is the work of the
        # function that builds it (malthusian_rate, integrate_M, ...)
        self.wrap(analytic.AnalyticContext, "__init__", "analytic.context", contexts, span=False)
        for fn in ("malthusian_rate", "mgf_closed", "phi", "flow", "gamma_constant",
                   "conditional_limit_constant"):
            self.wrap(analytic, fn, f"analytic.{fn}")

        def steps(c, out, args):
            c["ode.steps"] += out.accepted + out.rejected

        self.wrap(ode, "integrate_M", "ode.integrate_M", steps)
        self.wrap(ode, "pde_residual_G", "ode.pde_residual_G")

        def check_times(c, out, args):
            for cid, seconds in out[1].items():
                self.check_timings[cid] += seconds

        self.wrap(verify, "run_suite", "verify.run_suite", check_times)
        self.wrap(cli, "main", "cli.main")

    # -- summaries ------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Busy time, self time and calls, summed over records by name."""
        busy, self_s, calls = Counter(), Counter(), Counter()
        for name, _, _, _, n, b in self.records:
            busy[name] += b
            self_s[name] += b
            calls[name] += n
        for name, _, _, parent, _, b in self.records:
            if parent >= 0:
                self_s[self.records[parent][0]] -= b
        return busy, self_s, calls

    def spans(self, t_origin: float) -> list[dict]:
        return [
            {"name": name, "start": start - t_origin, "end": end - t_origin,
             "parent": parent, "calls": n, "busy_s": b}
            for name, start, end, parent, n, b in self.records
        ]


def _bind(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


VERIFY_CHECK_IDS = ("c01", "c02", "c03", "c04", "c05", "c06", "c07", "c08", "c09",
                    "asy-phi", "c10", "c11", "c12", "c13", "c14")


def layer_metrics(tracer: Tracer, rounds: int, output_bytes: int) -> dict[str, float]:
    """Per-round figures for every layer; a layer the workload does not use
    reads 0.  Each *_per_s divides a count by the busy time of the spans that
    did the work, children included."""
    busy, self_s, calls = tracer.totals()
    counts = tracer.counts

    def per_round(x):
        return x / rounds

    def rate(count_key, span):
        return counts[count_key] / busy[span] if busy[span] > 0 else 0.0

    flow = [f"analytic.{f}" for f in ("mgf_closed", "phi", "flow")]
    flow_busy = sum(busy[f] for f in flow)
    m = {
        "rng.variates": per_round(counts["rng.variates"]),
        "rng.uniforms.self_s": per_round(self_s["rng.uniforms"]),
        "rng.variates_per_s": rate("rng.variates", "rng.uniforms"),
        "rng.scalar_stream.variates": per_round(counts["rng.scalar_stream.variates"]),
        "rng.scalar_stream.self_s": per_round(self_s["rng.scalar_stream"]),
        "sim.simulate_spine.self_s": per_round(self_s["sim.simulate_spine"]),
        "sim.spine.replica_steps": per_round(counts["sim.spine.replica_steps"]),
        "sim.spine.replica_steps_per_s": rate("sim.spine.replica_steps", "sim.simulate_spine"),
        "sim.simulate_rgw.self_s": per_round(self_s["sim.simulate_rgw"]),
        "sim.rgw.individuals": per_round(counts["sim.rgw.individuals"]),
        "sim.rgw.individuals_per_s": rate("sim.rgw.individuals", "sim.simulate_rgw"),
        "sim.simulate_yule.self_s": per_round(self_s["sim.simulate_yule"]),
        "sim.yule.events": per_round(counts["sim.yule.events"]),
        "sim.yule.events_per_s": rate("sim.yule.events", "sim.simulate_yule"),
        "sim.estimate_yule_functional.self_s": per_round(self_s["sim.estimate_yule_functional"]),
        "exact.spine_dp.self_s": per_round(self_s["exact.spine_dp"]),
        "exact.spine_dp.states": per_round(counts["exact.spine_dp.states"]),
        "exact.spine_dp.states_per_s": rate("exact.spine_dp.states", "exact.spine_dp"),
        "exact.urn_dp.self_s": per_round(self_s["exact.urn_dp"]),
        "exact.urn_dp.partitions": per_round(counts["exact.urn_dp.partitions"]),
        "exact.urn_dp.partitions_per_s": rate("exact.urn_dp.partitions", "exact.urn_dp"),
        "exact.yule_functional_series.self_s": per_round(self_s["exact.yule_functional_series"]),
        "analytic.malthusian_rate.calls": per_round(calls["analytic.malthusian_rate"]),
        "analytic.malthusian_rate.self_s": per_round(self_s["analytic.malthusian_rate"]),
        "analytic.rates_per_s": (calls["analytic.malthusian_rate"]
                                 / busy["analytic.malthusian_rate"]
                                 if busy["analytic.malthusian_rate"] > 0 else 0.0),
        "analytic.contexts": per_round(counts["analytic.contexts"]),
        "analytic.mgf_closed.calls": per_round(calls["analytic.mgf_closed"]),
        "analytic.mgf_closed.self_s": per_round(self_s["analytic.mgf_closed"]),
        "analytic.flow_points_per_s": (sum(calls[f] for f in flow) / flow_busy
                                       if flow_busy > 0 else 0.0),
        "analytic.gamma_constant.self_s": per_round(self_s["analytic.gamma_constant"]),
        "ode.integrate_M.self_s": per_round(self_s["ode.integrate_M"]),
        "ode.steps": per_round(counts["ode.steps"]),
        "ode.steps_per_s": rate("ode.steps", "ode.integrate_M"),
        "ode.pde_residual_G.self_s": per_round(self_s["ode.pde_residual_G"]),
    }
    for cid in VERIFY_CHECK_IDS:
        m[f"verify.{cid}_s"] = per_round(tracer.check_timings[cid])
    m["cli.self_s"] = per_round(self_s["cli.main"])
    m["cli.output_bytes"] = per_round(output_bytes)
    return m


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
