"""Benchmark of rgw: one workload per run, measured end to end or traced.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

Run from the root of a source tree holding src/rgw.  The run imports rgw
from that tree, builds the workload's inputs from --seed, and repeats whole
rounds of the workload's operations until they have taken --seconds.  It
checks every output and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end figures (setup_s, wall_s,
cpu_s, peak_rss_mb); with --trace 1 they are the per-layer figures from
spans.py, and the spans go to perfbench/out/trace-<workload>-seed<n>.json.
The run pins RGW_THREADS unset and every BLAS pool at one thread.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}
# setup_s is the median over this many fresh interpreters (the run's own
# import counts as one): a single import varies by 10-30 % on a shared host
IMPORT_SAMPLES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import rgw, rgw.cli; "
                "print(time.perf_counter() - t); print(rgw.__file__)")


def _timed_import() -> float:
    t0 = time.perf_counter()
    import rgw  # noqa: F401
    import rgw.cli  # noqa: F401
    return time.perf_counter() - t0


def _fresh_import() -> float:
    import subprocess

    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = proc.stdout.split("\n")[:2]
    if not path.startswith(SRC + os.sep):
        raise RuntimeError(f"fresh interpreter imported rgw from {path}")
    return float(seconds)


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "rgw", "__init__.py")):
        log(f"no rgw sources under {SRC}")
        return 2
    os.environ.update(PINNED_ENV)
    os.environ.pop("RGW_THREADS", None)
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    first_import = _timed_import()

    import argparse
    import gc
    import json
    import resource
    import statistics

    import rgw
    import spans
    import workloads

    if not rgw.__file__.startswith(SRC + os.sep):
        raise RuntimeError(f"imported rgw from {rgw.__file__}")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    imports = [first_import]
    if not args.trace:
        imports += [_fresh_import() for _ in range(IMPORT_SAMPLES - 1)]
    t0 = time.perf_counter()
    ops = workloads.WORKLOADS[args.workload](args.seed, os.path.join(OUT, args.workload))
    setup_s = statistics.median(imports) + time.perf_counter() - t0

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    t_origin = time.perf_counter()
    walls, cpus, round_counts, round_bytes = [], [], [], []
    digests: dict[str, bytes | None] = {}
    attempted = failed = 0
    correct = True
    while not walls or sum(walls) < args.seconds:
        before = dict(tracer.counts)
        gc.collect()
        tracer.active = bool(args.trace)
        w0, c0 = time.perf_counter(), time.process_time()
        outputs, raised = {}, {}
        for op in ops:
            try:
                outputs[op.name] = op.call(outputs)
            except Exception as exc:  # an operation that raises counts as failed
                raised[op.name] = exc
        w1, c1 = time.perf_counter(), time.process_time()
        tracer.active = False
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        round_counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
        round_bytes.append(sum(out.output_bytes() for out in outputs.values()
                               if isinstance(out, workloads.CliRun)))
        attempted += len(ops)
        failed += len(raised)
        for name, exc in raised.items():
            log(f"{name} raised {exc!r}")
        wrong = _check_round(ops, outputs, raised, digests)
        failed += wrong
        correct &= wrong == 0

    rounds = len(walls)
    if any(c != round_counts[0] for c in round_counts) or len(set(round_bytes)) > 1:
        correct = False
        log(f"work counts differ between rounds: {round_counts}, {round_bytes}")
    log(f"{args.workload} seed={args.seed}: {rounds} rounds, wall per round "
        + " ".join(f"{w:.3f}" for w in walls) + "; imports " + " ".join(f"{t:.3f}" for t in imports))

    if args.trace:
        values = spans.layer_metrics(tracer, rounds, round_bytes[0])
        metrics = {name: {"value": v, "unit": spans.unit(name)} for name, v in values.items()}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                       "round_wall_s": walls, "round_cpu_s": cpus,
                       "counts_per_round": round_counts[0],
                       "spans": tracer.spans(t_origin)}, fh, indent=1)
        tracer.uninstall()
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _check_round(ops, outputs: dict, raised: dict, digests: dict) -> int:
    """Check one round's outputs; returns how many operations failed.

    In round 1 (digests empty) every output meets its check; later rounds
    must repeat round 1's outputs bit for bit.
    """
    import workloads
    from checks import CheckFailed

    first = not digests
    wrong = 0
    for op in ops:
        if op.name in raised:
            digests.setdefault(op.name, None)
            continue
        out = outputs[op.name]
        try:
            if first:
                op.check(out, outputs)
            digest = workloads.fingerprint(op.key(out))
            if first:
                digests[op.name] = digest
            elif digests[op.name] is None:
                raise CheckFailed("failed in round 1")
            elif digest != digests[op.name]:
                raise CheckFailed("output differs from round 1")
        except Exception as exc:  # a check that cannot run fails its operation
            wrong += 1
            digests[op.name] = None
            log(f"{op.name}: {exc}")
    return wrong


if __name__ == "__main__":
    sys.exit(main())
