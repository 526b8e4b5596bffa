"""Reference figures: one untraced and one traced run of every workload.

    python3 perfbench/reference.py --seed 1 --seconds 10

Run from the root of the source tree.  Prints Markdown tables of the
end-to-end metrics, of the per-layer metrics each workload moves (zeros
left out), and of the tracing overhead: the traced run's median round wall
time minus the untraced run's wall_s.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    plain, traced, overhead = {}, {}, {}
    for w in names:
        plain[w] = run(w, args.seed, args.seconds, 0)
        traced[w] = run(w, args.seed, args.seconds, 1)
        with open(os.path.join(HERE, "out", f"trace-{w}-seed{args.seed}.json"),
                  encoding="utf-8") as fh:
            walls = json.load(fh)["round_wall_s"]
        overhead[w] = statistics.median(walls) - plain[w]["metrics"]["wall_s"]["value"]

    e2e = [m["name"] for m in bench["end_to_end"]]
    print(f"seed {args.seed}, --seconds {args.seconds}\n")
    print("| workload | " + " | ".join(e2e) + " | attempted | failed | tracing overhead (s) |")
    print("|---" * (len(e2e) + 4) + "|")
    for w in names:
        m = plain[w]["metrics"]
        cells = [f"{m[k]['value']:.4g}" for k in e2e]
        print(f"| {w} | " + " | ".join(cells)
              + f" | {plain[w]['attempted']} | {plain[w]['failed']} | {overhead[w]:+.3g} |")
    print("\n| metric | unit | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 2) + "|")
    for metric in bench["per_layer"]:
        row = [traced[w]["metrics"][metric["name"]]["value"] for w in names]
        if any(row):
            print(f"| {metric['name']} | {metric['unit']} | "
                  + " | ".join(f"{v:.4g}" if v else "" for v in row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
