"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--seeds 10] [--first-seed 0] [--workloads a,b]
                               [--trace] [--label NAME --out perfbench/trajectory.json]

Run from the repository root. For every workload it makes one run per seed
with the run length from BENCHMARK.json and prints, per end-to-end metric,
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
their distance as a share of the median, next to a third of the metric's
bound (a steady benchmark stays below it). With ``--trace`` it adds one
traced run per workload for the per-layer metrics. With ``--out`` it
appends the results as one labelled point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    args = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(l[len("environment "):]) for l in lines if l.startswith("environment "))
    for key in ("workload", "seed", "repetitions", "traced_repetitions"):
        env.pop(key, None)  # per run, not per machine
    return json.loads(lines[-1]), env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--label", default=None)
    parser.add_argument("--out", default=None)
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in spec["workloads"]]
    seeds = list(range(opts.first_seed, opts.first_seed + opts.seeds))
    point = {"label": opts.label, "date": datetime.date.today().isoformat(),
             "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        results = []
        for seed in seeds:
            result, env = run(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        point["environment"] = env
        summary = {"correct": all(r["correct"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results), "metrics": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            summary["metrics"][name] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "values": values}
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"  {workload} {name}: median {med:.5g} {metric['unit']}, "
                  f"IQR/median {spread:.4f} (bound/3 {metric['bound'] / 3:.4f}) {flag}", flush=True)
        if opts.trace:
            traced, _ = run(workload, seeds[0], spec["run_seconds"], 1)
            summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][workload] = summary
    if opts.out:
        trajectory = []
        if os.path.exists(opts.out):
            with open(opts.out, encoding="utf-8") as handle:
                trajectory = json.load(handle)
        trajectory.append(point)
        with open(opts.out, "w", encoding="utf-8") as handle:
            json.dump(trajectory, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
