"""Benchmark entry point for openqnet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload repetition runs in a fresh
child process (perfbench/child.py) with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set to 1 in the child's environment only, importing the
package from ``src/``. Every repetition does the same, fixed amount of
work; ``--seconds`` only sets how many repetitions a run makes, from a
fixed estimate of one repetition's cost, so two commits always do the
same work.

Timings are given at reference host speed. The child times a fixed
calibration kernel that does not touch openqnet when set-up ends, after
every op and every 50 ms inside an op; each timing is multiplied by
CAL_REF_S over the kernel's time around it (for an op, the mean of the
samples just before, inside and just after it; for set-up and the time
between ops, the repetition's median sample). On a shared VM the host's
speed drifts by up to a factor of two for minutes at a time; the kernel
slows with it nearly as much as the ops, so the ratio drifts far less
(see README.md). Each op's latency is then its median over the
repetitions, and ``setup_s`` and ``peak_rss_mb`` are medians too. The raw
figures are printed on the lines before the result.

Workloads (closed loop, one single-threaded client, seeded inputs):

- ``datasets``: every CSV subcommand through ``openqnet.cli.main`` at
  N=50, checked against perfbench/reference/datasets.json. The product
  path: one scalar call per grid point per K, flow weights only from the
  propagator, no Choi matrix, no oracle, no scipy function.
- ``positivity_map``: library ops over seeded intervals at N=30, K
  stratified over 1..15 (build_propagator, apply, completeness_residual,
  classify), with orbit, completeness and three-route checks. The dense
  Choi route does nearly all the work; no CLI, no oracle.
- ``verify``: ``openqnet verify --n 8`` through ``cli.main``; every check
  must PASS. The only workload that runs the oracles, and it uses
  ``classify`` as an oracle too.

With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json. With ``--trace 1`` it alternates untraced and traced
repetitions, adds ``python -X importtime`` children, and reports the
per-layer metrics. The last stdout line is one JSON object; the lines
before it name every metric with its unit and record the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("datasets", "positivity_map", "verify")
# Wall seconds of one untraced repetition, set-up and checks included, on
# the 2-vCPU Xeon VM the benchmark was written on (in its fast periods;
# slow periods take up to 1.5 times as long). Sets the repetition count
# from --seconds.
REP_COST_S = {"datasets": 2.5, "positivity_map": 3.0, "verify": 4.0}
MIN_REPS = 3
# Median time of child.calibration_kernel in the fast periods of that VM
# (2 ms in its slow ones). Scaled timings read as on that host when fast.
CAL_REF_S = 1.2e-3
MIN_TRACED_REPS = 2
IMPORTTIME_REPS = 3
DEADLINE_S = 170.0
IMPORT_PACKAGES = ("scipy", "numpy", "click", "openqnet")
# build_propagator spans under these callers keep only the flow weight and
# throw the (K+1)^2 block away.
BLOCK_DISCARDING = {"propagator.flow_amplitude", "inference.conservation_residual"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before every repetition ran")
    try:
        return subprocess.run(args, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"child exceeded the run deadline: {' '.join(args)}") from exc


def repetition(workload: str, seed: int, tmp: str, env: dict, deadline: float, spans: str | None) -> dict:
    args = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), "", tmp]
    if spans is not None:
        args.append(spans)
    args[4] = str(monotonic_ns())  # setup_s starts here
    proc = run_child(args, env, deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def import_times(env: dict, deadline: float) -> dict[str, float]:
    """Seconds of ``import openqnet.cli`` spent in each top-level package.

    Sums the self times that ``-X importtime`` reports, by the first dotted
    component of each module name, so the shares add up to the whole import.
    """
    totals = {p: 0.0 for p in IMPORT_PACKAGES}
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import openqnet.cli"], env, deadline)
    if proc.returncode != 0:
        raise BenchError(f"import openqnet.cli failed:\n{proc.stderr[-2000:]}")
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the column header
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) * 1e-6
    return totals


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def scaled_ops(rep: dict) -> list[float]:
    """The repetition's op times at reference speed."""
    cal, inside = rep["cal_s"], rep["op_cal_s"]
    if not len(cal) == len(inside) + 1 == len(rep["op_s"]) + 1:
        raise BenchError("the child did not time the kernel beside every op")
    return [op * CAL_REF_S / statistics.fmean([cal[i], cal[i + 1], *inside[i]])
            for i, op in enumerate(rep["op_s"])]


def all_samples(rep: dict) -> list[float]:
    return rep["cal_s"] + [c for inside in rep["op_cal_s"] for c in inside]


def scaled_setup(rep: dict) -> float:
    """Set-up time at reference speed, scaled by the repetition's median kernel time.

    The host's slow periods last longer than a repetition; scaling by a
    few samples taken right after set-up instead was no steadier.
    """
    return rep["setup_s"] * CAL_REF_S / statistics.median(all_samples(rep))


def op_latencies(reps: list[dict]) -> list[float]:
    """Each op's median latency at reference speed over the repetitions.

    Every repetition makes the same ops in the same order. The scaling
    takes out the slow drift of the host's speed; the median takes out the
    bursts of a few seconds that slow one op more than the kernel beside it.
    """
    if len({len(r["op_s"]) for r in reps}) != 1:
        raise BenchError("repetitions made different numbers of ops")
    return [statistics.median(column) for column in zip(*(scaled_ops(r) for r in reps))]


def wall(reps: list[dict]) -> float:
    """Sum of the ops' latencies plus the median time between ops, scaled."""
    between = statistics.median(
        (r["wall_s"] - math.fsum(r["op_s"])) * CAL_REF_S / statistics.median(all_samples(r)) for r in reps
    )
    return math.fsum(op_latencies(reps)) + between


def raw_figures(reps: list[dict]) -> dict[str, float]:
    """Unscaled medians over the repetitions, printed for reference only."""
    med = statistics.median
    return {
        "calibration_ms": 1e3 * med(c for r in reps for c in all_samples(r)),
        "setup_s": med(r["setup_s"] for r in reps),
        "wall_s": med(r["wall_s"] for r in reps),
    }


def end_to_end(reps: list[dict]) -> dict[str, float]:
    latencies = op_latencies(reps)
    return {
        "setup_s": statistics.median(scaled_setup(r) for r in reps),
        "wall_s": wall(reps),
        "op_p50_ms": 1e3 * quantile(latencies, 0.5),
        "op_p90_ms": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(traced: list[tuple[dict, dict]], plain: list[dict], imports: list[dict]) -> dict[str, float]:
    import child
    import tracer

    med = statistics.median
    values: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        values.setdefault(name, []).append(value)

    for rep, spans in traced:
        stats = tracer.rollup(spans)
        modules: dict[str, dict[str, float]] = {}
        for label, s in stats.items():
            sums = modules.setdefault(label.split(".")[0], {"calls": 0, "errors": 0, "self_s": 0.0})
            for key in sums:
                sums[key] += s[key]
        for module, sums in modules.items():
            for key, value in sums.items():
                add(f"{module}.{key}", value)
        for label, s in stats.items():
            add(f"{label}.calls", s["calls"])
            add(f"{label}.self_s", s["self_s"])
            if label.startswith("verification.check_"):
                add(f"{label}.s", s["total_s"])
        add("propagator.block_discarded_frac",
            tracer.parent_share(spans, "propagator.build_propagator", BLOCK_DISCARDING))
        add("positivity.choi_bytes_computed", spans["counts"].get("positivity.choi_bytes_computed", 0))
        add("cli.csv_cells", rep["csv_cells"])
        add("cli.csv_bytes", rep["csv_bytes"])
        # Kernel time is not part of wall_s.
        covered = sum(s["self_s"] for label, s in stats.items() if label != child.KERNEL_SPAN)
        add("trace.self_cover_frac", covered / rep["wall_s"])
    for times in imports:
        for package, seconds in times.items():
            add(f"import.{package}_s", seconds)
    out = {name: med(v) for name, v in values.items()}
    out["trace.wall_s"] = wall([rep for rep, _ in traced])
    out["trace.overhead_frac"] = out["trace.wall_s"] / wall(plain) - 1.0
    return out


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if not os.path.isfile(os.path.join(root, "src", "openqnet", "__init__.py")):
        print("no src/openqnet here: run from the root of an openqnet checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    reps = max(MIN_REPS, round(opts.seconds / REP_COST_S[opts.workload]))
    tmp = os.path.join(root, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        plain, traced, imports = [], [], []
        if opts.trace:
            import tracer

            for i in range(max(MIN_TRACED_REPS, reps // 2)):
                plain.append(repetition(opts.workload, opts.seed, tmp, env, deadline, None))
                path = os.path.join(tmp, f"spans-{i}.npz")
                rep = repetition(opts.workload, opts.seed, tmp, env, deadline, path)
                traced.append((rep, tracer.load(path)))
                os.remove(path)
            imports = [import_times(env, deadline) for _ in range(IMPORTTIME_REPS)]
        else:
            plain = [repetition(opts.workload, opts.seed, tmp, env, deadline, None) for _ in range(reps)]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run still uses it

    every = plain + [rep for rep, _ in traced]
    failures = [f for rep in every for f in rep["failures"]]
    known = [f for rep in every for f in rep["known_defects"]]
    attempted = sum(rep["attempted"] for rep in every)
    if opts.trace:
        values = per_layer(traced, plain, imports)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(plain)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    env_record = {**machine(), **every[0]["env"], "workload": opts.workload, "seed": opts.seed,
                  "repetitions": len(plain), "traced_repetitions": len(traced)}
    print("environment " + json.dumps(env_record))
    for label, found in (("FAILED", failures), ("known defect", known)):
        for failure in sorted(set(found)):
            print(f"{label} ({found.count(failure)}x): {failure}")
    failed = len(failures) + len(known)
    print(f"ops attempted {attempted}, failed {failed} (failed_frac {failed / attempted:.4f})")
    print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in raw_figures(every).items())
          + f" (CAL_REF_S {CAL_REF_S * 1e3:g} ms)")
    for name, metric in metrics.items():
        print(f"{opts.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    # A known-defect probe that fails is counted, not wrong; anything else is.
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
