"""One repetition of one benchmark workload, in a fresh process.

Usage (run.py starts this; run it by hand only to debug a workload):

    PYTHONPATH=src python3 perfbench/child.py WORKLOAD SEED SPAWN_NS TMPDIR [SPANS]

``SPAWN_NS`` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process, so ``setup_s`` covers interpreter start, the
package import and workload preparation. With ``SPANS`` given, every public
function of ``openqnet`` is wrapped by the span recorder and the spans are
written there at exit.

A repetition is a timed body of ops that must all pass their checks,
followed by untimed probes: ops from the documented input domain that hit a
known defect at the time the benchmark was written. Probes are counted in
``attempted`` and ``failed`` like any op, so fixing a defect shows up as
fewer failures, but they stay out of the timings so that a fix does not
read as a slowdown. The last line on stdout is one JSON object.

The child also times a fixed calibration kernel (see
``calibration_kernel``): once when set-up ends, after each op and, in an
untraced repetition, every CAL_PERIOD_S inside an op from a SIGALRM
handler. The parent scales each timing by the kernel's times around it, so
that a host that runs everything slower for a while does not read as a
slower program. Kernel time is left out of op times and ``wall_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "datasets.json")

# The product path: every dataset subcommand at N=50. --steps is even so
# that the grid misses the K=25 singular anchor at the half-period.
DATASETS_STEPS = "500"
DATASETS_BODY = (
    ("amplitudes",),
    ("flow", "--dt", "0.05", "--k", "1..49"),
    ("bloch-traj", "--class", "1"),
    ("bloch-domain", "--class", "0", "--dt", "0.05"),
    ("entropy", "--class", "1", "--k", "1..50"),
    ("fisher", "--class", "1", "--k", "1..50"),
    ("fisher", "--class", "0", "--k", "1..49"),
    ("fisher-decomp", "--t1", "0.25"),
    ("infer", "--j", "0.7", "--dt", "0.05"),
)

# Known defects, documented domain: an uncaught ZeroDivisionError at N=2,
# and a singular request that must exit 3 and name t1.
FISHER_N2 = ("fisher", "--n", "2", "--steps", "401")
FLOW_N6 = ("flow", "--n", "6", "--k", "3", "--dt", "0.05", "--steps", "401")

# Library phase-map ops: N=30, K balanced over 1..N/2 and both classes. An
# odd number of equally large K groups puts the median op inside a group
# rather than on the cost jump between two.
POSITIVITY_N = 30
POSITIVITY_K_MAX = 15
POSITIVITY_PER_CELL = 4  # ops per (K, class) pair: 120 ops per repetition
# Anchors of K = N/2 closer than this (in periods) to an odd half-period
# are redrawn. Closer in, the completeness residual exceeds 1e-10 (known
# ill-conditioning near the singular anchor); the near-singular probe below
# keeps that defect counted, at one fixed point instead of at random.
NEAR_SINGULAR_MARGIN = 0.02
NEAR_SINGULAR_PROBE = (15, 1, 0.5 + 1e-3, 0.3)  # K, class, t1 and t2 in periods
ORBIT_TOL = 1e-9
COMPLETENESS_TOL = 1e-10

VERIFY_N = "8"
VERIFY_PROBE_N = "2"  # exits 1 with DegenerateStateError today
VERIFY_CHECKS = 16

# A dataset value matches its reference when |a - b| <= REL_TOL * max(1, |b|).
REL_TOL = 1e-12

# Sizes of the calibration kernel's parts: about 1.2 ms on a 2-vCPU Xeon VM
# in its fast periods, 2 ms in its slow ones.
CAL_PY_ITERS = 2000
CAL_UFUNC_ROUNDS = 100
CAL_SMALL_EIGH = (16, 10)  # matrix order, solves
CAL_LARGE_EIGH = 48
# Interval between kernel samples inside an op: an op of a few seconds
# spans host slowdowns that begin or end within it.
CAL_PERIOD_S = 0.05


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibration_kernel():
    """A fixed piece of work that does not touch openqnet; returns a timer.

    It mixes the three kinds of work openqnet's ops are made of: interpreted
    Python, numpy ufuncs on short arrays, and LAPACK ``eigvalsh`` on small
    complex Hermitian matrices. No change to the package changes its time;
    what does is the speed the host gives this process at that moment,
    which on a shared VM drifts by up to a factor of two for minutes at a
    time and slows the kernel nearly as much as the ops next to it.
    """
    import numpy as np

    rng = np.random.default_rng(0)

    def hermitian(n: int):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return a + a.conj().T

    small_n, small_solves = CAL_SMALL_EIGH
    small, large = hermitian(small_n), hermitian(CAL_LARGE_EIGH)
    vector = rng.standard_normal(256)

    def work() -> float:
        total = 0
        for i in range(CAL_PY_ITERS):
            total += i * i % 7
        x = vector
        for _ in range(CAL_UFUNC_ROUNDS):
            x = np.cos(x) * 0.5 + x.sum() * 1e-3
        for _ in range(small_solves):
            np.linalg.eigvalsh(small)
        return total + float(x[0]) + float(np.linalg.eigvalsh(large)[0])

    def timed() -> float:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start

    return timed


class Rep:
    """What one repetition measured and which ops failed."""

    def __init__(self, kernel, sample_inside: bool):
        self.op_s: list[float] = []
        # cal_s[0] is taken when set-up ends, cal_s[i + 1] right after op i;
        # op_cal_s[i] holds the samples taken while op i ran.
        self.cal_s: list[float] = []
        self.op_cal_s: list[list[float]] = []
        self.kernel = kernel
        self.inside: list[float] | None = None
        if sample_inside:
            signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample_inside = sample_inside
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []
        self.csv_cells = 0
        self.csv_bytes = 0

    def calibrate(self) -> None:
        self.cal_s.append(self.kernel())

    def _on_alarm(self, signum, frame) -> None:
        # Python runs this between bytecodes of the op, never inside a C call.
        if self.inside is not None:
            self.inside.append(self.kernel())

    def time_op(self, fn, *args):
        """Run one op; record its time without the kernel samples taken inside it."""
        self.inside = []
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - start
            inside, self.inside = self.inside, None
            self.op_s.append(elapsed - math.fsum(inside))
            self.op_cal_s.append(inside)
            self.calibrate()

    def kernel_s(self) -> float:
        """Kernel time spent in the body so far."""
        return math.fsum(self.cal_s[1:]) + math.fsum(map(math.fsum, self.op_cal_s))

    def check(self, ok: bool, what: str, probe: bool = False) -> None:
        self.attempted += 1
        if not ok:
            (self.known_defects if probe else self.failures).append(what)


def call_cli(cli, argv) -> tuple[int | None, str, str | None]:
    """Run ``cli.main`` in process: exit code, captured stderr, traceback."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return cli.main(list(argv)), err.getvalue(), None
    except Exception:  # a traceback is a failed op, reported, never raised
        return None, err.getvalue(), traceback.format_exc()


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def column_summary(rows: list[list[float]], col: int) -> dict:
    values = [row[col] for row in rows]
    nan_rows = [i for i, v in enumerate(values) if math.isnan(v)]
    finite = [(i, v) for i, v in enumerate(values) if not math.isnan(v)]
    return {
        "nan_rows": nan_rows,
        "sum": math.fsum(v for _, v in finite),
        # Row-weighted sum, so that reordered rows do not cancel out.
        "wsum": math.fsum(v * (1 + i % 7) for i, v in finite),
    }


def sample_rows(n_rows: int) -> list[int]:
    picks = {0, 1, n_rows - 2, n_rows - 1}
    picks.update(int(round(x * (n_rows - 1) / 7)) for x in range(1, 7))
    return sorted(p for p in picks if 0 <= p < n_rows)


def summarize_csv(path: str) -> dict:
    """Compact reference of one dataset: header, shape, sampled rows, sums."""
    header, rows = read_csv(path)
    picks = sample_rows(len(rows))
    return {
        "header": header,
        "rows": len(rows),
        "sample": {str(i): rows[i] for i in picks},
        "columns": [column_summary(rows, c) for c in range(len(header))],
    }


def close(a: float, b: float) -> bool:
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def compare_csv(header: list[str], rows: list[list[float]], ref: dict) -> str | None:
    """None if the dataset matches its reference, else the first mismatch."""
    if header != ref["header"]:
        return "header differs"
    if len(rows) != ref["rows"]:
        return f"{len(rows)} rows, reference has {ref['rows']}"
    if any(len(row) != len(header) for row in rows):
        return "ragged row"
    for i, want in ref["sample"].items():
        got = rows[int(i)]
        for c, (a, b) in enumerate(zip(got, want)):
            if not close(a, b):
                return f"row {i} column {header[c]}: {a!r} vs {b!r}"
    for c, want in enumerate(ref["columns"]):
        got = column_summary(rows, c)
        if got["nan_rows"] != want["nan_rows"]:
            return f"column {header[c]}: NaN positions differ"
        for key in ("sum", "wsum"):
            if not close(got[key], want[key]):
                return f"column {header[c]} {key}: {got[key]!r} vs {want[key]!r}"
    return None


def datasets_argv(tmp: str) -> list[tuple[str, list[str], str]]:
    """(reference key, argv, output path) for every body invocation."""
    out = []
    for i, inv in enumerate(DATASETS_BODY):
        key = " ".join(inv)
        path = os.path.join(tmp, f"dataset-{i}.csv")
        argv = [inv[0], "--n", "50", *inv[1:], "--steps", DATASETS_STEPS, "--out", path]
        out.append((key, argv, path))
    return out


def prepare_datasets(seed: int, tmp: str):
    """The inputs are fixed, since the reference is recorded for them."""
    from openqnet import cli

    return cli, datasets_argv(tmp)


def run_datasets(rep: Rep, state, set_run) -> list:
    cli, invocations = state
    outcomes = []
    for i, (key, argv, path) in enumerate(invocations):
        set_run(i)
        outcome = rep.time_op(call_cli, cli, argv)
        outcomes.append((key, path, outcome))
    return outcomes


def check_datasets(rep: Rep, outcomes, tmp: str, state) -> None:
    cli = state[0]
    with open(REFERENCE, encoding="ascii") as handle:
        reference = json.load(handle)
    for key, path, (code, err, tb) in outcomes:
        if tb is not None or code != 0:
            rep.check(False, f"{key}: exit {code} {last_line(tb or err)}")
            continue
        rep.csv_bytes += os.path.getsize(path)
        header, rows = read_csv(path)
        rep.csv_cells += len(header) * len(rows)
        mismatch = compare_csv(header, rows, reference[key])
        rep.check(mismatch is None, f"{key}: {mismatch}")

    path = os.path.join(tmp, "probe-fisher.csv")
    code, err, tb = call_cli(cli, [*FISHER_N2, "--out", path])
    rep.check(tb is None and code in (0, 1, 2, 3) and "Traceback" not in err,
              f"{' '.join(FISHER_N2)}: exit {code} {last_line(tb or err)}", probe=True)
    path = os.path.join(tmp, "probe-flow.csv")
    code, err, tb = call_cli(cli, [*FLOW_N6, "--out", path])
    rep.check(tb is None and code == 3 and "t1=" in err,
              f"{' '.join(FLOW_N6)}: exit {code}, expected 3 naming t1", probe=True)


def positivity_op(lib, params, k, cls, t1, t2):
    propagator, states, positivity = lib
    sel = states.SubsystemSelector(k, states.DynClass(cls))
    ops = propagator.build_propagator(params, sel, t1, t2)
    moved = propagator.apply(ops, states.materialize_density(states.reduced_state(params, sel, t1)))
    target = states.materialize_density(states.reduced_state(params, sel, t2))
    residual = propagator.completeness_residual(ops)
    verdict = positivity.classify(params, sel, t1, t2)
    return moved, target, residual, verdict


def positivity_failure(lib, result) -> str | None:
    import numpy as np

    positivity = lib[2]
    moved, target, residual, verdict = result
    orbit = float(np.abs(moved - target).max())
    if not orbit <= ORBIT_TOL:
        return f"orbit residual {orbit:.3e} > {ORBIT_TOL:.0e}"
    if not residual <= COMPLETENESS_TOL:
        return f"completeness residual {residual:.3e} > {COMPLETENESS_TOL:.0e}"
    tol = positivity.VERDICT_TOL
    routes = (verdict.flow_sign >= -tol, verdict.choi_min_eig >= -tol, verdict.trace_dist_delta <= tol)
    if len(set(routes)) != 1:
        return f"verdicts disagree: flow/choi/trace {routes}"
    return None


def prepare_positivity(seed: int, tmp: str):
    from openqnet import positivity, propagator, states
    from openqnet.amplitudes import NetworkParams

    params = NetworkParams(POSITIVITY_N)
    period = params.period
    rng = random.Random(seed)
    cells = [(k, c) for k in range(1, POSITIVITY_K_MAX + 1) for c in (0, 1)] * POSITIVITY_PER_CELL
    rng.shuffle(cells)
    ops = []
    for k, cls in cells:
        while True:
            tau1, tau2 = rng.random(), rng.random()
            if propagator.is_singular(params, k, tau1 * period):
                continue
            if 2 * k == POSITIVITY_N and abs(tau1 - 0.5) < NEAR_SINGULAR_MARGIN:
                continue
            break
        ops.append((k, cls, tau1 * period, tau2 * period))
    return (propagator, states, positivity), params, ops


def run_positivity(rep: Rep, state, set_run) -> list:
    lib, params, ops = state
    outcomes = []
    for i, (k, cls, t1, t2) in enumerate(ops):
        set_run(i)
        try:
            result = rep.time_op(positivity_op, lib, params, k, cls, t1, t2)
        except Exception:
            result = traceback.format_exc()
        outcomes.append(((k, cls, t1, t2), result))
    return outcomes


def check_positivity(rep: Rep, outcomes, tmp: str, state) -> None:
    lib, params, _ = state
    for op, result in outcomes:
        failure = result if isinstance(result, str) else positivity_failure(lib, result)
        rep.check(failure is None, f"positivity op {op}: {failure}")
    from openqnet.errors import SingularIntervalError

    k, cls, tau1, tau2 = NEAR_SINGULAR_PROBE
    try:
        failure = positivity_failure(
            lib, positivity_op(lib, params, k, cls, tau1 * params.period, tau2 * params.period)
        )
    except SingularIntervalError:
        failure = None  # refusing a near-singular anchor is documented behaviour
    except Exception:
        failure = traceback.format_exc()
    rep.check(failure is None, f"near-singular probe {NEAR_SINGULAR_PROBE}: {failure}", probe=True)


def prepare_verify(seed: int, tmp: str):
    """``verify`` is deterministic; the seed does not change its inputs."""
    from openqnet import cli, verification

    return cli, verification, os.path.join(tmp, "verify.csv")


def time_checks(verification, rep: Rep):
    """Time each verification check from outside, one sample per check row.

    Returns a function that puts the untimed checks back.
    """
    checks = verification.ALL_CHECKS

    def timed(check):
        def run(params):
            return rep.time_op(check, params)

        return run

    verification.ALL_CHECKS = tuple(timed(c) for c in checks)

    def restore():
        verification.ALL_CHECKS = checks

    return restore


def verify_rows(rep: Rep, label: str, path: str, outcome, probe: bool) -> None:
    """One op per check row; a check with no row (a crash) fails too."""
    code, err, tb = outcome
    rows = []
    if tb is None and os.path.exists(path):
        with open(path, encoding="ascii") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()[1:]]
        if not probe:
            rep.csv_bytes += os.path.getsize(path)
            rep.csv_cells += 4 * (len(rows) + 1)
    for i in range(VERIFY_CHECKS):
        row = rows[i] if i < len(rows) else None
        ok = code == 0 and row is not None and row[-1] == "PASS"
        name = row[0] if row else "(no row)"
        rep.check(ok, f"{label} {name}: exit {code} {last_line(tb or err)}", probe=probe)


def run_verify(rep: Rep, state, set_run) -> tuple:
    cli, _, path = state
    return path, call_cli(cli, ["verify", "--n", VERIFY_N, "--out", path])


def check_verify(rep: Rep, result, tmp: str, state) -> None:
    cli = state[0]
    path, outcome = result
    verify_rows(rep, f"verify --n {VERIFY_N}", path, outcome, probe=False)
    probe = os.path.join(tmp, "verify-probe.csv")
    outcome = call_cli(cli, ["verify", "--n", VERIFY_PROBE_N, "--out", probe])
    verify_rows(rep, f"verify --n {VERIFY_PROBE_N}", probe, outcome, probe=True)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def count_choi_bytes(counts: dict, args: tuple, kwargs: dict) -> None:
    """Bytes of the dense (K+1)^2 x (K+1)^2 complex Choi matrix one call builds."""
    ops = args[0] if args else kwargs["ops"]
    key = "positivity.choi_bytes_computed"
    counts[key] = counts.get(key, 0) + 16 * (ops.k_qubits + 1) ** 4


COUNTERS = {"positivity.choi_matrix": count_choi_bytes}
KERNEL_SPAN = "calibration.kernel"


def main(argv: list[str]) -> int:
    workload, seed, spawn_ns, tmp = argv[0], int(argv[1]), int(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    prepare, run, check = {
        "datasets": (prepare_datasets, run_datasets, check_datasets),
        "positivity_map": (prepare_positivity, run_positivity, check_positivity),
        "verify": (prepare_verify, run_verify, check_verify),
    }[workload]
    os.makedirs(tmp, exist_ok=True)
    state = prepare(seed, tmp)
    setup_s = (monotonic_ns() - spawn_ns) * 1e-9
    # In a traced repetition the spans would count samples taken inside an
    # op as the op's own time, so kernel samples stay between ops there.
    rep = Rep(calibration_kernel(), sample_inside=spans_path is None)
    rep.kernel()  # the first call pays numpy's lazy set-up; not a sample
    rep.calibrate()

    recorder = restore = None
    if spans_path is not None:
        import tracer

        recorder = tracer.Recorder()
        restore = tracer.instrument(recorder, "openqnet", COUNTERS)
        # Its own span, so that a sample taken between two checks of
        # ``verify`` is not counted as the calling module's self time.
        rep.kernel = recorder.wrap(KERNEL_SPAN, rep.kernel)
    untime = time_checks(state[1], rep) if workload == "verify" else None

    def set_run(i: int) -> None:
        if recorder is not None:
            recorder.run_id = i

    body_start = time.perf_counter()
    result = run(rep, state, set_run)
    wall_s = time.perf_counter() - body_start - rep.kernel_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if untime is not None:
        untime()
    if restore is not None:
        restore()
        recorder.save(spans_path)

    check(rep, result, tmp, state)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": rep.op_s,
        "cal_s": rep.cal_s,
        "op_cal_s": rep.op_cal_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": rep.attempted,
        "failures": rep.failures,
        "known_defects": rep.known_defects,
        "csv_cells": rep.csv_cells,
        "csv_bytes": rep.csv_bytes,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
