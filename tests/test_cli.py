import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import openqnet.cli as cli_module
from openqnet.cli import main
from test_cli_columns import COMMANDS as COLUMN_COMMANDS
from test_cli_columns import case as column_case


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name):
    idx = header.index(name)
    return np.array([float(row[idx]) for row in rows])


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["flow", "--n", "5", "--dt", "0.05", "--bogus", "1"]) == 1
    capsys.readouterr()


def test_invalid_params_are_usage_errors(capsys):
    assert main(["amplitudes", "--n", "1"]) == 1
    assert main(["amplitudes", "--n", "5", "--j", "-2"]) == 1
    assert main(["flow", "--n", "5", "--dt", "0.05", "--k", "9"]) == 1
    capsys.readouterr()


# Each subcommand's options in help order: flag, type and default, or
# REQUIRED.
REQUIRED = "required"
N, J, STEPS, OUT = ("--n", "integer", REQUIRED), ("--j", "float", 1.0), ("--steps", "integer", 400), ("--out", "text", "-")
CLASS = ("--class", "choice", "1")
OPTION_SURFACE = {
    "amplitudes": [N, J, STEPS, OUT],
    "flow": [N, J, ("--dt", "float", REQUIRED), ("--k", "text", None), STEPS, OUT],
    "bloch-traj": [N, J, CLASS, STEPS, OUT],
    "bloch-domain": [N, J, CLASS, ("--dt", "float", REQUIRED), STEPS, OUT],
    "entropy": [N, J, CLASS, ("--k", "text", None), STEPS, OUT],
    "fisher": [N, J, CLASS, ("--k", "text", None), STEPS, OUT],
    "fisher-decomp": [N, J, CLASS, ("--t1", "float", REQUIRED), ("--t2", "float", None), STEPS, OUT],
    "infer": [N, J, ("--dt", "float", 0.05), STEPS, OUT],
    "verify": [N, J, OUT],
}


def test_the_option_surface_is_pinned():
    # The fuzz draws its argv from these declarations, so only this table
    # shows an option dropped, reordered or changed.
    got = {
        name: [(p.opts[0], p.type.name, REQUIRED if p.required else p.default) for p in command.params]
        for name, command in cli_module.cli.commands.items()
    }
    assert got == OPTION_SURFACE


def test_amplitudes_csv(tmp_path):
    out = tmp_path / "amps.csv"
    assert main(["amplitudes", "--n", "5", "--steps", "11", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t_over_period", "u_s_re", "u_s_im", "u_d_re", "u_d_im", "u_d_abs2"]
    assert len(rows) == 11
    # Half-period row: u_s = -0.6, u_d = 0.4.
    assert column(header, rows, "t_over_period")[5] == pytest.approx(0.5)
    assert column(header, rows, "u_s_re")[5] == pytest.approx(-0.6, abs=1e-14)
    assert column(header, rows, "u_d_re")[5] == pytest.approx(0.4, abs=1e-14)


def test_flow_sign_change(tmp_path):
    out = tmp_path / "flow.csv"
    assert main(
        ["flow", "--n", "5", "--dt", "0.05", "--k", "1..4", "--steps", "401", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header[:2] == ["t_over_period", "phi_tau_c1_k1"]
    assert "phi_tau_c0_k4" in header
    taus = column(header, rows, "t_over_period")
    for name in ["phi_tau_c1_k1", "phi_tau_c1_k4", "phi_tau_c0_k1", "phi_tau_c0_k4"]:
        values = column(header, rows, name)
        before = values[(taus > 1e-9) & (taus < 0.475 - 1e-9)]
        after = values[(taus > 0.475 + 1e-9) & (taus < 0.975 - 1e-9)]
        assert (before > 0).all()
        assert (after < 0).all()


def test_flow_output_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["flow", "--n", "5", "--dt", "0.05", "--steps", "50"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_singular_grid_point_exits_3(tmp_path, capsys):
    # steps=3 puts t=0.5 on the grid, the singular anchor for K = N/2.
    out = tmp_path / "flow.csv"
    code = main(["flow", "--n", "6", "--dt", "0.05", "--k", "3", "--steps", "3", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "singular" in err.lower()
    assert "t1=" in err


def test_default_steps_avoid_singular_point(tmp_path):
    out = tmp_path / "flow.csv"
    assert main(["flow", "--n", "6", "--dt", "0.05", "--k", "3", "--out", str(out)]) == 0


def test_entropy_csv(tmp_path):
    out = tmp_path / "entropy.csv"
    assert main(
        ["entropy", "--n", "5", "--k", "1", "--class", "1", "--steps", "5", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["t_over_period", "entropy_k1"]
    assert column(header, rows, "entropy_k1")[0] == 0.0


def test_bloch_traj_csv(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["bloch-traj", "--n", "5", "--class", "1", "--steps", "5", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[0] == "t_over_period"
    assert header[-1] == "orbit_bz"
    assert len(header) == 9
    # Physical orbit starts at the excited pole.
    assert column(header, rows, "orbit_bz")[0] == pytest.approx(-1.0)


def test_bloch_domain_csv(tmp_path):
    out = tmp_path / "domain.csv"
    assert main(
        ["bloch-domain", "--n", "5", "--class", "1", "--dt", "0.05", "--steps", "41", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["t_over_period", "band_lo", "band_hi", "orbit_bz"]
    taus = column(header, rows, "t_over_period")
    lo = column(header, rows, "band_lo")
    assert (lo[taus < 0.45] == -1.0).all()
    assert (lo[(taus > 0.5) & (taus < 0.95)] > -1.0).all()


def test_fisher_csv(tmp_path):
    out = tmp_path / "fisher.csv"
    assert main(
        ["fisher", "--n", "5", "--k", "1..5", "--class", "1", "--steps", "9", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert "fj_total_k5" in header
    assert "fn_total_k4" in header
    assert "fn_total_k5" not in header  # diverges at K=N for this class
    taus = column(header, rows, "t_over_period")
    totals = column(header, rows, "fj_total_k5")
    t = taus * 2 * math.pi / 5
    assert np.allclose(totals, 16 * t * t, rtol=1e-12)


def test_fisher_decomp_csv(tmp_path):
    out = tmp_path / "decomp.csv"
    assert main(
        ["fisher-decomp", "--n", "5", "--t1", "0.25", "--steps", "21", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["t_over_period", "process", "state", "cross", "total"]
    for row in rows:
        process, state, cross, total = map(float, row[1:])
        assert abs(process + state + cross - total) <= 1e-10
    # First row is t2 = t1: all sensitivity in the state term.
    assert float(rows[0][1]) == 0.0


def test_fisher_decomp_custom_sweep_end(tmp_path):
    out = tmp_path / "decomp.csv"
    assert main(
        ["fisher-decomp", "--n", "5", "--t1", "0.25", "--t2", "0.75", "--steps", "11", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    taus = column(header, rows, "t_over_period")
    assert taus[0] == pytest.approx(0.25)
    assert taus[-1] == pytest.approx(0.75)
    assert main(["fisher-decomp", "--n", "5", "--t1", "0.5", "--t2", "0.25"]) == 1


@pytest.mark.parametrize("t2", [None, "1e300"])
def test_fisher_decomp_names_the_sweep_end_it_could_not_reach(t2, capsys):
    # From t1 ~ 1e17 periods up, t1 + 2 rounds to t1: the default sweep is
    # empty, and the message must not blame a --t2 that was never given.
    argv = ["fisher-decomp", "--n", "3", "--t1", "1e300", "--out", "-"]
    assert main(argv + ([] if t2 is None else ["--t2", t2])) == 1
    err = capsys.readouterr().err
    if t2 is None:
        assert "default two-period sweep is not representable past t1=1e+300" in err
        assert "--t2" not in err.splitlines()[-1]
    else:
        assert "--t2 must exceed --t1, got t1=1e+300 t2=1e+300" in err


def test_infer_csv(tmp_path):
    out = tmp_path / "infer.csv"
    assert main(
        ["infer", "--n", "7", "--j", "0.8", "--dt", "0.05", "--steps", "20", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header[-1] == "j_estimate"
    estimates = column(header, rows, "n_estimate")
    good = estimates[np.isfinite(estimates)]
    assert len(good) > 10
    assert np.abs(good - 7).max() <= 1e-8
    assert column(header, rows, "j_estimate")[0] == pytest.approx(0.8, abs=1e-6)



@pytest.mark.parametrize("n", ["5", "8", "50"])
@pytest.mark.parametrize("dt", ["1", "1.0000001", "1.5"])
def test_infer_refuses_windows_of_a_period_or_more(n, dt, tmp_path, capsys):
    # A window of one period carries only round-off flows, and the period
    # estimate 2 crossing + dt holds only for dt < 1: J came out 0.883 at
    # dt = 1 and 0.5 at dt = 1.0000001, with exit 0.
    out = tmp_path / "infer.csv"
    assert main(["infer", "--n", n, "--dt", dt, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--dt must lie in (0, 1) periods for infer, got {float(dt)}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dt", ["1e-6", "1e-9", "1e-12"])
def test_infer_period_scan_takes_logarithmic_time(dt, tmp_path):
    # The scan doubles its step, so it probes about log2(1/dt) anchors: in
    # steps of dt/2 it took 11.4 s at dt = 1e-6, and hours at dt = 1e-9.
    out = tmp_path / "infer.csv"
    start = time.perf_counter()
    assert main(["infer", "--n", "5", "--dt", dt, "--steps", "20", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "dt,coupling",
    [("0.5", j) for j in ("1", "0.7", "1e-300", "1e300")]
    + [("0.01", j) for j in ("1", "1e-300", "1e300")]
    + [("0.001", j) for j in ("1", "0.7", "1e-300")],
)
def test_infer_period_scan_at_n2_reads_no_singular_anchor(dt, coupling, tmp_path, capsys):
    # At N = 2 every odd half-period is a singular anchor of the flow weight.
    # The scan reads the sign of the hop probability's change over the
    # window, defined there; reading flow_amplitude, it refused one and
    # exited 3.
    out = tmp_path / "infer.csv"
    assert main(["infer", "--n", "2", "--j", coupling, "--dt", dt, "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    j = float(coupling)
    assert abs(column(header, rows, "j_estimate")[0] - j) <= 1e-12 * j


def test_infer_refuses_a_window_too_small_to_step_its_scan(monkeypatch, capsys):
    # --dt 5e-324 is a window of one subnormal ulp, whose quarter rounds to 0:
    # the period scan never left t = 0. The probe budget makes that a
    # failure here, not a hang.
    real, probes = cli_module.amplitudes, []

    def counted(*args):
        probes.append(args)
        if len(probes) > 10**4:
            raise RuntimeError("the period scan is stuck")
        return real(*args)

    monkeypatch.setattr(cli_module, "amplitudes", counted)
    start = time.perf_counter()
    assert main(["infer", "--n", "5", "--dt", "5e-324", "--steps", "3"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "too small to step a period scan" in err and "Traceback" not in err


def test_verify_passes(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--n", "4", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "FAIL" not in err
    lines = out.read_text().splitlines()
    assert lines[0] == "check,value,tolerance,status"
    assert all(line.endswith("PASS") for line in lines[1:])


def test_verify_failure_exits_2(tmp_path, capsys, monkeypatch):
    from openqnet import verification

    def failing_check(params):
        return verification.CheckResult("always_fails", 1.0, 0.5, False)

    monkeypatch.setattr(verification, "ALL_CHECKS", (failing_check,))
    out = tmp_path / "verify.csv"
    assert main(["verify", "--n", "3", "--out", str(out)]) == 2
    assert "FAIL" in capsys.readouterr().err
    assert out.read_text().splitlines()[1].endswith("FAIL")


def _rows(name):
    # The one row of verify's table with this name.
    from openqnet import verification

    return tuple(row for row in verification.ALL_CHECKS if getattr(row, "name", None) == name)


def test_verify_nan_residual_exits_2(tmp_path, capsys, monkeypatch):
    from openqnet import propagator, verification

    monkeypatch.setattr(propagator, "completeness_residual", lambda ops: math.nan)
    monkeypatch.setattr(verification, "ALL_CHECKS", _rows("propagator_completeness"))
    out = tmp_path / "verify.csv"
    assert main(["verify", "--n", "3", "--out", str(out)]) == 2
    assert "FAIL  propagator_completeness  max=nan" in capsys.readouterr().err
    assert out.read_text().splitlines()[1] == "propagator_completeness,nan,1e-10,FAIL"


def test_verify_names_the_worst_case(tmp_path, capsys, monkeypatch):
    from openqnet import verification

    monkeypatch.setattr(verification, "ALL_CHECKS", _rows("tomography_containing"))
    assert main(["verify", "--n", "3", "--out", str(tmp_path / "verify.csv")]) == 0
    line = capsys.readouterr().err.strip()
    assert re.search(r"  at K=\d class=1 t1=\S+ t2=\S+ periods  time=\d+\.\dms$", line), line


def test_verify_reports_check_times(tmp_path, capsys):
    from openqnet import verification

    assert main(["verify", "--n", "3", "--out", str(tmp_path / "verify.csv")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(verification.ALL_CHECKS)
    assert all(re.search(r"  time=\d+\.\dms$", line) for line in lines)


def test_nothing_loads_scipy(tmp_path):
    # A fresh interpreter whose import system refuses scipy: the package, the
    # verification suites, `verify` and the tomographic oracle all run.
    probe = f"""
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"refused: {{name}}")
        return None


sys.meta_path.insert(0, RefuseScipy())
import openqnet, openqnet.verification
from openqnet.cli import main

assert main(["verify", "--n", "3", "--out", {str(tmp_path / "verify.csv")!r}]) == 0
params = openqnet.NetworkParams(3, 1.0)
sel = openqnet.SubsystemSelector(2, openqnet.DynClass.CONTAINS_EXCITED)
assert openqnet.propagator_oracle(params, sel, 0.1, 0.4).shape == (9, 9)
assert "scipy" not in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_stdout_output(capsys):
    assert main(["amplitudes", "--n", "3", "--steps", "3", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("t_over_period,")


CONTRACT_COMMANDS = (
    ("amplitudes",),
    ("flow", "--dt", "0.05"),
    ("bloch-traj", "--class", "1"),
    ("bloch-traj", "--class", "0"),
    ("bloch-domain", "--class", "1", "--dt", "0.05"),
    ("bloch-domain", "--class", "0", "--dt", "0.05"),
    ("entropy", "--class", "1"),
    ("entropy", "--class", "0"),
    ("fisher", "--class", "1"),
    ("fisher", "--class", "0"),
    ("fisher-decomp", "--class", "1", "--t1", "0.25"),
    ("fisher-decomp", "--class", "0", "--t1", "0.25"),
    ("infer",),
    # The information leaves the float range: inf and nan cells, no warning.
    ("fisher", "--j", "1e-300"),
    ("fisher-decomp", "--j", "1e-300", "--t1", "0.25"),
    # Finite, but N*J*t overflows; and non-finite window ends.
    ("flow", "--dt", "1e308"),
    ("bloch-domain", "--class", "0", "--dt", "1e308"),
    ("flow", "--dt", "nan"),
    ("fisher-decomp", "--t1", "0.1", "--t2", "inf"),
)


@pytest.mark.parametrize("steps", ["400", "401"])
@pytest.mark.parametrize("n", ["2", "3", "4", "6"])
@pytest.mark.parametrize("command", CONTRACT_COMMANDS, ids=" ".join)
def test_exit_code_contract(command, n, steps, tmp_path, capsys):
    # Odd step counts put the half-period on the grid: singular anchors for
    # K = N/2 and degenerate states at N = 2 must end in exit 3, not a traceback.
    out = tmp_path / "out.csv"
    code = main([command[0], "--n", n, *command[1:], "--steps", steps, "--out", str(out)])
    assert code in (0, 1, 2, 3)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "Warning" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--n", "5", "--dt", "1e308"],
        ["bloch-domain", "--n", "5", "--dt", "1e308"],
        ["infer", "--n", "5", "--dt", "1e308"],
        ["flow", "--n", "5", "--dt", "nan"],
        ["bloch-domain", "--n", "5", "--dt", "inf"],
        ["fisher-decomp", "--n", "5", "--t1", "0.1", "--t2", "inf"],
        ["fisher-decomp", "--n", "5", "--t1", "nan"],
        ["amplitudes", "--n", "5", "--j", "1e308"],  # N*J overflows: no period
    ],
    ids=" ".join,
)
def test_refused_input_writes_nothing(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--n", "100000000", "--steps", "3"],
        ["entropy", "--n", "100000000", "--k", "1..100000000", "--steps", "3"],
        ["fisher", "--n", "100000000", "--k", "1..100000000", "--steps", "3"],
        ["flow", "--n", "100000000", "--dt", "0.05", "--steps", "3"],
        ["amplitudes", "--n", "5", "--steps", "100000000000"],
    ],
    ids=" ".join,
)
def test_an_oversized_table_is_refused_before_it_is_built(argv, tmp_path, capsys):
    # The K list is a range and the guard runs before the grid, so the refusal
    # allocates nothing of the table's size.
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"cells) guarded at {cli_module.TABLE_MAX_CELLS} cells; lower --steps" in err
    assert ("or narrow --k" in err) == (argv[0] != "amplitudes")
    assert not out.exists()


EDGE_COMMANDS = (
    ("amplitudes",),
    ("flow", "--dt", "0.05", "--k", "3..5"),  # no class-0 column for K = N
    ("bloch-traj",),
    ("bloch-domain", "--dt", "0.05"),
    ("entropy", "--k", "2..3"),
    ("fisher",),
    ("fisher", "--k", "3..5"),  # no size columns for K = N
    ("fisher-decomp", "--t1", "0.25"),
    ("infer",),
)


@pytest.mark.parametrize("command", EDGE_COMMANDS, ids=" ".join)
def test_the_size_guard_at_its_edge(command, tmp_path, monkeypatch, capsys):
    # A table of exactly TABLE_MAX_CELLS cells is written as it would be
    # without the guard; one cell fewer allowed, and it is refused.
    argv = [command[0], "--n", "5", *command[1:], "--steps", "7"]
    full, edge = tmp_path / "full.csv", tmp_path / "edge.csv"
    assert main(argv + ["--out", str(full)]) == 0
    header, rows = read_csv(full)
    cells = len(rows) * len(header)
    monkeypatch.setattr(cli_module, "TABLE_MAX_CELLS", cells)
    assert main(argv + ["--out", str(edge)]) == 0
    assert edge.read_bytes() == full.read_bytes()
    monkeypatch.setattr(cli_module, "TABLE_MAX_CELLS", cells - 1)
    assert main(argv + ["--out", str(tmp_path / "over.csv")]) == 1
    err = capsys.readouterr().err
    assert f"table of 7 rows x {len(header)} columns ({cells} cells) guarded at {cells - 1}" in err


def test_degenerate_point_exits_3(capsys):
    assert main(["fisher", "--n", "2", "--steps", "401", "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert "t=" in err


@pytest.mark.parametrize("n, coupling", [("5", "1e-8"), ("5", "1e-4"), ("8", "3e-3"), ("5", "1e4")])
def test_verify_passes_at_any_coupling(n, coupling, tmp_path, capsys):
    # (d_J p)^2 scales as 1/J^2; fisher_split_identity reads it in J^2 units.
    out = tmp_path / "verify.csv"
    assert main(["verify", "--n", n, "--j", coupling, "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().err


@pytest.mark.parametrize("coupling", ["1e-300", "1e-160", "1e160", "1e300"])
@pytest.mark.parametrize("n", ["3", "5", "8"])
def test_verify_finishes_at_extreme_coupling(n, coupling, tmp_path, capsys):
    # The Fisher information scales as 1/J^2 and leaves the float range:
    # a Fisher check may fail (exit 2), but every row is written.
    out = tmp_path / "verify.csv"
    assert main(["verify", "--n", n, "--j", coupling, "--out", str(out)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
    header, rows = read_csv(out)
    assert len(rows) == 16
    failed = {row[0] for row in rows if row[header.index("status")] == "FAIL"}
    assert failed <= {"fisher_oracle_relative", "fisher_split_identity"}


def test_verify_fails_the_overflowing_fisher_split(tmp_path):
    # At J = 1e-300 the split's gaps are inf - inf: NaN, which fails the row
    # where a fold that dropped it read 0 and passed.
    out = tmp_path / "verify.csv"
    assert main(["verify", "--n", "5", "--j", "1e-300", "--out", str(out)]) == 2
    header, rows = read_csv(out)
    row = next(row for row in rows if row[0] == "fisher_split_identity")
    assert row[header.index("value")] == "nan" and row[header.index("status")] == "FAIL"


def test_verify_at_a_subnormal_sld_step_warns_nothing(tmp_path, capsys):
    # SLD_STEP * J is subnormal at J = 2.2e-308: the oracle's central
    # difference overflows, and inf * 0 reads NaN. Both Fisher rows fail, as
    # at J = 1e-300; numpy's warnings escaped main as errors under pytest.
    out = tmp_path / "verify.csv"
    assert main(["verify", "--n", "8", "--j", "2.2e-308", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert "FAIL  fisher_oracle_relative  " in err and "FAIL  fisher_split_identity  " in err


def test_verify_writes_every_row_where_the_split_grid_overflows(tmp_path, capsys):
    # At N = 3, J = 2.2e-308 the period is 9.5e307, so the last times of
    # fisher_split_identity's grid, up to 1.95 periods, pass the float
    # range. The grid warned, an escaping error under pytest, and verify
    # wrote no row; those cases now read NaN and fail the row.
    out = tmp_path / "verify.csv"
    assert main(["verify", "--n", "3", "--j", "2.2e-308", "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    header, rows = read_csv(out)
    assert len(rows) == 16
    row = next(row for row in rows if row[0] == "fisher_split_identity")
    assert row[header.index("value")] == "nan" and row[header.index("status")] == "FAIL"


@pytest.mark.parametrize("n", ["2", "3", "6"])
def test_verify_passes_at_small_sizes(n, tmp_path, capsys):
    # N = 2 samples its degenerate half-period point in the reduced-state check.
    assert main(["verify", "--n", n, "--out", str(tmp_path / "verify.csv")]) == 0
    assert "FAIL" not in capsys.readouterr().err


@pytest.mark.parametrize("steps", [64, 65])
@pytest.mark.parametrize("n", [2, 5, 6, 50])
@pytest.mark.parametrize("command,cls", COLUMN_COMMANDS, ids=lambda v: getattr(v, "name", v))
def test_every_cell_is_its_own_17g_text(command, cls, n, steps, tmp_path, capsys):
    argv, _, _ = column_case(command, n, steps, cls)
    out = tmp_path / "out.csv"
    if main(argv + ["--out", str(out)]) != 0:
        return  # a refused grid point, checked in test_cli_columns
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == steps + 1
    for line in lines[1:]:
        cells = line.split(",")
        assert cells == ["%.17g" % float(cell) for cell in cells]


@pytest.mark.parametrize(
    "argv",
    [
        ["amplitudes", "--n", "5", "--steps", "64"],
        ["fisher", "--n", "50", "--class", "0", "--steps", "64"],  # several chunks
        ["fisher-decomp", "--n", "3", "--j", "1e-300", "--t1", "0.25", "--steps", "64"],  # nan and inf cells
    ],
    ids=" ".join,
)
def test_stdout_and_file_get_the_same_bytes(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out.encode("ascii") == out.read_bytes()


# Peak traced memory of the command below, in bytes, one BLAS thread: the
# writer that formatted a list of Python rows into one string held 15_617_370;
# the chunked kernel holds 3_589_419 (its table is 1.2 MB of it).
WHOLE_TEXT_PEAK = 15_617_370


def test_writing_a_large_table_holds_no_whole_text(tmp_path):
    argv = ["fisher", "--n", "50", "--class", "1", "--k", "1..50", "--steps", "500", "--out", str(tmp_path / "f.csv")]
    assert main(argv) == 0  # lazy tables and imports first
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WHOLE_TEXT_PEAK
