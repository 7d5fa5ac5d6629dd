import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from openqnet.cli import main


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


def test_verify_nan_residual_exits_2(tmp_path, capsys, monkeypatch):
    from openqnet import propagator, verification

    monkeypatch.setattr(propagator, "completeness_residual", lambda ops: math.nan)
    monkeypatch.setattr(verification, "ALL_CHECKS", (verification.check_propagator_completeness,))
    out = tmp_path / "verify.csv"
    assert main(["verify", "--n", "3", "--out", str(out)]) == 2
    assert "FAIL  propagator_completeness  max=nan" in capsys.readouterr().err
    assert out.read_text().splitlines()[1] == "propagator_completeness,nan,1e-10,FAIL"


def test_verify_names_the_worst_case(tmp_path, capsys, monkeypatch):
    from openqnet import verification

    monkeypatch.setattr(verification, "ALL_CHECKS", (verification.check_tomography_containing,))
    assert main(["verify", "--n", "3", "--out", str(tmp_path / "verify.csv")]) == 0
    line = capsys.readouterr().err.strip()
    assert re.search(r"  at K=\d class=1 t1=\S+ t2=\S+ periods  time=\d+\.\dms$", line), line


def test_verify_reports_check_times(tmp_path, capsys):
    assert main(["verify", "--n", "3", "--out", str(tmp_path / "verify.csv")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 16
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


@pytest.mark.parametrize("n", ["2", "3", "6"])
def test_verify_passes_at_small_sizes(n, tmp_path, capsys):
    # N = 2 samples its degenerate half-period point in the reduced-state check.
    assert main(["verify", "--n", n, "--out", str(tmp_path / "verify.csv")]) == 0
    assert "FAIL" not in capsys.readouterr().err
