"""Every dataset subcommand, cell by cell, against the public scalar functions.

Each case runs one subcommand through ``cli.main`` and recomputes every
cell, row by row, with one scalar library call per grid point and
subsystem, the way a plain loop over the grid would. ``flow`` and ``infer``
must agree bit for bit; every other column within a relative 1e-13. Where
the scalar loop refuses a grid point, the command must exit with the
matching code and print the first refusal's message.
"""

import math

import numpy as np
import pytest

from openqnet import (
    DynClass,
    FlowObservation,
    GlobalParameter,
    IndeterminateFlowError,
    InconsistentObservationError,
    NetworkParams,
    OpenQNetError,
    SubsystemSelector,
    affine_map,
    amplitudes,
    axial_positivity_band,
    entanglement_entropy,
    estimate_period,
    excitation_probability,
    flow_amplitude,
    infer_coupling,
    infer_network_size,
    physical_bloch_z,
    process_state_split,
    qfi_closed_form,
)
from openqnet.cli import _TRAJECTORY_STARTS, main
from openqnet.errors import DegenerateStateError, SingularIntervalError

RTOL = 1e-13
DT = 0.05
COUPLING = 0.7
NAN = float("nan")


def flow_rows(params, taus, dt, ks):
    sels = [SubsystemSelector(k, DynClass.CONTAINS_EXCITED) for k in ks]
    sels += [SubsystemSelector(k, DynClass.EXCLUDES_EXCITED) for k in ks if k < params.n_qubits]
    for tau in taus:
        t1, t2 = tau * params.period, (tau + dt) * params.period
        yield [tau] + [flow_amplitude(params, sel, t1, t2) for sel in sels]


def bloch_traj_rows(params, taus, cls):
    for tau in taus:
        t = tau * params.period
        bmap = affine_map(params, cls, 0.0, t)
        row = [tau] + [bmap.z_shift + bmap.z_scale * z0 for z0 in _TRAJECTORY_STARTS]
        yield row + [physical_bloch_z(params, cls, t)]


def bloch_domain_rows(params, taus, cls, dt):
    for tau in taus:
        t1, t2 = tau * params.period, (tau + dt) * params.period
        band = axial_positivity_band(affine_map(params, cls, t1, t2))
        lo, hi = band if band is not None else (NAN, NAN)
        yield [tau, lo, hi, physical_bloch_z(params, cls, t1)]


def entropy_rows(params, taus, cls, ks):
    sels = [SubsystemSelector(k, cls) for k in ks]
    for tau in taus:
        t = tau * params.period
        yield [tau] + [entanglement_entropy(params, sel, t) for sel in sels]


def fisher_rows(params, taus, cls, ks):
    for tau in taus:
        t = tau * params.period
        row = [tau]
        for k in ks:
            sel = SubsystemSelector(k, cls)
            thetas = [GlobalParameter.COUPLING_J]
            if not (cls is DynClass.CONTAINS_EXCITED and k == params.n_qubits):
                thetas.append(GlobalParameter.SIZE_N)
            for theta in thetas:
                fb = qfi_closed_form(params, sel, theta, t)
                row += [fb.classical, fb.quantum, fb.total]
        yield row


def fisher_decomp_rows(params, taus, cls, t1):
    for tau in taus:
        split = process_state_split(params, cls, t1 * params.period, tau * params.period, rescaled=True)
        yield [tau, split.process, split.state, split.cross, split.total]


def amplitude_rows(params, taus):
    for tau in taus:
        amps = amplitudes(params, tau * params.period)
        us, ud = amps.same_site, amps.cross_site
        yield [tau, us.real, us.imag, ud.real, ud.imag, amps.cross_abs2]


def infer_rows(params, taus, dt):
    sel1 = SubsystemSelector(1, DynClass.CONTAINS_EXCITED)
    sel0 = SubsystemSelector(1, DynClass.EXCLUDES_EXCITED)
    window = dt * params.period
    period = estimate_period(
        lambda t: flow_amplitude(params, sel1, t, t + window), window, 2.5 * params.period
    )
    j_est = infer_coupling(period, params.n_qubits)
    for tau in taus:
        t1, t2 = tau * params.period, (tau + dt) * params.period
        flow1 = flow_amplitude(params, sel1, t1, t2)
        flow0 = flow_amplitude(params, sel0, t1, t2)
        ground = excitation_probability(params, sel0, t1)
        try:
            est = infer_network_size(FlowObservation(flow1, flow0, ground))
            size = [est.estimate, est.nearest, est.residual]
        except (IndeterminateFlowError, InconsistentObservationError):
            size = [NAN] * 3
        yield [tau, flow1, flow0, ground, *size, j_est]


def case(command, n, steps, cls=None):
    """(argv, expected rows as a generator, bit-for-bit?) for one invocation."""
    params = NetworkParams(n, COUPLING if command == "infer" else 1.0)
    taus = np.linspace(0.0, 1.0, steps)
    argv = [command, "--n", str(n), "--j", str(params.coupling), "--steps", str(steps)]
    if cls is not None:
        argv += ["--class", str(cls.value)]
    if command == "amplitudes":
        return argv, amplitude_rows(params, taus), False
    if command == "flow":
        ks = range(1, n + 1)
        return argv + ["--dt", str(DT), "--k", f"1..{n}"], flow_rows(params, taus, DT, ks), True
    if command == "bloch-traj":
        return argv, bloch_traj_rows(params, taus, cls), False
    if command == "bloch-domain":
        return argv + ["--dt", str(DT)], bloch_domain_rows(params, taus, cls, DT), False
    k_max = n if cls is DynClass.CONTAINS_EXCITED else n - 1
    if command == "entropy":
        rows = entropy_rows(params, taus, cls, range(1, k_max + 1))
        return argv + ["--k", f"1..{k_max}"], rows, False
    if command == "fisher":
        rows = fisher_rows(params, taus, cls, range(1, k_max + 1))
        return argv + ["--k", f"1..{k_max}"], rows, False
    if command == "fisher-decomp":
        t1 = 0.25
        rows = fisher_decomp_rows(params, np.linspace(t1, t1 + 2.0, steps), cls, t1)
        return argv + ["--t1", str(t1)], rows, False
    assert command == "infer"
    return argv + ["--dt", str(DT)], infer_rows(params, taus, DT), True


C0, C1 = DynClass.EXCLUDES_EXCITED, DynClass.CONTAINS_EXCITED
COMMANDS = (
    ("amplitudes", None),
    ("flow", None),
    ("bloch-traj", C1),
    ("bloch-traj", C0),
    ("bloch-domain", C1),
    ("bloch-domain", C0),
    ("entropy", C1),
    ("entropy", C0),
    ("fisher", C1),
    ("fisher", C0),
    ("fisher-decomp", C1),
    ("fisher-decomp", C0),
    ("infer", None),
)


def cells_match(got: float, want: float, exact: bool) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    if exact:
        return got == want
    return abs(got - want) <= RTOL * abs(want)


@pytest.mark.parametrize("steps", [64, 65])
@pytest.mark.parametrize("n", [2, 5, 6, 50])
@pytest.mark.parametrize("command,cls", COMMANDS, ids=lambda v: getattr(v, "name", v))
def test_columns_match_scalar_calls(command, cls, n, steps, tmp_path, capsys):
    # Odd step counts put the half-period on the grid: K = N/2 singular
    # anchors, N = 2 degenerate points.
    argv, expected, exact = case(command, n, steps, cls)
    out = tmp_path / "out.csv"
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    want_rows = []
    try:
        for row in expected:
            want_rows.append(row)
    except OpenQNetError as exc:
        want_code = 3 if isinstance(exc, (SingularIntervalError, DegenerateStateError)) else 1
        assert code == want_code, err
        assert str(exc) in err
        return
    assert code == 0, err
    lines = out.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == len(want_rows) == steps
    header = lines[0].split(",")
    for i, (got, want) in enumerate(zip(rows, want_rows)):
        assert len(got) == len(want) == len(header)
        for name, a, b in zip(header, got, want):
            assert cells_match(a, float(b), exact), f"row {i} {name}: {a!r} vs {b!r}"
