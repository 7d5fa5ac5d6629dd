import math

import numpy as np
import pytest

from openqnet import (
    DynClass,
    GlobalParameter,
    NetworkParams,
    ParameterError,
    SizeLimitError,
    SubsystemSelector,
    amplitudes,
    excitation_probability,
    flow_amplitude,
    global_state,
    q1_unitary_oracle,
    qfi_closed_form,
    reduced_state,
    unitarity_residuals,
)


def closed_form_matrix(params, t):
    amps = amplitudes(params, t)
    mat = np.full((params.n_qubits, params.n_qubits), amps.cross_site, dtype=complex)
    np.fill_diagonal(mat, amps.same_site)
    return mat


def test_identity_at_time_zero():
    amps = amplitudes(NetworkParams(5, 1.0), 0.0)
    assert amps.same_site == pytest.approx(1.0)
    assert amps.cross_site == pytest.approx(0.0)


def test_half_period_values():
    # N J t = pi: u_s = (1 - 4)/5, u_d = (1 + 1)/5
    amps = amplitudes(NetworkParams(5, 1.0), math.pi / 5)
    assert amps.same_site == pytest.approx(-0.6, abs=1e-14)
    assert amps.cross_site == pytest.approx(0.4, abs=1e-14)


def test_quarter_period_values():
    # N J t = pi/2: u_s = (1 + 4i)/5, u_d = (1 - i)/5
    amps = amplitudes(NetworkParams(5, 1.0), math.pi / 10)
    assert amps.same_site == pytest.approx((1 + 4j) / 5, abs=1e-14)
    assert amps.cross_site == pytest.approx((1 - 1j) / 5, abs=1e-14)
    assert abs(amps.same_site) ** 2 == pytest.approx(17 / 25, abs=1e-14)
    assert abs(amps.cross_site) ** 2 == pytest.approx(2 / 25, abs=1e-14)
    # 17/25 + 4 * 2/25 = 1
    assert abs(amps.same_site) ** 2 + 4 * abs(amps.cross_site) ** 2 == pytest.approx(1.0)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("j", [0.5, 1.0, 2.0])
def test_unitarity_residuals(n, j):
    params = NetworkParams(n, j)
    for tau in np.linspace(0.0, 1.0, 101):
        r1, r2 = unitarity_residuals(amplitudes(params, tau * params.period), n)
        assert r1 <= 1e-12
        assert r2 <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_periodicity(n):
    params = NetworkParams(n, 1.3)
    for t in [0.0, 0.21, 1.7, -0.4]:
        a = amplitudes(params, t)
        b = amplitudes(params, t + params.period)
        assert abs(a.same_site - b.same_site) <= 1e-12
        assert abs(a.cross_site - b.cross_site) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_oracle_matches_closed_form(n):
    params = NetworkParams(n, 1.0)
    for tau in np.linspace(0.0, 1.0, 101):
        t = tau * params.period
        dev = np.abs(closed_form_matrix(params, t) - q1_unitary_oracle(params, t)).max()
        assert dev <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 8, 64, 512])
def test_oracle_eigendecomposition_route(n):
    # exp(-i t H) from eigh of the dense generator: round-off over three
    # periods either side of t = 0, and a phase error of ~t eps far out.
    params = NetworkParams(n, 1.0)
    for tau in (-3.0, -1.37, -0.5, 0.0, 0.21, 0.5, 1.7, 3.0):
        t = tau * params.period
        assert np.abs(closed_form_matrix(params, t) - q1_unitary_oracle(params, t)).max() <= 1e-12
    for tau in (1e3, 1e3 + 0.37, -1e3 - 0.21):
        t = tau * params.period
        assert np.abs(closed_form_matrix(params, t) - q1_unitary_oracle(params, t)).max() <= 1e-10


def test_oracle_is_unitary_at_n_512():
    unitary = q1_unitary_oracle(NetworkParams(512, 1.0), 0.7315)
    assert np.abs(unitary.conj().T @ unitary - np.eye(512)).max() <= 1e-12


def test_oracle_structure_at_half_period():
    params = NetworkParams(5, 1.0)
    unitary = q1_unitary_oracle(params, math.pi / 5)
    assert np.abs(np.diag(unitary) - (-0.6)).max() <= 1e-9
    off = unitary[~np.eye(5, dtype=bool)]
    assert np.abs(off - 0.4).max() <= 1e-9


def test_oracle_identity_and_unitarity():
    params = NetworkParams(5, 1.0)
    assert np.abs(q1_unitary_oracle(params, 0.0) - np.eye(5)).max() <= 1e-12
    params = NetworkParams(3, 2.0)
    unitary = q1_unitary_oracle(params, 0.7315)
    assert np.abs(unitary.conj().T @ unitary - np.eye(3)).max() <= 1e-9


def test_oracle_size_guard():
    with pytest.raises(SizeLimitError):
        q1_unitary_oracle(NetworkParams(4096, 1.0), 0.1)


def test_global_state():
    params = NetworkParams(5, 1.0)
    assert np.allclose(global_state(params, 0.0), np.eye(5)[0], atol=1e-14)
    vec = global_state(params, math.pi / 5)
    assert np.allclose(vec, [-0.6, 0.4, 0.4, 0.4, 0.4], atol=1e-13)
    for t in [0.1, 0.9, 3.3]:
        assert abs(np.linalg.norm(global_state(params, t)) - 1.0) <= 1e-12


def test_parameter_validation():
    with pytest.raises(ParameterError):
        NetworkParams(1, 1.0)
    with pytest.raises(ParameterError):
        NetworkParams(5, 0.0)
    with pytest.raises(ParameterError):
        NetworkParams(5, -1.0)
    with pytest.raises(ParameterError):
        NetworkParams(5, float("nan"))
    with pytest.raises(ParameterError):
        NetworkParams(5.5, 1.0)
    with pytest.raises(ParameterError):
        amplitudes(NetworkParams(5, 1.0), float("inf"))
    # N*J overflows (period 0) or underflows (period inf).
    with pytest.raises(ParameterError, match="period"):
        NetworkParams(5, 1e308)
    with pytest.raises(ParameterError, match="period"):
        NetworkParams(5, 5e-324)


def test_phase_overflow_is_refused():
    # t = 1e308 is finite, but N*J*t overflows; math.sin used to raise a bare
    # ValueError there and numpy's exp to return NaN.
    params = NetworkParams(5, 1.0)
    sel = SubsystemSelector(2, DynClass.CONTAINS_EXCITED)
    calls = (
        lambda t: amplitudes(params, t),
        lambda t: excitation_probability(params, sel, t),
        lambda t: reduced_state(params, sel, t),
        lambda t: qfi_closed_form(params, sel, GlobalParameter.COUPLING_J, t),
        lambda t: flow_amplitude(params, sel, 0.1, t),
        lambda t: q1_unitary_oracle(params, t),
    )
    for call in calls:
        with pytest.raises(ParameterError, match=r"overflows at t=1e\+308"):
            call(1e308)
    with pytest.raises(ParameterError, match=r"overflows at t=1e\+308"):
        amplitudes(params, np.array([0.1, 1e308, 0.2]))


def test_period_property():
    assert NetworkParams(5, 1.0).period == pytest.approx(2 * math.pi / 5)
    assert NetworkParams(4, 2.0).period == pytest.approx(math.pi / 4)
