import math

import numpy as np
import pytest

from openqnet import (
    DynClass,
    GlobalVector,
    NetworkParams,
    ParameterError,
    SingularIntervalError,
    SubsystemSelector,
    UnsupportedOracleError,
    bilinear_partial_trace,
    build_propagator,
    dynamical_map_oracle,
    global_state,
    is_singular,
    propagator_matrix,
    propagator_oracle,
    q1_unitary_oracle,
    reduced_density_oracle,
    subsystem_sites,
)
from openqnet.linalg import basis_matrix, unvec, vec

N5 = NetworkParams(5, 1.0)
C1 = DynClass.CONTAINS_EXCITED
C0 = DynClass.EXCLUDES_EXCITED
HALF = math.pi / 5
FULL = 2 * math.pi / 5


def test_sites_choice():
    assert subsystem_sites(N5, SubsystemSelector(3, C1)) == (0, 1, 2)
    assert subsystem_sites(N5, SubsystemSelector(3, C0)) == (1, 2, 3)


def test_partial_trace_of_generating_orbit():
    psi = GlobalVector(0.0, global_state(N5, HALF), 5)
    rho = bilinear_partial_trace(psi, psi, (0,))
    assert np.allclose(rho, np.diag([0.64, 0.36]), atol=1e-13)
    assert abs(np.trace(rho).real - psi.norm_sq) <= 1e-13


def test_partial_trace_validation():
    psi = GlobalVector(0.0, global_state(N5, 0.3), 5)
    chi = GlobalVector(0.0, global_state(NetworkParams(4, 1.0), 0.3), 4)
    with pytest.raises(ParameterError):
        bilinear_partial_trace(psi, chi, (0,))
    with pytest.raises(ParameterError):
        bilinear_partial_trace(psi, psi, (0, 0))
    with pytest.raises(ParameterError):
        bilinear_partial_trace(psi, psi, (7,))


def test_global_vector_rejects_wrong_length():
    for length in (6, 4):
        with pytest.raises(ParameterError, match=r"q1_amps must have shape \(5,\)"):
            GlobalVector(0.0, np.full(length, 1 / math.sqrt(length), dtype=complex), 5)


def _partial_trace_loop(psi, chi, sites):
    # Reference: the trace filled one entry at a time.
    n = psi.n_qubits
    env = [i for i in range(n) if i not in set(sites)]
    k = len(sites)
    out = np.zeros((k + 1, k + 1), dtype=complex)
    out[0, 0] = psi.q0_amp * np.conj(chi.q0_amp) + sum(
        psi.q1_amps[i] * np.conj(chi.q1_amps[i]) for i in env
    )
    for a, site_a in enumerate(sites):
        out[a + 1, 0] = psi.q1_amps[site_a] * np.conj(chi.q0_amp)
        out[0, a + 1] = psi.q0_amp * np.conj(chi.q1_amps[site_a])
        for b, site_b in enumerate(sites):
            out[a + 1, b + 1] = psi.q1_amps[site_a] * np.conj(chi.q1_amps[site_b])
    return out


def _dynamical_map_loop(params, sel, t):
    # Reference: one looped trace per column of the map.
    n, d = params.n_qubits, sel.k_qubits + 1
    unitary = q1_unitary_oracle(params, t)
    sites = subsystem_sites(params, sel)
    evolved = [GlobalVector(1.0, np.zeros(n, dtype=complex), n)]
    evolved += [GlobalVector(0.0, unitary[:, mu - 1].copy(), n) for mu in range(1, d)]
    out = np.zeros((d * d, d * d), dtype=complex)
    for nu in range(d):
        for mu in range(d):
            block = _partial_trace_loop(evolved[mu], evolved[nu], sites)
            out[:, nu * d + mu] = block.reshape(-1, order="F")
    return out


def _random_vector(rng, n):
    # Normalised; the q0 amplitude is drawn well away from zero.
    amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    amps[0] = (0.3 + rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
    amps /= np.linalg.norm(amps)
    return GlobalVector(complex(amps[0]), amps[1:], n)


TAUS = (-1.93, -1.0, -0.61, 0.0, 0.37, 0.5, 1.28, 2.0)  # periods


def test_partial_trace_matches_loop():
    rng = np.random.default_rng(97)
    for n in range(2, 13):
        for k in range(1, n + 1):
            psi, chi = _random_vector(rng, n), _random_vector(rng, n)
            sites = tuple(int(i) for i in rng.permutation(n)[:k])
            ref = _partial_trace_loop(psi, chi, sites)
            assert np.abs(bilinear_partial_trace(psi, chi, sites) - ref).max() <= 1e-14
    psi, chi = _random_vector(rng, 5), _random_vector(rng, 5)
    rho = bilinear_partial_trace(psi, chi, (3, 1))
    assert np.abs(rho - _partial_trace_loop(psi, chi, (3, 1))).max() <= 1e-14
    assert rho[1, 2] == psi.q1_amps[3] * np.conj(chi.q1_amps[1])


def test_reduced_density_matches_loop():
    for n in range(2, 13):
        params = NetworkParams(n, 1.0)
        sels = [SubsystemSelector(k, C1) for k in range(1, n + 1)]
        sels += [SubsystemSelector(k, C0) for k in range(1, n)]
        for tau in TAUS:
            t = tau * params.period
            evolved = GlobalVector(0.0, q1_unitary_oracle(params, t)[:, 0].copy(), n)
            for sel in sels:
                ref = _partial_trace_loop(evolved, evolved, subsystem_sites(params, sel))
                assert np.abs(reduced_density_oracle(params, sel, t) - ref).max() <= 1e-14


def test_dynamical_map_matches_loop():
    for n in range(2, 13):
        params = NetworkParams(n, 1.0)
        for k in range(1, n + 1):
            sel = SubsystemSelector(k, C1)
            for tau in TAUS[(n + k) % 2 :: 2]:  # every other time, alternating with k
                t = tau * params.period
                ref = _dynamical_map_loop(params, sel, t)
                assert np.abs(dynamical_map_oracle(params, sel, t) - ref).max() <= 1e-14


def test_reduced_density_examples():
    rho = reduced_density_oracle(N5, SubsystemSelector(1, C1), 0.0)
    assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-14)

    rho = reduced_density_oracle(N5, SubsystemSelector(1, C1), HALF)
    assert np.allclose(rho, np.diag([0.64, 0.36]), atol=1e-12)


def test_reduced_density_excluding_class_structure():
    rho = reduced_density_oracle(N5, SubsystemSelector(3, C0), 0.29)
    evals, evecs = np.linalg.eigh(rho)
    assert (evals > 1e-12).sum() == 2
    # The eigenvector living in the q=1 sector is uniform over the sites.
    excited = [i for i in range(4) if evals[i] > 1e-12 and abs(evecs[0, i]) < 1e-9]
    assert len(excited) == 1
    q1_part = evecs[1:, excited[0]]
    assert np.abs(np.abs(q1_part) - 1 / math.sqrt(3)).max() <= 1e-10


def test_dynamical_map_identity_at_zero():
    mat = dynamical_map_oracle(N5, SubsystemSelector(2, C1), 0.0)
    assert np.abs(mat - np.eye(9)).max() <= 1e-12


def test_dynamical_map_reproduces_single_qubit_elements():
    mat = dynamical_map_oracle(N5, SubsystemSelector(1, C1), HALF)
    # Population column: |1><1| -> flow * |0><0| + |phi_s|^2 |1><1|.
    image = unvec(mat @ vec(basis_matrix(2, 1, 1)), 2)
    assert image[0, 0].real == pytest.approx(0.64, abs=1e-12)
    assert image[1, 1].real == pytest.approx(0.36, abs=1e-12)
    # Coherence column scales by phi_s = -0.6 (ground phase is unity).
    image = unvec(mat @ vec(basis_matrix(2, 0, 1)), 2)
    assert image[0, 1] == pytest.approx(-0.6, abs=1e-12)


def test_dynamical_map_matches_closed_form():
    for n in [3, 5, 6]:
        params = NetworkParams(n, 1.0)
        for k in range(1, n + 1):
            sel = SubsystemSelector(k, C1)
            for tau in (0.17, 0.62):
                t = tau * params.period
                brute = dynamical_map_oracle(params, sel, t)
                closed = propagator_matrix(build_propagator(params, sel, 0.0, t))
                assert np.abs(brute - closed).max() <= 1e-9


def test_dynamical_map_rejects_excluding_class():
    with pytest.raises(UnsupportedOracleError):
        dynamical_map_oracle(N5, SubsystemSelector(2, C0), 0.4)


def test_propagator_oracle_examples():
    sel = SubsystemSelector(1, C1)
    ident = propagator_oracle(N5, sel, 0.37, 0.37)
    assert np.abs(ident - np.eye(4)).max() <= 1e-10

    expanding = propagator_oracle(N5, sel, HALF, FULL)
    closed = propagator_matrix(build_propagator(N5, sel, HALF, FULL))
    assert np.abs(expanding - closed).max() <= 1e-8
    # The reconstructed map carries the expanding z-shift of -16/9:
    # populations of |0><0| map to (1, 0) + flow pattern...
    image = unvec(expanding @ vec(basis_matrix(2, 1, 1)), 2)
    assert image[0, 0].real == pytest.approx(-16 / 9, abs=1e-9)


def test_propagator_oracle_random_sweep():
    rng = np.random.default_rng(83)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        params = NetworkParams(n, 1.0)
        k = int(rng.integers(1, n))
        sel = SubsystemSelector(k, C1)
        while True:
            t1, t2 = rng.uniform(0, params.period, size=2)
            if not is_singular(params, k, t1):
                break
        brute = propagator_oracle(params, sel, t1, t2)
        closed = propagator_matrix(build_propagator(params, sel, t1, t2))
        assert np.abs(brute - closed).max() <= 1e-8


def test_propagator_oracle_singular_anchor():
    params = NetworkParams(6, 1.0)
    with pytest.raises(SingularIntervalError):
        propagator_oracle(params, SubsystemSelector(3, C1), math.pi / 6, 0.8)


def test_excluding_class_orbit_agreement():
    # The excluding-class propagator is validated on physically reached
    # states: push the oracle state at t1 forward and compare at t2.
    rng = np.random.default_rng(89)
    from openqnet import apply

    for _ in range(25):
        n = int(rng.integers(3, 7))
        params = NetworkParams(n, 1.0)
        k = int(rng.integers(1, n))
        sel = SubsystemSelector(k, C0)
        while True:
            t1, t2 = rng.uniform(0, params.period, size=2)
            if not is_singular(params, k, t1):
                break
        ops = build_propagator(params, sel, t1, t2)
        moved = apply(ops, reduced_density_oracle(params, sel, t1))
        target = reduced_density_oracle(params, sel, t2)
        assert np.abs(moved - target).max() <= 1e-9
