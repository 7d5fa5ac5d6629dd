import math

import numpy as np
import pytest

from openqnet import (
    DynClass,
    NetworkParams,
    SingularIntervalError,
    SizeLimitError,
    SubsystemSelector,
    UnsupportedOracleError,
    build_propagator,
    compose_residual,
    dynamical_map_oracle,
    global_state,
    is_singular,
    propagator_matrix,
    propagator_oracle,
    q1_unitary_oracle,
    reduced_density_oracle,
)
from openqnet.oracle import TOMOGRAPHY_MAX_QUBITS, _partial_traces, _subsystem_sites

N5 = NetworkParams(5, 1.0)
C1 = DynClass.CONTAINS_EXCITED
C0 = DynClass.EXCLUDES_EXCITED
HALF = math.pi / 5
FULL = 2 * math.pi / 5


def basis_matrix(dim, mu, nu):
    # The operator-basis element |mu><nu|.
    e = np.zeros((dim, dim), dtype=complex)
    e[mu, nu] = 1.0
    return e


def vec(matrix):
    # Column-stacking, the column layout of propagator_matrix.
    return matrix.reshape(-1, order="F")


def unvec(vector, dim):
    return vector.reshape(dim, dim, order="F")


def test_sites_choice():
    assert _subsystem_sites(N5, SubsystemSelector(3, C1)) == (0, 1, 2)
    assert _subsystem_sites(N5, SubsystemSelector(3, C0)) == (1, 2, 3)


def _row(q0_amp, q1_amps):
    # One global vector as _partial_traces reads it: the q0 amplitude, then
    # site i's at 1 + i.
    return np.concatenate(([q0_amp], q1_amps), dtype=complex)


def _trace(psi, chi, sites):
    # Tr_env |psi><chi| of one pair of rows.
    return _partial_traces(psi[None], chi[None], sites)[0, 0]


def test_partial_trace_of_generating_orbit():
    psi = _row(0.0, global_state(N5, HALF))
    rho = _trace(psi, psi, (0,))
    assert np.allclose(rho, np.diag([0.64, 0.36]), atol=1e-13)
    assert abs(np.trace(rho).real - np.vdot(psi, psi).real) <= 1e-13


def _partial_trace_loop(psi, chi, sites):
    # Reference: the trace of two rows filled one entry at a time.
    n = len(psi) - 1
    env = [i for i in range(n) if i not in set(sites)]
    k = len(sites)
    out = np.zeros((k + 1, k + 1), dtype=complex)
    out[0, 0] = psi[0] * np.conj(chi[0]) + sum(psi[1 + i] * np.conj(chi[1 + i]) for i in env)
    for a, site_a in enumerate(sites):
        out[a + 1, 0] = psi[1 + site_a] * np.conj(chi[0])
        out[0, a + 1] = psi[0] * np.conj(chi[1 + site_a])
        for b, site_b in enumerate(sites):
            out[a + 1, b + 1] = psi[1 + site_a] * np.conj(chi[1 + site_b])
    return out


def _dynamical_map_loop(params, sel, t):
    # Reference: one looped trace per column of the map.
    n, d = params.n_qubits, sel.k_qubits + 1
    unitary = q1_unitary_oracle(params, t)
    sites = _subsystem_sites(params, sel)
    evolved = [_row(1.0, np.zeros(n))]
    evolved += [_row(0.0, unitary[:, mu - 1]) for mu in range(1, d)]
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
    return amps / np.linalg.norm(amps)


TAUS = (-1.93, -1.0, -0.61, 0.0, 0.37, 0.5, 1.28, 2.0)  # periods


def test_partial_trace_matches_loop():
    rng = np.random.default_rng(97)
    for n in range(2, 13):
        for k in range(1, n + 1):
            psi, chi = _random_vector(rng, n), _random_vector(rng, n)
            sites = tuple(int(i) for i in rng.permutation(n)[:k])
            ref = _partial_trace_loop(psi, chi, sites)
            assert np.abs(_trace(psi, chi, sites) - ref).max() <= 1e-14
    psi, chi = _random_vector(rng, 5), _random_vector(rng, 5)
    rho = _trace(psi, chi, (3, 1))
    assert np.abs(rho - _partial_trace_loop(psi, chi, (3, 1))).max() <= 1e-14
    assert rho[1, 2] == psi[1 + 3] * np.conj(chi[1 + 1])


def test_partial_traces_of_stacks_match_the_loop_pair_by_pair():
    # Every ket/bra pair of a (2, 3, N+1) and a (2, 4, N+1) stack.
    rng = np.random.default_rng(101)
    n, sites = 7, (5, 0, 2)
    kets = np.array([[_random_vector(rng, n) for _ in range(3)] for _ in range(2)])
    bras = np.array([[_random_vector(rng, n) for _ in range(4)] for _ in range(2)])
    traces = _partial_traces(kets, bras, sites)
    assert traces.shape == (2, 3, 4, 4, 4)
    for s, m, b in np.ndindex(2, 3, 4):
        ref = _partial_trace_loop(kets[s, m], bras[s, b], sites)
        assert np.abs(traces[s, m, b] - ref).max() <= 1e-14, (s, m, b)


def test_reduced_density_matches_loop():
    for n in range(2, 13):
        params = NetworkParams(n, 1.0)
        sels = [SubsystemSelector(k, C1) for k in range(1, n + 1)]
        sels += [SubsystemSelector(k, C0) for k in range(1, n)]
        for tau in TAUS:
            t = tau * params.period
            evolved = _row(0.0, q1_unitary_oracle(params, t)[:, 0])
            for sel in sels:
                ref = _partial_trace_loop(evolved, evolved, _subsystem_sites(params, sel))
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


def test_dynamical_map_size_guard():
    # SizeLimitError, as every dense-size guard raises, before any unitary.
    params = NetworkParams(TOMOGRAPHY_MAX_QUBITS + 1, 1.0)
    with pytest.raises(SizeLimitError, match="tomography guarded at N <= 512, got N=513"):
        dynamical_map_oracle(params, SubsystemSelector(1, C1), 0.1)
    with pytest.raises(SizeLimitError):
        propagator_oracle(params, SubsystemSelector(2, C1), np.array([0.1, 0.2]), 0.3)


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


@pytest.mark.parametrize("n", range(2, 13))
def test_anchor_test_guarantees_the_inverse(n):
    # Anchors 1e-2 down to 4e-5 periods to either side of odd half-periods,
    # every containing-class K (the K = N/2 maps are the near-singular ones):
    # whatever the anchor test accepts, the LU solves of the tomography oracle
    # and of compose_residual succeed, and the oracle stays within round-off
    # of the SVD pseudo-inverse route, relative to cond(map(t1)).
    params = NetworkParams(n, 1.0)
    rng = np.random.default_rng(97 + n)
    for k in range(1, n):
        sel = SubsystemSelector(k, C1)
        rho = np.eye(k + 1, dtype=complex) / (k + 1)
        for half in (0.5, 1.5):
            for eps in (1e-2, 1e-3, 1e-4, 4e-5):
                for t1 in ((half - eps) * params.period, (half + eps) * params.period):
                    assert not is_singular(params, k, t1)
                    t2 = float(rng.uniform(0, 2 * params.period))
                    got = propagator_oracle(params, sel, t1, t2)
                    m1 = dynamical_map_oracle(params, sel, t1)
                    ref = dynamical_map_oracle(params, sel, t2) @ np.linalg.pinv(m1, rcond=1e-10)
                    scale = np.linalg.cond(m1) * np.finfo(float).eps * np.abs(ref).max()
                    assert np.isfinite(got).all()
                    assert np.abs(got - ref).max() <= 100 * scale, (k, t1, t2)
                    assert math.isfinite(compose_residual(params, sel, t1, t2, rho))


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
