import math

import numpy as np
import pytest

from openqnet import (
    DegenerateStateError,
    DynClass,
    NetworkParams,
    ParameterError,
    SubsystemSelector,
    entanglement_entropy,
    excitation_probability,
    materialize_density,
    reduced_density_oracle,
    reduced_state,
    trace_distance_to_fixed,
)
from openqnet import states

N5 = NetworkParams(5, 1.0)
C1 = DynClass.CONTAINS_EXCITED
C0 = DynClass.EXCLUDES_EXCITED


def test_excitation_probability_examples():
    assert excitation_probability(N5, SubsystemSelector(1, C1), 0.0) == pytest.approx(1.0)
    assert excitation_probability(N5, SubsystemSelector(1, C1), math.pi / 5) == pytest.approx(
        0.36, abs=1e-14
    )
    assert excitation_probability(N5, SubsystemSelector(1, C0), math.pi / 5) == pytest.approx(
        0.84, abs=1e-14
    )


def test_reduced_state_examples():
    state = reduced_state(N5, SubsystemSelector(1, C1), 0.0)
    assert state.excited_weight == pytest.approx(1.0)
    assert np.allclose(state.internal_vector, [1.0])

    state = reduced_state(N5, SubsystemSelector(2, C1), math.pi / 5)
    assert state.excited_weight == pytest.approx(0.52, abs=1e-14)
    expected = np.array([-0.6, 0.4]) / math.sqrt(0.52)
    assert np.allclose(state.internal_vector, expected, atol=1e-13)

    for t in [0.0, 0.3, 1.1]:
        state = reduced_state(N5, SubsystemSelector(2, C0), t)
        assert np.allclose(state.internal_vector, [1 / math.sqrt(2)] * 2, atol=1e-14)


def test_internal_vector_normalized():
    for sel in [SubsystemSelector(3, C1), SubsystemSelector(3, C0)]:
        for tau in np.linspace(0, 1, 17):
            state = reduced_state(N5, sel, tau * N5.period)
            assert abs(np.linalg.norm(state.internal_vector) - 1.0) <= 1e-12


def test_degenerate_state_error():
    # N=2, K=1 at odd half-period: the excitation probability hits zero.
    params = NetworkParams(2, 1.0)
    with pytest.raises(DegenerateStateError) as info:
        reduced_state(params, SubsystemSelector(1, C1), math.pi / 2)
    assert np.allclose(info.value.limit_direction, [1.0])


def test_materialize_density():
    state = reduced_state(N5, SubsystemSelector(1, C1), math.pi / 5)
    assert np.allclose(materialize_density(state), np.diag([0.64, 0.36]), atol=1e-13)

    zero = reduced_state(N5, SubsystemSelector(2, C0), 0.0)
    rho = materialize_density(zero)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_materialize_density_properties(n):
    params = NetworkParams(n, 1.0)
    sels = [SubsystemSelector(k, C1) for k in range(1, n + 1)]
    sels += [SubsystemSelector(k, C0) for k in range(1, n)]
    for sel in sels:
        for tau in np.linspace(0.03, 0.97, 11):
            try:
                state = reduced_state(params, sel, tau * params.period)
            except DegenerateStateError:
                assert n == 2  # only the two-qubit network ever degenerates
                continue
            rho = materialize_density(state)
            assert np.abs(rho - rho.conj().T).max() <= 1e-14
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            evals = np.sort(np.linalg.eigvalsh(rho))
            assert evals[0] >= -1e-12
            # rank-2 spectrum: {w, 1-w, 0, ...}
            w = state.excited_weight
            expected = np.sort(np.r_[np.zeros(sel.k_qubits - 1), [w, 1 - w]])
            assert np.abs(evals - expected).max() <= 1e-12


def test_entropy_examples():
    assert entanglement_entropy(N5, SubsystemSelector(1, C1), 0.0) == 0.0
    value = entanglement_entropy(N5, SubsystemSelector(1, C1), math.pi / 5)
    x = 0.64
    assert value == pytest.approx(-x * math.log(x) - (1 - x) * math.log(1 - x), abs=1e-14)
    assert value == pytest.approx(0.6534, abs=1e-4)


def test_entropy_complement_equality():
    for tau in np.linspace(0, 1, 101):
        t = tau * N5.period
        left = entanglement_entropy(N5, SubsystemSelector(2, C0), t)
        right = entanglement_entropy(N5, SubsystemSelector(3, C1), t)
        assert abs(left - right) <= 1e-12


def test_entropy_bounds():
    for k in range(1, 5):
        for tau in np.linspace(0, 1, 41):
            value = entanglement_entropy(N5, SubsystemSelector(k, C1), tau * N5.period)
            assert 0.0 <= value <= math.log(2) + 1e-12


def test_probability_conservation():
    # p1(t; K) = p0(t; N-K)
    for n in [3, 5, 8]:
        params = NetworkParams(n, 0.7)
        for k in range(1, n):
            for tau in np.linspace(0, 1, 37):
                t = tau * params.period
                p1 = excitation_probability(params, SubsystemSelector(k, C1), t)
                p0 = excitation_probability(params, SubsystemSelector(n - k, C0), t)
                assert abs(p1 - p0) <= 1e-12


def test_partition_sums():
    params = NetworkParams(6, 1.0)
    for tau in np.linspace(0, 1, 23):
        t = tau * params.period
        # Two-part partition: the literal identity.
        p1 = excitation_probability(params, SubsystemSelector(2, C1), t)
        p0 = excitation_probability(params, SubsystemSelector(4, C0), t)
        assert abs(p1 - p0) <= 1e-12
        # Multi-part partition: conservation of the excitation weight.
        missing = 1.0 - excitation_probability(params, SubsystemSelector(2, C1), t)
        held = sum(
            1.0 - excitation_probability(params, SubsystemSelector(k, C0), t) for k in (1, 3)
        )
        assert abs(missing - held) <= 1e-12


def test_trace_distance_examples():
    assert trace_distance_to_fixed(reduced_state(N5, SubsystemSelector(1, C1), 0.0)) == 1.0
    assert trace_distance_to_fixed(reduced_state(N5, SubsystemSelector(1, C0), 0.0)) == 0.0
    assert trace_distance_to_fixed(
        reduced_state(N5, SubsystemSelector(1, C1), math.pi / 5)
    ) == pytest.approx(0.36, abs=1e-14)


def test_trace_distance_matches_eigenvalue_route():
    for sel in [SubsystemSelector(1, C1), SubsystemSelector(3, C1), SubsystemSelector(2, C0)]:
        for tau in np.linspace(0, 1, 29):
            state = reduced_state(N5, sel, tau * N5.period)
            rho = materialize_density(state)
            fixed = np.zeros_like(rho)
            fixed[0, 0] = 1.0
            direct = 0.5 * np.abs(np.linalg.eigvalsh(rho - fixed)).sum()
            assert abs(trace_distance_to_fixed(state) - direct) <= 1e-12


def test_oracle_equivalence():
    for sel in [SubsystemSelector(1, C1), SubsystemSelector(4, C1), SubsystemSelector(2, C0)]:
        for tau in np.linspace(0, 1, 21):
            t = tau * N5.period
            dense = materialize_density(reduced_state(N5, sel, t))
            assert np.abs(dense - reduced_density_oracle(N5, sel, t)).max() <= 1e-9


def test_selector_validation():
    with pytest.raises(ParameterError):
        SubsystemSelector(0, C1)
    with pytest.raises(ParameterError):
        excitation_probability(N5, SubsystemSelector(6, C1), 0.0)
    with pytest.raises(ParameterError):
        excitation_probability(N5, SubsystemSelector(5, C0), 0.0)
    # K = N is legal for the containing class.
    assert excitation_probability(N5, SubsystemSelector(5, C1), 0.37) == pytest.approx(1.0)


def entropy_gap(n: int) -> float:
    # The largest gap, over every selector and 40 seeded times, between
    # entanglement_entropy and the von Neumann entropy of the partial-trace
    # oracle's spectrum, which no closed form enters.
    params = NetworkParams(n, 1.0)
    rng = np.random.default_rng(n)
    sels = [SubsystemSelector(k, C1) for k in range(1, n + 1)]
    sels += [SubsystemSelector(k, C0) for k in range(1, n)]
    worst = 0.0
    for sel in sels:
        for t in rng.uniform(0.0, 1.0, 40) * params.period:
            evals = np.linalg.eigvalsh(reduced_density_oracle(params, sel, t))
            evals = evals[evals > 0.0]
            spectral = float(-(evals * np.log(evals)).sum())
            worst = max(worst, abs(entanglement_entropy(params, sel, t) - spectral))
    return worst


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_entropy_is_the_oracle_spectrum_entropy(n):
    assert entropy_gap(n) <= 1e-12


def test_entropy_oracle_check_sees_a_relative_error_of_1e_6(monkeypatch):
    entropy = states._entropy
    monkeypatch.setattr(states, "_entropy", lambda *args: entropy(*args) * (1.0 + 1e-6))
    assert entropy_gap(5) > 1e-12
