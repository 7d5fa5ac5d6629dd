import math

import numpy as np
import pytest

from openqnet import (
    DynClass,
    FlowObservation,
    InconsistentObservationError,
    IndeterminateFlowError,
    NetworkParams,
    ParameterError,
    SubsystemSelector,
    amplitudes,
    conservation_residual,
    estimate_period,
    excitation_probability,
    flow_amplitude,
    infer_coupling,
    infer_network_size,
    is_singular,
    two_qubit_consistency,
)
from openqnet.inference import FLOW_FLOOR, SizeEstimate, _size_estimates

C1 = DynClass.CONTAINS_EXCITED
C0 = DynClass.EXCLUDES_EXCITED


def simulate_observation(params, t1, t2):
    sel1 = SubsystemSelector(1, C1)
    sel0 = SubsystemSelector(1, C0)
    return FlowObservation(
        flow_class1=flow_amplitude(params, sel1, t1, t2),
        flow_class0=flow_amplitude(params, sel0, t1, t2),
        ground_prob_t1=excitation_probability(params, sel0, t1),
    )


def test_two_qubit_consistency_examples():
    assert two_qubit_consistency(FlowObservation(0.3, 0.3, 1.0), 1e-12)
    assert not two_qubit_consistency(FlowObservation(0.64, 0.16, 1.0), 1e-9)


def test_two_qubit_consistency_for_actual_pair():
    params = NetworkParams(2, 1.0)
    rng = np.random.default_rng(61)
    for _ in range(25):
        while True:
            t1, t2 = rng.uniform(0, params.period, size=2)
            if not is_singular(params, 1, t1):
                break
        obs = simulate_observation(params, t1, t2)
        assert two_qubit_consistency(obs, 1e-10)


def test_consistency_fails_somewhere_for_larger_networks():
    params = NetworkParams(3, 1.0)
    obs = simulate_observation(params, 0.0, 0.4 * params.period)
    assert not two_qubit_consistency(obs, 1e-6)


def test_infer_size_example():
    estimate = infer_network_size(FlowObservation(0.64, 0.16, 1.0))
    assert estimate.estimate == pytest.approx(5.0, abs=1e-12)
    assert estimate.nearest == 5
    assert abs(estimate.residual) <= 1e-12


def test_infer_size_from_simulated_flows():
    params = NetworkParams(8, 1.0)
    obs = simulate_observation(params, 0.0, math.pi / 8)
    estimate = infer_network_size(obs)
    assert abs(estimate.estimate - 8.0) <= 1e-9


def test_equal_flows_mean_closed_pair():
    estimate = infer_network_size(FlowObservation(0.25, 0.25, 1.0))
    assert estimate.estimate == pytest.approx(2.0, abs=1e-12)
    assert estimate.nearest == 2


def test_infer_size_errors():
    with pytest.raises(IndeterminateFlowError):
        infer_network_size(FlowObservation(0.0, 0.0, 1.0))
    # Flow pattern no closed network can produce: bracket > 1.
    with pytest.raises(InconsistentObservationError):
        infer_network_size(FlowObservation(-0.3, 0.4, 1.0))
    with pytest.raises(ParameterError):
        FlowObservation(0.3, 0.2, 0.0)
    with pytest.raises(ParameterError):
        FlowObservation(0.3, 0.2, 1.5)


def test_roundtrip_over_sizes_and_couplings():
    rng = np.random.default_rng(67)
    for n in range(3, 13):
        for j in (0.5, 1.0, 2.0):
            params = NetworkParams(n, j)
            done = 0
            while done < 8:
                t1, t2 = rng.uniform(0, params.period, size=2)
                if is_singular(params, 1, t1):
                    continue
                obs = simulate_observation(params, t1, t2)
                if min(abs(obs.flow_class0), abs(obs.flow_class1)) < 1e-6:
                    continue
                estimate = infer_network_size(obs)
                assert abs(estimate.estimate - n) <= 1e-8
                assert estimate.nearest == n
                done += 1


def test_infer_coupling():
    assert infer_coupling(2 * math.pi / 5, 5.0) == pytest.approx(1.0, rel=1e-14)
    assert infer_coupling(math.pi / 5, 5.0) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ParameterError):
        infer_coupling(0.0, 5.0)
    with pytest.raises(ParameterError):
        infer_coupling(1.0, 1.0)


def test_conservation_residual_examples():
    params = NetworkParams(5, 1.0)
    assert conservation_residual(params, 1, 0.0, math.pi / 5) <= 1e-12
    # Identity value at that interval: 0.16*(1/0.16 - 1/0.64) = 0.75 = 1 - 1/4.
    flow0 = flow_amplitude(params, SubsystemSelector(1, C0), 0.0, math.pi / 5)
    flow1 = flow_amplitude(params, SubsystemSelector(1, C1), 0.0, math.pi / 5)
    lhs = 0.16 * (1 / flow0 - 1 / flow1)
    assert lhs == pytest.approx(0.75, abs=1e-12)

    rng = np.random.default_rng(71)
    params = NetworkParams(6, 1.0)
    done = 0
    while done < 10:
        t1, t2 = rng.uniform(0, params.period, size=2)
        if is_singular(params, 2, t1):
            continue
        try:
            assert conservation_residual(params, 2, t1, t2) <= 1e-10
        except IndeterminateFlowError:
            continue
        done += 1


def test_conservation_residual_indeterminate():
    params = NetworkParams(5, 1.0)
    with pytest.raises(IndeterminateFlowError):
        conservation_residual(params, 1, 0.3, 0.3)
    # t2 mirroring t1 about the half-period also carries no net flow.
    with pytest.raises(IndeterminateFlowError):
        conservation_residual(params, 1, 0.2 * params.period, 0.8 * params.period)


def test_period_estimate_recovers_coupling():
    params = NetworkParams(6, 0.7)
    sel1 = SubsystemSelector(1, C1)
    dt = 0.05 * params.period

    def observed(t):
        return flow_amplitude(params, sel1, t, t + dt)

    period = estimate_period(observed, dt, 2.0 * params.period)
    assert abs(period - params.period) <= 1e-9
    assert abs(infer_coupling(period, 6.0) - 0.7) <= 1e-6


def full_bisection(above, lo, hi):
    """All 200 halvings, with no early stop: the reference for the shared helper."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [3, 6, 30])
@pytest.mark.parametrize("j", [1e-3, 0.7, 1e3])
@pytest.mark.parametrize("tau", [2e-3, 0.05, 0.3])
def test_period_estimate_equals_a_full_bisection(n, j, tau):
    params = NetworkParams(n, j)
    sel1 = SubsystemSelector(1, C1)
    dt = tau * params.period

    def observed(t):
        return flow_amplitude(params, sel1, t, t + dt)

    # estimate_period's scan, t <- 2t + dt/4 up to t_max, to the first probe
    # where the flow turns backward.
    t_max = 2.0 * params.period
    prev_t, t = 0.0, 0.25 * dt
    while not (observed(prev_t) > 0.0 and observed(t) <= 0.0):
        prev_t, t = t, min(2.0 * t + 0.25 * dt, t_max)
    want = 2.0 * full_bisection(lambda s: observed(s) > 0.0, prev_t, t) + dt
    assert estimate_period(observed, dt, t_max) == want


@pytest.mark.parametrize("dt", [0.5, 0.25, 0.125, 0.0625])
def test_period_scan_steps_over_no_backflow_interval(dt):
    # At dt = P/2^k a scan t <- 2t + dt/2 probes the crossing P/2 - dt/2 and
    # then P - dt/2, where the first backflow interval ends: both are zeros of
    # the hop change with round-off signs, and it stepped past the interval
    # (J 3 or 5 times too small) in 104 of 810 such cases.
    for n in (2, 3, 4, 8, 50):
        for j in np.geomspace(1e-3, 1e3, 25):
            params = NetworkParams(n, j)
            window = dt * params.period
            change = lambda t: amplitudes(params, t + window).cross_abs2 - amplitudes(params, t).cross_abs2
            period = estimate_period(change, window, 2.5 * params.period)
            assert abs(period - params.period) <= 1e-9 * params.period, (n, j)


def test_period_estimate_errors():
    with pytest.raises(ParameterError):
        estimate_period(lambda t: 1.0, 0.0, 1.0)
    with pytest.raises(IndeterminateFlowError):
        estimate_period(lambda t: 1.0, 0.1, 1.0)  # never changes sign


def test_size_estimates_equal_scalar_calls_bit_for_bit():
    # Simulated windows of several networks, with equal flows (N = 2),
    # flows at and around FLOW_FLOOR, and pairs that admit no size or one
    # below two qubits: each row equals infer_network_size, or is NaN where
    # that raises.
    rng = np.random.default_rng(1904)
    rows = []
    for n in (2, 3, 5, 8, 50):
        params = NetworkParams(n, 0.7)
        for t1, t2 in rng.uniform(0, params.period, (60, 2)):
            if not is_singular(params, 1, t1):
                obs = simulate_observation(params, t1, t2)
                rows.append((obs.flow_class1, obs.flow_class0, obs.ground_prob_t1))
    floor = FLOW_FLOOR
    rows += [(0.25, 0.25, 1.0), (0.64, 0.16, 1.0), (-0.3, 0.4, 1.0), (0.3, -0.3, 0.5), (0.5, 1.0, 1.0),
             (floor, 0.2, 0.9), (np.nextafter(floor, 0), 0.2, 0.9), (0.2, -floor, 0.9), (0.0, 0.0, 1.0),
             (1e-300, 1e300, 1.0), (1e300, 1e-300, 1.0), (0.1, 0.1 * (1 + 1e-15), 1e-300)]
    rows += [(a, b, g) for (a, b), g in zip(rng.uniform(-1.0, 1.0, (300, 2)).tolist(), rng.uniform(1e-3, 1.0, 300).tolist())]
    flow1, flow0, ground = (np.array(c) for c in zip(*rows))
    got = _size_estimates(flow1, flow0, ground)
    kinds = set()
    for i, row in enumerate(rows):
        try:
            want = infer_network_size(FlowObservation(*row))
        except (IndeterminateFlowError, InconsistentObservationError) as exc:
            kinds.add(type(exc))
            assert all(math.isnan(field[i]) for field in got), row
            continue
        kinds.add(SizeEstimate)
        assert type(want.nearest) is int
        for field, value in zip(got, want):
            assert field[i].tobytes() == np.float64(value).tobytes(), (row, want)
    assert kinds == {SizeEstimate, IndeterminateFlowError, InconsistentObservationError}
