import math
from fractions import Fraction

import numpy as np
import pytest

from openqnet import (
    DynClass,
    NetworkParams,
    ParameterError,
    SingularIntervalError,
    SizeLimitError,
    SubsystemSelector,
    Verdict,
    build_propagator,
    choi_matrix,
    choi_spectrum,
    classify,
    is_singular,
    positivity_transition_time,
)
from openqnet.amplitudes import _hop
from openqnet.propagator import apply, propagator_matrix

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


def test_choi_of_identity_map():
    ops = build_propagator(N5, SubsystemSelector(1, C1), 0.3, 0.3)
    choi = choi_matrix(ops)
    evals = np.sort(np.linalg.eigvalsh(choi))
    assert np.allclose(evals, [0, 0, 0, 2], atol=1e-12)


def test_choi_basic_structure():
    for sel in [SubsystemSelector(1, C1), SubsystemSelector(3, C1), SubsystemSelector(2, C0)]:
        ops = build_propagator(N5, sel, 0.2, 0.9)
        choi = choi_matrix(ops)
        assert np.abs(choi - choi.conj().T).max() <= 1e-12
        assert abs(np.trace(choi).real - (sel.k_qubits + 1)) <= 1e-10


def test_choi_examples():
    ops = build_propagator(N5, SubsystemSelector(1, C1), 0.0, HALF)
    assert np.linalg.eigvalsh(choi_matrix(ops)).min() >= -1e-10

    ops = build_propagator(N5, SubsystemSelector(1, C1), HALF, FULL)
    evals = np.linalg.eigvalsh(choi_matrix(ops))
    assert evals.min() == pytest.approx(-16 / 9, abs=1e-10)
    assert (evals < -1e-9).sum() == 1


def test_choi_negative_eigenvalue_scales_with_k_for_containing_class():
    # The flow term sits in a rank-1 direction orthogonal to the rest, so
    # the unique negative eigenvalue is K * flow for the containing class.
    params = NetworkParams(6, 1.0)
    for k in [1, 2, 4]:
        sel = SubsystemSelector(k, C1)
        t1, t2 = 0.45 * params.period, 0.95 * params.period
        ops = build_propagator(params, sel, t1, t2)
        assert ops.flow_weight < -1e-6
        evals = np.linalg.eigvalsh(choi_matrix(ops))
        assert (evals < -1e-9).sum() == 1
        assert evals.min() == pytest.approx(k * ops.flow_weight, abs=1e-8)


def test_choi_excluding_class_backflow_spectrum():
    # K * flow is always an exact eigenvalue; backflow additionally turns
    # the ground-sector weight negative, giving a second negative eigenvalue.
    for k, t1_frac, t2_frac in [(1, 0.45, 0.70), (2, 0.40, 0.85)]:
        sel = SubsystemSelector(k, C0)
        ops = build_propagator(N5, sel, t1_frac * N5.period, t2_frac * N5.period)
        assert ops.flow_weight < -1e-6
        assert ops.ground_extra < 0.0
        evals = np.linalg.eigvalsh(choi_matrix(ops))
        gaps = np.abs(evals - k * ops.flow_weight)
        assert gaps.min() <= 1e-10
        assert 1 <= (evals < -1e-9).sum() <= 2


def test_choi_size_guard():
    # The guard stops the dense oracle only; classify needs no dense matrix.
    for n, sel in [(64, SubsystemSelector(64, C1)), (65, SubsystemSelector(64, C0))]:
        params = NetworkParams(n, 1.0)
        ops = build_propagator(params, sel, 0.1, 0.2)
        with pytest.raises(SizeLimitError):
            choi_matrix(ops)
        assert isinstance(classify(params, sel, 0.1, 0.2).verdict, Verdict)


def _spectrum_cases():
    # Every (N, K, class) for N = 2..12 at two random windows and at t1 = t2,
    # plus K = N/2 anchors just outside the refused band around the
    # half-period (about 3.2e-5 periods, where d <= ANCHOR_RTOL).
    rng = np.random.default_rng(7)
    for n in range(2, 13):
        params = NetworkParams(n, 1.0)
        sels = [SubsystemSelector(k, C1) for k in range(1, n + 1)]
        sels += [SubsystemSelector(k, C0) for k in range(1, n)]
        for sel in sels:
            t1, t2 = rng.uniform(0, params.period, size=2)
            yield params, sel, t1, t2
            t1, t2 = rng.uniform(0, params.period, size=2)
            yield params, sel, t1, t2
            yield params, sel, t1, t1
            if 2 * sel.k_qubits == n:
                for offset in (-4e-5, 4e-5, -1e-4, 1e-4):
                    t1 = (0.5 + offset) * params.period
                    yield params, sel, t1, rng.uniform(0, params.period)


def test_choi_spectrum_matches_dense_eigenvalues():
    for params, sel, t1, t2 in _spectrum_cases():
        ops = build_propagator(params, sel, t1, t2)
        dense = np.linalg.eigvalsh(choi_matrix(ops))
        closed = np.zeros_like(dense)
        spectrum = choi_spectrum(ops)
        closed[: len(spectrum)] = spectrum
        scale = max(1.0, float(np.abs(dense).max()))
        assert np.abs(np.sort(closed) - dense).max() <= 1e-12 * scale, (params, sel, t1, t2)


def _stacked_cases():
    # The _spectrum_cases windows of each (network, selector) as one stack:
    # (params, sel, stacked ops, the ops of each window).
    groups = {}
    for params, sel, t1, t2 in _spectrum_cases():
        groups.setdefault((params, sel), []).append((float(t1), float(t2)))
    for (params, sel), windows in groups.items():
        t1, t2 = np.array(windows).T
        singles = [build_propagator(params, sel, *window) for window in windows]
        yield params, sel, build_propagator(params, sel, t1, t2), singles


def test_choi_matrix_equals_kron_loop():
    # Per window and per basis operator, apply; equal in value to the
    # stacked and the single choi_matrix (signs of zeros aside).
    for params, sel, stacked, singles in _stacked_cases():
        d = sel.k_qubits + 1
        choi = choi_matrix(stacked)
        assert choi.shape == (len(singles), d * d, d * d)
        for i, ops in enumerate(singles):
            reference = np.zeros((d * d, d * d), dtype=complex)
            for mu in range(d):
                for nu in range(d):
                    e = basis_matrix(d, mu, nu)
                    reference += np.kron(apply(ops, e), e)
            assert np.array_equal(choi_matrix(ops), reference), (params, sel, i)
            assert np.array_equal(choi[i], reference), (params, sel, i)


def test_propagator_matrix_equals_per_basis_apply():
    # Column nu*d + mu is vec(apply(ops, |mu><nu|)), equal in value. At
    # N = 17 (d = K+1 >= 17) a 1 MiB Choi chunk holds a single map.
    cases = [(p, sel, ops) for p, sel, _, singles in _stacked_cases() for ops in singles]
    n17 = NetworkParams(17, 1.0)
    for sel in (SubsystemSelector(16, C1), SubsystemSelector(17, C1), SubsystemSelector(16, C0)):
        for tau1, tau2 in ((0.2, 0.7), (0.6, 0.9)):  # dispersing, then backflow
            ops = build_propagator(n17, sel, tau1 * n17.period, tau2 * n17.period)
            cases.append((n17, sel, ops))
    for params, sel, ops in cases:
        d = sel.k_qubits + 1
        reference = np.zeros((d * d, d * d), dtype=complex)
        for mu in range(d):
            for nu in range(d):
                reference[:, nu * d + mu] = vec(apply(ops, basis_matrix(d, mu, nu)))
        assert np.array_equal(propagator_matrix(ops), reference), (params, sel, ops.t1, ops.t2)


def test_stacked_apply_equals_per_operator_apply():
    rng = np.random.default_rng(11)
    for sel in [SubsystemSelector(1, C1), SubsystemSelector(4, C1), SubsystemSelector(3, C0)]:
        ops = build_propagator(N5, sel, 0.3, 1.1)
        d = sel.k_qubits + 1
        stack = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        stacked = apply(ops, stack)
        assert stacked.shape == stack.shape
        for i in range(2):
            for j in range(3):
                assert np.array_equal(stacked[i, j], apply(ops, stack[i, j]))
    with pytest.raises(ParameterError):
        apply(ops, np.zeros((2, d, d + 1)))


def test_classify_trivial_interval():
    verdict = classify(N5, SubsystemSelector(2, C1), 0.6, 0.6)
    assert verdict.verdict is Verdict.POSITIVE_AND_CP
    assert abs(verdict.flow_sign) <= 1e-12
    assert abs(verdict.trace_dist_delta) <= 1e-12
    assert abs(verdict.choi_min_eig) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("dyn_class", [C0, C1])
def test_classify_fixed_windows(k, dyn_class):
    sel = SubsystemSelector(k, dyn_class)
    period = N5.period
    early = classify(N5, sel, 0.2 * period, 0.25 * period)
    assert early.verdict is Verdict.POSITIVE_AND_CP
    late = classify(N5, sel, 0.6 * period, 0.65 * period)
    assert late.verdict is Verdict.NON_POSITIVE_NON_CP


def test_three_routes_agree_on_random_samples():
    rng = np.random.default_rng(101)
    tol = 1e-9
    for _ in range(1500):
        n = int(rng.integers(2, 9))
        params = NetworkParams(n, 1.0)
        if rng.random() < 0.5:
            sel = SubsystemSelector(int(rng.integers(1, n + 1)), C1)
        else:
            sel = SubsystemSelector(int(rng.integers(1, n)), C0)
        while True:
            t1, t2 = rng.uniform(0, params.period, size=2)
            if not is_singular(params, sel.k_qubits, t1):
                break
        verdict = classify(params, sel, t1, t2)
        flow_cp = verdict.flow_sign >= -tol
        choi_cp = verdict.choi_min_eig >= -tol
        trace_cp = verdict.trace_dist_delta <= tol
        assert flow_cp == choi_cp == trace_cp
        assert (verdict.verdict is Verdict.POSITIVE_AND_CP) == flow_cp


def test_full_network_always_cp():
    rng = np.random.default_rng(13)
    sel = SubsystemSelector(5, C1)
    for _ in range(20):
        t1, t2 = rng.uniform(0, N5.period, size=2)
        verdict = classify(N5, sel, t1, t2)
        assert verdict.flow_sign == 0.0
        assert verdict.verdict is Verdict.POSITIVE_AND_CP
        assert verdict.choi_min_eig >= -1e-10


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf, "1e-9", None])
def test_classify_refuses_a_tolerance_that_is_not_finite_and_non_negative(tol):
    # Unchecked, nan and -1.0 would call this CP window (flow +0.086) not CP
    # and inf would call every window CP.
    with pytest.raises(ParameterError, match="tol must be"):
        classify(N5, SubsystemSelector(2, C1), 0.1, 0.2, tol=tol)
    assert classify(N5, SubsystemSelector(2, C1), 0.1, 0.2, tol=0).verdict is Verdict.POSITIVE_AND_CP


def test_classify_propagates_singularity():
    params = NetworkParams(6, 1.0)
    with pytest.raises(SingularIntervalError):
        classify(params, SubsystemSelector(3, C1), math.pi / 6, 1.0)


def test_transition_time_examples():
    period = N5.period
    for sel in [SubsystemSelector(1, C1), SubsystemSelector(3, C0)]:
        t = positivity_transition_time(N5, sel, 0.05 * period)
        assert abs(t - 0.475 * period) <= 1e-10 * period
    t = positivity_transition_time(N5, SubsystemSelector(1, C1), 0.5 * period)
    assert abs(t - 0.25 * period) <= 1e-10 * period
    # dt -> 0 pushes the transition to the half-period peak of |u_d|^2.
    tiny = 1e-6 * period
    t = positivity_transition_time(N5, SubsystemSelector(1, C1), tiny)
    assert abs(t - (0.5 * period - tiny / 2)) <= 1e-10 * period


def test_transition_verdict_flip():
    period = N5.period
    dt = 0.05 * period
    sel = SubsystemSelector(2, C1)
    t_star = positivity_transition_time(N5, sel, dt)
    before = classify(N5, sel, t_star - 1e-6 * period, t_star - 1e-6 * period + dt)
    after = classify(N5, sel, t_star + 1e-6 * period, t_star + 1e-6 * period + dt)
    assert before.verdict is Verdict.POSITIVE_AND_CP
    assert after.verdict is Verdict.NON_POSITIVE_NON_CP


def full_bisection(above, lo, hi):
    """All 200 halvings, with no early stop: the independent route to the flip."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [2, 5, 64])
@pytest.mark.parametrize("j", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("tau", [1e-9, 1e-3, 0.05, 0.5, 0.9, 1 - 1e-9])
def test_transition_time_equals_a_full_bisection(n, j, tau):
    # The closed form (T - dt)/2 within 1e-15 T of its exact value, and the
    # flip that a full bisection of |u_d|^2 locates where the crossing is well
    # conditioned (dt >= 1e-3 T), within the bisection's own error: round-off
    # over the slope of |u_d|^2(t + dt) - |u_d|^2(t), eps T^2 / dt (measured:
    # 67 ulps of T at dt = 1e-3 T, at most 1.5 from 0.05 T on). At dt = 1e-9 T
    # that difference is below round-off near the peak, and the bisection
    # lands 7e-9 T off.
    params = NetworkParams(n, j)
    period, eps = params.period, np.finfo(float).eps
    dt = tau * period
    got = positivity_transition_time(params, SubsystemSelector(1, C1), dt)
    exact = (Fraction(period) - Fraction(dt)) / 2
    assert abs(Fraction(got) - exact) <= Fraction(1e-15) * Fraction(period)
    if tau >= 1e-3:
        want = full_bisection(
            lambda t: _hop(n, j, t + dt)[0] > _hop(n, j, t)[0], 0.0, 0.5 * period
        )
        assert abs(got - want) <= eps * period * period / dt


def test_transition_time_validation():
    with pytest.raises(ParameterError):
        positivity_transition_time(N5, SubsystemSelector(1, C1), 0.0)
    with pytest.raises(ParameterError):
        positivity_transition_time(N5, SubsystemSelector(1, C1), N5.period)
