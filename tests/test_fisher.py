import math
import re
import sys

import numpy as np
import pytest

from openqnet import (
    DegenerateStateError,
    DivergenceError,
    DynClass,
    GlobalParameter,
    NetworkParams,
    ParameterError,
    PoleError,
    SubsystemSelector,
    Verdict,
    classify,
    process_state_split,
    qfi_closed_form,
    qfi_numeric_oracle,
)

N5 = NetworkParams(5, 1.0)
C1 = DynClass.CONTAINS_EXCITED
C0 = DynClass.EXCLUDES_EXCITED
J = GlobalParameter.COUPLING_J
SIZE = GlobalParameter.SIZE_N


def all_selectors(params):
    sels = [SubsystemSelector(k, C1) for k in range(1, params.n_qubits + 1)]
    sels += [SubsystemSelector(k, C0) for k in range(1, params.n_qubits)]
    return sels


def test_full_network_coupling_information():
    for t in [0.2, 0.7, 1.9]:
        breakdown = qfi_closed_form(N5, SubsystemSelector(5, C1), J, t)
        assert breakdown.classical == 0.0
        assert breakdown.total == pytest.approx(4 * t * t * 4, rel=1e-14)


def test_excluding_class_example():
    t = math.pi / 10  # N J t / 2 = pi/4
    breakdown = qfi_closed_form(N5, SubsystemSelector(1, C0), J, t)
    assert breakdown.quantum == 0.0
    assert breakdown.classical == pytest.approx(4 * t * t * 0.5 / 0.92, abs=1e-14)
    assert breakdown.classical == pytest.approx(0.21456, abs=1e-5)


def test_half_period_zero_for_single_qubit():
    t = 0.5 * N5.period
    breakdown = qfi_closed_form(N5, SubsystemSelector(1, C1), J, t)
    assert breakdown.total <= 1e-10


def test_breakdown_invariants():
    for sel in all_selectors(N5):
        for theta in (J, SIZE):
            if theta is SIZE and sel.dyn_class is C1 and sel.k_qubits == 5:
                continue
            for tau in np.linspace(0.04, 0.96, 9):
                breakdown = qfi_closed_form(N5, sel, theta, tau * N5.period)
                assert breakdown.classical >= 0.0
                assert breakdown.quantum >= 0.0
                assert breakdown.total == pytest.approx(
                    breakdown.classical + breakdown.quantum, abs=1e-12
                )
                if sel.dyn_class is C0:
                    assert breakdown.quantum == 0.0


def test_size_divergence_at_full_network():
    with pytest.raises(DivergenceError):
        qfi_closed_form(N5, SubsystemSelector(5, C1), SIZE, 0.3)


def test_degenerate_point_raises():
    # N=2, K=1 at an odd half-period: the mixing probability vanishes.
    params = NetworkParams(2, 1.0)
    t = 0.5 * params.period
    for cls in (C0, C1):
        for theta in (J, SIZE):
            with pytest.raises(DegenerateStateError, match="t="):
                qfi_closed_form(params, SubsystemSelector(1, cls), theta, t)
    # The whole network keeps p = 1 there and stays finite.
    assert qfi_closed_form(params, SubsystemSelector(2, C1), J, t).total == pytest.approx(4 * t * t)


def test_classical_symmetry_between_classes():
    for k in range(1, 5):
        for tau in np.linspace(0.05, 0.95, 11):
            t = tau * N5.period
            left = qfi_closed_form(N5, SubsystemSelector(k, C0), J, t).classical
            right = qfi_closed_form(N5, SubsystemSelector(5 - k, C1), J, t).classical
            assert abs(left - right) <= 1e-10 * max(1.0, abs(left))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_oracle_agreement(n):
    params = NetworkParams(n, 1.0)
    for sel in all_selectors(params):
        for theta in (J, SIZE):
            if theta is SIZE and sel.dyn_class is C1 and sel.k_qubits == n:
                continue
            for tau in np.linspace(0.07, 0.93, 7):
                t = tau * params.period
                closed = qfi_closed_form(params, sel, theta, t).total
                numeric = qfi_numeric_oracle(params, sel, theta, t)
                assert abs(closed - numeric) <= max(1e-4 * abs(closed), 1e-8)


def test_oracle_at_time_zero():
    assert qfi_numeric_oracle(N5, SubsystemSelector(2, C1), J, 0.0) <= 1e-12


def test_integer_period_closed_form_is_the_limit():
    # Where the mixing probability returns to 1 the information is a 0/0
    # ratio with a finite limit; the closed form evaluates it directly and
    # the numeric oracle is trusted only through one-sided limits there.
    sel = SubsystemSelector(2, C1)
    for m in (1, 2):
        t_star = m * N5.period
        closed = qfi_closed_form(N5, sel, J, t_star).total
        assert math.isfinite(closed) and closed > 0
        eps = 1e-6 * N5.period
        plus = qfi_numeric_oracle(N5, sel, J, t_star + eps)
        minus = qfi_numeric_oracle(N5, sel, J, t_star - eps)
        assert abs(0.5 * (plus + minus) - closed) <= 1e-4 * closed


def test_nonadditive_information():
    t = 0.3 * N5.period
    separate = (
        qfi_closed_form(N5, SubsystemSelector(1, C1), J, t).total
        + qfi_closed_form(N5, SubsystemSelector(1, C0), J, t).total
    )
    joint = qfi_closed_form(N5, SubsystemSelector(2, C1), J, t).total
    assert abs(separate - joint) > 1e-3


def test_split_trivial_cases():
    period = N5.period
    split = process_state_split(N5, C1, 0.3 * period, 0.3 * period, rescaled=True)
    assert split.process == 0.0
    assert split.cross == 0.0
    assert split.total == pytest.approx(split.state, abs=1e-14)

    split = process_state_split(N5, C1, 0.0, 0.6 * period, rescaled=True)
    assert split.state == 0.0
    assert split.cross == 0.0
    assert split.total == pytest.approx(split.process, abs=1e-14)


def test_split_sum_identity_and_anchor_independence():
    period = N5.period
    for dyn_class in (C0, C1):
        t2_grid = np.linspace(0.03, 1.97, 41) * period
        totals = {}
        for anchor in (0.25, 0.4):
            row = []
            for t2 in t2_grid:
                split = process_state_split(
                    N5, dyn_class, anchor * period, float(t2), rescaled=True
                )
                assert split.process >= 0.0
                assert split.state >= 0.0
                assert abs(split.process + split.cross + split.state - split.total) <= 1e-10
                row.append(split.total)
            totals[anchor] = np.array(row)
        assert np.abs(totals[0.25] - totals[0.4]).max() <= 1e-10


def test_split_rescaled_vs_plain():
    period = N5.period
    t1, t2 = 0.25 * period, 0.8 * period
    plain = process_state_split(N5, C1, t1, t2, rescaled=False)
    scaled = process_state_split(N5, C1, t1, t2, rescaled=True)
    # Reconstruct the denominator from the mixing probability at t2.
    p2 = 1.0 - 16.0 / 25.0 * math.sin(2.5 * t2) ** 2
    denom = p2 * (1 - p2)
    assert plain.total == pytest.approx(scaled.total / denom, rel=1e-12)
    assert plain.process == pytest.approx(scaled.process / denom, rel=1e-12)


def test_split_matches_fisher_total():
    # Unrescaled with t1 = 0, the split's total is the classical K=1 QFI.
    period = N5.period
    for tau in (0.1, 0.35, 0.77):
        split = process_state_split(N5, C1, 0.0, tau * period, rescaled=False)
        breakdown = qfi_closed_form(N5, SubsystemSelector(1, C1), J, tau * period)
        assert split.total == pytest.approx(breakdown.total, rel=1e-10, abs=1e-12)


def test_split_pole_error():
    with pytest.raises(PoleError):
        process_state_split(N5, C1, 0.25 * N5.period, N5.period, rescaled=False)


def test_split_supports_size_parameter():
    period = N5.period
    split = process_state_split(N5, C0, 0.25 * period, 0.7 * period, theta=SIZE, rescaled=True)
    assert abs(split.process + split.cross + split.state - split.total) <= 1e-12


def test_split_squares_overflow_to_inf():
    # At J = 1e-160, t ~ 1e160: the squared pieces leave the float range
    # and read inf, as numpy's squares do, instead of raising.
    params = NetworkParams(3, 1e-160)
    period = params.period
    split = process_state_split(params, C1, 0.25 * period, 0.6 * period, rescaled=True)
    assert split.process == split.state == math.inf


@pytest.mark.parametrize("theta", [J, SIZE])
def test_single_qubit_quantum_part_is_zero_past_overflow(theta):
    # K = 1 containing the excited qubit: the eigenvectors do not move, so
    # the quantum part is 0 even where t^2 overflows (J = 1e-300).
    params = NetworkParams(5, 1e-300)
    t = 0.1 * params.period
    one = qfi_closed_form(params, SubsystemSelector(1, C1), theta, t)
    assert one.quantum == 0.0 and one.total == one.classical
    assert not math.isnan(one.total)
    if theta is J:
        assert qfi_closed_form(params, SubsystemSelector(2, C1), J, t).quantum == math.inf


@pytest.mark.parametrize("theta", ["J", "N", None])
def test_theta_must_be_a_global_parameter(theta):
    message = f"theta must be a GlobalParameter, got {theta!r}"
    with pytest.raises(ParameterError) as split_err:
        process_state_split(N5, C1, 0.3, 0.9, theta=theta)
    with pytest.raises(ParameterError) as qfi_err:
        qfi_closed_form(N5, SubsystemSelector(1, C1), theta, 0.9)
    assert str(split_err.value) == str(qfi_err.value) == message


@pytest.mark.parametrize("theta", [J, SIZE])
def test_oracle_refuses_overflowing_shifted_phase(theta):
    # N*J*t is finite here, but the phase at N + h or J + h overflows.
    t = sys.float_info.max / 5 * (1 - 4e-6)
    assert math.isfinite(5 * 1.0 * t)
    with pytest.raises(ParameterError, match=r"overflows at t=" + re.escape(repr(t))):
        qfi_numeric_oracle(N5, SubsystemSelector(2, C1), theta, t)


def test_dips_align_with_backflow_windows():
    period = N5.period
    for cls in (C0, C1):
        sel = SubsystemSelector(1, cls)
        for half_multiple in (0.5, 1.5):
            t_star = half_multiple * period
            assert qfi_closed_form(N5, sel, J, t_star).total <= 1e-10
            for frac in (0.1, 0.25, 0.49):
                verdict = classify(N5, sel, t_star, t_star + frac * period)
                assert verdict.verdict is Verdict.NON_POSITIVE_NON_CP
