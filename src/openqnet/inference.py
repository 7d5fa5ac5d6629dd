"""Observer-side inference from single-qubit flow observations.

An observer holding one qubit of each dynamical class over a common window
can test whether the pair closes into a two-qubit system (the two flow
weights then agree exactly), and if not, recover the total network size
from the excitation-balance relation and the coupling from the recurrence
period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .amplitudes import NetworkParams, _amplitudes, _bisect, _check_time, _check_tol
from .errors import (
    IndeterminateFlowError,
    InconsistentObservationError,
    ParameterError,
)
from .propagator import _flow_weight, _window
from .states import DynClass, SubsystemSelector

#: Flows smaller than this carry no usable information.
FLOW_FLOOR = 1e-12

# Smallest size estimate accepted: the two observed qubits, less round-off.
_SIZE_MIN = 2.0 - 1e-9


@dataclass(frozen=True)
class FlowObservation:
    """Observed single-qubit flow weights over one window [t1, t2].

    ``flow_class1`` comes from the qubit containing the excitation,
    ``flow_class0`` from a qubit excluding it, and ``ground_prob_t1`` is
    the excluding qubit's ground-state population at the window start.
    """

    flow_class1: float
    flow_class0: float
    ground_prob_t1: float

    def __post_init__(self):
        for name in ("flow_class1", "flow_class0", "ground_prob_t1"):
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ParameterError(f"{name} must be a real number, got {value!r}") from None
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not 0.0 < self.ground_prob_t1 <= 1.0:
            raise ParameterError(
                f"ground_prob_t1 must lie in (0, 1], got {self.ground_prob_t1!r}"
            )


class SizeEstimate(NamedTuple):
    """Real-valued size estimate with its nearest integer and residual."""

    estimate: float
    nearest: int
    residual: float


def two_qubit_consistency(obs: FlowObservation, tol: float) -> bool:
    """Whether the observed pair of flows closes into a two-qubit unitary.

    Any excitation-conserving two-qubit unitary forces the two flow weights
    to coincide; a mismatch beyond ``tol`` signals hidden degrees of freedom.
    ``tol`` must be a finite number >= 0, not a bool.
    """
    _check_tol(tol)
    return abs(obs.flow_class1 - obs.flow_class0) <= tol


def infer_network_size(obs: FlowObservation) -> SizeEstimate:
    """Recover the network size from one pair of single-qubit flows.

    The hop-probability change over the window is reconstructed from the
    excluding qubit's population data (flow_class0 times its ground
    probability at t1); substituting both flows into the excitation-balance
    relation and solving for the size gives

        N = 1 + 1 / (1 - delta * (1/flow_class0 - 1/flow_class1)).

    Equal flows consistently return N = 2 (a closed pair).
    """
    flow1, flow0 = obs.flow_class1, obs.flow_class0
    if min(abs(flow0), abs(flow1)) < FLOW_FLOOR:
        raise IndeterminateFlowError(
            "a flow weight vanishes over this window; choose a window with net flow"
        )
    bracket, denom = _balance(flow1, flow0, obs.ground_prob_t1)
    if not math.isfinite(denom) or denom <= 0.0:
        raise InconsistentObservationError(
            f"flow pair admits no finite network size (bracket={bracket!r})"
        )
    estimate = 1.0 + 1.0 / denom
    if not math.isfinite(estimate) or estimate < _SIZE_MIN:
        raise InconsistentObservationError(
            f"estimated size {estimate!r} is smaller than the two observed qubits"
        )
    nearest = round(estimate)
    return SizeEstimate(estimate, int(nearest), estimate - nearest)


def _balance(flow1, flow0, ground):
    # infer_network_size's arithmetic, for floats or arrays of nonzero flows:
    # the bracket delta (1/flow_class0 - 1/flow_class1), delta = flow_class0
    # times ground_prob_t1, and the denominator 1 - bracket of N = 1 + 1/denom.
    bracket = flow0 * ground * (1.0 / flow0 - 1.0 / flow1)
    return bracket, 1.0 - bracket


def _size_estimates(flow1: np.ndarray, flow0: np.ndarray, ground: np.ndarray) -> tuple:
    """infer_network_size over arrays of observations, in one pass.

    Returns the estimate, nearest and residual arrays, each element equal
    bit for bit to the scalar call on that element's observation, and NaN
    in all three where the scalar call raises IndeterminateFlowError or
    InconsistentObservationError. The observations must be finite, with
    ground probabilities in (0, 1], as FlowObservation requires.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bracket, denom = _balance(flow1, flow0, ground)
        estimate = 1.0 + 1.0 / denom
    usable = np.minimum(np.abs(flow0), np.abs(flow1)) >= FLOW_FLOOR
    usable &= np.isfinite(denom) & (denom > 0.0) & np.isfinite(estimate) & (estimate >= _SIZE_MIN)
    estimate = np.where(usable, estimate, np.nan)
    nearest = np.rint(estimate)  # ties to even, as round()
    return estimate, nearest, estimate - nearest


def infer_coupling(period_estimate: float, n_estimate: float) -> float:
    """Coupling from the recurrence period: J = 2*pi / (N * period)."""
    period_estimate = _check_time(period_estimate, "period_estimate")
    try:
        n_estimate = float(n_estimate)
    except (TypeError, ValueError):
        raise ParameterError(f"n_estimate must be a real number, got {n_estimate!r}") from None
    if period_estimate <= 0.0:
        raise ParameterError(f"period_estimate must be positive, got {period_estimate!r}")
    if not math.isfinite(n_estimate) or n_estimate <= 1.0:
        raise ParameterError(f"n_estimate must exceed 1, got {n_estimate!r}")
    return 2.0 * math.pi / (n_estimate * period_estimate)


def conservation_residual(params: NetworkParams, k_qubits: int, t1, t2) -> float:
    """Residual of the excitation-balance relation for an equal-size pair.

    Computes both flow weights over [t1, t2] for subsystems of ``k_qubits``
    qubits (one of each class), forms
    (|u_d(t2)|^2 - |u_d(t1)|^2) * (1/flow_class0 - 1/flow_class1), and
    returns its absolute deviation from 1 - 1/(N-K).
    """
    # K <= N-1 from the excluding selector, the stricter anchor test from the containing class.
    classes = DynClass.EXCLUDES_EXCITED, DynClass.CONTAINS_EXCITED
    t1, t2 = _window(params, [SubsystemSelector(k_qubits, c) for c in classes], t1, t2)
    n = params.n_qubits
    x1, x2 = _amplitudes(params, t1).cross_abs2, _amplitudes(params, t2).cross_abs2
    flow1 = _flow_weight(n, k_qubits, True, x1, x2)
    flow0 = _flow_weight(n, k_qubits, False, x1, x2)
    if min(abs(flow0), abs(flow1)) < FLOW_FLOOR:
        raise IndeterminateFlowError(
            "window carries no net flow (t2 mirrors t1); relation is indeterminate"
        )
    lhs = (x2 - x1) * (1.0 / flow0 - 1.0 / flow1)
    return abs(lhs - (1.0 - 1.0 / (n - k_qubits)))


def estimate_period(
    flow_window: Callable[[float], float], dt: float, t_max: float
) -> float:
    """Locate the first sign change of a fixed-width flow observation.

    ``flow_window(t)`` must report the flow weight over [t, t + dt], or a
    value of its sign. The first crossing from dispersal to backflow sits
    half a window before the half-period P/2, so the period equals twice the
    crossing time plus dt. The scan probes t = 0, dt/4, then t <- 2t + dt/4
    up to ``t_max``, and bisects between the last two probes: from a
    dispersal probe t <= P/2 - dt/2 the next stays at or below P - 3dt/4,
    inside the first backflow interval (P/2 - dt/2, P - dt/2), so no probe
    steps over it, even from a probe on the crossing itself, whose sign is
    round-off. (With t <- 2t + dt/2 such a probe, as at dt = P/2^k, leads
    onto the interval's end and past it.)

    That relation holds only for a window shorter than the period, dt <
    period, which the caller must ensure: the period is what is being
    estimated, so it cannot be checked here. A window of exactly one period
    carries only round-off flows, and a longer one returns a wrong period
    without an error. A dt whose quarter underflows to 0 cannot step the
    scan, and is refused.
    """
    dt = _check_time(dt, "dt")
    t_max = _check_time(t_max, "t_max")
    if dt <= 0.0 or t_max <= dt:
        raise ParameterError("need 0 < dt < t_max for a period scan")
    step = 0.25 * dt
    if step == 0.0:  # the scan would never leave t = 0
        raise ParameterError(f"dt={dt!r} is too small to step a period scan")
    prev_t, prev_v = 0.0, flow_window(0.0)
    t = step
    while True:
        value = flow_window(t)
        if prev_v > 0.0 and value <= 0.0:
            crossing = _bisect(lambda mid: flow_window(mid) > 0.0, prev_t, t)
            return 2.0 * crossing + dt
        if t >= t_max:
            raise IndeterminateFlowError(
                f"no dispersal-to-backflow crossing found up to t_max={t_max!r}"
            )
        prev_t, prev_v = t, value
        t = min(2.0 * t + step, t_max)
