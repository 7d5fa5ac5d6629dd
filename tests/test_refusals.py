"""The refusal contract at every array entry point.

An array of times must be refused exactly as the loop of scalar calls over
its elements, in C order, would refuse it: with the first refusing
element's error type and message. A seeded stream of small networks and
time arrays checks that for every function that takes array times. The
arrays mix ordinary times with NaN, +-inf, 1e308 (finite, but its phase
overflows at most N and J), singular anchors (odd half-periods, singular
for K = N/2 and at N = 2) and anchors just off them.

Every public function and verification residual with a ``t``, ``t1`` or
``t2`` parameter either carries the refusal decorator or is on the
float-only list, and each float-only function refuses an array with
``ParameterError``.

Every function that refuses a window (the propagator and its tomographic
oracle, the flow weights, ``classify``, the composition and conservation
residuals, the process-state split) refuses a float window that is bad in
several ways for the first defect of one rule: selectors, then times, then
anchors, with t2's overflowing phase last.
"""

import importlib
import inspect
import itertools

import numpy as np
import pytest

from openqnet import (
    DegenerateStateError,
    DynClass,
    GlobalParameter,
    NetworkParams,
    OpenQNetError,
    ParameterError,
    SingularIntervalError,
    SubsystemSelector,
    affine_map,
    amplitudes,
    build_propagator,
    classify,
    compose_residual,
    conservation_residual,
    dynamical_map_oracle,
    entanglement_entropy,
    excitation_probability,
    flow_amplitude,
    global_state,
    is_singular,
    physical_bloch_z,
    process_state_split,
    propagator_oracle,
    q1_unitary_oracle,
    qfi_closed_form,
    qfi_numeric_oracle,
    reduced_density_oracle,
    reduced_state,
)
from openqnet import propagator
from openqnet import verification as v

C1, C0 = DynClass.CONTAINS_EXCITED, DynClass.EXCLUDES_EXCITED

MODULES = ("amplitudes", "bloch", "fisher", "inference", "oracle", "positivity", "propagator", "states", "verification")

FLOAT_ONLY = {
    "is_singular",
    "classify",
    "global_state",
    "conservation_residual",
    "conservation_relation_residual",
    "roundtrip_residual",
}


def refusal(call, *times):
    """(error type, message) of ``call(*times)``, or None if it is not refused."""
    try:
        call(*times)
    except OpenQNetError as exc:
        return type(exc), str(exc)
    return None


def loop_refusal(call, *times):
    """The first refusal of the scalar calls over the broadcast elements, in C order."""
    grids = np.broadcast_arrays(*times)
    for values in zip(*(g.ravel().tolist() for g in grids)):
        found = refusal(call, *values)
        if found is not None:
            return found
    return None


def entry_points(params, sel, theta, rescaled):
    """(name, call, number of times) for every function that takes array times."""
    n, d, cls = params.n_qubits, sel.k_qubits + 1, sel.dyn_class
    pair = v.complement_pairs(params)[min(sel.k_qubits, n - 1) - 1]
    sels = [sel, SubsystemSelector(1, C0)]
    rho = np.eye(d) / d
    return [
        ("amplitudes", lambda t: amplitudes(params, t), 1),
        ("q1_unitary_oracle", lambda t: q1_unitary_oracle(params, t), 1),
        ("excitation_probability", lambda t: excitation_probability(params, sel, t), 1),
        ("reduced_state", lambda t: reduced_state(params, sel, t), 1),
        ("entanglement_entropy", lambda t: entanglement_entropy(params, sel, t), 1),
        ("physical_bloch_z", lambda t: physical_bloch_z(params, cls, t), 1),
        ("qfi_closed_form", lambda t: qfi_closed_form(params, sel, theta, t), 1),
        ("qfi_numeric_oracle", lambda t: qfi_numeric_oracle(params, sel, theta, t), 1),
        ("reduced_density_oracle", lambda t: reduced_density_oracle(params, sel, t), 1),
        ("dynamical_map_oracle", lambda t: dynamical_map_oracle(params, sel, t), 1),
        ("unitarity_residual", lambda t: v.unitarity_residual(params, t), 1),
        ("amplitude_oracle_residual", lambda t: v.amplitude_oracle_residual(params, t), 1),
        ("reduced_state_residual", lambda t: v.reduced_state_residual(params, sel, t), 1),
        ("trace_distance_residual", lambda t: v.trace_distance_residual(params, sel, t), 1),
        ("entropy_symmetry_residual", lambda t: v.entropy_symmetry_residual(params, *pair, t), 1),
        ("fisher_oracle_residual", lambda t: v.fisher_oracle_residual(params, sel, theta, t), 1),
        ("fisher_split_residual", lambda t: v.fisher_split_residual(params, cls, t), 1),
        ("build_propagator", lambda a, b: build_propagator(params, sel, a, b), 2),
        ("flow_amplitude", lambda a, b: flow_amplitude(params, sel, a, b), 2),
        ("_flows", lambda a, b: propagator._flows(params, sels, a, b), 2),
        ("affine_map", lambda a, b: affine_map(params, cls, a, b), 2),
        ("process_state_split", lambda a, b: process_state_split(params, cls, a, b, theta, rescaled), 2),
        ("propagator_oracle", lambda a, b: propagator_oracle(params, sel, a, b), 2),
        ("compose_residual", lambda a, b: compose_residual(params, sel, a, b, rho), 2),
        ("completeness_residual", lambda a, b: v.completeness_residual(params, sel, a, b), 2),
        ("orbit_residual", lambda a, b: v.orbit_residual(params, sel, a, b), 2),
        ("tomography_residual", lambda a, b: v.tomography_residual(params, sel, a, b), 2),
        ("orbit_oracle_residual", lambda a, b: v.orbit_oracle_residual(params, sel, a, b), 2),
        ("composition_residual", lambda a, b: v.composition_residual(params, sel, a, b), 2),
        ("bloch_fixed_point_residual", lambda a, b: v.bloch_fixed_point_residual(params, a, b), 2),
    ]


def draw_times(rng, period, size):
    """An array of times: ordinary ones, odd half-periods, anchors just off
    them, and NaN, +-inf and 1e308."""
    special = [np.nan, np.inf, -np.inf, 1e308]
    halves = [0.5, 1.5, 0.5 + 1e-9, 1.5 - 1e-6]
    out = []
    for _ in range(size):
        kind = rng.random()
        if kind < 0.15:
            out.append(special[rng.integers(len(special))])
        elif kind < 0.45:
            out.append(halves[rng.integers(len(halves))] * period)
        else:
            out.append(rng.uniform(-1.0, 2.0) * period)
    return np.array(out)


def test_array_refusals_equal_the_scalar_loop():
    rng = np.random.default_rng(2020)
    mismatched = []
    for _ in range(40):
        n = int(rng.choice([2, 3, 4, 6]))
        params = NetworkParams(n, float(rng.choice([1.0, 0.7])))
        cls = C1 if rng.random() < 0.5 else C0
        k_max = n if cls is C1 else n - 1
        k = max(1, n // 2) if rng.random() < 0.5 else int(rng.integers(1, k_max + 1))
        theta = GlobalParameter.COUPLING_J if rng.random() < 0.5 else GlobalParameter.SIZE_N
        if theta is GlobalParameter.SIZE_N and cls is C1 and k == n:
            theta = GlobalParameter.COUPLING_J  # diverges by design, at every element alike
        size = int(rng.integers(1, 5))
        t1 = draw_times(rng, params.period, size)
        t2 = draw_times(rng, params.period, size)
        for name, call, arity in entry_points(params, SubsystemSelector(k, cls), theta, rng.random() < 0.5):
            times = (t1,) if arity == 1 else (t1, t2)
            if refusal(call, *times) != loop_refusal(call, *times):
                mismatched.append((name, n, k, cls.value, times))
    assert mismatched == []


def test_named_refusals_follow_the_loop():
    # The array used to be refused at its singular anchor, where the loop
    # meets another refusal at an earlier element.
    params = NetworkParams(6, 1.0)
    half = 0.5 * params.period  # singular anchor of K = 3
    t1, t2 = np.array([0.1, half]), np.array([1e308, 0.7])
    with pytest.raises(ParameterError, match=r"phase N\*J\*t overflows at t=1e\+308"):
        compose_residual(params, SubsystemSelector(3, C1), t1, t2, np.eye(4) / 4)
    params = NetworkParams(2, 1.0)
    half = 0.5 * params.period  # singular anchor and degenerate state at N = 2
    t1, t2 = np.array([0.1, half]), np.array([half, 0.7])
    with pytest.raises(DegenerateStateError, match="excitation probability vanishes"):
        v.orbit_residual(params, SubsystemSelector(1, C1), t1, t2)


def array_time_functions():
    """(module name, function name, function) of every public function with a
    t, t1 or t2 parameter, defined in one of the package's modules."""
    found = []
    for module_name in MODULES:
        module = importlib.import_module(f"openqnet.{module_name}")
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if {"t", "t1", "t2"} & set(inspect.signature(fn).parameters):
                found.append((module_name, name, fn))
    return found


def test_array_time_functions_are_decorated_or_float_only():
    found = array_time_functions()
    undecorated = {name for _, name, fn in found if not hasattr(fn, "__wrapped__")}
    assert undecorated == FLOAT_ONLY
    assert {"amplitudes", "build_propagator", "composition_residual"} <= {name for _, name, _ in found}


def test_float_only_functions_refuse_arrays():
    params = NetworkParams(5, 1.0)
    sel = SubsystemSelector(2, C1)
    times = np.array([0.1, 0.2])
    calls = [
        lambda t: is_singular(params, 2, t),
        lambda t: global_state(params, t),
        lambda t: classify(params, sel, t, 0.7),
        lambda t: classify(params, sel, 0.1, t),
        lambda t: conservation_residual(params, 2, t, 0.7),
        lambda t: conservation_residual(params, 2, 0.1, t),
        lambda t: v.conservation_relation_residual(params, SubsystemSelector(2, C0), t, 0.7),
        lambda t: v.roundtrip_residual(params, t, 0.7),
        lambda t: v.roundtrip_residual(params, 0.1, t),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="must be a real number"):
            call(times)


# The window refusal rule of the propagator family: a float window that is
# bad in several ways is refused for the first of them, in this order. "k"
# is a selector too large for its class; "t1" and "t2" a non-finite time;
# "phase1" and "phase2" a time whose phase N*J*t overflows; "anchor" t1 at
# an odd half-period, singular for K = N/2 in the containing class and, at
# N = 2, for K = 1 in either class.
WINDOW_RULE = ("k", "t1", "t2", "phase1", "anchor", "phase2")

# The refusal of a window bad in one way, by network size. At N = 4 the
# anchor refuses only the callers that hold K = 2 in the containing class.
ANCHOR_MESSAGE = "propagator anchor t1={} (0.5 periods) refused: relative flow denominator d=0 <= ANCHOR_RTOL=1e-08"
WINDOW_REFUSALS = {
    2: {
        "k": (ParameterError, "K=2 exceeds N-1=1 for a subsystem excluding the excited qubit"),
        "t1": (ParameterError, "t1 must be finite, got nan"),
        "t2": (ParameterError, "t2 must be finite, got inf"),
        "phase1": (ParameterError, "phase N*J*t overflows at t=1e+308 (N=2, J=1.0)"),
        "phase2": (ParameterError, "phase N*J*t overflows at t=1e+308 (N=2, J=1.0)"),
        "anchor": (SingularIntervalError, ANCHOR_MESSAGE.format("1.5707963267948966")),
    },
    4: {
        "k": (ParameterError, "K=4 exceeds N-1=3 for a subsystem excluding the excited qubit"),
        "t1": (ParameterError, "t1 must be finite, got nan"),
        "t2": (ParameterError, "t2 must be finite, got inf"),
        "phase1": (ParameterError, "phase N*J*t overflows at t=1e+308 (N=4, J=1.0)"),
        "phase2": (ParameterError, "phase N*J*t overflows at t=1e+308 (N=4, J=1.0)"),
        "anchor": (SingularIntervalError, ANCHOR_MESSAGE.format("0.7853981633974483")),
    },
}
UNANCHORED_AT_4 = {
    "build_propagator c0", "flow_amplitude c0", "classify c0", "compose_residual c0",
    "process_state_split c0", "process_state_split c1", "_flows infer",
}
# Callers whose K is 1 whatever the network: no selector is too large.
FIXED_K = {"process_state_split c0", "process_state_split c1"}


def window_callers(n: int, too_large: bool) -> dict:
    """Every function that refuses a window, by name, as call(params, t1, t2).

    The single-selector calls hold K = N/2 of one class (propagator_oracle
    of the containing class) and process_state_split K = 1; the two _flows
    calls hold the selector lists of the flow and infer commands. With
    ``too_large``, the single selector is K = N of the excluding class, the
    lists end with that selector, and conservation_residual takes K = N.
    """
    bad = SubsystemSelector(n, C0)
    tail = [bad] if too_large else []
    flow = [SubsystemSelector(k, cls) for cls in (C1, C0) for k in range(1, n)] + tail
    infer = [SubsystemSelector(1, C1), SubsystemSelector(1, C0)] + tail
    calls = {}
    for cls in (C1, C0):
        sel = bad if too_large else SubsystemSelector(n // 2, cls)
        rho = np.eye(sel.k_qubits + 1)
        calls |= {
            f"build_propagator c{cls.value}": lambda p, a, b, s=sel: build_propagator(p, s, a, b),
            f"flow_amplitude c{cls.value}": lambda p, a, b, s=sel: flow_amplitude(p, s, a, b),
            f"classify c{cls.value}": lambda p, a, b, s=sel: classify(p, s, a, b),
            f"compose_residual c{cls.value}": lambda p, a, b, s=sel, r=rho: compose_residual(p, s, a, b, r),
            f"process_state_split c{cls.value}": lambda p, a, b, c=cls: process_state_split(p, c, a, b),
        }
    # Map tomography takes the containing class only.
    tomographed = bad if too_large else SubsystemSelector(n // 2, C1)
    calls["propagator_oracle"] = lambda p, a, b: propagator_oracle(p, tomographed, a, b)
    calls["_flows flow"] = lambda p, a, b: propagator._flows(p, flow, a, b)
    calls["_flows infer"] = lambda p, a, b: propagator._flows(p, infer, a, b)
    calls["conservation_residual"] = lambda p, a, b: conservation_residual(p, n if too_large else n // 2, a, b)
    return calls


def window_refusal(n: int, name: str, defects: tuple):
    """The refusal of one caller on the window 0.3 to 0.65 periods made bad by ``defects``."""
    params = NetworkParams(n, 1.0)
    bad_t1 = {"t1": np.nan, "phase1": 1e308, "anchor": 0.5 * params.period}
    bad_t2 = {"t2": np.inf, "phase2": 1e308}
    t1 = next((bad_t1[d] for d in defects if d in bad_t1), 0.3 * params.period)
    t2 = next((bad_t2[d] for d in defects if d in bad_t2), 0.65 * params.period)
    return refusal(window_callers(n, "k" in defects)[name], params, t1, t2)


@pytest.mark.parametrize("n", [2, 4])
def test_windows_are_refused_by_the_one_window_rule(n):
    # Every window bad in one way, then every pair of defects that fit one
    # window: the pair is refused as its first defect in WINDOW_RULE is.
    wrong = []
    for name in window_callers(n, False):
        assert window_refusal(n, name, ()) is None, name
        single = dict(WINDOW_REFUSALS[n])
        if n == 4 and name in UNANCHORED_AT_4:
            single["anchor"] = None
        if name in FIXED_K:
            single["k"] = None
        for defect in WINDOW_RULE:
            if window_refusal(n, name, (defect,)) != single[defect]:
                wrong.append((name, defect))
        for pair in itertools.combinations(WINDOW_RULE, 2):
            if {"t1", "phase1", "anchor"} >= set(pair) or {"t2", "phase2"} >= set(pair):
                continue  # both defects are one time's
            first = next((d for d in WINDOW_RULE if d in pair and single[d] is not None), None)
            if window_refusal(n, name, pair) != (single[first] if first else None):
                wrong.append((name, pair))
    assert wrong == []
