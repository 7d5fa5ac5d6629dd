"""Closed forms called on an ndarray of times against their scalar calls.

For random N in 2..64, K and class, every broadcasting function must equal
its scalar calls elementwise (the flow weight, the trace distance, u_s, u_d and |u_d|^2 bit for bit, the
rest within a relative 1e-13, with an absolute floor of 1e-15 for values that are
round-off zeros, such as the rotation angle of a window with t1 = t2), and
must refuse an array exactly when some scalar call
refuses an element, with the first refusing element's error and message.
The time generators deliberately put odd half-periods (singular anchors at
K = N/2, degenerate states at N = 2), anchors 1e-3..1e-8 periods to either
side of them (across ``ANCHOR_RTOL``, which refuses within about 3.2e-5
periods), and period points on the grid.

A stack of propagators built from arrays of times must equal the scalar
builds bit for bit, and so must its Choi matrices, its matrices on the
operator space and its action on a density; ``classify``, which takes one
window, must refuse an array. The dense oracles, the reduced states and
their densities, the composition and
completeness residuals, the residuals of ``verify``'s grouped rows and the
Bloch image of a map with array fields must equal their scalar calls bit
for bit over an array of times, and refuse an array as its first refusing
element does. So must the SLD oracle and the two Fisher residuals.

The Fisher and entropy stacks over K, which the fisher and entropy commands
use, must equal their per-K calls row by row, bit for bit, refuse as the
loop over K would, and take one hop evaluation per time grid; so must the
flow weights of many selectors.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openqnet import (
    DynClass,
    GlobalParameter,
    NetworkParams,
    OpenQNetError,
    SubsystemSelector,
    UnsupportedOracleError,
    affine_map,
    ParameterError,
    amplitudes,
    apply,
    axial_positivity_band,
    build_propagator,
    choi_matrix,
    choi_spectrum,
    classify,
    completeness_residual,
    compose_residual,
    dynamical_map_oracle,
    entanglement_entropy,
    evolve_bloch,
    excitation_probability,
    flow_amplitude,
    materialize_density,
    physical_bloch_z,
    process_state_split,
    propagator_matrix,
    propagator_oracle,
    q1_unitary_oracle,
    qfi_closed_form,
    qfi_numeric_oracle,
    reduced_density_oracle,
    reduced_state,
    trace_distance_to_fixed,
)
from openqnet import fisher, propagator, states
from openqnet import verification as v

RTOL = 1e-13
ATOL = 1e-15

# In periods: odd half-periods, period points, and anchors 10^-3..10^-8
# periods to either side of an odd half-period.
ODD_HALVES = (0.5, 1.5, -0.5, 2.5)
SPECIAL_TAUS = (0.0, 1.0) + ODD_HALVES + tuple(
    half + sign * 10.0**-e for half in (0.5, 1.5) for sign in (1, -1) for e in range(3, 9)
)
near_anchors = st.builds(
    lambda half, sign, e: half + sign * 10.0**e,
    st.sampled_from(ODD_HALVES),
    st.sampled_from((1, -1)),
    st.floats(-8.0, -3.0),
)

taus = st.one_of(st.sampled_from(SPECIAL_TAUS), near_anchors, st.floats(-2.0, 3.0))
tau_arrays = st.lists(taus, min_size=1, max_size=12).map(np.array)


@st.composite
def networks(draw):
    """(params, selector): N = 2 and K = N/2 drawn on purpose."""
    n = draw(st.one_of(st.just(2), st.integers(2, 64)))
    params = NetworkParams(n, draw(st.sampled_from([1.0, 0.7, 2.3])))
    cls = draw(st.sampled_from(DynClass))
    k_max = n if cls is DynClass.CONTAINS_EXCITED else n - 1
    k = draw(st.one_of(st.just(max(1, n // 2)), st.integers(1, k_max)))
    return params, SubsystemSelector(k, cls)


def fields(result) -> dict:
    """The numeric outputs of one call, by name; a scalar call must give floats."""
    if isinstance(result, tuple) and not hasattr(result, "_fields"):  # axial band
        return {"lo": result[0], "hi": result[1]}
    if result is None:  # empty band
        return {"lo": math.nan, "hi": math.nan}
    names = {
        "Amplitudes": ("same_site", "cross_site", "cross_abs2"),
        "FisherBreakdown": ("classical", "quantum", "total"),
        "BlochAffineMap": ("transverse_scale", "rotation_angle", "z_scale", "z_shift"),
        "ProcessStateSplit": ("process", "state", "cross", "total"),
    }.get(type(result).__name__)
    if names is None:
        return {"value": result}
    return {name: getattr(result, name) for name in names}


def check_broadcast(call, *times, exact=False):
    """Compare ``call(*times)`` with the loop of scalar calls over the elements."""
    grids = np.broadcast_arrays(*times)
    want, refusal = [], None
    for args in zip(*(g.ravel().tolist() for g in grids)):
        try:
            want.append(fields(call(*args)))
        except OpenQNetError as exc:
            refusal = exc
            break
    if refusal is not None:
        with pytest.raises(type(refusal)) as info:
            call(*times)
        assert str(info.value) == str(refusal)
        return
    got = fields(call(*times))
    for name, value in got.items():
        assert np.shape(value) == grids[0].shape, name
        for row in want:
            assert type(row[name]) in (float, complex), (name, type(row[name]))
        expected = np.array([row[name] for row in want])
        if exact:
            np.testing.assert_array_equal(value.ravel(), expected, err_msg=name)
        else:
            np.testing.assert_allclose(value.ravel(), expected, rtol=RTOL, atol=ATOL, err_msg=name)


@settings(max_examples=150, deadline=None)
@given(networks(), tau_arrays)
def test_one_time_closed_forms(network, tau):
    params, sel = network
    t = tau * params.period
    check_broadcast(lambda s: amplitudes(params, s), t)
    check_broadcast(lambda s: excitation_probability(params, sel, s), t)
    check_broadcast(lambda s: trace_distance_to_fixed(reduced_state(params, sel, s)), t, exact=True)
    check_broadcast(lambda s: entanglement_entropy(params, sel, s), t)
    check_broadcast(lambda s: physical_bloch_z(params, sel.dyn_class, s), t)
    for theta in GlobalParameter:
        check_broadcast(lambda s: qfi_closed_form(params, sel, theta, s), t)


@settings(max_examples=150, deadline=None)
@given(networks(), tau_arrays, st.one_of(tau_arrays, taus), st.booleans())
def test_two_time_closed_forms(network, tau2, tau1, rescaled):
    params, sel = network
    if isinstance(tau1, np.ndarray):
        tau1 = np.resize(tau1, tau2.shape)
    t1, t2 = tau1 * params.period, tau2 * params.period
    cls = sel.dyn_class
    check_broadcast(lambda a, b: flow_amplitude(params, sel, a, b), t1, t2, exact=True)
    check_broadcast(lambda a, b: affine_map(params, cls, a, b), t1, t2)
    check_broadcast(lambda a, b: axial_positivity_band(affine_map(params, cls, a, b)), t1, t2)
    check_broadcast(
        lambda a, b: process_state_split(params, cls, a, b, rescaled=rescaled), t1, t2
    )


def test_float_time_gives_float():
    params = NetworkParams(5, 1.0)
    sel = SubsystemSelector(2, DynClass.CONTAINS_EXCITED)
    assert type(excitation_probability(params, sel, 0.3)) is float
    assert type(entanglement_entropy(params, sel, 0.3)) is float
    assert type(flow_amplitude(params, sel, 0.3, 0.9)) is float
    assert type(qfi_closed_form(params, sel, GlobalParameter.SIZE_N, 0.3).total) is float
    assert type(amplitudes(params, 0.3).same_site) is complex


@st.composite
def small_networks(draw):
    """(params, selector) for N = 2..12, any K and class, K = N/2 drawn on purpose."""
    n = draw(st.integers(2, 12))
    cls = draw(st.sampled_from(DynClass))
    k_max = n if cls is DynClass.CONTAINS_EXCITED else n - 1
    k = draw(st.one_of(st.just(max(1, n // 2)), st.integers(1, k_max)))
    return NetworkParams(n, draw(st.sampled_from([1.0, 0.7]))), SubsystemSelector(k, cls)


def same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(networks(), tau_arrays)
def test_amplitude_arrays_equal_scalar_calls_bit_for_bit(network, tau):
    params, _ = network
    t = tau * params.period
    amps = amplitudes(params, t)
    singles = [amplitudes(params, s) for s in t.tolist()]
    for name in ("same_site", "cross_site", "cross_abs2"):
        assert same_bits(getattr(amps, name), np.array([getattr(a, name) for a in singles])), name


@settings(max_examples=200, deadline=None)
@given(small_networks(), tau_arrays, st.one_of(tau_arrays, taus))
def test_stacked_propagator_equals_scalar_builds(network, tau2, tau1):
    params, sel = network
    if isinstance(tau1, np.ndarray):
        tau1 = np.resize(tau1, tau2.shape)
    t1, t2 = tau1 * params.period, tau2 * params.period
    grids = np.broadcast_arrays(t1, t2)
    singles = []
    for a, b in zip(*(g.ravel().tolist() for g in grids)):
        try:
            singles.append(build_propagator(params, sel, a, b))
        except OpenQNetError as refusal:
            with pytest.raises(type(refusal)) as info:
                build_propagator(params, sel, t1, t2)
            assert str(info.value) == str(refusal)
            return
    ops = build_propagator(params, sel, t1, t2)
    shape, d = grids[0].shape, sel.k_qubits + 1
    assert ops.block_diag.shape == shape + (d, d)
    for name in ("block_diag", "phi_s", "phi_d", "flow_weight", "ground_extra"):
        if getattr(singles[0], name) is None:
            assert getattr(ops, name) is None
            continue
        want = np.array([getattr(one, name) for one in singles])
        assert same_bits(getattr(ops, name).reshape(want.shape), want), name
    choi = choi_matrix(ops).reshape(-1, d * d, d * d)
    assert same_bits(choi, np.array([choi_matrix(one) for one in singles]))
    rho = np.arange(d * d).reshape(d, d) / d**2 + 0.5j * np.eye(d)
    moved = apply(ops, rho).reshape(-1, d, d)
    assert same_bits(moved, np.array([apply(one, rho) for one in singles]))
    spectrum = choi_spectrum(ops)
    flow_at = 1 if sel.dyn_class is DynClass.CONTAINS_EXCITED else 0  # K*flow, bit for bit
    for i, one in enumerate(singles):
        want = choi_spectrum(one)
        got = [np.ravel(part)[i] for part in spectrum]
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        assert got[flow_at] == want[flow_at]


def test_single_propagator_functions_refuse_stacks():
    # propagator_matrix, completeness_residual and compose_residual take
    # stacks (see below); classify takes one window.
    params = NetworkParams(5, 1.0)
    t1 = np.array([0.1, 0.2])
    for sel in (SubsystemSelector(2, cls) for cls in DynClass):
        with pytest.raises(ParameterError, match="t1 must be a real number"):
            classify(params, sel, t1, 0.7)


def same_as_scalar_calls(call, *times, density=None):
    """``call(*times)`` over arrays against the array of its scalar calls.

    The times are broadcast together to a shape S; ``density``, if given,
    is a ``(*S, d, d)`` stack passed last, one matrix per window. Either
    the stacked call equals the scalar calls bit for bit and None is
    returned, or it raises the first refusing element's error, message
    included, and that error is returned.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in times))
    grids = [np.broadcast_to(a, shape) for a in times]
    extra = () if density is None else (density,)
    singles = []
    for i in np.ndindex(shape):
        element = [grid[i].item() for grid in grids] + [x[i] for x in extra]
        try:
            singles.append(call(*element))
        except OpenQNetError as refusal:
            with pytest.raises(type(refusal)) as info:
                call(*times, *extra)
            assert str(info.value) == str(refusal)
            return refusal
    got = call(*times, *extra)
    want = np.array(singles)
    assert got.shape == shape + want.shape[1:]
    assert same_bits(got.reshape(want.shape), want)
    return None


def oracle_selectors(n):
    """Containing K = 1, N/2 and N, excluding K = 1 and N-1."""
    c1, c0 = DynClass.CONTAINS_EXCITED, DynClass.EXCLUDES_EXCITED
    ks = sorted({1, max(1, n // 2), n})
    return [SubsystemSelector(k, c1) for k in ks] + [
        SubsystemSelector(k, c0) for k in sorted({1, n - 1})
    ]


@pytest.mark.parametrize("n", [2, 5, 8, 17])
def test_stacked_oracles_equal_scalar_calls(n):
    # N = 17: every tomography and composition chunk of verify holds one window.
    params = NetworkParams(n, 1.0)
    rng = np.random.default_rng(n)
    t = rng.uniform(-1.0, 2.0, (2, 3)) * params.period
    t1 = rng.uniform(0.0, 0.45, (2, 3)) * params.period  # off the K = N/2 anchors
    assert same_as_scalar_calls(lambda s: q1_unitary_oracle(params, s), t) is None
    calls = [
        (lambda s: v.unitarity_residual(params, s), t),
        (lambda s: v.amplitude_oracle_residual(params, s), t),
        (lambda a, b: v.bloch_fixed_point_residual(params, a, b), t1, t),
    ]
    calls += [
        (lambda s, pair=pair: v.entropy_symmetry_residual(params, *pair, s), t)
        for pair in v.complement_pairs(params)
    ]
    for call, *args in calls:
        assert same_as_scalar_calls(call, *args) is None
    for sel in oracle_selectors(n):
        d = sel.k_qubits + 1
        rho = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        compose = lambda a, b, r: compose_residual(params, sel, a, b, r)
        assert same_as_scalar_calls(compose, t1, t, density=rho) is None
        calls = [
            (lambda s: reduced_density_oracle(params, sel, s), t),
            (lambda s: reduced_state(params, sel, s).internal_vector, t),
            (lambda s: materialize_density(reduced_state(params, sel, s)), t),
            (lambda a, b: propagator_matrix(build_propagator(params, sel, a, b)), t1, t),
            (lambda a, b: compose_residual(params, sel, a, b, rho[0, 0]), t1[0], t[0]),
            (lambda s: v.reduced_state_residual(params, sel, s), t),
            (lambda s: v.trace_distance_residual(params, sel, s), t),
            (lambda a, b: v.composition_residual(params, sel, a, b), t1, t),
            (lambda a, b: completeness_residual(build_propagator(params, sel, a, b)), t1, t),
            (lambda a, b: v.completeness_residual(params, sel, a, b), t1, t),
            (lambda a, b: v.orbit_residual(params, sel, a, b), t1, t),
        ]
        if sel.dyn_class is DynClass.CONTAINS_EXCITED:
            calls += [
                (lambda s: dynamical_map_oracle(params, sel, s), t),
                (lambda a, b: propagator_oracle(params, sel, a, b), t1, t),
                (lambda a, b: propagator_oracle(params, sel, a, b), t1[0, 0], t),
                (lambda a, b: v.tomography_residual(params, sel, a, b), t1, t),
            ]
        else:
            calls.append((lambda a, b: v.orbit_oracle_residual(params, sel, a, b), t1, t))
        for call, *args in calls:
            assert same_as_scalar_calls(call, *args) is None


@pytest.mark.parametrize("n", [2, 5, 8, 17])
def test_fisher_stacks_equal_scalar_calls(n):
    # t = 0 is a pure state: its pairs of zero eigenvalues fall under the SLD
    # cutoff and add nothing to the row-major sum. A np.float64 time is the
    # float's call.
    params = NetworkParams(n, 1.0)
    rng = np.random.default_rng(n)
    t = rng.uniform(0.0, 2.0, (2, 3)) * params.period
    t[0, 0] = 0.0
    whole = SubsystemSelector(n, DynClass.CONTAINS_EXCITED)
    calls = []
    for sel in oracle_selectors(n):
        for theta in GlobalParameter:
            calls.append(lambda s, sel=sel, theta=theta: qfi_numeric_oracle(params, sel, theta, s))
            if not (theta is GlobalParameter.SIZE_N and sel == whole):  # diverges by design
                calls.append(
                    lambda s, sel=sel, theta=theta: v.fisher_oracle_residual(params, sel, theta, s)
                )
    calls += [lambda s, cls=cls: v.fisher_split_residual(params, cls, s) for cls in DynClass]
    for call in calls:
        assert same_as_scalar_calls(call, t) is None
        for s in (0.0, t[1, 2]):
            assert same_bits(np.asarray(call(np.float64(s))), np.asarray(call(float(s))))


def test_sld_oracle_stack_refuses_as_its_first_refusing_element(monkeypatch):
    # With the cutoff at 1.9 only a pure state keeps a pair (2 > 1.9): the
    # mixed state at 0.3 periods fails the oracle before the overflowing
    # phase after it, and after the NaN before it.
    params, sel = NetworkParams(5, 1.0), SubsystemSelector(2, DynClass.CONTAINS_EXCITED)
    oracle = lambda a: qfi_numeric_oracle(params, sel, GlobalParameter.COUPLING_J, a)
    mixed = 0.3 * params.period
    monkeypatch.setattr(fisher, "SLD_PAIR_CUTOFF", 1.9)
    refusal = same_as_scalar_calls(oracle, np.array([0.0, mixed, 1e308]))
    assert isinstance(refusal, fisher.OracleFailureError)
    refusal = same_as_scalar_calls(oracle, np.array([0.0, np.nan, mixed]))
    assert isinstance(refusal, ParameterError)


@pytest.mark.parametrize("n", [2, 5, 8, 17])
def test_bloch_image_stack_equals_scalar_maps(n):
    # A map with array fields against the scalar map of each element.
    params = NetworkParams(n, 1.0)
    rng = np.random.default_rng(n)
    t1 = rng.uniform(0.0, 0.45, (2, 3)) * params.period
    t2 = rng.uniform(-1.0, 2.0, (2, 3)) * params.period
    names = ("transverse_scale", "rotation_angle", "z_scale", "z_shift")
    for cls in DynClass:
        bmap = affine_map(params, cls, t1, t2)
        for b in (np.array([0.0, 0.0, 1.0]), rng.standard_normal(3)):
            singles = []
            for i in np.ndindex(t1.shape):
                fields = {name: getattr(bmap, name)[i].item() for name in names}
                singles.append(evolve_bloch(dataclasses.replace(bmap, **fields), b))
            assert same_bits(evolve_bloch(bmap, b), np.array(singles).reshape(t1.shape + (3,)))


def test_stacked_oracles_refuse_as_their_first_refusing_element():
    params = NetworkParams(6, 1.0)
    half = 0.5 * params.period  # a singular anchor of K = 3
    sel = SubsystemSelector(3, DynClass.CONTAINS_EXCITED)
    rho = np.eye(4) / 4
    bad = [np.array([0.1, half, np.nan]), np.array([0.1, np.inf, half]), np.array([0.1, 1e308])]
    calls = [
        lambda a: q1_unitary_oracle(params, a),
        lambda a: reduced_density_oracle(params, sel, a),
        lambda a: dynamical_map_oracle(params, sel, a),
        lambda a: propagator_oracle(params, sel, a, 0.7),
        lambda a: compose_residual(params, sel, a, 0.7, rho),
        lambda a: v.unitarity_residual(params, a),
        lambda a: v.amplitude_oracle_residual(params, a),
        lambda a: v.completeness_residual(params, sel, a, 0.7),
        lambda a: v.orbit_residual(params, sel, a, 0.7),
        lambda a: v.entropy_symmetry_residual(params, *v.complement_pairs(params)[2], a),
        lambda a: v.bloch_fixed_point_residual(params, a, 0.7),
        lambda a: qfi_numeric_oracle(params, sel, GlobalParameter.SIZE_N, a),
        lambda a: v.fisher_oracle_residual(params, sel, GlobalParameter.COUPLING_J, a),
        lambda a: v.fisher_split_residual(params, DynClass.EXCLUDES_EXCITED, a),
    ]
    for t1 in bad:
        for call in calls:
            assert same_as_scalar_calls(call, t1) is not None
    # The class is refused at the first element, before the later NaN.
    excluding = SubsystemSelector(3, DynClass.EXCLUDES_EXCITED)
    refusal = same_as_scalar_calls(lambda a: dynamical_map_oracle(params, excluding, a), bad[0])
    assert isinstance(refusal, UnsupportedOracleError)


def test_empty_time_array_gives_empty_stack():
    params, sel = NetworkParams(5, 1.0), SubsystemSelector(2, DynClass.EXCLUDES_EXCITED)
    ops = build_propagator(params, sel, np.array([]), 0.7)
    assert ops.block_diag.shape == (0, 3, 3) and ops.ground_extra.shape == (0,)
    assert choi_matrix(ops).shape == (0, 9, 9)



def test_fisher_past_float_range_equals_scalar_calls():
    # At J = 1e-300, (d_J p)^2 ~ 1/J^2 leaves the float range: inf and nan
    # cells, equal to the scalar calls, without a numpy warning (an error
    # under this suite's warning filter).
    params = NetworkParams(5, 1e-300)
    t = np.linspace(0.0, 2.0, 41) * params.period
    for cls in DynClass:
        for sel in (SubsystemSelector(k, cls) for k in (1, 2, 4)):
            for theta in GlobalParameter:
                qfi = lambda s: qfi_closed_form(params, sel, theta, s)
                check_broadcast(qfi, t[1:-1], exact=True)
        split = lambda b: process_state_split(params, cls, 0.25 * params.period, b, rescaled=True)
        assert np.isinf(split(t).total).any() and np.isnan(split(t).total).any()
        check_broadcast(split, t, exact=True)


def k_rows_against_per_k_calls(stack, per_k, ks, t):
    """A stack over ``ks`` against the loop over ``ks`` of per-K array calls.

    Either every row of ``stack(ks, t)`` equals its per-K call bit for bit
    and None is returned, or the stack raises the loop's first refusal,
    message included, and that error is returned.
    """
    rows, refusal = [], None
    for k in ks:
        try:
            rows.append(fields(per_k(k, t)))
        except OpenQNetError as exc:
            refusal = exc
            break
    if refusal is not None:
        with pytest.raises(type(refusal)) as info:
            stack(ks, t)
        assert str(info.value) == str(refusal)
        return refusal
    got = fields(stack(ks, t))
    for name, value in got.items():
        assert value.shape == (len(ks),) + t.shape, name
        for i, row in enumerate(rows):
            assert same_bits(value[i], row[name]), (name, ks[i])
    return None


@pytest.mark.parametrize("coupling", [1.0, 0.7, 1e-300])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 17])
def test_k_stacks_equal_per_k_calls(n, coupling):
    # Every K of each class in one stack, as the fisher and entropy commands
    # call them. The grid holds the half-period (degenerate at N = 2) and,
    # at J = 1e-300, information past the float range.
    params = NetworkParams(n, coupling)
    t = np.linspace(0.0, 2.0, 41) * params.period
    for cls in DynClass:
        contains = cls is DynClass.CONTAINS_EXCITED
        ks = list(range(1, (n if contains else n - 1) + 1))
        for theta in GlobalParameter:
            sized = ks[:-1] if contains and theta is GlobalParameter.SIZE_N else ks
            stack = lambda ks, t: fisher._information_stack(params, ks, cls, theta, t)
            per_k = lambda k, t: qfi_closed_form(params, SubsystemSelector(k, cls), theta, t)
            refusal = k_rows_against_per_k_calls(stack, per_k, sized, t)
            assert (refusal is not None) == (n == 2)
            if refusal is None:
                info = stack(sized, t)
                if contains:  # K = 1: the eigenvectors do not move
                    assert not info.quantum[0].any()
                if contains and sized == ks:  # K = N: w = 0, the eigenvalue does not move
                    assert not info.classical[-1].any()
            if contains and theta is GlobalParameter.SIZE_N:  # K = N diverges
                assert isinstance(k_rows_against_per_k_calls(stack, per_k, ks, t[1:10]), fisher.DivergenceError)
        stack = lambda ks, t: states._entropy_stack(params, ks, cls, t)
        per_k = lambda k, t: entanglement_entropy(params, SubsystemSelector(k, cls), t)
        assert k_rows_against_per_k_calls(stack, per_k, ks, t) is None


def test_k_stack_at_n2_names_the_per_k_loops_first_refusal():
    # The loop over K refuses at K = 1, at the first half-period on the grid.
    params = NetworkParams(2, 1.0)
    t = np.linspace(0.0, 2.0, 41) * params.period
    for cls, ks in ((DynClass.CONTAINS_EXCITED, [1, 2]), (DynClass.EXCLUDES_EXCITED, [1])):
        with pytest.raises(fisher.DegenerateStateError) as info:
            fisher._information_stack(params, ks, cls, GlobalParameter.COUPLING_J, t)
        assert str(info.value) == f"mixing probability vanishes at t={float(t[10])!r}"
    # Refusals that differ by K come in the loop's order: a K too large for
    # the network after a degenerate K = 1.
    refusal = k_rows_against_per_k_calls(
        lambda ks, t: fisher._information_stack(params, ks, DynClass.CONTAINS_EXCITED, GlobalParameter.COUPLING_J, t),
        lambda k, t: qfi_closed_form(params, SubsystemSelector(k, DynClass.CONTAINS_EXCITED), GlobalParameter.COUPLING_J, t),
        [1, 3], t,
    )
    assert isinstance(refusal, fisher.DegenerateStateError)


def test_k_stacks_and_flows_take_one_hop_call(monkeypatch):
    params = NetworkParams(50, 1.0)
    t = np.linspace(0.0, 1.0, 100) * params.period  # misses the K = 25 anchor at 0.5
    sels = [SubsystemSelector(k, cls) for k in range(1, 50) for cls in DynClass]
    stacks = [
        (states, lambda: fisher._information_stack(params, range(1, 51), DynClass.CONTAINS_EXCITED, GlobalParameter.COUPLING_J, t)),
        (states, lambda: states._entropy_stack(params, range(1, 50), DynClass.EXCLUDES_EXCITED, t)),
        (propagator, lambda: propagator._flows(params, sels, t, t + 0.05 * params.period)),
    ]
    for module, call in stacks:
        calls = []
        hop = module._hop
        monkeypatch.setattr(module, "_hop", lambda *args: calls.append(1) or hop(*args))
        call()
        monkeypatch.undo()
        assert len(calls) == 1, module.__name__
