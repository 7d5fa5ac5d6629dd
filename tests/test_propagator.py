import math

import numpy as np
import pytest

from openqnet import (
    DynClass,
    NetworkParams,
    ParameterError,
    SingularIntervalError,
    SubsystemSelector,
    affine_map,
    amplitudes,
    apply,
    build_propagator,
    choi_spectrum,
    classify,
    completeness_residual,
    compose_residual,
    conservation_residual,
    flow_amplitude,
    is_singular,
    materialize_density,
    process_state_split,
    reduced_state,
)
from openqnet.propagator import ANCHOR_RTOL
from openqnet.verification import composition_residual, orbit_residual, random_interval

N5 = NetworkParams(5, 1.0)
C1 = DynClass.CONTAINS_EXCITED
C0 = DynClass.EXCLUDES_EXCITED
HALF = math.pi / 5  # half period for N=5, J=1
FULL = 2 * math.pi / 5


def random_hermitian_unit_trace(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = mat + mat.conj().T
    mat += dim * np.eye(dim)  # keep it generic, positivity not required
    return mat / np.trace(mat)


def all_selectors(params):
    sels = [SubsystemSelector(k, C1) for k in range(1, params.n_qubits + 1)]
    sels += [SubsystemSelector(k, C0) for k in range(1, params.n_qubits)]
    return sels


def test_identity_propagator():
    for sel in [SubsystemSelector(1, C1), SubsystemSelector(3, C1), SubsystemSelector(2, C0)]:
        ops = build_propagator(N5, sel, 0.77, 0.77)
        assert np.abs(ops.block_diag - np.eye(sel.k_qubits + 1)).max() <= 1e-12
        assert ops.flow_weight == 0.0


def test_single_qubit_elements():
    ops = build_propagator(N5, SubsystemSelector(1, C1), 0.0, HALF)
    assert ops.block_diag[1, 1] == pytest.approx(-0.6, abs=1e-13)
    assert ops.flow_weight == pytest.approx(0.64, abs=1e-13)

    ops = build_propagator(N5, SubsystemSelector(1, C1), HALF, FULL)
    assert ops.block_diag[1, 1] == pytest.approx(-5 / 3, abs=1e-13)
    assert ops.flow_weight == pytest.approx(-16 / 9, abs=1e-13)


def test_flow_amplitude_examples():
    assert flow_amplitude(N5, SubsystemSelector(1, C1), 0.0, HALF) == pytest.approx(
        0.64, abs=1e-13
    )
    assert flow_amplitude(N5, SubsystemSelector(1, C0), 0.0, HALF) == pytest.approx(
        0.16, abs=1e-13
    )
    assert flow_amplitude(N5, SubsystemSelector(2, C0), 0.44, 0.44) == 0.0


def test_flow_sign_tracks_hop_probability():
    rng = np.random.default_rng(7)
    for _ in range(200):
        sel = SubsystemSelector(int(rng.integers(1, 5)), C1 if rng.random() < 0.5 else C0)
        t1, t2 = rng.uniform(0, N5.period, size=2)
        x1 = math.sin(2.5 * t1) ** 2
        x2 = math.sin(2.5 * t2) ** 2
        flow = flow_amplitude(N5, sel, t1, t2)
        if abs(x2 - x1) > 1e-12:
            assert math.copysign(1, flow) == math.copysign(1, x2 - x1)


def test_apply_examples():
    ops = build_propagator(N5, SubsystemSelector(1, C1), 0.0, HALF)
    out = apply(ops, np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(out, np.diag([0.64, 0.36]), atol=1e-13)

    ops = build_propagator(N5, SubsystemSelector(1, C1), HALF, FULL)
    out = apply(ops, np.diag([0.64, 0.36]).astype(complex))
    assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-13)


def test_apply_dimension_mismatch():
    ops = build_propagator(N5, SubsystemSelector(1, C1), 0.0, 0.3)
    with pytest.raises(ParameterError):
        apply(ops, np.eye(3))


def test_trace_preservation_on_generic_hermitian():
    rng = np.random.default_rng(11)
    for sel in all_selectors(N5):
        for _ in range(5):
            t1, t2 = rng.uniform(0, N5.period, size=2)
            ops = build_propagator(N5, sel, t1, t2)
            rho = random_hermitian_unit_trace(rng, sel.k_qubits + 1)
            out = apply(ops, rho)
            assert abs(np.trace(out).real - 1.0) <= 1e-10
            assert abs(np.trace(out).imag) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-10


def test_completeness_relation():
    rng = np.random.default_rng(3)
    for sel in all_selectors(N5):
        for _ in range(10):
            t1, t2 = rng.uniform(0, N5.period, size=2)
            ops = build_propagator(N5, sel, t1, t2)
            assert completeness_residual(ops) <= 1e-10
            # Scalar identities carried by the elements themselves.
            if sel.dyn_class is C1:
                k = sel.k_qubits
                phi_s = ops.block_diag[1, 1]
                phi_d = ops.block_diag[1, 2] if k >= 2 else 0.0
                first = abs(phi_s) ** 2 + (k - 1) * abs(phi_d) ** 2 + ops.flow_weight
                assert abs(first - 1.0) <= 1e-10
                if k >= 2:
                    second = (
                        2 * (phi_s.conjugate() * phi_d).real
                        + (k - 2) * abs(phi_d) ** 2
                        + ops.flow_weight
                    )
                    assert abs(second) <= 1e-10
            else:
                ground = ops.ground_extra + abs(ops.block_diag[0, 0]) ** 2
                assert abs(ground + sel.k_qubits * ops.flow_weight - 1.0) <= 1e-10


def test_orbit_consistency():
    rng = np.random.default_rng(17)
    for n in [3, 5, 6, 8]:
        params = NetworkParams(n, 1.0)
        for sel in all_selectors(params):
            for _ in range(4):
                while True:
                    t1, t2 = rng.uniform(0, params.period, size=2)
                    if not is_singular(params, sel.k_qubits, t1):
                        break
                ops = build_propagator(params, sel, t1, t2)
                moved = apply(ops, materialize_density(reduced_state(params, sel, t1)))
                target = materialize_density(reduced_state(params, sel, t2))
                assert np.abs(moved - target).max() <= 1e-9


def test_conservation_relation():
    assert conservation_residual(N5, 1, 0.0, HALF) <= 1e-12
    # identity value: 0.16 * (1/0.16 - 1/0.64) = 0.75 = 1 - 1/4
    rng = np.random.default_rng(23)
    for n in [4, 5, 6, 8]:
        params = NetworkParams(n, 1.0)
        for k in range(1, n):
            for _ in range(5):
                t1, t2 = rng.uniform(0, params.period, size=2)
                if is_singular(params, k, t1):
                    continue
                x1 = math.sin(n * t1 / 2) ** 2
                x2 = math.sin(n * t2 / 2) ** 2
                if abs(x2 - x1) < 1e-6:
                    continue
                assert conservation_residual(params, k, t1, t2) <= 1e-10


def test_cross_class_application_keeps_positivity():
    # A single-qubit excluding-class propagator applied to the containing
    # class's physical state stays a valid state, for any N >= 4 (fails at
    # N=3; see the project notes).
    for n in [4, 5, 6, 8]:
        params = NetworkParams(n, 1.0)
        sel0 = SubsystemSelector(1, C0)
        sel1 = SubsystemSelector(1, C1)
        for tau1 in np.linspace(0.05, 0.95, 7):
            for tau2 in np.linspace(0.0, 1.0, 7):
                ops = build_propagator(
                    params, sel0, tau1 * params.period, tau2 * params.period
                )
                for tau in np.linspace(0.0, 1.0, 9):
                    rho = materialize_density(reduced_state(params, sel1, tau * params.period))
                    out = apply(ops, rho)
                    assert abs(np.trace(out).real - 1.0) <= 1e-10
                    assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_singularity_detection():
    params = NetworkParams(6, 1.0)
    assert is_singular(params, 3, math.pi / 6)  # odd half-period, K = N/2
    assert is_singular(params, 3, 3 * math.pi / 6)
    assert not is_singular(params, 3, 0.0)
    assert not is_singular(params, 2, math.pi / 6)
    assert not is_singular(N5, 2, 0.7 * N5.period)  # odd N never has K = N/2
    # d = (pi eps)^2 at eps periods from the half-period: refused within
    # about 3.2e-5 periods, where d <= ANCHOR_RTOL.
    half = 0.5 * params.period
    assert is_singular(params, 3, half + 0.5e-9 * params.period)
    assert is_singular(params, 3, half + 1e-5 * params.period)
    assert not is_singular(params, 3, half + 1e-4 * params.period)


def test_half_period_anchor_refuses_the_containing_class_only():
    # K = N/2 at the half-period: the containing class's one-time map loses
    # rank there, the excluding class's stays invertible (ground weight 1 - 2/N).
    params = NetworkParams(6, 1.0)
    with pytest.raises(SingularIntervalError) as info:
        build_propagator(params, SubsystemSelector(3, C1), math.pi / 6, 0.9)
    assert info.value.t1 == pytest.approx(math.pi / 6)
    assert "t1=" in str(info.value)
    sel = SubsystemSelector(3, C0)
    assert orbit_residual(params, sel, math.pi / 6, 0.9) <= 1e-14
    assert completeness_residual(build_propagator(params, sel, math.pi / 6, 0.9)) <= 1e-14
    assert composition_residual(params, sel, math.pi / 6, 0.9) <= 1e-14


def test_n2_half_period_is_singular():
    params = NetworkParams(2, 1.0)
    assert is_singular(params, 1, math.pi / 2)
    with pytest.raises(SingularIntervalError):
        build_propagator(params, SubsystemSelector(1, C0), math.pi / 2, 1.0)


def test_flow_amplitude_is_the_block_flow_weight():
    rng = np.random.default_rng(43)
    for n in (2, 3, 5, 6):
        params = NetworkParams(n, 0.8)
        for sel in all_selectors(params):
            for _ in range(20):
                t1, t2 = rng.uniform(-params.period, 2 * params.period, size=2)
                direct = flow_amplitude(params, sel, t1, t2)
                assert direct == build_propagator(params, sel, t1, t2).flow_weight


def _flow_or_refusal(fn, *args):
    try:
        return fn(*args)
    except SingularIntervalError as exc:
        return ("refused", exc.t1)


def test_flow_amplitude_refuses_the_block_anchors():
    # K = N/2 anchors at and near the half-period, and the N=2 half-period.
    cases = []
    for n in (4, 6):
        params = NetworkParams(n, 1.0)
        half = 0.5 * params.period
        for offset in (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6, 1e-4, -1e-4):
            cases.append((params, n // 2, half + offset * params.period))
    params2 = NetworkParams(2, 1.0)
    cases.append((params2, 1, 0.5 * params2.period))
    cases.append((params2, 1, 1.5 * params2.period))
    refused = accepted = 0
    for params, k, t1 in cases:
        t2 = t1 + 0.3 * params.period
        outcomes = []
        for cls in (C1, C0):
            sel = SubsystemSelector(k, cls)
            try:
                block = build_propagator(params, sel, t1, t2).flow_weight
            except SingularIntervalError as exc:
                block = ("refused", exc.t1)
            assert _flow_or_refusal(flow_amplitude, params, sel, t1, t2) == block
            outcomes.append(block)
        either_refused = any(isinstance(o, tuple) for o in outcomes)
        residual = _flow_or_refusal(conservation_residual, params, k, t1, t2)
        assert isinstance(residual, tuple) == either_refused
        refused += either_refused
        accepted += not either_refused
    assert refused and accepted  # both sides of the guard are exercised


def test_full_network_is_unitary():
    sel = SubsystemSelector(5, C1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        t1, t2 = rng.uniform(0, N5.period, size=2)
        ops = build_propagator(N5, sel, t1, t2)
        assert ops.flow_weight == 0.0
        block = ops.block_diag
        assert np.abs(block.conj().T @ block - np.eye(6)).max() <= 1e-10


def test_compose_residual():
    rho = materialize_density(reduced_state(N5, SubsystemSelector(1, C1), HALF))
    assert compose_residual(N5, SubsystemSelector(1, C1), 0.0, 0.3, rho) <= 1e-12
    assert (
        compose_residual(N5, SubsystemSelector(1, C1), HALF, 3 * math.pi / 10, rho) <= 1e-8
    )
    rng = np.random.default_rng(29)
    sel = SubsystemSelector(2, C0)
    generic = random_hermitian_unit_trace(rng, 3)
    assert compose_residual(N5, sel, 0.41, 0.97, generic) <= 1e-8


def test_compose_residual_singular_anchor():
    params = NetworkParams(6, 1.0)
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(SingularIntervalError):
        compose_residual(params, SubsystemSelector(3, C1), math.pi / 6, 1.0, rho)


@pytest.mark.parametrize("n", [2, 4, 6, 50, 128])
def test_every_route_refuses_the_same_anchors(n):
    # K = N/2 anchors eps periods to either side of odd half-periods: every
    # route refuses, or every route accepts, and they refuse exactly where
    # d = 1 - K(N-K)|u_d(t1)|^2 <= ANCHOR_RTOL. The excluding class builds.
    params = NetworkParams(n, 1.0)
    k = n // 2
    sel = SubsystemSelector(k, C1)
    if n <= 50:
        rho = np.eye(k + 1, dtype=complex) / (k + 1)
    else:
        # Too large a map to invert here: past the anchor test, this 1x1
        # density is refused with ParameterError, which counts as accepted.
        rho = np.eye(1, dtype=complex)
    routes = [
        lambda t1, t2: build_propagator(params, sel, t1, t2),
        lambda t1, t2: flow_amplitude(params, sel, t1, t2),
        lambda t1, t2: classify(params, sel, t1, t2),
        lambda t1, t2: compose_residual(params, sel, t1, t2, rho),
        lambda t1, t2: conservation_residual(params, k, t1, t2),
    ]
    if n == 2:
        for cls in (C1, C0):
            routes.append(lambda t1, t2, cls=cls: affine_map(params, cls, t1, t2))
            routes.append(lambda t1, t2, cls=cls: process_state_split(params, cls, t1, t2))
    verdicts = []
    for half in (0.5, 1.5):
        for eps in (10.0**-e for e in range(2, 10)):
            for t1 in ((half - eps) * params.period, (half + eps) * params.period):
                t2 = t1 + 0.3 * params.period
                d = 1.0 - k * (n - k) * abs(amplitudes(params, t1).cross_site) ** 2
                want = bool(d <= ANCHOR_RTOL)
                assert is_singular(params, k, t1) == want, (eps, d)
                for route in routes:
                    try:
                        route(t1, t2)
                        refused = False
                    except SingularIntervalError as exc:
                        assert exc.t1 == t1 and f"t1={t1!r}" in str(exc)
                        refused = True
                    except ParameterError:
                        assert rho.shape == (1, 1)
                        refused = False
                    assert refused == want, (eps, d, route)
                if n > 2:
                    build_propagator(params, SubsystemSelector(k, C0), t1, t2)
                verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


def _b_by_hand(ops, index):
    # B of one window of ops, written out from its scalars: 1, phi_s on the
    # q = 1 diagonal and phi_d off it (containing class), or phi_0 and the
    # q = 1 identity (excluding class).
    d = ops.k_qubits + 1
    block = np.zeros((d, d), dtype=complex)
    if ops.dyn_class is C1:
        block[0, 0] = 1.0
        block[1:, 1:] = np.asarray(ops.phi_d)[index]
        for i in range(1, d):
            block[i, i] = np.asarray(ops.phi_s)[index]
    else:
        block[0, 0] = np.asarray(ops.phi_s)[index]
        for i in range(1, d):
            block[i, i] = 1.0
    return block


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("shape", [(), (3, 4)])
def test_a_propagator_is_its_window_scalars(n, shape):
    # Every field but K and the class has the stack's shape S, so no
    # per-window matrix is held; B is built from the scalars on each read,
    # bit for bit as written out by hand; choi_spectrum reads ||B||_F^2 from
    # the scalars within 4 eps of np.vdot; and affine_map's transverse scale
    # and rotation are those of B's non-unit diagonal entry.
    params, rng = NetworkParams(n, 1.0), np.random.default_rng(47)
    eps = np.finfo(float).eps
    for sel in all_selectors(params):
        count = math.prod(shape)
        windows = np.array([random_interval(rng, params, sel.k_qubits) for _ in range(count)])
        t1, t2 = windows[:, 0].reshape(shape), windows[:, 1].reshape(shape)
        if not shape:
            t1, t2 = float(t1), float(t2)
        ops = build_propagator(params, sel, t1, t2)
        fields = ops.phi_s, ops.phi_d, ops.flow_weight, ops.ground_extra, ops.t1, ops.t2
        assert [np.shape(f) for f in fields if f is not None] == [shape] * 5, sel
        assert (ops.phi_d is None) == (ops.ground_extra is not None) == (sel.dyn_class is C0)
        block = ops.block_diag
        assert block.shape == shape + (sel.k_qubits + 1,) * 2
        for index in np.ndindex(shape):
            assert block[index].tobytes() == _b_by_hand(ops, index).tobytes(), (sel, index)
        if sel.dyn_class is C1:
            norm2 = np.asarray(choi_spectrum(ops)[0])
            for index in np.ndindex(shape):
                want = np.vdot(block[index], block[index]).real
                assert abs(norm2[index] - want) <= 4 * eps * want, (sel, index)
        if sel.k_qubits == 1:
            bmap = affine_map(params, sel.dyn_class, t1, t2)
            # A scalar entry for one window, as abs() of a scalar rounds unlike
            # np.abs of an array.
            entry = (block[..., 1, 1] if sel.dyn_class is C1 else block[..., 0, 0])[()]
            sign = 1.0 if sel.dyn_class is C1 else -1.0
            assert np.asarray(bmap.transverse_scale).tobytes() == np.asarray(abs(entry)).tobytes()
            assert np.asarray(bmap.rotation_angle).tobytes() == (sign * np.angle(entry)).tobytes()
