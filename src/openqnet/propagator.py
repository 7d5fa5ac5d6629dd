"""Closed-form two-time propagators on the q <= 1 subspace and their action.

A propagator carries the reduced state at t1 to the reduced state at t2 as

    rho(t2) = B rho(t1) B^dag + sum_i F_i rho(t1) F_i^T,

where B is block diagonal in local excitation number and the F_i move
weight between the ground and single-excitation sectors. The flow terms use
the plain matrix transpose, not the conjugate transpose: their scalar
weight (the square of the would-be operator coefficient) can be negative,
which is how one representation covers both completely positive and
non-completely-positive intervals.

For a subsystem containing the excited qubit there is a single flow
operator, sqrt(flow) in the ground row across all K single-excitation
columns; its action is rho -> flow * (sum of the whole q=1 block of rho)
|0..0><0..0|. For a subsystem excluding the excited qubit the flow operator
is the mirrored column, acting as rho -> flow * rho_gg * (all-ones q=1
block), plus one extra ground-to-ground operator with squared weight
``ground_extra``. :func:`apply` keeps these squared weights as explicit
real scalars instead of forming operators with imaginary entries, so the
action is exact and sign-transparent in both flow directions.

Construction fails only at anchor times t1 where the one-time map cannot be
inverted. The flow weight is closed form in x1 = |u_d(t1)|^2 and
x2 = |u_d(t2)|^2, and its denominator vanishes wherever one of B does, so
one test decides every anchor: t1 raises :class:`SingularIntervalError`
exactly when the relative flow denominator d(t1) = 1 - K(N-K) x1 (containing
class; 1 - K x1 excluding) is at most ANCHOR_RTOL. d vanishes only at odd
half-periods, for K = N/2 or N = 2; at K = 1 it is the mixing probability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .amplitudes import NetworkParams, _amplitudes, _any, _check_time, _cross_abs2, _hop, _replay
from .errors import OpenQNetError, ParameterError, SingularIntervalError
from .linalg import unvec, vec
from .states import DynClass, SubsystemSelector

#: Relative flow denominator d(t1) at or below which t1 is refused as an
#: anchor; for K = N/2, within about 3.2e-5 periods of an odd half-period.
ANCHOR_RTOL = 1e-8


class FlowKind(enum.Enum):
    """Direction of the excitation-flow operator's matrix pattern."""

    OUT_OF_SUBSYSTEM = "out_of_subsystem"  # ground row over q=1 columns
    INTO_SUBSYSTEM = "into_subsystem"  # ground column over q=1 rows


@dataclass(frozen=True)
class PropagatorOps:
    """Operator-sum data of one propagator, restricted to q <= 1, or of a stack.

    ``block_diag`` is the (K+1)x(K+1) excitation-conserving operator B;
    ``flow_weight`` is the real squared weight of the flow operator (may be
    negative); ``ground_extra`` is the squared weight of the extra
    ground-to-ground operator (excluding class only, else None). A stack of
    shape S, built from arrays of times, has a ``(*S, K+1, K+1)`` block,
    weights of shape S and the validated ``t1``, ``t2`` arrays.
    """

    block_diag: np.ndarray
    flow_weight: float | np.ndarray
    flow_kind: FlowKind
    ground_extra: float | np.ndarray | None
    k_qubits: int
    dyn_class: DynClass
    t1: float | np.ndarray
    t2: float | np.ndarray


def is_singular(params: NetworkParams, k_qubits: int, t1) -> bool:
    """True iff the containing class's K-qubit propagator cannot be anchored at ``t1``.

    That is, d(t1) = 1 - K(N-K)|u_d(t1)|^2 <= ``ANCHOR_RTOL``: for K = N/2,
    within about 3.2e-5 periods of an odd half-period, where the one-time
    map loses rank (the excitation is maximally delocalized across two equal
    halves). Other K keep d >= (N-2K)^2/N^2. This d vanishes at every
    singular anchor of either class.
    """
    return _anchor_denominator(params, k_qubits, True, _check_time(t1, "t1")) <= ANCHOR_RTOL


def _anchor_denominator(params: NetworkParams, k: int, contains: bool, t1):
    # d(t1) of the module docstring, for a validated float or array t1.
    n = params.n_qubits
    return 1.0 - (k * (n - k) if contains else k) * _hop(n, params.coupling, t1)[0]


def _check_anchor(params: NetworkParams, k: int, contains: bool, t1) -> None:
    # Raises every anchor SingularIntervalError: where d(t1) <= ANCHOR_RTOL,
    # naming t1, or an array's first such element.
    d = _anchor_denominator(params, k, contains, t1)
    refused = d <= ANCHOR_RTOL
    if not _any(refused):
        return
    if type(t1) is not float:
        t1, d = float(t1[refused][0]), float(d[refused][0])
    raise SingularIntervalError(
        f"propagator anchor t1={t1!r} ({t1 / params.period:.12g} periods) refused: "
        f"relative flow denominator d={d:.3g} <= ANCHOR_RTOL={ANCHOR_RTOL:g}",
        t1=t1,
    )


def _window(params: NetworkParams, sel: SubsystemSelector, t1, t2, arrays: bool = False):
    # Validated (t1, t2) of a propagator window; refuses singular anchors.
    # ``arrays`` where the caller broadcasts (see _check_time).
    sel.validate(params)
    t1 = _check_time(t1, "t1", arrays)
    t2 = _check_time(t2, "t2", arrays)
    _check_anchor(params, sel.k_qubits, sel.dyn_class is DynClass.CONTAINS_EXCITED, t1)
    return t1, t2


def _flow_weight(n: int, k: int, contains: bool, x1, x2):
    # (x2 - x1) / (c - K x1) with c = 1/(N-K) for the containing class and
    # c = 1 for the excluding class; the anchor test keeps c - K x1 off zero.
    if contains:
        if k == n:
            return 0.0 * (x1 + x2)  # full network: unitary evolution, no flow channel
        return (x2 - x1) / (1.0 / (n - k) - k * x1)
    return (x2 - x1) / (1.0 - k * x1)


def build_propagator(
    params: NetworkParams, sel: SubsystemSelector, t1, t2
) -> PropagatorOps:
    """Construct the closed-form propagator over [t1, t2] for the subsystem.

    An ndarray ``t1`` or ``t2`` gives a stack of propagators over the
    broadcast shape S of the two: ``block_diag`` is ``(*S, K+1, K+1)`` and
    ``flow_weight`` and ``ground_extra`` are arrays of shape S, each element
    equal bit for bit to the scalar call on that window. An array is
    refused exactly as its first refusing element would be.
    """
    try:
        return _build(params, sel, *_window(params, sel, t1, t2, True))
    except OpenQNetError:
        _replay(build_propagator, params, sel, t1, t2)
        raise


def _build(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> PropagatorOps:
    # build_propagator on validated times. An array's window scalars come
    # from _scalars one element at a time, so that every element is the
    # scalar call: Python's complex arithmetic rounds unlike numpy's.
    n, k = params.n_qubits, sel.k_qubits
    contains = sel.dyn_class is DynClass.CONTAINS_EXCITED
    if type(t1) is float and type(t2) is float:
        shape = ()
        x1, x2, phase, extra = _scalars(params, k, contains, t1, t2)
    else:
        ends = np.broadcast_arrays(t1, t2)
        shape = ends[0].shape
        windows = zip(*(end.ravel().tolist() for end in ends))
        rows = [_scalars(params, k, contains, *window) for window in windows]
        x1, x2, phase, extra = (np.array(c).reshape(shape) for c in list(zip(*rows)) or [()] * 4)
    flow = _flow_weight(n, k, contains, x1, x2)
    block = np.zeros(shape + (k + 1, k + 1), dtype=complex)
    if contains:
        if shape:  # line a stack's phases up with the block's last axes
            phase, extra = phase[..., None], extra[..., None, None]
        block[..., 0, 0] = 1.0  # ground-sector phase is unity by gauge
        block[..., 1:, 1:] = extra  # phi_d off the diagonal
        block.reshape(shape + (-1,))[..., k + 2 :: k + 2] = phase  # phi_s on it
        return PropagatorOps(
            block, flow, FlowKind.OUT_OF_SUBSYSTEM, None, k, sel.dyn_class, t1, t2
        )
    block[..., 0, 0] = phase
    # Local single-excitation phases are unity by gauge; there is no
    # internal mixing in this class (all K qubits are equivalent).
    block[..., 1:, 1:] = np.eye(k)
    # Ground weight p(t2)/p(t1) = 1 - K flow (excitation balance).
    return PropagatorOps(
        block,
        flow,
        FlowKind.INTO_SUBSYSTEM,
        1.0 - k * flow - extra,
        k,
        sel.dyn_class,
        t1,
        t2,
    )


def _scalars(params: NetworkParams, k: int, contains: bool, t1: float, t2: float) -> tuple:
    # (x1, x2, phi_s, phi_d) for the containing class and (x1, x2, phi_s0,
    # |phi_s0|^2) for the excluding class, over one validated float window.
    a1, a2 = _amplitudes(params, t1), _amplitudes(params, t2)
    us1, ud1 = a1.same_site, a1.cross_site
    us2, ud2 = a2.same_site, a2.cross_site
    if contains:
        denom = (ud1 - us1) * ((k - 1) * ud1 + us1)
        phi_s = (ud1 * ud2 - us1 * us2 + (k - 2) * ud1 * (ud2 - us2)) / denom
        phi_d = (ud1 * us2 - us1 * ud2) / denom
        return a1.cross_abs2, a2.cross_abs2, phi_s, phi_d
    phi_s0 = us2 / us1
    return a1.cross_abs2, a2.cross_abs2, phi_s0, abs(phi_s0) ** 2


def flow_amplitude(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """The real flow weight over [t1, t2]; its sign is the flow direction.

    Positive means excitation dispersing away from the excited qubit,
    negative means backflow toward it, for either class. Equal, bit for
    bit, to ``build_propagator(params, sel, t1, t2).flow_weight``, and
    refuses the same anchors. An ndarray ``t1`` or ``t2`` gives an array,
    equal bit for bit to the scalar calls.
    """
    return _flows(params, (sel,), t1, t2)[0]


def _flows(params: NetworkParams, sels, t1, t2) -> list:
    # flow_amplitude for each selector over the same windows, reading x once
    # per window end rather than once per selector. An array is refused as
    # a loop over its elements, each over the selectors in order, would be.
    x = None
    flows = []
    try:
        for sel in sels:
            t1, t2 = _window(params, sel, t1, t2, True)
            if x is None:
                x = _cross_abs2(params, t1), _cross_abs2(params, t2)
            contains = sel.dyn_class is DynClass.CONTAINS_EXCITED
            flows.append(_flow_weight(params.n_qubits, sel.k_qubits, contains, *x))
    except OpenQNetError:
        _replay(_flows, params, sels, t1, t2)
        raise
    return flows


def apply(ops: PropagatorOps, density: np.ndarray) -> np.ndarray:
    """Act with the propagator on a (K+1)x(K+1) operator, or on a stack of them.

    ``density`` has shape ``(*R, K+1, K+1)``; the map acts on the last two
    axes. Stacked ops of shape S act elementwise, with S and R broadcast
    together, so the result is ``(*broadcast(S, R), K+1, K+1)``. The input
    need not be positive; probing the map with arbitrary Hermitian (or even
    non-Hermitian) operators is legitimate. Hermitian unit-trace input
    yields Hermitian unit-trace output.
    """
    d = ops.k_qubits + 1
    rho = np.asarray(density, dtype=complex)
    if rho.shape[-2:] != (d, d):
        raise ParameterError(f"operator must be {d}x{d}, got shape {rho.shape}")
    block = ops.block_diag
    out = block @ rho @ block.conj().swapaxes(-1, -2)
    _add_flow(ops, rho, out)
    return out


def _add_flow(ops: PropagatorOps, rho: np.ndarray, out: np.ndarray) -> None:
    # Adds the flow terms of the map on rho to out, its block term, in place.
    if ops.flow_kind is FlowKind.OUT_OF_SUBSYSTEM:
        out[..., 0, 0] += ops.flow_weight * rho[..., 1:, 1:].sum(axis=(-2, -1))
    else:
        ground = rho[..., 0, 0]
        out[..., 1:, 1:] += (ops.flow_weight * ground)[..., None, None]
        out[..., 0, 0] += ops.ground_extra * ground


def _basis_images(ops: PropagatorOps) -> np.ndarray:
    # images[mu, nu, *S] = Phi[|mu><nu|] for the ops of a stack of shape S
    # (S = () for one propagator). The block term B E B^dag of all d^2 basis
    # operators E takes two matrix products per map: B @ (the E side by
    # side, d x d^3), whose d^3 rows of length d then go @ B^dag at once.
    # Each entry is a sum with one nonzero term, so the values are those of
    # apply on each E; only the signs of zeros can differ.
    d = ops.k_qubits + 1
    block = ops.block_diag
    stack = block.shape[:-2]
    m = len(stack)
    # side[row, mu, nu, col] = |mu><nu|[row, col]
    side = np.zeros((d, d, d, d), dtype=complex)
    i = np.arange(d)
    side[i[:, None], i[:, None], i, i] = 1.0
    # rows[*S, (a, mu, nu)] = (B |mu><nu|)[a, :]
    rows = (block @ side.reshape(d, d**3)).reshape(stack + (d**3, d))
    out = (rows @ block.conj().swapaxes(-1, -2)).reshape(stack + (d, d, d, d))
    images = np.moveaxis(out, (m + 1, m + 2), (0, 1))
    basis = side.transpose(1, 2, 0, 3)  # basis[mu, nu] = |mu><nu|
    _add_flow(ops, basis.reshape((d, d) + (1,) * m + (d, d)), images)
    return images


def _single(ops: PropagatorOps) -> None:
    # Refuses a stack where a function takes one propagator.
    if ops.block_diag.ndim != 2:
        raise ParameterError(
            f"expected one propagator, got a stack of shape {ops.block_diag.shape[:-2]}"
        )


def propagator_matrix(ops: PropagatorOps) -> np.ndarray:
    """Matrix of the propagator on column-stacked (K+1)x(K+1) operators.

    Column ``nu*d + mu`` is vec(Phi[|mu><nu|]), with vec stacking columns.
    Takes one propagator; a stack is refused.
    """
    _single(ops)
    d = ops.k_qubits + 1
    return _basis_images(ops).transpose(3, 2, 1, 0).reshape(d * d, d * d)


def completeness_residual(ops: PropagatorOps) -> float:
    """Max-entry residual of B^dag B + sum_i F_i^T F_i - identity.

    Zero residual is exactly trace preservation of the operator sum. Takes
    one propagator; a stack is refused.
    """
    _single(ops)
    d = ops.k_qubits + 1
    acc = ops.block_diag.conj().T @ ops.block_diag
    if ops.flow_kind is FlowKind.OUT_OF_SUBSYSTEM:
        acc[1:, 1:] += ops.flow_weight  # F^T F is flow * (all-ones q=1 block)
    else:
        acc[0, 0] += ops.k_qubits * ops.flow_weight + ops.ground_extra
    return float(np.abs(acc - np.eye(d)).max())


def compose_residual(
    params: NetworkParams, sel: SubsystemSelector, t1, t2, test_density: np.ndarray
) -> float:
    """Deviation between the direct propagator and its two-map composition.

    Compares apply(Phi(t1,t2), rho) against apply(Phi(0,t2), Phi(0,t1)^-1[rho])
    where the inverse is a pseudo-inverse (singular-value cutoff 1e-10) of
    the one-time map's matrix on the operator space. Returns the max-entry
    absolute deviation.
    """
    t1, t2 = _window(params, sel, t1, t2)  # the one-time map must invert at t1
    d = sel.k_qubits + 1
    rho = np.asarray(test_density, dtype=complex)
    if rho.shape != (d, d):
        raise ParameterError(f"test density must be {d}x{d}, got shape {rho.shape}")
    direct = apply(build_propagator(params, sel, t1, t2), rho)
    m1 = propagator_matrix(build_propagator(params, sel, 0.0, t1))
    m2 = propagator_matrix(build_propagator(params, sel, 0.0, t2))
    rewound = np.linalg.pinv(m1, rcond=1e-10) @ vec(rho)
    composed = unvec(m2 @ rewound, d)
    return float(np.abs(direct - composed).max())
