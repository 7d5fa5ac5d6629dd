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

from dataclasses import dataclass

import numpy as np

from .amplitudes import NetworkParams, _amplitudes, _any, _check_time, _hop, _refuse_as_loop
from .errors import ParameterError, SingularIntervalError
from .states import DynClass, SubsystemSelector

#: Relative flow denominator d(t1) at or below which t1 is refused as an
#: anchor; for K = N/2, within about 3.2e-5 periods of an odd half-period.
ANCHOR_RTOL = 1e-8


@dataclass(frozen=True)
class PropagatorOps:
    """Operator-sum data of one propagator, restricted to q <= 1, or of a stack.

    ``block_diag`` is the (K+1)x(K+1) excitation-conserving operator B;
    ``flow_weight`` is the real squared weight of the flow operator (may be
    negative); ``ground_extra`` is the squared weight of the extra
    ground-to-ground operator (excluding class only, else None).
    ``dyn_class`` fixes the flow operator's pattern: the ground row over the
    q=1 columns for the containing class, the mirrored column for the
    excluding class. A stack of shape S, built from arrays of times, has a
    ``(*S, K+1, K+1)`` block, weights of shape S and the validated ``t1``,
    ``t2`` arrays.
    """

    block_diag: np.ndarray
    flow_weight: float | np.ndarray
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
    x1 = _hop(params.n_qubits, params.coupling, _check_time(t1, "t1"))[0]
    return _anchor_denominator(params, k_qubits, True, x1) <= ANCHOR_RTOL


def _anchor_denominator(params: NetworkParams, k: int, contains: bool, x1):
    # d(t1) of the module docstring, from x1 = |u_d(t1)|^2 of _hop.
    return 1.0 - (k * (params.n_qubits - k) if contains else k) * x1


def _check_anchor(params: NetworkParams, k: int, contains: bool, t1, x1) -> None:
    # Raises every anchor SingularIntervalError: where d(t1) <= ANCHOR_RTOL,
    # naming t1, or an array's first such element. ``x1`` is _hop's x at t1.
    d = _anchor_denominator(params, k, contains, x1)
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


def _window(params: NetworkParams, sels, t1, t2, arrays: bool = False):
    # Validated (t1, t2) of a window shared by the selectors ``sels``, by the
    # one refusal rule: every selector, then t1 and t2, then each
    # selector's anchor, all decided from one _hop(t1). ``arrays`` where the
    # caller broadcasts (see _check_time).
    for sel in sels:
        sel.validate(params)
    t1 = _check_time(t1, "t1", arrays)
    t2 = _check_time(t2, "t2", arrays)
    x1 = _hop(params.n_qubits, params.coupling, t1)[0]
    for sel in sels:
        _check_anchor(params, sel.k_qubits, sel.dyn_class is DynClass.CONTAINS_EXCITED, t1, x1)
    return t1, t2


def _flow_weight(n: int, k: int, contains: bool, x1, x2):
    # (x2 - x1) / (c - K x1) with c = 1/(N-K) for the containing class and
    # c = 1 for the excluding class; the anchor test keeps c - K x1 off zero.
    if contains:
        if k == n:
            return 0.0 * (x1 + x2)  # full network: unitary evolution, no flow channel
        return (x2 - x1) / (1.0 / (n - k) - k * x1)
    return (x2 - x1) / (1.0 - k * x1)


@_refuse_as_loop
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
    return _build(params, sel, *_window(params, (sel,), t1, t2, True))


def _build(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> PropagatorOps:
    # build_propagator on validated times. An array's window scalars come
    # from _scalars one element at a time, so that every element is the
    # scalar call: Python's complex arithmetic rounds unlike numpy's.
    n, k = params.n_qubits, sel.k_qubits
    contains = sel.dyn_class is DynClass.CONTAINS_EXCITED
    a1, a2 = _amplitudes(params, t1), _amplitudes(params, t2)
    amps = a1.same_site, a1.cross_site, a2.same_site, a2.cross_site
    if type(t1) is float and type(t2) is float:
        shape = ()
        x1, x2, phase, extra = _scalars(k, contains, *amps)
    else:
        ends = np.broadcast_arrays(*amps)
        shape = ends[0].shape
        windows = zip(*(end.ravel().tolist() for end in ends))
        rows = [_scalars(k, contains, *window) for window in windows]
        x1, x2, phase, extra = (np.array(c).reshape(shape) for c in list(zip(*rows)) or [()] * 4)
    flow = _flow_weight(n, k, contains, x1, x2)
    block = np.zeros(shape + (k + 1, k + 1), dtype=complex)
    if contains:
        if shape:  # line a stack's phases up with the block's last axes
            phase, extra = phase[..., None], extra[..., None, None]
        block[..., 0, 0] = 1.0  # ground-sector phase is unity by gauge
        block[..., 1:, 1:] = extra  # phi_d off the diagonal
        block.reshape(shape + (-1,))[..., k + 2 :: k + 2] = phase  # phi_s on it
        return PropagatorOps(block, flow, None, k, sel.dyn_class, t1, t2)
    block[..., 0, 0] = phase
    # Local single-excitation phases are unity by gauge; there is no
    # internal mixing in this class (all K qubits are equivalent).
    block[..., 1:, 1:] = np.eye(k)
    # Ground weight p(t2)/p(t1) = 1 - K flow (excitation balance).
    return PropagatorOps(block, flow, 1.0 - k * flow - extra, k, sel.dyn_class, t1, t2)


def _scalars(k: int, contains: bool, us1, ud1, us2, ud2) -> tuple:
    # (x1, x2, phi_s, phi_d) for the containing class and (x1, x2, phi_s0,
    # |phi_s0|^2) for the excluding class, from the Python complex (u_s, u_d)
    # at both ends of one window. At K = 1 both phases reduce to u_s(t2)/u_s(t1).
    x1, x2 = abs(ud1) ** 2, abs(ud2) ** 2
    if contains:
        denom = (ud1 - us1) * ((k - 1) * ud1 + us1)
        phi_s = (ud1 * ud2 - us1 * us2 + (k - 2) * ud1 * (ud2 - us2)) / denom
        phi_d = (ud1 * us2 - us1 * ud2) / denom
        return x1, x2, phi_s, phi_d
    phi_s0 = us2 / us1
    return x1, x2, phi_s0, abs(phi_s0) ** 2


@_refuse_as_loop
def flow_amplitude(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> float:
    """The real flow weight over [t1, t2]; its sign is the flow direction.

    Positive means excitation dispersing away from the excited qubit,
    negative means backflow toward it, for either class. Equal, bit for
    bit, to ``build_propagator(params, sel, t1, t2).flow_weight``, and
    refuses the same anchors. An ndarray ``t1`` or ``t2`` gives an array,
    equal bit for bit to the scalar calls.
    """
    return _flows(params, (sel,), t1, t2)[0]


@_refuse_as_loop
def _flows(params: NetworkParams, sels, t1, t2) -> list:
    # flow_amplitude for each selector over the same windows: one _window
    # for all of them, and x read once per window end. Refused as the loop
    # over the elements would.
    t1, t2 = _window(params, sels, t1, t2, True)
    x = _amplitudes(params, t1).cross_abs2, _amplitudes(params, t2).cross_abs2
    n, contains = params.n_qubits, DynClass.CONTAINS_EXCITED
    return [_flow_weight(n, sel.k_qubits, sel.dyn_class is contains, *x) for sel in sels]


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
    read, terms = _flow(ops)
    lead = (...,) if out.ndim > 2 else ()  # plain indices add faster on one matrix
    mass = rho[(*lead, read, read)]
    if isinstance(read, slice):
        mass = mass.sum(axis=(-2, -1))
    for sector, weight in terms:
        out[(*lead, sector, sector)] += _spread(weight * mass, sector)
    return out


def _flow(ops: PropagatorOps) -> tuple:
    # The flow terms, stated once: (read, ((sector, weight), ...)) over the sectors 0
    # (ground) and 1: (q = 1); each adds weight * (sum of rho over read) to its sector.
    q1 = slice(1, None)
    if ops.dyn_class is DynClass.CONTAINS_EXCITED:
        return q1, ((0, ops.flow_weight),)
    return 0, ((q1, ops.flow_weight), (0, ops.ground_extra))


def _spread(value, sector):
    # value, of a stack's shape, lined up with the stack of sector blocks.
    return np.asarray(value)[..., None, None] if isinstance(sector, slice) else value


def _basis_images(ops: PropagatorOps) -> np.ndarray:
    # images[mu, nu, *S] = Phi[|mu><nu|] for the ops of a stack of shape S
    # (S = () for one propagator). B |mu><nu| is B's column mu placed in
    # column nu, so the rows of the products B E are written, not multiplied,
    # and the block term B E B^dag takes one matrix product per map: each
    # entry is a sum with one nonzero term, so the values are those of apply
    # on each E but for the signs of zeros. The flow goes only to the images
    # it reads.
    d, block = ops.k_qubits + 1, ops.block_diag
    stack = block.shape[:-2]
    m = len(stack)
    # rows[*S, a, mu, nu, c] = (B |mu><nu|)[a, c] = B[a, mu] [nu == c]
    rows = np.zeros(stack + (d, d, d * d), dtype=complex)
    rows[..., :: d + 1] = block[..., None]
    out = rows.reshape(stack + (d**3, d)) @ block.conj().swapaxes(-1, -2)
    images = np.moveaxis(out.reshape(stack + (d,) * 4), (m + 1, m + 2), (0, 1))
    read, terms = _flow(ops)
    for sector, weight in terms:
        images[read, read][..., sector, sector] += _spread(weight, sector)
    return images


def _max_entry(diff: np.ndarray):
    # Largest |entry| of each matrix of a (*S, D, D) stack: an array of
    # shape S, or a float for one matrix.
    worst = np.abs(diff)
    return float(worst.max()) if worst.ndim == 2 else worst.max(axis=(-2, -1))


def propagator_matrix(ops: PropagatorOps) -> np.ndarray:
    """Matrix of the propagator on column-stacked (K+1)x(K+1) operators.

    Column ``nu*d + mu`` is vec(Phi[|mu><nu|]), with vec stacking columns.
    Stacked ops of shape S give a ``(*S, d*d, d*d)`` stack, each matrix
    equal bit for bit to the one of its propagator alone.
    """
    d = ops.k_qubits + 1
    images = _basis_images(ops)  # (mu, nu, *S, a, b)
    m = images.ndim - 4
    matrices = images.transpose(*range(2, m + 2), m + 3, m + 2, 1, 0)
    return matrices.reshape(images.shape[2:-2] + (d * d, d * d))


def completeness_residual(ops: PropagatorOps) -> float:
    """Max-entry residual of B^dag B + sum_i F_i^T F_i - identity.

    Zero residual is exactly trace preservation of the operator sum.
    Stacked ops of shape S give an array of shape S, each value equal bit
    for bit to the one of its propagator alone.
    """
    block, flow = ops.block_diag, ops.flow_weight
    acc = block.swapaxes(-1, -2).conj() @ block
    # F^T F adds flow * (all-ones q=1 block), or K flow + ground_extra at |0><0|;
    # on one matrix, plain indices add several times faster than an Ellipsis.
    if ops.dyn_class is not DynClass.CONTAINS_EXCITED:
        acc[(..., 0, 0) if acc.ndim > 2 else (0, 0)] += ops.k_qubits * flow + ops.ground_extra
    elif acc.ndim > 2:
        acc[..., 1:, 1:] += flow[..., None, None]
    else:
        acc[1:, 1:] += flow
    return _max_entry(acc - np.eye(ops.k_qubits + 1))


@_refuse_as_loop
def compose_residual(
    params: NetworkParams, sel: SubsystemSelector, t1, t2, test_density: np.ndarray
) -> float:
    """Deviation between the direct propagator and its two-map composition.

    Compares apply(Phi(t1,t2), rho) against apply(Phi(0,t2), Phi(0,t1)^-1[rho])
    where the inverse is an LU solve with the one-time map's matrix on the
    operator space; the anchor test guarantees it exists. Returns the
    max-entry absolute deviation.

    An ndarray ``t1`` or ``t2`` gives an array over the windows, with one
    batched ``np.linalg.solve``; ``test_density`` may then be a
    ``(*R, K+1, K+1)`` stack, broadcast with the windows. Each value equals
    its scalar call bit for bit, and an array is refused exactly as its
    first refusing element would be.
    """
    t1, t2 = _window(params, (sel,), t1, t2, True)  # the one-time map must invert at t1
    d = sel.k_qubits + 1
    rho = np.asarray(test_density, dtype=complex)
    if rho.shape[-2:] != (d, d):
        raise ParameterError(f"test density must be {d}x{d}, got shape {rho.shape}")
    direct = apply(_build(params, sel, t1, t2), rho)
    # Both one-time maps from one stack (0 is never an anchor).
    m1, m2 = propagator_matrix(_build(params, sel, 0.0, np.stack(np.broadcast_arrays(t1, t2))))
    # Column-stacked operators, as in propagator_matrix's column layout.
    stacked = rho.swapaxes(-1, -2).reshape(rho.shape[:-2] + (d * d, 1))
    rewound = np.linalg.solve(m1, stacked)
    composed = (m2 @ rewound).reshape(rewound.shape[:-2] + (d, d)).swapaxes(-1, -2)
    return _max_entry(direct - composed)
