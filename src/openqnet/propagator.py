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

Construction fails only at a window whose phase gap N*J*(t2 - t1) overflows
(ParameterError) and at anchor times t1 where the one-time map cannot be
inverted. The phases of B come from half-angle sines and cosines; the flow
weight is closed form in x1 = |u_d(t1)|^2 and x2 = |u_d(t2)|^2, read from
:func:`amplitudes`, and its denominator vanishes wherever one of B does, so
one test decides every anchor: t1 raises :class:`SingularIntervalError`
exactly when the relative flow denominator d(t1) = 1 - K(N-K) x1 (containing
class; 1 - K x1 excluding) is at most ANCHOR_RTOL. d vanishes only at odd
half-periods, for K = N/2 or N = 2; at K = 1 it is the mixing probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplitudes import NetworkParams, _abs2, _amplitudes, _any, _check_time, _hop, _refuse_as_loop
from .errors import ParameterError, SingularIntervalError
from .states import DynClass, SubsystemSelector

#: Relative flow denominator d(t1) at or below which t1 is refused as an
#: anchor; for K = N/2, within about 3.2e-5 periods of an odd half-period.
ANCHOR_RTOL = 1e-8


@dataclass(frozen=True)
class PropagatorOps:
    """Operator-sum data of one propagator, restricted to q <= 1, or of a stack.

    The window's scalars, and no matrix: ``phi_s`` and ``phi_d`` of the
    containing class, or phi_0 as ``phi_s`` (``phi_d`` None) of the
    excluding class; ``flow_weight``, the real squared weight of the flow
    operator (may be negative); ``ground_extra``, the squared weight of the
    extra ground-to-ground operator (excluding class only, else None).
    ``dyn_class`` fixes the flow operator's pattern: the ground row over the
    q=1 columns for the containing class, the mirrored column for the
    excluding class. A stack of shape S, built from arrays of times, has
    scalars of shape S and the validated ``t1``, ``t2`` arrays.
    """

    phi_s: complex | np.ndarray
    phi_d: complex | np.ndarray | None
    flow_weight: float | np.ndarray
    ground_extra: float | np.ndarray | None
    k_qubits: int
    dyn_class: DynClass
    t1: float | np.ndarray
    t2: float | np.ndarray

    @property
    def block_diag(self) -> np.ndarray:
        """B, the (K+1)x(K+1) excitation-conserving operator (``(*S, K+1, K+1)``
        for a stack), built from the scalars on each read: 1, then phi_s on the
        q = 1 diagonal and phi_d off it, or phi_0, then the q = 1 identity
        (excluding class: all K qubits are equivalent, so nothing mixes)."""
        k, phi_s, phi_d = self.k_qubits, self.phi_s, self.phi_d
        shape = () if type(phi_s) is complex else phi_s.shape
        block = np.zeros(shape + (k + 1, k + 1), dtype=complex)
        flat = block.reshape(shape + ((k + 1) ** 2,))  # a view: B[a, b] at a*(K+1) + b
        if self.dyn_class is not DynClass.CONTAINS_EXCITED:
            flat[..., 0] = phi_s
            flat[..., k + 2 :: k + 2] = 1.0  # local q = 1 phases are unity by gauge
            return block
        phi_s, phi_d = np.asarray(phi_s)[..., None], np.asarray(phi_d)[..., None, None]
        flat[..., 0] = 1.0  # the ground-sector phase is unity by gauge
        block[..., 1:, 1:] = phi_d
        flat[..., k + 2 :: k + 2] = phi_s
        return block


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
    t1, d = (float(np.broadcast_to(v, np.shape(refused))[refused][0]) for v in (t1, d))
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
    broadcast shape S of the two, whose scalars are arrays of shape S, each
    element equal bit for bit to the scalar call on that window. An array is
    refused exactly as its first refusing element would be.
    """
    return _build(params, sel, *_window(params, (sel,), t1, t2, True))


def _build(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> PropagatorOps:
    # build_propagator on validated times. With phi = NJt/2, Delta = NJ(t2 - t1)/2
    # and E(phi) = N cos phi + i m sin phi (m = N - 2K; N - 2 excluding):
    # phi_s - phi_d = e^{2i Delta}, phi_d = -2i sin Delta e^{i(Delta - phi_1)} / E(phi_1),
    # or phi_0 = e^{i Delta} E(phi_2) / E(phi_1).
    n, j, k = params.n_qubits, params.coupling, sel.k_qubits
    contains = sel.dyn_class is DynClass.CONTAINS_EXCITED
    flow = _flow_weight(n, k, contains, *(_amplitudes(params, t).cross_abs2 for t in (t1, t2)))
    (_, s1, c1), (_, s2, c2), (sd, cd) = _hop(n, j, t1), _hop(n, j, t2), _gap(n, j, t1, t2)
    m = n - 2 * k if contains else n - 2
    if contains:
        re, im = 2.0 * sd * (sd * c1 - cd * s1), -2.0 * sd * (cd * c1 + sd * s1)
    else:
        re, im = cd * (n * c2) - sd * (m * s2), sd * (n * c2) + cd * (m * s2)
    nc, ms = n * c1, m * s1  # over E(phi_1): times its conjugate, over its |.|^2
    e1 = nc * nc + ms * ms
    phase = (re * nc + im * ms) / e1 + 1j * ((im * nc - re * ms) / e1)
    if contains:  # phi_s = phi_d + e^{2i Delta}
        phi_s = phase + ((1.0 - 2.0 * sd * sd) + 1j * (2.0 * sd * cd))
        return PropagatorOps(phi_s, phase, flow, None, k, sel.dyn_class, t1, t2)
    # Ground weight p(t2)/p(t1) = 1 - K flow (excitation balance).
    return PropagatorOps(phase, None, flow, 1.0 - k * flow - _abs2(phase), k, sel.dyn_class, t1, t2)


def _gap(n: int, j: float, t1, t2) -> tuple:
    # (sin Delta, cos Delta); an overflowing gap is refused (an array's first by _refuse_as_loop).
    with np.errstate(over="ignore"):  # refused below
        gap = t2 - t1
    try:
        return _hop(n, j, gap)[1:]
    except ParameterError:
        raise ParameterError(f"phase gap N*J*(t2 - t1) overflows at t1={t1!r}, t2={t2!r}") from None


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

    Zero residual is exactly trace preservation of the operator sum. Read
    from the scalars: | |phi_0|^2 + K f + g - 1 | (excluding class), or, as
    the q = 1 block is (|a|^2 - 1) I + c (all-ones) with a = phi_s - phi_d and
    c = 2 Re(conj(a) phi_d) + K|phi_d|^2 + f, max(| |a|^2 - 1 + c |, |c|).
    Stacked ops of shape S give an array of shape S, each value equal bit
    for bit to the one of its propagator alone.
    """
    k, flow = ops.k_qubits, ops.flow_weight
    if ops.dyn_class is not DynClass.CONTAINS_EXCITED:
        return abs(_abs2(ops.phi_s) + k * flow + ops.ground_extra - 1.0)
    a, b = ops.phi_s - ops.phi_d, ops.phi_d
    c = 2.0 * (a.real * b.real + a.imag * b.imag) + k * _abs2(b) + flow
    worst = np.maximum(abs(_abs2(a) - 1.0 + c), abs(c) if k > 1 else 0.0)  # NaN wins
    return worst if np.ndim(worst) else float(worst)


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
