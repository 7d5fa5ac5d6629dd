"""Brute-force reconstructions from the global single-excitation sector.

Everything here goes through the dense exponential of the hopping generator
(from its numerical eigendecomposition, ``q1_unitary_oracle``) and explicit
partial traces, never through the closed-form propagator or state elements,
so agreement with the closed forms is a genuine two-route check. Global
states and operator columns live in the reachable sectors only: one complex
amplitude for the global ground state plus N single-excitation amplitudes.

Partial traces read those amplitudes only, never a closed form. With at
most one excitation, Tr_env |psi><chi| is the outer product of the local
amplitudes (psi_0, psi_s1, ..., psi_sK) with chi's conjugated, plus the
environment inner product sum_e psi_e conj(chi_e) on the ground entry
[0, 0]; one helper does this for all ket/bra pairs of two stacks at once.

The unitary, the reduced density, the one-time map and the two-time
propagator also take an ndarray of times and give a stack of matrices
along leading axes, each equal bit for bit to the scalar call: the stack
runs one matrix product or LU solve per element, just as the scalar call
runs one. ``verify`` evaluates its oracle rows that way, per selector.

Map tomography is supported for subsystems containing the excited qubit:
with the environment in its ground state, every local q <= 1 input keeps
the global state inside q <= 1. For the excluding class, local excited
inputs would push the global state into the two-excitation sector, whose
evolution is a pure phase convention here rather than physics, so only
orbit-level checks (states actually reached by the dynamics) are offered
for that class.
"""

from __future__ import annotations

import numpy as np

from .amplitudes import NetworkParams, _check_time, _refuse_as_loop, q1_unitary_oracle
from .errors import SizeLimitError, UnsupportedOracleError
from .propagator import _window
from .states import DynClass, SubsystemSelector

#: Largest N accepted for map tomography (N columns of partial traces).
TOMOGRAPHY_MAX_QUBITS = 512


def _subsystem_sites(params: NetworkParams, sel: SubsystemSelector) -> tuple[int, ...]:
    # The excited qubit is site 0: the containing class takes sites 0..K-1,
    # the excluding class 1..K.
    sel.validate(params)
    if sel.dyn_class is DynClass.CONTAINS_EXCITED:
        return tuple(range(sel.k_qubits))
    return tuple(range(1, sel.k_qubits + 1))


def _partial_traces(kets: np.ndarray, bras: np.ndarray, sites: tuple[int, ...]) -> np.ndarray:
    # Tr_env |ket_m><bra_n| for all rows m, n of a (*S, M, N+1) and a
    # (*S, B, N+1) stack, shape (*S, M, B, K+1, K+1). A row is one global
    # vector: column 0 its q0 amplitude, column 1 + i site i's. The
    # environment sums are one matrix product per stack element.
    local = [0, *(i + 1 for i in sites)]
    env = np.ones(kets.shape[-1], dtype=bool)
    env[local] = False
    env = np.flatnonzero(env)
    bras = bras.conj()
    out = kets[..., :, None, local, None] * bras[..., None, :, None, local]
    # take() keeps each row contiguous, so every stack element's product
    # reads its operands as a lone call does and rounds alike.
    out[..., 0, 0] += kets.take(env, axis=-1) @ bras.take(env, axis=-1).swapaxes(-1, -2)
    return out


@_refuse_as_loop
def reduced_density_oracle(params: NetworkParams, sel: SubsystemSelector, t) -> np.ndarray:
    """Reduced density by evolving the generating state and tracing.

    The single-excitation amplitudes are propagated with the dense unitary
    of ``q1_unitary_oracle``, then |psi(t)><psi(t)| is partial-traced
    onto the subsystem's sites. An ndarray ``t`` of shape S gives a
    ``(*S, K+1, K+1)`` stack, each matrix equal bit for bit to the scalar
    call; an array is refused exactly as its first refusing element would be.
    """
    unitary = q1_unitary_oracle(params, t)  # also enforces the size guard
    sites = _subsystem_sites(params, sel)
    evolved = np.zeros(unitary.shape[:-2] + (1, params.n_qubits + 1), dtype=complex)
    evolved[..., 0, 1:] = unitary[..., :, 0]
    return _partial_traces(evolved, evolved, sites)[..., 0, 0, :, :]


@_refuse_as_loop
def dynamical_map_oracle(params: NetworkParams, sel: SubsystemSelector, t) -> np.ndarray:
    """Tomographic matrix of the one-time map for a containing subsystem.

    Each local basis operator |mu><nu| is tensored with the environment
    ground state, evolved inside the global q <= 1 sector (ground phase is
    unity), and traced back. Column ``nu*d + mu`` is the column-stacked
    image of |mu><nu|, as in :func:`openqnet.propagator_matrix`. An ndarray
    ``t`` of shape S gives a ``(*S, d*d, d*d)`` stack, each matrix equal bit
    for bit to the scalar call; an array is refused exactly as its first
    refusing element would be. Above ``TOMOGRAPHY_MAX_QUBITS`` it raises
    :class:`SizeLimitError`.
    """
    sel.validate(params)
    times = _check_time(t, "t", True)
    if sel.dyn_class is not DynClass.CONTAINS_EXCITED:
        raise UnsupportedOracleError(
            "map tomography needs the environment in its ground state; "
            "excluding-class inputs would enter the two-excitation sector"
        )
    if params.n_qubits > TOMOGRAPHY_MAX_QUBITS:
        raise SizeLimitError(
            f"tomography guarded at N <= {TOMOGRAPHY_MAX_QUBITS}, got N={params.n_qubits}"
        )
    unitary = q1_unitary_oracle(params, times)
    n, d = params.n_qubits, sel.k_qubits + 1
    stack = unitary.shape[:-2]
    # Row mu: the evolved |mu> (x) env ground; |0> stays put, |mu> is column mu-1.
    evolved = np.zeros(stack + (d, n + 1), dtype=complex)
    evolved[..., 0, 0] = 1.0
    evolved[..., 1:, 1:] = unitary[..., :, : d - 1].swapaxes(-1, -2)
    # blocks[*S, mu, nu] = Tr_env of the image of |mu><nu|
    blocks = _partial_traces(evolved, evolved, _subsystem_sites(params, sel))
    m = len(stack)
    blocks = blocks.transpose(*range(m), m + 3, m + 2, m + 1, m)
    return blocks.reshape(stack + (d * d, d * d))


@_refuse_as_loop
def propagator_oracle(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> np.ndarray:
    """Tomographic two-time propagator: map(t2) composed with map(t1)^-1.

    The inverse is an LU solve on the one-time map, X map(t1) = map(t2). The
    anchor test guarantees it exists: it refuses t1 before any map is built.
    An ndarray ``t1`` or ``t2`` gives a stack over their broadcast shape,
    with one batched ``np.linalg.solve``, each matrix equal bit for bit to
    the scalar call; an array is refused exactly as its first refusing
    element would be.
    """
    t1, t2 = _window(params, (sel,), t1, t2, True)
    m1 = dynamical_map_oracle(params, sel, t1)
    m2 = dynamical_map_oracle(params, sel, t2)
    # Plain transposes: X m1 = m2.
    return np.linalg.solve(m1.swapaxes(-1, -2), m2.swapaxes(-1, -2)).swapaxes(-1, -2)
