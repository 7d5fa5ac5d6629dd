"""Reduced states of K-qubit subsystems and the quantities built from them.

Every reduced state in the orbit of the generating state has rank two: some
weight on the subsystem ground state plus the complementary weight on one
unit vector in the subsystem's single-excitation sector. Dense
materializations therefore live on the (K+1)-dimensional space spanned by
the ground state and the K single-excitation basis states; higher local
sectors are never occupied. Basis ordering is fixed throughout the package:
ground first, then excitation on qubit 1..K.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import NetworkParams, _amplitudes, _check_time, _hop, _refuse_as_loop
from .errors import DegenerateStateError, OpenQNetError, ParameterError

#: Mixing probabilities at or below this leave the rank-two state degenerate.
_ZERO_WEIGHT = 1e-14


class DynClass(enum.Enum):
    """Whether the subsystem contains the initially excited qubit."""

    EXCLUDES_EXCITED = 0
    CONTAINS_EXCITED = 1


def _check_class(dyn_class) -> None:
    if not isinstance(dyn_class, DynClass):
        raise ParameterError(f"dyn_class must be a DynClass, got {dyn_class!r}")


@dataclass(frozen=True)
class SubsystemSelector:
    """Subsystem size K together with its dynamical class."""

    k_qubits: int
    dyn_class: DynClass

    def __post_init__(self):
        k = self.k_qubits
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ParameterError(f"k_qubits must be an integer, got {k!r}")
        if k < 1:
            raise ParameterError(f"k_qubits must be >= 1, got {k}")
        object.__setattr__(self, "k_qubits", int(k))
        _check_class(self.dyn_class)

    def validate(self, params: NetworkParams) -> None:
        """Raise unless the selector fits inside the given network."""
        n = params.n_qubits
        if self.dyn_class is DynClass.CONTAINS_EXCITED:
            if self.k_qubits > n:
                raise ParameterError(
                    f"K={self.k_qubits} exceeds N={n} for a subsystem containing the excited qubit"
                )
        else:
            if self.k_qubits > n - 1:
                raise ParameterError(
                    f"K={self.k_qubits} exceeds N-1={n - 1} for a subsystem excluding the excited qubit"
                )


@dataclass(frozen=True)
class ReducedState:
    """Rank-two reduced state: weight on one single-excitation unit vector.

    ``excited_weight`` is the probability of finding the excitation inside
    the subsystem; ``internal_vector`` is the normalized amplitude pattern
    over the K single-excitation basis states. The remaining
    ``1 - excited_weight`` sits on the subsystem ground state. A stack of
    shape S, from an array of times, has weights of shape S and vectors of
    shape ``(*S, K)``.
    """

    excited_weight: float
    internal_vector: np.ndarray
    k_qubits: int
    dyn_class: DynClass


def _class_weight(n: int, k: int, contains: bool) -> int:
    # w in p = 1 - w |u_d|^2: the qubits outside a subsystem that holds the
    # excitation, or the qubits of one that does not.
    return n - k if contains else k


def _mixing(params: NetworkParams, k: int, contains: bool, t):
    # Validated float or array t: (p, sin(NJt/2), cos(NJt/2)) with p = 1 - w x.
    x, sh, ch = _hop(params.n_qubits, params.coupling, t)
    return 1.0 - _class_weight(params.n_qubits, k, contains) * x, sh, ch


@_refuse_as_loop
def excitation_probability(params: NetworkParams, sel: SubsystemSelector, t) -> float:
    """The probability that labels the reduced state's rank-two mixture.

    For a subsystem containing the excited qubit this is the excitation
    probability p1 = 1 - 4(N-K)/N^2 sin^2(NJt/2); for one excluding it this
    is the ground-state probability p0 = 1 - 4K/N^2 sin^2(NJt/2). An
    ndarray ``t`` gives an array.
    """
    sel.validate(params)
    contains = sel.dyn_class is DynClass.CONTAINS_EXCITED
    return _mixing(params, sel.k_qubits, contains, _check_time(t, "t", True))[0]


@_refuse_as_loop
def reduced_state(params: NetworkParams, sel: SubsystemSelector, t) -> ReducedState:
    """Closed-form reduced state of the chosen subsystem at time ``t``.

    An ndarray ``t`` gives a stack (see :class:`ReducedState`), built in
    numpy by the scalar call's own operations, so that each element equals
    its scalar call bit for bit.
    """
    sel.validate(params)
    t = _check_time(t, "t", True)
    k = sel.k_qubits
    contains = sel.dyn_class is DynClass.CONTAINS_EXCITED
    p = _mixing(params, k, contains, t)[0]
    if type(t) is not float:  # the float branch's operations, on the whole array
        if contains:
            zero = p <= _ZERO_WEIGHT
            if zero.any():
                reduced_state(params, sel, float(t[zero][0]))  # refused
            amps, root = _amplitudes(params, t), np.sqrt(p)
            vec = np.empty(t.shape + (k,), dtype=complex)
            vec[..., 0] = amps.same_site / root
            vec[..., 1:] = (amps.cross_site / root)[..., None]
            return ReducedState(p, vec, k, sel.dyn_class)
        vec = np.full(t.shape + (k,), 1.0 / math.sqrt(k), dtype=complex)
        return ReducedState(1.0 - p, vec, k, sel.dyn_class)
    if contains:
        if p <= _ZERO_WEIGHT:
            # Only reachable at N=2, K=1, odd half-periods; the internal
            # direction limits to the bare excited state of qubit 1.
            limit = np.zeros(k, dtype=complex)
            limit[0] = 1.0
            raise DegenerateStateError(
                f"excitation probability vanishes at t={t!r}; internal vector undefined",
                limit_direction=limit,
            )
        amps = _amplitudes(params, t)
        vec = np.full(k, amps.cross_site, dtype=complex)
        vec[0] = amps.same_site
        vec /= math.sqrt(p)
        return ReducedState(p, vec, k, sel.dyn_class)
    vec = np.full(k, 1.0 / math.sqrt(k), dtype=complex)
    return ReducedState(1.0 - p, vec, k, sel.dyn_class)


def materialize_density(state: ReducedState) -> np.ndarray:
    """Dense (K+1)x(K+1) density matrix on the ground + single-excitation space.

    A stack of shape S gives a ``(*S, K+1, K+1)`` stack, each matrix equal
    bit for bit to that of its state alone.
    """
    k, vec = state.k_qubits, state.internal_vector
    if vec.ndim == 1:
        rho = np.zeros((k + 1, k + 1), dtype=complex)
        rho[0, 0] = 1.0 - state.excited_weight
        rho[1:, 1:] = state.excited_weight * np.outer(vec, vec.conj())
        return rho
    weight = state.excited_weight
    rho = np.zeros(weight.shape + (k + 1, k + 1), dtype=complex)
    rho[..., 0, 0] = 1.0 - weight
    rho[..., 1:, 1:] = weight[..., None, None] * (vec[..., :, None] * vec.conj()[..., None, :])
    return rho


@_refuse_as_loop
def entanglement_entropy(params: NetworkParams, sel: SubsystemSelector, t) -> float:
    """Entanglement entropy (nats) between the subsystem and the rest.

    Because the global state is pure and the reduced state has rank two,
    this is the binary entropy of x = (N-K)|u_d|^2 for a subsystem
    containing the excited qubit and x = K|u_d|^2 for one excluding it.
    It also equals the quantum discord across the same cut. An ndarray
    ``t`` gives an array.
    """
    sel.validate(params)
    return _entropy(params, sel.k_qubits, sel.dyn_class, _check_time(t, "t", True))


def _entropy_stack(params: NetworkParams, ks, dyn_class: DynClass, t: np.ndarray) -> np.ndarray:
    """entanglement_entropy of every K in ``ks`` at once (see _k_stack)."""
    return _k_stack(entanglement_entropy, _entropy, params, ks, dyn_class, t)


def _k_stack(public, kernel, params: NetworkParams, ks, dyn_class: DynClass, *args):
    """``public(params, selector, *args)`` of every K in ``ks`` at once,
    over an array of times, the last of ``args``.

    One ``kernel(params, k, dyn_class, *args)`` call, k the (len(ks), 1)
    array of K, gives arrays of shape (len(ks), *t.shape), one row per K,
    each equal bit for bit to ``public`` on that K's selector; refused as
    the loop over ``ks`` would refuse.
    """
    *rest, t = args
    try:
        for k in ks:
            SubsystemSelector(k, dyn_class).validate(params)
        return kernel(params, np.array(ks)[:, None], dyn_class, *rest, _check_time(t, "t", True))
    except OpenQNetError:
        for k in ks:
            public(params, SubsystemSelector(k, dyn_class), *args)
        raise


def _entropy(params: NetworkParams, k, dyn_class: DynClass, t):
    # entanglement_entropy on a validated float or array t: the binary
    # entropy of w x in nats, 0 ln 0 := 0. k is an int, or a (K, 1) int array
    # for one row per K: the K share one _hop call and enter as the class
    # weight's axis.
    n = params.n_qubits
    x = _class_weight(n, k, dyn_class is DynClass.CONTAINS_EXCITED) * _hop(n, params.coupling, t)[0]
    if type(x) is not float:
        inside = (x > 0.0) & (x < 1.0)
        y = np.where(inside, x, 0.5)
        return np.where(inside, -y * np.log(y) - (1.0 - y) * np.log(1.0 - y), 0.0)
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def trace_distance_to_fixed(state: ReducedState) -> float:
    """Trace distance from the subsystem ground state.

    The ground state is the fixed point of every propagator of the class
    containing the excited qubit. For a rank-two state with weight w on its
    single-excitation vector, (1/2)||rho - |0..0><0..0||_1 = w exactly, so
    this returns ``excited_weight`` for either class. (For the excluding
    class this is the distance from the ground end of its orbit, not from
    its own fixed manifold, which lives in the local single-excitation
    sector.) A stack gives the array of its weights.
    """
    if state.internal_vector.ndim == 1:
        return float(state.excited_weight)
    return state.excited_weight
