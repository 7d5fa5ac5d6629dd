"""Brute-force reconstructions from the global single-excitation sector.

Everything here goes through the dense matrix exponential of the hopping
generator and explicit partial traces, never through the closed-form
propagator or state elements, so agreement with the closed forms is a
genuine two-route check. Global states and operator columns live in the
reachable sectors only: one complex amplitude for the global ground state
plus N single-excitation amplitudes.

Partial traces read those amplitudes only, never a closed form. With at
most one excitation, Tr_env |psi><chi| is the outer product of the local
amplitudes (psi_0, psi_s1, ..., psi_sK) with chi's conjugated, plus the
environment inner product sum_e psi_e conj(chi_e) on the ground entry
[0, 0]; one helper does this for all ket/bra pairs of two stacks at once.

Map tomography is supported for subsystems containing the excited qubit:
with the environment in its ground state, every local q <= 1 input keeps
the global state inside q <= 1. For the excluding class, local excited
inputs would push the global state into the two-excitation sector, whose
evolution is a pure phase convention here rather than physics, so only
orbit-level checks (states actually reached by the dynamics) are offered
for that class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplitudes import NetworkParams, _check_time, q1_unitary_oracle
from .errors import ParameterError, SingularIntervalError, UnsupportedOracleError
from .propagator import is_singular
from .states import DynClass, SubsystemSelector

#: Largest N accepted for map tomography (N columns of partial traces).
TOMOGRAPHY_MAX_QUBITS = 512


@dataclass(frozen=True)
class GlobalVector:
    """A global vector restricted to the reachable q <= 1 sectors."""

    q0_amp: complex
    q1_amps: np.ndarray
    n_qubits: int

    def __post_init__(self):
        shape = np.shape(self.q1_amps)
        if shape != (self.n_qubits,):
            raise ParameterError(f"q1_amps must have shape ({self.n_qubits},), got {shape}")

    @property
    def norm_sq(self) -> float:
        return abs(self.q0_amp) ** 2 + float(np.sum(np.abs(self.q1_amps) ** 2))


def subsystem_sites(params: NetworkParams, sel: SubsystemSelector) -> tuple[int, ...]:
    """Deterministic site choice: the excited qubit is site 0.

    Containing class takes sites 0..K-1; excluding class takes 1..K.
    """
    sel.validate(params)
    if sel.dyn_class is DynClass.CONTAINS_EXCITED:
        return tuple(range(sel.k_qubits))
    return tuple(range(1, sel.k_qubits + 1))


def _partial_traces(kets: np.ndarray, bras: np.ndarray, sites: tuple[int, ...]) -> np.ndarray:
    # Tr_env |ket_m><bra_n| for all rows m, n, shape (M, B, K+1, K+1). A row is
    # one global vector: column 0 its q0 amplitude, column 1 + i site i's.
    local = [0, *(i + 1 for i in sites)]
    env = np.ones(kets.shape[1], dtype=bool)
    env[local] = False
    bras = bras.conj()
    out = kets[:, None, local, None] * bras[None, :, None, local]
    out[:, :, 0, 0] += kets[:, env] @ bras[:, env].T
    return out


def bilinear_partial_trace(
    psi: GlobalVector, chi: GlobalVector, sites: tuple[int, ...]
) -> np.ndarray:
    """Tr_env |psi><chi| onto the chosen sites, as a (K+1)x(K+1) matrix."""
    if psi.n_qubits != chi.n_qubits:
        raise ParameterError("bra and ket describe different network sizes")
    n = psi.n_qubits
    site_set = set(sites)
    if not site_set or len(site_set) != len(sites) or not site_set <= set(range(n)):
        raise ParameterError(f"sites must be distinct indices in 0..{n - 1}, got {sites!r}")
    ket, bra = (np.concatenate(([v.q0_amp], v.q1_amps), dtype=complex) for v in (psi, chi))
    return _partial_traces(ket[None], bra[None], sites)[0, 0]


def reduced_density_oracle(params: NetworkParams, sel: SubsystemSelector, t) -> np.ndarray:
    """Reduced density by evolving the generating state and tracing.

    The single-excitation amplitudes are propagated with the dense
    matrix-exponential unitary, then |psi(t)><psi(t)| is partial-traced
    onto the subsystem's sites.
    """
    t = _check_time(t)
    unitary = q1_unitary_oracle(params, t)  # also enforces the size guard
    evolved = np.concatenate(([0.0], unitary[:, 0]))[None]
    return _partial_traces(evolved, evolved, subsystem_sites(params, sel))[0, 0]


def dynamical_map_oracle(params: NetworkParams, sel: SubsystemSelector, t) -> np.ndarray:
    """Tomographic matrix of the one-time map for a containing subsystem.

    Each local basis operator |mu><nu| is tensored with the environment
    ground state, evolved inside the global q <= 1 sector (ground phase is
    unity), and traced back; columns follow the column-stacking convention
    of :mod:`openqnet.linalg`.
    """
    sel.validate(params)
    t = _check_time(t)
    if sel.dyn_class is not DynClass.CONTAINS_EXCITED:
        raise UnsupportedOracleError(
            "map tomography needs the environment in its ground state; "
            "excluding-class inputs would enter the two-excitation sector"
        )
    if params.n_qubits > TOMOGRAPHY_MAX_QUBITS:
        raise ParameterError(
            f"tomography guarded at N <= {TOMOGRAPHY_MAX_QUBITS}, got N={params.n_qubits}"
        )
    n, d = params.n_qubits, sel.k_qubits + 1
    unitary = q1_unitary_oracle(params, t)
    # Row mu: the evolved |mu> (x) env ground; |0> stays put, |mu> is column mu-1.
    evolved = np.eye(d, n + 1, dtype=complex)
    evolved[1:, 1:] = unitary[:, : d - 1].T
    # blocks[mu, nu] = Tr_env of the image of |mu><nu|
    blocks = _partial_traces(evolved, evolved, subsystem_sites(params, sel))
    return blocks.transpose(3, 2, 1, 0).reshape(d * d, d * d)


def propagator_oracle(params: NetworkParams, sel: SubsystemSelector, t1, t2) -> np.ndarray:
    """Tomographic two-time propagator: map(t2) composed with pinv(map(t1)).

    The pseudo-inverse uses the same singular-value cutoff (1e-10) as the
    closed-form composition check.
    """
    t1 = _check_time(t1, "t1")
    t2 = _check_time(t2, "t2")
    if is_singular(params, sel.k_qubits, t1):
        raise SingularIntervalError(
            f"one-time map not invertible at t1={t1!r}", t1=t1
        )
    m1 = dynamical_map_oracle(params, sel, t1)
    m2 = dynamical_map_oracle(params, sel, t2)
    return m2 @ np.linalg.pinv(m1, rcond=1e-10)
