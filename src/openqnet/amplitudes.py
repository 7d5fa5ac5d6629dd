"""Closed-form single-excitation amplitudes of the global network unitary.

An N-qubit network with homogeneous all-to-all exchange coupling J conserves
the number of excited qubits, so the global unitary is block diagonal in
excitation number. Starting from a single excited qubit only the ground
sector and the single-excitation sector are ever populated, and within the
single-excitation block the unitary has one value on the diagonal and one
everywhere off it:

    u_s(t) = (1 + (N - 1) exp(i N J t)) / N      stay on the same qubit,
    u_d(t) = (1 - exp(i N J t)) / N              hop to any other qubit.

All sector phases (global ground state, every multi-excitation sector) are
fixed to unity. That gauge pins the closed forms above and makes the uniform
single-excitation mode stationary. Everything is periodic with period
2*pi/(N*J).

The two amplitudes are tied together by unitarity of the block:

    |u_s|^2 + (N-1)|u_d|^2 = 1,
    2 Re(u_s* u_d) + (N-2)|u_d|^2 = 0,

so a single function of time, |u_d(t)|^2, drives all reduced dynamics.

Two routes read it. The probability route (mixing probabilities, entropy,
Fisher information, Bloch z-scale, positivity transition) calls one private
kernel, ``_hop``, for x = |u_d|^2 = 4/N^2 sin^2(NJt/2) and the half-angle
sine and cosine; a mixing probability is p = 1 - w x with the class weight
w = N - K for a K-qubit subsystem containing the excited qubit, K for one
excluding it. The amplitude route (propagators, flow weights) reads x from
the :func:`amplitudes` call that also supplies its phases. The two forms of
x agree to round-off only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ParameterError, SizeLimitError

#: Largest N accepted by the dense matrix-exponential oracle.
ORACLE_MAX_QUBITS = 2048


def _check_time(t, name: str = "t") -> float:
    try:
        value = float(t)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a real number, got {t!r}") from None
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class NetworkParams:
    """Global system: qubit count N >= 2 and exchange coupling J > 0."""

    n_qubits: int
    coupling: float = 1.0

    def __post_init__(self):
        n = self.n_qubits
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ParameterError(f"n_qubits must be an integer, got {n!r}")
        if n < 2:
            raise ParameterError(f"n_qubits must be >= 2, got {n}")
        object.__setattr__(self, "n_qubits", int(n))
        try:
            j = float(self.coupling)
        except (TypeError, ValueError):
            raise ParameterError(f"coupling must be a real number, got {self.coupling!r}") from None
        if not math.isfinite(j) or j <= 0.0:
            raise ParameterError(f"coupling must be finite and positive, got {j!r}")
        object.__setattr__(self, "coupling", j)

    @property
    def period(self) -> float:
        """Recurrence time 2*pi/(N*J) of every amplitude."""
        return 2.0 * math.pi / (self.n_qubits * self.coupling)


@dataclass(frozen=True)
class Amplitudes:
    """The pair of single-excitation transition amplitudes at one time."""

    same_site: complex
    cross_site: complex

    @property
    def cross_abs2(self) -> float:
        """|u_d|^2, the hop probability to one specific other qubit."""
        return abs(self.cross_site) ** 2


def _hop(n: int, j: float, t: float) -> tuple[float, float, float]:
    # Already-validated inputs: (x, sin(NJt/2), cos(NJt/2)), x = 4/N^2 sin^2(NJt/2).
    half = 0.5 * n * j * t
    sh = math.sin(half)
    return 4.0 / n**2 * (sh * sh), sh, math.cos(half)


def amplitudes(params: NetworkParams, t) -> Amplitudes:
    """Evaluate (u_s, u_d) at time ``t`` (any sign; periodic)."""
    t = _check_time(t)
    n = params.n_qubits
    z = complex(np.exp(1j * n * params.coupling * t))
    return Amplitudes(same_site=(1.0 + (n - 1) * z) / n, cross_site=(1.0 - z) / n)


def unitarity_residuals(amps: Amplitudes, n_qubits: int) -> tuple[float, float]:
    """Residuals of the two constraints tying u_s and u_d together.

    Returns ``(| |u_s|^2 + (N-1)|u_d|^2 - 1 |, | 2 Re(u_s* u_d) + (N-2)|u_d|^2 |)``.
    Both vanish identically for the closed forms; residuals are round-off.
    """
    us, ud = amps.same_site, amps.cross_site
    r1 = abs(abs(us) ** 2 + (n_qubits - 1) * abs(ud) ** 2 - 1.0)
    r2 = abs(2.0 * (us.conjugate() * ud).real + (n_qubits - 2) * abs(ud) ** 2)
    return r1, r2


def q1_unitary_oracle(params: NetworkParams, t) -> np.ndarray:
    """Single-excitation block of the global unitary by dense exponentiation.

    Independent check on the closed forms: exponentiates the hopping
    generator with every off-diagonal entry equal to J and diagonal
    -(N-1)*J, the gauge in which the uniform mode is stationary. The result
    is an N x N unitary whose diagonal entries all equal u_s(t) and whose
    off-diagonal entries all equal u_d(t).
    """
    t = _check_time(t)
    n = params.n_qubits
    if n > ORACLE_MAX_QUBITS:
        raise SizeLimitError(
            f"dense exponentiation guarded at N <= {ORACLE_MAX_QUBITS}, got N={n}"
        )
    generator = params.coupling * (np.ones((n, n)) - n * np.eye(n))
    return scipy.linalg.expm(-1j * t * generator)


def global_state(params: NetworkParams, t) -> np.ndarray:
    """Single-excitation amplitudes of the evolved generating state.

    The excitation starts on qubit 1, so entry 0 is u_s(t) and every other
    entry is u_d(t); the vector has unit norm by unitarity.
    """
    amps = amplitudes(params, t)
    vec = np.full(params.n_qubits, amps.cross_site, dtype=complex)
    vec[0] = amps.same_site
    return vec
