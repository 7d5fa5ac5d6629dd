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

The kernel and the closed forms built on it take a float time or an ndarray
of times; an array gives arrays, elementwise, and a float still gives a
float. An array is refused exactly as a loop of scalar calls over its
elements would refuse it: same first element, same error, same message. A
time whose phase N*J*t overflows is refused like a non-finite one. On the
amplitude route an array keeps Python's complex ``abs`` (libm ``hypot``)
one element at a time, so a flow weight over an array equals its scalar
calls bit for bit; numpy's ``abs`` and ``hypot`` round differently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeLimitError

#: Largest N accepted by the dense exponential oracle.
ORACLE_MAX_QUBITS = 2048


def _check_time(t, name: str = "t", arrays: bool = False):
    # A finite float. With ``arrays`` (the broadcasting functions), an
    # ndarray of times (ndim >= 1) gives a float array instead. Validated
    # times are exact floats or float arrays, so the kernels below tell them
    # apart by type(t) is float.
    if arrays and not isinstance(t, float) and isinstance(t, np.ndarray) and t.ndim:
        if t.dtype.kind not in "biuf":
            raise ParameterError(f"{name} must hold real numbers, got dtype {t.dtype}")
        values = t.astype(float)
        bad = ~np.isfinite(values)
        if not bad.any():
            return values
        t = values[bad][0]  # refused below, by name
    try:
        value = float(t)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a real number, got {t!r}") from None
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def _phase(n: int, j: float, t):
    # N J t of a validated float or array t. A finite t can still overflow
    # it, and no trig function of an infinite phase means anything.
    if type(t) is float:
        phase = n * j * t
        if math.isfinite(phase):
            return phase
    else:
        with np.errstate(over="ignore"):  # refused below
            phase = n * j * t
        bad = ~np.isfinite(phase)
        if not bad.any():
            return phase
        t = float(t[bad][0])
    raise ParameterError(f"phase N*J*t overflows at t={t!r} (N={n}, J={j!r})")


def _any(flags) -> bool:
    # Whether a check fails at a float time, or at any element of an array.
    return flags if type(flags) is bool else bool(flags.any())


def _replay(fn, *args) -> None:
    """Raise an array refusal of ``fn(*args)`` as a loop of scalar calls would.

    Called from the handler of the refusal: the ndarray arguments (ndim >= 1)
    are broadcast together and ``fn`` is called on their elements one at a
    time, in C order, so the error that propagates is the first refusing
    element's, message included. Returns when no argument is an array, or
    when no element refuses on its own. The handler costs a float call
    nothing, where a wrapper around every call would.
    """
    slots = [i for i, a in enumerate(args) if isinstance(a, np.ndarray) and a.ndim]
    if not slots:
        return
    scalar = list(args)
    grids = np.broadcast_arrays(*(args[i] for i in slots))
    for values in zip(*(g.ravel().tolist() for g in grids)):
        for i, value in zip(slots, values):
            scalar[i] = value
        fn(*scalar)


@dataclass(frozen=True)
class NetworkParams:
    """Global system: qubit count N >= 2 and exchange coupling J > 0.

    N*J must leave a finite, positive period 2*pi/(N*J).
    """

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
        # N*J finite and nonzero, so that N*J*t is never NaN for a finite t.
        if not 0.0 < self.period < math.inf:
            raise ParameterError(f"N*J = {n * j!r} leaves no finite, positive period")

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
    def cross_abs2(self):
        """|u_d|^2, the hop probability to one specific other qubit."""
        return abs(self.cross_site) ** 2


def _hop(n: int, j: float, t):
    # Validated float or array t: (x, sin(NJt/2), cos(NJt/2)), x = 4/N^2 sin^2(NJt/2).
    if type(t) is float:
        half = 0.5 * (n * j * t)  # equal to ((0.5 N) J) t, and infinite where N J t is
        try:
            sh, ch = math.sin(half), math.cos(half)
        except ValueError:  # an infinite phase: NetworkParams keeps N*J finite, so never NaN
            _phase(n, j, t)
            raise
    else:
        half = 0.5 * _phase(n, j, t)
        sh, ch = np.sin(half), np.cos(half)
    return 4.0 / (n * n) * (sh * sh), sh, ch


def amplitudes(params: NetworkParams, t) -> Amplitudes:
    """Evaluate (u_s, u_d) at time ``t`` (any sign; periodic).

    An ndarray ``t`` gives complex arrays, equal to the scalar calls within
    round-off (numpy divides by N through its reciprocal).
    """
    try:
        return _amplitudes(params, _check_time(t, "t", True))
    except ParameterError:
        _replay(amplitudes, params, t)
        raise


def _amplitudes(params: NetworkParams, t) -> Amplitudes:
    # amplitudes() of a validated float or array t.
    n = params.n_qubits
    z = np.exp(1j * _phase(n, params.coupling, t))
    if type(t) is float:
        z = complex(z)
    return Amplitudes(same_site=(1.0 + (n - 1) * z) / n, cross_site=(1.0 - z) / n)


def _cross_abs2(params: NetworkParams, t):
    # x = |u_d(t)|^2 of the amplitude route for a validated float or array t,
    # bit for bit as a scalar amplitudes() call's cross_abs2 reads it; an
    # array is read one element at a time (see the module docstring).
    if type(t) is float:
        return _amplitudes(params, t).cross_abs2
    x = [_amplitudes(params, s).cross_abs2 for s in t.ravel().tolist()]
    return np.array(x).reshape(t.shape)


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
    generator H with every off-diagonal entry equal to J and diagonal
    -(N-1)*J, the gauge in which the uniform mode is stationary. H is real
    symmetric, so exp(-i t H) = V diag(exp(-i t lambda)) V^T from the
    numerical eigendecomposition H = V diag(lambda) V^T (``eigh``); no
    closed-form eigenvalue or eigenvector enters. The decomposition is
    computed once per network (N, J) and reused while the calls stay on
    it. The result is an N x N unitary whose diagonal entries all equal
    u_s(t) and whose off-diagonal entries all equal u_d(t).
    """
    t = _check_time(t)
    n = params.n_qubits
    _phase(n, params.coupling, t)
    if n > ORACLE_MAX_QUBITS:
        raise SizeLimitError(
            f"dense exponentiation guarded at N <= {ORACLE_MAX_QUBITS}, got N={n}"
        )
    eigenvalues, vectors = _generator_eigh(n, params.coupling)
    return (vectors * np.exp(-1j * t * eigenvalues)) @ vectors.T


@functools.lru_cache(maxsize=1)
def _generator_eigh(n: int, j: float) -> tuple[np.ndarray, np.ndarray]:
    # (lambda, V) of q1_unitary_oracle's generator, read-only. One network
    # is kept: a check calls the oracle at many t on the same network.
    generator = j * (np.ones((n, n)) - n * np.eye(n))
    eigenvalues, vectors = np.linalg.eigh(generator)
    eigenvalues.flags.writeable = vectors.flags.writeable = False
    return eigenvalues, vectors


def global_state(params: NetworkParams, t) -> np.ndarray:
    """Single-excitation amplitudes of the evolved generating state.

    The excitation starts on qubit 1, so entry 0 is u_s(t) and every other
    entry is u_d(t); the vector has unit norm by unitarity.
    """
    amps = amplitudes(params, t)
    vec = np.full(params.n_qubits, amps.cross_site, dtype=complex)
    vec[0] = amps.same_site
    return vec
