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
Fisher information) calls one private kernel,
``_hop``, for x = |u_d|^2 = 4/N^2 sin^2(NJt/2) and the half-angle sine and
cosine; a mixing probability is p = 1 - w x with the class weight w = N - K
for a K-qubit subsystem containing the excited qubit, K for one excluding
it. The amplitude route (propagators, flow weights, Bloch maps) reads x
from the :func:`amplitudes` call that also supplies its phases. The two
forms of x agree to round-off only.

The kernels and the closed forms built on them take a float time or an
ndarray of times; an array gives arrays, elementwise. A time whose phase
N*J*t overflows is refused like a non-finite one. One decorator,
``_refuse_as_loop``, refuses an array exactly as a loop of scalar calls
would: same first element, same error, same message. The amplitude kernel
``_pair`` gives u_s and u_d of an array as Python's complex arithmetic
rounds them for a float, signed zeros included, and ``_abs2`` takes |u|^2
as libm ``hypot`` then ``pow``, as ``abs(u) ** 2`` does; so an array equals
its scalar calls bit for bit, where numpy's complex division (by a
reciprocal) and ``abs`` round differently.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .errors import OpenQNetError, ParameterError, SizeLimitError

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


def _check_tol(tol) -> None:
    # A tolerance: a finite real number >= 0. A bool (np.True_ included) is
    # refused, not read as 1.0, and so is NaN, which no comparison passes.
    number = (int, float, np.integer, np.floating)
    if isinstance(tol, (bool, np.bool_)) or not isinstance(tol, number) or not 0.0 <= tol < math.inf:
        raise ParameterError(f"tol must be a finite number >= 0, got {tol!r}")


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


def _refuse_as_loop(fn):
    """Refuse an array of times as a loop of scalar calls of ``fn`` would.

    On an ``OpenQNetError``, the ndarray arguments (ndim >= 1) named t, t1
    and t2 are broadcast together and the undecorated ``fn`` is called on
    their elements one at a time, in C order, so the error that propagates
    is the first refusing element's, message included; the original error
    propagates when no element refuses on its own. The signature is read
    only on that path: a call that is not refused pays one frame.
    """

    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OpenQNetError:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            times = {x: bound.arguments.get(x) for x in ("t", "t1", "t2")}
            times = {x: a for x, a in times.items() if isinstance(a, np.ndarray) and a.ndim}
            grids = np.broadcast_arrays(*times.values())
            for values in zip(*(g.ravel().tolist() for g in grids)):
                bound.arguments.update(zip(times, values))
                fn(*bound.args, **bound.kwargs)
            raise

    return call


def _bisect(above, lo: float, hi: float) -> float:
    # Where ``above``, true at lo and false at hi, turns false: 200 halvings,
    # stopped once the midpoint equals an end, as every later one then does.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
        """|u_d|^2, the hop probability to one other qubit, rounded as ``abs(u_d) ** 2``."""
        return _abs2(self.cross_site)


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


@_refuse_as_loop
def amplitudes(params: NetworkParams, t) -> Amplitudes:
    """Evaluate (u_s, u_d) at time ``t`` (any sign; periodic).

    An ndarray ``t`` gives complex arrays, each element equal bit for bit
    to the scalar call.
    """
    return _amplitudes(params, _check_time(t, "t", True))


def _amplitudes(params: NetworkParams, t) -> Amplitudes:
    # amplitudes() of a validated float or array t.
    return Amplitudes(*_pair(params.n_qubits, params.coupling, t))


def _pair(n, j, t) -> tuple:
    # (u_s, u_d) = ((1 + (n-1) z)/n, (1 - z)/n) at a validated float or array
    # t, z = exp(i n j t); n is an int, or a float array of network sizes
    # broadcast against t. An array rounds as Python's complex arithmetic on
    # each element: numpy's products with the zero imaginary part of n-1 are
    # exact zeros, 1 + w and 1 - z add and subtract parts as Python does, and
    # the parts are divided by n, where numpy's complex division would
    # multiply by a reciprocal.
    z = np.exp(1j * _phase(n, j, t))
    if type(t) is float:
        z = complex(z)
        return (1.0 + (n - 1) * z) / n, (1.0 - z) / n
    return tuple((u.view(float) / n).view(complex) for u in (1.0 + (n - 1) * z, 1.0 - z))


def _abs2(u):
    # |u|^2 of a complex or a complex array, rounded as abs(u) ** 2 rounds it:
    # libm hypot, then pow.
    if type(u) is complex:
        return abs(u) ** 2
    return np.float_power(np.hypot(u.real, u.imag), 2.0)


def unitarity_residuals(amps: Amplitudes, n_qubits: int) -> tuple[float, float]:
    """Residuals of the two constraints tying u_s and u_d together.

    Returns ``(| |u_s|^2 + (N-1)|u_d|^2 - 1 |, | 2 Re(u_s* u_d) + (N-2)|u_d|^2 |)``.
    Both vanish identically for the closed forms; residuals are round-off.
    Amplitude arrays give arrays, each value bit for bit its scalar call's.
    """
    us, ud = amps.same_site, amps.cross_site
    xs, xd = _abs2(us), _abs2(ud)
    r1 = abs(xs + (n_qubits - 1) * xd - 1.0)
    # Re(conj(u_s) u_d), as Python's complex product rounds it
    r2 = abs(2.0 * (us.real * ud.real + us.imag * ud.imag) + (n_qubits - 2) * xd)
    return r1, r2


@_refuse_as_loop
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

    An ndarray ``t`` of shape S gives a ``(*S, N, N)`` stack: one matrix
    product per time, each equal bit for bit to the scalar call. An array
    is refused exactly as its first refusing element would be.
    """
    times = _check_time(t, "t", True)
    _phase(params.n_qubits, params.coupling, times)
    n = params.n_qubits
    if n > ORACLE_MAX_QUBITS:
        raise SizeLimitError(
            f"dense exponentiation guarded at N <= {ORACLE_MAX_QUBITS}, got N={n}"
        )
    eigenvalues, vectors = _generator_eigh(n, params.coupling)
    phases = np.exp(-1j * np.asarray(times)[..., None] * eigenvalues)
    return (vectors * phases[..., None, :]) @ vectors.T


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
    entry is u_d(t); the vector has unit norm by unitarity. Takes a float time.
    """
    amps = amplitudes(params, _check_time(t))
    vec = np.full(params.n_qubits, amps.cross_site, dtype=complex)
    vec[0] = amps.same_site
    return vec
