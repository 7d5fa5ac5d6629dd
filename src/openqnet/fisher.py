"""Quantum Fisher information of the reduced states for global parameters.

Closed forms are provided for the exchange coupling and for the network
size (differentiated as a continuous real), each split into a classical
part from the parameter dependence of the eigenvalues and a quantum part
from the parameter dependence of the eigenvectors. A finite-difference
symmetric-logarithmic-derivative oracle provides the independent numeric
route. For single-qubit subsystems the information additionally decomposes,
over any observation window [t1, t2], into a process part generated by the
propagator, a state part carried in at t1, and a signed cross term.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass

import numpy as np

from .amplitudes import NetworkParams, _abs2, _any, _check_time, _pair, _phase, _refuse_as_loop
from .errors import (
    DegenerateStateError,
    DivergenceError,
    OracleFailureError,
    ParameterError,
    PoleError,
)
from .propagator import _window
from .states import _ZERO_WEIGHT, DynClass, SubsystemSelector, _check_class, _class_weight, _mixing
from .states import _k_stack

#: Eigenvalue-pair cutoff in the SLD solve.
SLD_PAIR_CUTOFF = 1e-12

#: Relative central-difference step of the SLD oracle.
SLD_STEP = 1e-5


class GlobalParameter(enum.Enum):
    """Which global parameter the information is taken with respect to."""

    COUPLING_J = "J"
    SIZE_N = "N"


@dataclass(frozen=True)
class FisherBreakdown:
    """Classical (eigenvalue) and quantum (eigenvector) pieces of the QFI."""

    classical: float
    quantum: float
    total: float
    theta: GlobalParameter


@dataclass(frozen=True)
class ProcessStateSplit:
    """Window decomposition of single-qubit sensitivity.

    ``process`` is generated by the propagator over [t1, t2], ``state`` is
    carried by the state at t1, and ``cross`` is the signed interference
    between them; the three always sum to ``total``.
    """

    process: float
    state: float
    cross: float
    total: float
    t1: float
    t2: float


def _check_theta(theta) -> None:
    if not isinstance(theta, GlobalParameter):
        raise ParameterError(f"theta must be a GlobalParameter, got {theta!r}")


def _mixing_slope(params: NetworkParams, w, contains: bool, by_coupling: bool, t, sh, ch):
    # d_theta p / sin(NJt/2) for p = 1 - w x, x = 4/N^2 sin^2(NJt/2), on
    # already-validated float or array inputs; w is the class weight, or a
    # (K, 1) array of them. The common sine factor is left out so that
    # (d_theta p)^2 / (p (1 - p)) can cancel it against 1 - p = w x.
    n = params.n_qubits
    if by_coupling:
        # dx/dJ = 4/N^2 sin cos N t
        return -4.0 / n * w * t * ch
    # dx/dN = 4/N^2 sin (J t cos - 2 sin / N); w = N - K moves with N too.
    dw = 1.0 if contains else 0.0
    return -4.0 / n**2 * (dw * sh + w * (params.coupling * t * ch - 2.0 * sh / n))


@_refuse_as_loop
def qfi_closed_form(
    params: NetworkParams, sel: SubsystemSelector, theta: GlobalParameter, t
) -> FisherBreakdown:
    """Closed-form quantum Fisher information of the reduced state at ``t``.

    The classical piece is the binary Fisher information (d_theta p)^2 /
    (p (1 - p)) of the mixing probability p. For the size parameter with a
    subsystem equal to the whole network it diverges (the state is pure but
    its eigenvalue formula still moves with N): DivergenceError. Where p
    vanishes (N=2, K=1 at odd half-periods) it raises DegenerateStateError.
    An ndarray ``t`` gives array fields.
    """
    sel.validate(params)
    return _information(params, sel.k_qubits, sel.dyn_class, theta, _check_time(t, "t", True))


def _information_stack(
    params: NetworkParams, ks, dyn_class: DynClass, theta: GlobalParameter, t: np.ndarray
) -> FisherBreakdown:
    """qfi_closed_form of every K in ``ks`` at once (see states._k_stack)."""
    return _k_stack(qfi_closed_form, _information, params, ks, dyn_class, theta, t)


def _information(params: NetworkParams, k, dyn_class: DynClass, theta, t) -> FisherBreakdown:
    # qfi_closed_form on a validated float or array t. k is an int, or a
    # (K, 1) int array for a stack with one row per K over t's axes: then the
    # K share one _hop call (in _mixing) and enter as the class weight's axis.
    n = params.n_qubits
    stack = type(k) is not int
    contains = dyn_class is DynClass.CONTAINS_EXCITED
    w = _class_weight(n, k, contains)
    _check_theta(theta)
    by_coupling = theta is GlobalParameter.COUPLING_J
    if not by_coupling and _any(w == 0):
        raise DivergenceError(
            "size-parameter information diverges when the subsystem is the whole network"
        )
    p, sh, ch = _mixing(params, k, contains, t)
    if _any(p <= _ZERO_WEIGHT):
        raise DegenerateStateError(f"mixing probability vanishes at t={t!r}")
    # An information past the float range reads inf (or nan), as in the
    # float path, without numpy's warnings; Python's floats never warn. A
    # stack's rows without a piece are computed (as nan where w = 0) and
    # then set to 0 * p.
    if type(p) is float:
        quiet = contextlib.nullcontext()
    else:
        quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")
    with quiet:
        slope = _mixing_slope(params, w, contains, by_coupling, t, sh, ch)
        # With w = 0 the eigenvalue p = 1 does not move: no classical part.
        classical = n * n * slope * slope / (4.0 * w * p) if stack or w else 0.0 * p
        if not contains or not stack and k == 1:
            quantum = 0.0 * p  # the eigenvectors do not move
        elif by_coupling:
            quantum = 4.0 * t * t * (k - 1) / p
        else:
            alpha = n * params.coupling * t
            quantum = 4.0 * (k - 1) * (alpha * alpha - 4.0 * alpha * sh * ch + 4.0 * sh * sh)
            quantum /= n**4 * p
        if stack:
            classical = np.where(w == 0, 0.0 * p, classical)
            quantum = np.where(k == 1, 0.0 * p, quantum)
        total = classical + quantum
    return FisherBreakdown(classical, quantum, total, theta)


def _reduced_density(n_real, j, k: int, contains: bool, t) -> np.ndarray:
    # Closed-form reduced densities with the network size as a real number,
    # so the size parameter can be finite-differenced: a (*S, K+1, K+1) stack
    # over the broadcast shape S of n_real, j and t, from the amplitude
    # kernel's u_s and u_d.
    us, ud = _pair(n_real, j, t)
    hop = _abs2(ud)
    rho = np.zeros(ud.shape + (k + 1, k + 1), dtype=complex)
    if contains:
        psi = np.repeat(ud[..., None], k, axis=-1)
        psi[..., 0] = us
        rho[..., 0, 0] = 1.0 - (_abs2(us) + (k - 1) * hop)
        rho[..., 1:, 1:] = psi[..., :, None] * psi.conj()[..., None, :]  # p |psi_hat><psi_hat|
    else:
        p0 = 1.0 - k * hop
        rho[..., 0, 0] = p0
        rho[..., 1:, 1:] = ((1.0 - p0) / k)[..., None, None]
    return rho


@_refuse_as_loop
def qfi_numeric_oracle(
    params: NetworkParams,
    sel: SubsystemSelector,
    theta: GlobalParameter,
    t,
) -> float:
    """Finite-difference SLD estimate of the Fisher information.

    Central-differences the reduced density in the parameter (relative step
    ``SLD_STEP``; the network size is treated as a continuous real), solves
    the SLD equation in the eigenbasis of the unperturbed state with the
    eigenvalue-pair cutoff, and returns Tr[L^2 rho]: the pair terms summed
    in row-major order. An ndarray ``t`` gives an array, each value equal
    bit for bit to its scalar call, and is refused as its first refusing
    element would be.
    """
    sel.validate(params)
    n, k, j = params.n_qubits, sel.k_qubits, params.coupling
    contains = sel.dyn_class is DynClass.CONTAINS_EXCITED
    if theta is GlobalParameter.COUPLING_J:
        h = SLD_STEP * j
        shifted = [(float(n), j + h), (float(n), j - h)]
    else:
        h = SLD_STEP * n
        shifted = [(n + h, j), (n - h, j)]
    t = _check_time(t, "t", True)
    _phase(n, j, t)
    for n_real, j_real in shifted:
        _phase(n_real, j_real, t)  # N*J*t can be finite where a shifted phase is not
    ns, js = np.array([(float(n), j), *shifted]).T[..., None]  # (3, 1) each
    rho0, plus, minus = _reduced_density(ns, js, k, contains, np.ravel(t))
    evals, evecs = np.linalg.eigh(rho0)
    pair = evals[..., :, None] + evals[..., None, :]
    used = pair > SLD_PAIR_CUTOFF
    if not used.any(axis=(-2, -1)).all():
        raise OracleFailureError(
            "every eigenvalue pair fell below the SLD cutoff; state too degenerate"
        )
    # hypot and float_power round as a scalar's abs and ** 2 do, where numpy's
    # array abs does not; accumulate adds the pairs one at a time in row-major
    # order, where sum adds pairwise. An information past the float range
    # reads inf, and a subnormal step h gives an inf derivative, whose
    # products with 0 read NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        drho = (plus - minus) / (2.0 * h)
        m = np.swapaxes(evecs.conj(), -1, -2) @ drho @ evecs
        terms = 2.0 * np.float_power(np.hypot(m.real, m.imag), 2.0)
        terms = np.divide(terms, pair, out=np.zeros_like(pair), where=used)
        total = np.add.accumulate(terms.reshape(-1, (k + 1) ** 2), axis=-1)[:, -1]
    total = total.reshape(np.shape(t))
    return total if np.ndim(t) else float(total)


def _p_dp_single_qubit(params: NetworkParams, dyn_class: DynClass, theta: GlobalParameter, t):
    # Mixing probability p^i(t; K=1) and its theta-derivative.
    contains = dyn_class is DynClass.CONTAINS_EXCITED
    p, sh, ch = _mixing(params, 1, contains, t)
    w = _class_weight(params.n_qubits, 1, contains)
    return p, sh * _mixing_slope(params, w, contains, theta is GlobalParameter.COUPLING_J, t, sh, ch)


@_refuse_as_loop
def process_state_split(
    params: NetworkParams,
    dyn_class: DynClass,
    t1,
    t2,
    theta: GlobalParameter = GlobalParameter.COUPLING_J,
    rescaled: bool = False,
) -> ProcessStateSplit:
    """Split single-qubit sensitivity over [t1, t2] into its three pieces.

    Uses the multiplicative form p(t2) = (1 - flow) p(t1): differentiating
    gives a process term from the flow weight's parameter dependence, a
    state term from the incoming sensitivity, and their signed cross term.
    Rescaled, the three sum to (d_theta p(t2))^2 independently of t1;
    unrescaled they are divided by p(t2)(1 - p(t2)), which has poles at the
    period points (use the rescaled form there). An ndarray ``t1`` or
    ``t2`` gives array fields.
    """
    _check_class(dyn_class)  # K = 1 fits every network
    _check_theta(theta)
    # The K = 1 window; N=2 anchored at an odd half-period breaks the
    # multiplicative form.
    t1, t2 = _window(params, (SubsystemSelector(1, dyn_class),), t1, t2, True)
    with np.errstate(over="ignore", invalid="ignore"):  # a slope past the float range reads inf
        p1, dp1 = _p_dp_single_qubit(params, dyn_class, theta, t1)
        p2, dp2 = _p_dp_single_qubit(params, dyn_class, theta, t2)
    denom = p2 * (1.0 - p2)
    if not rescaled and _any(denom < 1e-14):
        raise PoleError(
            "p(t2)(1-p(t2)) vanishes at this t2; request the rescaled split instead"
        )
    # Squares as products: a float's ** raises OverflowError where numpy's
    # gives inf, and x * x is the one numpy's ** 2 takes. Past the float
    # range an array reads inf (or nan), as the float path does, without
    # numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        survival = p2 / p1  # 1 - flow weight
        dflow = (p2 * dp1 - dp2 * p1) / (p1 * p1)  # theta-derivative of the flow weight
        moved, kept = dflow * p1, survival * dp1
        process = moved * moved
        cross = -2.0 * moved * survival * dp1
        state = kept * kept
        total = process + cross + state
        if not rescaled:
            process, cross, state, total = (
                process / denom,
                cross / denom,
                state / denom,
                total / denom,
            )
    return ProcessStateSplit(
        process=process, state=state, cross=cross, total=total, t1=t1, t2=t2
    )
