"""Three independent positivity diagnostics for any propagator.

Positivity and complete positivity coincide for this family of maps: both
hold exactly when the flow weight is non-negative, equivalently when the
rank-two mixing probability moves toward its fixed-point value over the
interval. The Choi matrix gives the direct complete-positivity test; it is
built on the q <= 1 subspace only, because the omitted higher local sectors
evolve by unit phases and would contribute non-negative eigenvalues alone,
so nothing is lost by the restriction.

The Choi matrix C = sum_{mu,nu} Phi[|mu><nu|] (x) |mu><nu| is a sum of
rank-one terms, so its spectrum is known in closed form. With B the
excitation-conserving block, f the flow weight and g the excluding class's
ground-to-ground weight:

- containing class: C = |vec B><vec B| + f |w><w| with w = sum_i |0>|i>
  orthogonal to vec B, so the eigenvalues are ||B||_F^2 and K f;
- excluding class: C = |v><v| + f |w><w| + g |00><00| with
  v = phi_0 |00> + sum_i |ii> and w = sum_i |i>|0>. K f is an eigenvalue;
  the other two are those of the 2x2 matrix
  [[|phi_0|^2 + g, sqrt(K) phi_0], [sqrt(K) conj(phi_0), K]] on
  span{|00>, sum_i |ii>/sqrt(K)}, with phi_0 = B[0, 0]. Its determinant
  is K g, so the smaller one carries the sign of g.

Every other eigenvalue is exactly zero, and at least one zero is always
present. :func:`classify` reads the Choi route from :func:`choi_spectrum`;
the dense :func:`choi_matrix` is kept as the independent oracle for it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import NetworkParams, _check_time, _hop
from .errors import ParameterError, SizeLimitError
from .propagator import FlowKind, PropagatorOps, _basis_images, _build, _window
from .states import DynClass, SubsystemSelector, _mixing

#: Guard on the Choi matrix dimension (K+1)^2.
CHOI_MAX_DIM = 4096

#: Symmetric zero-band for all three verdicts.
VERDICT_TOL = 1e-9


class Verdict(enum.Enum):
    POSITIVE_AND_CP = "positive_and_cp"
    NON_POSITIVE_NON_CP = "non_positive_non_cp"


@dataclass(frozen=True)
class PositivityVerdict:
    """Indicators from the three routes plus the resulting classification.

    ``flow_sign`` is the flow weight itself; ``choi_min_eig`` the smallest
    Choi eigenvalue; ``trace_dist_delta`` the change p(t2) - p(t1) of the
    trace distance to the class fixed point (fixed manifold for the
    excluding class). A map is positive and CP iff flow_sign >= -tol iff
    trace_dist_delta <= tol iff choi_min_eig >= -tol (up to the eigenvalue
    scale; the negative Choi eigenvalue is K*flow for the containing class
    and can split into two negatives for the excluding class).
    """

    flow_sign: float
    choi_min_eig: float
    trace_dist_delta: float
    verdict: Verdict


def choi_matrix(ops: PropagatorOps) -> np.ndarray:
    """C = sum_{mu,nu} Phi[|mu><nu|] (x) |mu><nu| over the q <= 1 basis.

    Hermitian with trace K+1 (trace preservation of the map); positive
    semidefinite exactly when the propagator is completely positive. The
    dense oracle for :func:`choi_spectrum`; its blocks are the images of
    the (K+1)^2 basis operators, equal in value to :func:`apply` on each,
    from two matrix products per map. Stacked ops of shape S give a
    ``(*S, (K+1)^2, (K+1)^2)`` stack, each matrix equal bit for bit to the
    one of its own ops; the guard on (K+1)^2 holds for each matrix.
    """
    d = ops.k_qubits + 1
    if d * d > CHOI_MAX_DIM:
        raise SizeLimitError(f"Choi dimension {(d * d)}^2 exceeds guard {CHOI_MAX_DIM}^2")
    stack = ops.block_diag.shape[:-2]
    m = len(stack)
    # C[*S, a*d + mu, b*d + nu] = images[mu, nu, *S, a, b]
    axes = (*range(2, m + 2), m + 2, 0, m + 3, 1)
    return _basis_images(ops).transpose(axes).reshape(stack + (d * d, d * d))


def choi_spectrum(ops: PropagatorOps) -> tuple:
    """The Choi eigenvalues that can be nonzero, in closed form.

    ``(||B||_F^2, K*flow)`` for the containing class and ``(K*flow,
    lambda_+, lambda_-)`` for the excluding class (see the module
    docstring); all other (K+1)^2 - 2 or - 3 eigenvalues are exactly zero.
    Stacked ops of shape S give arrays of shape S, equal to the calls on
    each element's ops within round-off.
    """
    k, flow, block = ops.k_qubits, ops.flow_weight, ops.block_diag
    one = block.ndim == 2
    if ops.flow_kind is FlowKind.OUT_OF_SUBSYSTEM:
        if one:
            return float(np.vdot(block, block).real), k * flow
        return np.einsum("...ij,...ij->...", block.conj(), block).real, k * flow
    phi0_abs2 = abs(block[0, 0] if one else block[..., 0, 0]) ** 2
    g = ops.ground_extra
    top = phi0_abs2 + g  # ground weight p(t2)/p(t1) >= 0, so trace > 0
    trace = top + k
    # tr^2 - 4 det written as a sum of squares: never negative by round-off.
    root = (math.sqrt if one else np.sqrt)((top - k) ** 2 + 4.0 * k * phi0_abs2)
    # The smaller root from det / larger root, free of cancellation.
    return k * flow, 0.5 * (trace + root), 2.0 * k * g / (trace + root)


def classify(
    params: NetworkParams, sel: SubsystemSelector, t1, t2, tol: float = VERDICT_TOL
) -> PositivityVerdict:
    """Run all three positivity routes over [t1, t2] and classify the map.

    Takes float times. ``tol`` must be finite and non-negative.
    """
    if not (isinstance(tol, (int, float, np.floating, np.integer)) and 0.0 <= tol < math.inf):
        raise ParameterError(f"tol must be a finite number >= 0, got {tol!r}")
    ops = _build(params, sel, *_window(params, sel, t1, t2))
    t1, t2 = ops.t1, ops.t2  # validated
    flow = ops.flow_weight
    choi_min = float(min(0.0, *choi_spectrum(ops)))  # a zero eigenvalue is always present
    k, contains = sel.k_qubits, sel.dyn_class is DynClass.CONTAINS_EXCITED
    delta = _mixing(params, k, contains, t2)[0] - _mixing(params, k, contains, t1)[0]
    verdict = Verdict.POSITIVE_AND_CP if flow >= -tol else Verdict.NON_POSITIVE_NON_CP
    return PositivityVerdict(
        flow_sign=flow, choi_min_eig=choi_min, trace_dist_delta=float(delta), verdict=verdict
    )


def positivity_transition_time(params: NetworkParams, sel: SubsystemSelector, dt) -> float:
    """Earliest window anchor where Phi(t, t+dt) flips verdict.

    The flip happens where the hop probability |u_d|^2 is equal at both
    window ends, i.e. at t = period/2 - dt/2; located by bisection to
    machine precision (well inside 1e-10 periods). The location depends on
    neither K nor the dynamical class.
    """
    sel.validate(params)
    dt = _check_time(dt, "dt")
    if not 0.0 < dt < params.period:
        raise ParameterError(f"dt must lie strictly between 0 and one period, got {dt!r}")
    n, j = params.n_qubits, params.coupling
    # |u_d|^2 grows over the window [t, t + dt] at t = 0 and shrinks at t = period/2.
    lo, hi = 0.0, 0.5 * params.period
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _hop(n, j, mid + dt)[0] > _hop(n, j, mid)[0]:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
