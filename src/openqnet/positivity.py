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
  span{|00>, sum_i |ii>/sqrt(K)}, with phi_0 the ground phase. Its determinant
  is K g, so the smaller one carries the sign of g.

Every other eigenvalue is exactly zero, and at least one zero is always
present. :func:`classify` reads the Choi route from :func:`choi_spectrum`;
the dense :func:`choi_matrix` is kept as the independent oracle for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .amplitudes import NetworkParams, _check_time, _check_tol
from .errors import ParameterError, SizeLimitError
from .propagator import PropagatorOps, _basis_images, _build, _window
from .states import DynClass, SubsystemSelector, _mixing

#: Guard on the rows of a dense Choi build: (K+1)^2 for choi_matrix, and
#: the largest block (K+1 rows) that verify's dense route builds.
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
    from one matrix product per map and the flow terms where they act.
    Row (a, mu) is a*(K+1) + mu. The full matrix, the public oracle: it is
    exactly zero off the rows where B[a, mu] is nonzero or a flow term
    writes, and ``verify``'s dense route (``_choi.dense_cp``) builds it only
    there, block by block.
    Stacked ops of shape S give a ``(*S, (K+1)^2, (K+1)^2)`` stack, each
    matrix bit for bit that of its own ops; the guard holds for each.
    """
    d = ops.k_qubits + 1
    _check_choi_dim(d * d, "Choi dimension")
    stack = np.shape(ops.phi_s)
    m = len(stack)
    # C[*S, a*d + mu, b*d + nu] = images[mu, nu, *S, a, b]
    images = _basis_images(ops).transpose(*range(2, m + 2), m + 2, 0, m + 3, 1)
    return images.reshape(stack + (d * d, d * d))


def _check_choi_dim(dim: int, what: str) -> None:
    # The guard of every dense Choi route, on the rows it builds: choi_matrix's
    # (K+1)^2, and the largest block that _choi.dense_cp builds.
    if dim > CHOI_MAX_DIM:
        raise SizeLimitError(f"{what} {dim}^2 exceeds guard {CHOI_MAX_DIM}^2")


def choi_spectrum(ops: PropagatorOps) -> tuple:
    """The Choi eigenvalues that can be nonzero, in closed form.

    ``(||B||_F^2, K*flow)`` for the containing class, with ||B||_F^2 =
    1 + K|phi_s|^2 + K(K-1)|phi_d|^2, and ``(K*flow, lambda_+, lambda_-)``
    for the excluding class (see the module docstring); all other (K+1)^2 -
    2 or - 3 eigenvalues are exactly zero. Stacked ops of shape S give
    arrays of shape S, equal to the calls on each element's ops within
    round-off.
    """
    k, flow, phi_s_abs2 = ops.k_qubits, ops.flow_weight, abs(ops.phi_s) ** 2
    if ops.dyn_class is DynClass.CONTAINS_EXCITED:
        return 1.0 + k * phi_s_abs2 + k * (k - 1) * abs(ops.phi_d) ** 2, k * flow
    g = ops.ground_extra
    top = phi_s_abs2 + g  # ground weight p(t2)/p(t1) >= 0, so trace > 0
    trace = top + k
    # tr^2 - 4 det written as a sum of squares: never negative by round-off.
    root = np.sqrt((top - k) ** 2 + 4.0 * k * phi_s_abs2)
    # The smaller root from det / larger root, free of cancellation.
    return k * flow, 0.5 * (trace + root), 2.0 * k * g / (trace + root)


def classify(
    params: NetworkParams, sel: SubsystemSelector, t1, t2, tol: float = VERDICT_TOL
) -> PositivityVerdict:
    """Run all three positivity routes over [t1, t2] and classify the map.

    Takes float times. ``tol`` must be a finite number >= 0, not a bool.
    """
    _check_tol(tol)
    ops, spectrum, delta = _routes(params, sel, t1, t2, False)
    flow = ops.flow_weight
    choi_min = float(min(0.0, *spectrum))  # a zero eigenvalue is always present
    verdict = Verdict.POSITIVE_AND_CP if flow >= -tol else Verdict.NON_POSITIVE_NON_CP
    return PositivityVerdict(
        flow_sign=flow, choi_min_eig=choi_min, trace_dist_delta=float(delta), verdict=verdict
    )


def _routes(params: NetworkParams, sel: SubsystemSelector, t1, t2, arrays: bool) -> tuple:
    # The closed-form routes of classify over a window, or with ``arrays``
    # over a stack of them: the propagator, whose flow_weight is the flow
    # route, its choi_spectrum, and the trace route p(t2) - p(t1).
    ops = _build(params, sel, *_window(params, (sel,), t1, t2, arrays))
    k, contains = sel.k_qubits, sel.dyn_class is DynClass.CONTAINS_EXCITED
    delta = _mixing(params, k, contains, ops.t2)[0] - _mixing(params, k, contains, ops.t1)[0]
    return ops, choi_spectrum(ops), delta


def positivity_transition_time(params: NetworkParams, sel: SubsystemSelector, dt) -> float:
    """Earliest window anchor where Phi(t, t+dt) flips verdict.

    The flip happens where the hop probability |u_d|^2 is equal at both
    window ends, i.e. at t = (period - dt)/2, returned in that closed form,
    correctly rounded. The location depends on neither K nor the
    dynamical class.
    """
    sel.validate(params)
    dt = _check_time(dt, "dt")
    if not 0.0 < dt < params.period:
        raise ParameterError(f"dt must lie strictly between 0 and one period, got {dt!r}")
    return 0.5 * (params.period - dt)
