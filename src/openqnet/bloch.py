"""Single-qubit (K=1) propagators as affine maps on Bloch vectors.

Convention: the subsystem ground state sits at b_z = +1 and the excited
state at b_z = -1. A propagator acts affinely: the transverse (x, y)
components are scaled by a common factor and rotated; the z component is
scaled and shifted. Maps for the class containing the excited qubit fix the
north pole, maps for the class excluding it fix the south pole, for every
time interval.

A map is the K = 1 case of :func:`build_propagator` in Bloch coordinates:
its rotation is the phase of u_s(t2)/u_s(t1), from half-angle terms, and its
z-scale 1 - flow the ratio p(t2)/p(t1) of the mixing probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplitudes import NetworkParams, _refuse_as_loop
from .errors import ParameterError
from .propagator import build_propagator
from .states import DynClass, SubsystemSelector, _check_class, excitation_probability

_TINY = 1e-12

#: The K = 1 selector of each class.
_QUBIT = {cls: SubsystemSelector(1, cls) for cls in DynClass}


@dataclass(frozen=True)
class BlochAffineMap:
    """Affine action b -> (rot/scale on x,y; z_shift + z_scale * b_z)."""

    transverse_scale: float
    rotation_angle: float
    z_scale: float
    z_shift: float
    dyn_class: DynClass
    t1: float
    t2: float


@_refuse_as_loop
def affine_map(params: NetworkParams, dyn_class: DynClass, t1, t2) -> BlochAffineMap:
    """Bloch-space form of the single-qubit propagator over [t1, t2].

    The K = 1 reading of ``build_propagator``, with its checks and anchor
    test: the transverse scale and rotation are |phi_s| and its phase, the
    z-scale 1 - flow. An ndarray ``t1`` or ``t2`` gives a map with array
    fields, each equal bit for bit to the scalar call's: np.hypot and
    np.arctan2 round a float as they round each element of an array.
    """
    _check_class(dyn_class)
    ops = build_propagator(params, _QUBIT[dyn_class], t1, t2)
    ratio = ops.phi_s  # B's non-unit diagonal entry, u_s(t2)/u_s(t1), in both classes
    scale, phase = np.hypot(ratio.real, ratio.imag), np.arctan2(ratio.imag, ratio.real)
    if type(ratio) is complex:
        scale, phase = float(scale), float(phase)
    z_scale = 1.0 - ops.flow_weight
    if dyn_class is DynClass.CONTAINS_EXCITED:
        # Coherence rotates against the unit ground phase.
        return BlochAffineMap(scale, phase, z_scale, 1.0 - z_scale, dyn_class, ops.t1, ops.t2)
    # Coherence rotates against the unit local single-excitation phase,
    # opposite in sense to the containing class.
    return BlochAffineMap(scale, -phase, z_scale, z_scale - 1.0, dyn_class, ops.t1, ops.t2)


def evolve_bloch(bmap: BlochAffineMap, b) -> np.ndarray:
    """Image of a Bloch vector; inputs outside the ball are allowed. A map with
    array fields of shape S gives a ``(*S, 3)`` stack, bit for bit its scalar maps'."""
    b = np.asarray(b, dtype=float)
    if b.shape != (3,):
        raise ParameterError(f"Bloch vector must have shape (3,), got {b.shape}")
    c, s = np.cos(bmap.rotation_angle), np.sin(bmap.rotation_angle)
    image = np.array(
        [
            bmap.transverse_scale * (c * b[0] - s * b[1]),
            bmap.transverse_scale * (s * b[0] + c * b[1]),
            bmap.z_shift + bmap.z_scale * b[2],
        ]
    )
    return image if image.ndim == 1 else np.moveaxis(image, 0, -1)


def axial_positivity_band(bmap: BlochAffineMap) -> tuple[float, float] | None:
    """Axial inputs (b_x = b_y = 0) whose image stays inside the ball.

    Solves |z_shift + z_scale * b_z| <= 1 intersected with [-1, 1]. Returns
    the closed interval (lo, hi), or None if empty (cannot happen for maps
    of this family, which always keep their fixed point in the band). For a
    map with array fields, (lo, hi) are arrays, NaN where the band is empty.
    """
    scale, shift = np.asarray(bmap.z_scale), np.asarray(bmap.z_shift)
    flat = np.abs(scale) <= _TINY
    safe = np.where(flat, 1.0, scale)
    ends = np.stack([(-1.0 - shift) / safe, (1.0 - shift) / safe])
    lo = np.where(flat, -1.0, np.maximum(ends.min(axis=0), -1.0))
    hi = np.where(flat, 1.0, np.minimum(ends.max(axis=0), 1.0))
    empty = np.where(flat, np.abs(shift) > 1.0, lo > hi)
    if scale.ndim:
        return np.where(empty, np.nan, lo), np.where(empty, np.nan, hi)
    return None if empty else (float(lo), float(hi))


@_refuse_as_loop
def physical_bloch_z(params: NetworkParams, dyn_class: DynClass, t) -> float:
    """z-component of the physical single-qubit orbit at time ``t`` (an array for an ndarray)."""
    _check_class(dyn_class)
    p = excitation_probability(params, _QUBIT[dyn_class], t)
    if dyn_class is DynClass.CONTAINS_EXCITED:
        return 1.0 - 2.0 * p  # p is the excitation probability
    return 2.0 * p - 1.0  # p is the ground probability
