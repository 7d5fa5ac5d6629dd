"""Single-qubit (K=1) propagators as affine maps on Bloch vectors.

Convention: the subsystem ground state sits at b_z = +1 and the excited
state at b_z = -1. A propagator acts affinely: the transverse (x, y)
components are scaled by a common factor and rotated; the z component is
scaled and shifted. Maps for the class containing the excited qubit fix the
north pole, maps for the class excluding it fix the south pole, for every
time interval.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import NetworkParams, _check_time, amplitudes
from .errors import ParameterError, SingularIntervalError
from .states import DynClass, _check_class, _mixing

_TINY = 1e-12


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


def affine_map(params: NetworkParams, dyn_class: DynClass, t1, t2) -> BlochAffineMap:
    """Bloch-space form of the single-qubit propagator over [t1, t2]."""
    _check_class(dyn_class)  # K = 1 fits every network
    t1 = _check_time(t1, "t1")
    t2 = _check_time(t2, "t2")
    contains = dyn_class is DynClass.CONTAINS_EXCITED
    p1 = _mixing(params, 1, contains, t1)[0]
    if p1 < _TINY:
        # Only N=2 at odd half-periods, where u_s vanishes as well.
        raise SingularIntervalError(
            f"mixing probability vanishes at anchor t1={t1!r}", t1=t1
        )
    z_scale = _mixing(params, 1, contains, t2)[0] / p1
    ratio = amplitudes(params, t2).same_site / amplitudes(params, t1).same_site
    if contains:
        # Coherence rotates against the unit ground phase.
        return BlochAffineMap(
            abs(ratio), cmath.phase(ratio), z_scale, 1.0 - z_scale, dyn_class, t1, t2
        )
    # Coherence rotates against the unit local single-excitation phase,
    # opposite in sense to the containing class.
    return BlochAffineMap(
        abs(ratio), -cmath.phase(ratio), z_scale, z_scale - 1.0, dyn_class, t1, t2
    )


def evolve_bloch(bmap: BlochAffineMap, b) -> np.ndarray:
    """Image of a Bloch vector; inputs outside the ball are allowed."""
    b = np.asarray(b, dtype=float)
    if b.shape != (3,):
        raise ParameterError(f"Bloch vector must have shape (3,), got {b.shape}")
    c, s = math.cos(bmap.rotation_angle), math.sin(bmap.rotation_angle)
    return np.array(
        [
            bmap.transverse_scale * (c * b[0] - s * b[1]),
            bmap.transverse_scale * (s * b[0] + c * b[1]),
            bmap.z_shift + bmap.z_scale * b[2],
        ]
    )


def axial_positivity_band(bmap: BlochAffineMap) -> tuple[float, float] | None:
    """Axial inputs (b_x = b_y = 0) whose image stays inside the ball.

    Solves |z_shift + z_scale * b_z| <= 1 intersected with [-1, 1]. Returns
    the closed interval (lo, hi), or None if empty (cannot happen for maps
    of this family, which always keep their fixed point in the band).
    """
    if abs(bmap.z_scale) <= _TINY:
        return (-1.0, 1.0) if abs(bmap.z_shift) <= 1.0 else None
    lo = (-1.0 - bmap.z_shift) / bmap.z_scale
    hi = (1.0 - bmap.z_shift) / bmap.z_scale
    if lo > hi:
        lo, hi = hi, lo
    lo, hi = max(lo, -1.0), min(hi, 1.0)
    if lo > hi:
        return None
    return (lo, hi)


def ball_membership(bmap: BlochAffineMap, b) -> bool:
    """Whether the image of a Bloch-ball vector stays inside the ball."""
    b = np.asarray(b, dtype=float)
    if b.shape != (3,):
        raise ParameterError(f"Bloch vector must have shape (3,), got {b.shape}")
    if float(b @ b) > 1.0 + 1e-12:
        raise ParameterError(f"input Bloch vector lies outside the unit ball: {b}")
    image = evolve_bloch(bmap, b)
    return float(image @ image) <= 1.0 + 1e-12


def physical_bloch_z(params: NetworkParams, dyn_class: DynClass, t) -> float:
    """z-component of the physical single-qubit orbit at time ``t``."""
    _check_class(dyn_class)
    contains = dyn_class is DynClass.CONTAINS_EXCITED
    p = _mixing(params, 1, contains, _check_time(t))[0]
    if contains:
        return 1.0 - 2.0 * p  # p is the excitation probability
    return 2.0 * p - 1.0  # p is the ground probability
