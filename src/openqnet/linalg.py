"""Small dense-operator helpers shared by the propagator and oracle modules.

Column-stacking convention throughout: ``vec`` stacks matrix columns, so a
linear map L on operators is the matrix with ``L[:, nu*d + mu] =
vec(action(E_mu_nu))`` where ``E_mu_nu = |mu><nu|``.
"""

from __future__ import annotations

import numpy as np


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` for a ``dim x dim`` matrix."""
    return np.asarray(vector).reshape(dim, dim, order="F")


def basis_matrix(dim: int, mu: int, nu: int) -> np.ndarray:
    """The operator-basis element ``|mu><nu|``."""
    e = np.zeros((dim, dim), dtype=complex)
    e[mu, nu] = 1.0
    return e

