"""The dense Choi PSD verdict of a stack of propagators, on its support.

``dense_cp`` decides whether each Choi matrix of a stack is PSD at -tol on
its support, without building the matrices whole. Row (a, mu) of C is
a*(K+1) + mu, B's flat index, and

    C[(a, mu), (b, nu)] = B[a, mu] conj(B[b, nu]) + the flow terms,

where each flow term of ``propagator._flow`` adds its weight where its
sector holds a and b and its read set holds mu and nu. So the block term
couples the rows where B is nonzero in some window, each flow term couples
its own rows, a term that meets a block joins it, and every other entry is
zero in every window. In the containing class the blocks are the 1 + K^2
rows of B and the K rows of the flow; in the excluding class the K + 1
rows of B, which the ground-to-ground term joins, and the K rows of the
flow.

A block that no flow term joins is |v><v|, v its rows of B: rank one, so
|v><v| + tol*I is positive definite for every finite v and for no other.
Such a block is decided by the finiteness of phi_s and phi_d, never built.
Every block that a flow term joins is built from B, built once per stack,
and the flow weights alone, never from the closed-form spectrum, and
factorised by Cholesky. Its entries are ``positivity.choi_matrix``'s but
for the rounding of v_r conj(v_s): numpy's complex product rounds unlike
the matrix product.

The route lives apart from ``verification``: where no bytecode is written,
every import compiles that module, the compiler's peak memory grows with
it, and there this route raised ``verify``'s peak RSS.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from . import positivity, propagator


class _Block(NamedTuple):
    # One block of a stack's Choi support: its Choi rows, ascending, and the
    # flow terms that add there, each as (positions in rows, weights).
    rows: np.ndarray
    terms: list


def _flatten(ops: propagator.PropagatorOps) -> propagator.PropagatorOps:
    # A stack of ops of any shape, or one window's, as a 1-d stack with array
    # scalars and times.
    shape = np.shape(ops.phi_s)
    flat = lambda x: None if x is None else np.broadcast_to(x, shape).reshape(-1)
    names = "phi_s", "phi_d", "flow_weight", "ground_extra", "t1", "t2"
    return dataclasses.replace(ops, **{name: flat(getattr(ops, name)) for name in names})


def _choi_blocks(ops: propagator.PropagatorOps, b: np.ndarray) -> list[_Block]:
    # The support of a 1-d stack's Choi matrices, in the blocks that no entry
    # couples (see the module docstring): the block of B (``b``) first. The
    # flow terms' sectors are disjoint, so no two terms meet. Each block's
    # rows are marked in a mask over the (K+1)^2 Choi rows.
    d = ops.k_qubits + 1
    index = np.arange(d * d).reshape(d, d)
    read, terms = propagator._flow(ops)
    rows = b.reshape(-1, d * d).any(axis=0)  # where B is nonzero
    groups = [(rows, [])]
    for sector, weight in terms:
        term = np.ravel(index[sector, read])
        if rows[term].any():
            rows[term] = True
            groups[0][1].append((term, weight))
        else:
            alone = np.zeros(d * d, dtype=bool)
            alone[term] = True
            groups.append((alone, [(term, weight)]))
    blocks = []
    for mask, terms in groups:
        rows = np.flatnonzero(mask)
        if rows.size:
            blocks.append(_Block(rows, [(np.searchsorted(rows, r), w) for r, w in terms]))
    return blocks


def _block_stack(b: np.ndarray, block: _Block) -> np.ndarray:
    # The block of the Choi matrices of every window of a 1-d stack of B,
    # ``b``: v_r conj(v_s) on the block's rows v of B, plus each flow term.
    v = b.reshape(len(b), -1)[:, block.rows]
    out = v[:, :, None] * v.conj()[:, None, :]
    for positions, weight in block.terms:
        out[:, positions[:, None], positions] += weight[:, None, None]
    return out


def dense_cp(ops: propagator.PropagatorOps, tol: float) -> np.ndarray:
    """Whether the Choi matrix of each window of a stack of ops has its
    smallest eigenvalue at or above -``tol`` (``tol`` > 0), decided on its
    support (see the module docstring); an array of the stack's shape.

    Refused with ``SizeLimitError`` where a block that it builds would
    exceed ``positivity.CHOI_MAX_DIM`` rows, before any block is built: the
    largest has K + 1 rows, where ``positivity.choi_matrix`` has (K+1)^2.
    The rows off the support are zero, so they pass, and the rank-one block
    passes where phi_s and phi_d are finite. Each pivot of a Cholesky
    factorisation is its diagonal entry less a sum of squares, so a shifted
    diagonal entry <= 0 fails it at or before its own pivot: the shifted
    diagonals of all built blocks are tested first, so that a window a
    diagonal entry decides never sends a stack to ``_choi_psd``'s
    per-matrix fallback, and each block is then factorised once by
    ``_choi_psd`` for the windows still passing.
    """
    stack = np.shape(ops.phi_s)
    ops = _flatten(ops)
    b = ops.block_diag
    joined = [block for block in _choi_blocks(ops, b) if block.terms]
    largest = max((block.rows.size for block in joined), default=0)
    positivity._check_choi_dim(largest, "Choi block dimension")
    cp = np.isfinite(ops.phi_s)
    if ops.phi_d is not None:
        cp &= np.isfinite(ops.phi_d)
    built = [_block_stack(b, block) for block in joined]
    for blocks in built:
        cp &= (np.einsum("...ii->...i", blocks).real + tol > 0.0).all(axis=-1)
    for blocks in built:
        if cp.any():
            cp[cp] = _choi_psd(blocks[cp], tol)
    return cp.reshape(stack)


def _choi_psd(blocks: np.ndarray, tol: float) -> np.ndarray:
    # Whether each Hermitian matrix of an (n, R, R) stack, whose shifted
    # diagonal is positive, is PSD at -tol: the finite ones are shifted in
    # place and factorised as one stack (np.linalg.cholesky, LAPACK's potrf,
    # which reads the lower triangle, as eigvalsh does), each alone only if
    # that fails. A failed factorisation or a non-finite entry means not PSD.
    psd = np.isfinite(blocks).all(axis=(-2, -1))  # OpenBLAS factorises a NaN matrix
    candidates = np.flatnonzero(psd)
    shifted = blocks if candidates.size == len(blocks) else blocks[candidates]
    diagonal = np.einsum("...ii->...i", shifted)  # a view
    diagonal += tol
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        for i, matrix in zip(candidates, shifted):
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                psd[i] = False
    return psd
