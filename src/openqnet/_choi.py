"""The dense Choi PSD verdict of a stack of propagators, on its support.

``dense_cp`` decides whether each Choi matrix of a stack is PSD at -tol by
a Cholesky factorisation of C + tol*I, without building the matrices
whole. Row (a, mu) of C is a*(K+1) + mu, B's flat index, and

    C[(a, mu), (b, nu)] = B[a, mu] conj(B[b, nu]) + the flow terms,

where each flow term of ``propagator._flow`` adds its weight where its
sector holds a and b and its read set holds mu and nu. So the block term
couples the rows where B is nonzero in some window, each flow term couples
its own rows, a term that meets a block joins it, and every other entry is
zero in every window. In the containing class the blocks are the 1 + K^2
rows of B and the K rows of the flow; in the excluding class the K + 1
rows of B, which the ground-to-ground term joins, and the K rows of the
flow. The entries come from B and the flow weights alone, never from the
closed-form spectrum. They are ``positivity.choi_matrix``'s but for the
rounding of v_r conj(v_s): numpy's complex product rounds unlike the
matrix product.

``verify``'s ``pcp_agreement`` runs ``dense_cp`` on every window, in a
workspace made for the call, so that a stack maps no fresh memory. The
route lives apart from ``verification``: where no bytecode is written,
every import compiles that module, the compiler's peak memory grows with
it, and there this route raised ``verify``'s peak RSS.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import positivity, propagator


class _Workspace:
    """Two buffers that the dense route builds its stacks in, one stack at a
    time.

    Each buffer starts with room for ``nbytes`` and grows when a stack needs
    more. The pre-test gathers a stack's rows of B on one block into buffer
    1 and their conjugates into buffer 0; a survivor stack's block is built
    in buffer 0, at most half ``nbytes`` of it, so only a window larger than
    that grows the buffer. Every array taken from a buffer is overwritten by
    the next one taken from it.
    """

    def __init__(self, nbytes: int):
        self._buffers = [np.empty(nbytes, dtype=np.uint8) for _ in range(2)]
        self._nbytes = nbytes

    def array(self, i: int, shape: tuple) -> np.ndarray:
        """A C-contiguous complex array of ``shape`` over the start of buffer i."""
        nbytes = math.prod(shape) * 16
        if self._buffers[i].size < nbytes:
            self._buffers[i] = np.empty(nbytes, dtype=np.uint8)
        return self._buffers[i][:nbytes].view(complex).reshape(shape)

    def windows(self, entries: int) -> int:
        """The windows of ``entries`` complex entries each that half of
        ``nbytes`` holds, at least one."""
        return max(1, self._nbytes // 2 // (16 * entries))


class _Block(NamedTuple):
    # One block of a stack's Choi support: its Choi rows, ascending, and the
    # flow terms that add there, each as (positions in rows, weights).
    rows: np.ndarray
    terms: list


def _flatten(ops: propagator.PropagatorOps) -> propagator.PropagatorOps:
    # A stack of ops of any shape, or one window's, as a 1-d stack with array
    # weights and times.
    d, shape = ops.k_qubits + 1, ops.block_diag.shape[:-2]
    flat = lambda x: None if x is None else np.broadcast_to(x, shape).reshape(-1)
    weights, times = map(flat, (ops.flow_weight, ops.ground_extra)), map(flat, (ops.t1, ops.t2))
    block = ops.block_diag.reshape(-1, d, d)
    return propagator.PropagatorOps(block, *weights, ops.k_qubits, ops.dyn_class, *times)


def _choi_blocks(ops: propagator.PropagatorOps) -> list[_Block]:
    # The support of a 1-d stack's Choi matrices, in the blocks that no entry
    # couples (see the module docstring): the block of B first. The flow
    # terms' sectors are disjoint, so no two terms meet.
    d = ops.k_qubits + 1
    index = np.arange(d * d).reshape(d, d)
    read, terms = propagator._flow(ops)
    rows = set(np.flatnonzero(ops.block_diag.reshape(-1, d * d).any(axis=0)).tolist())
    groups = [(rows, [])]
    for sector, weight in terms:
        term = np.ravel(index[sector, read])
        if rows.isdisjoint(term.tolist()):
            groups.append((set(term.tolist()), [(term, weight)]))
        else:
            rows.update(term.tolist())
            groups[0][1].append((term, weight))
    blocks = []
    for rows, terms in groups:
        rows = np.array(sorted(rows), dtype=np.intp)
        if rows.size:
            blocks.append(_Block(rows, [(np.searchsorted(rows, r), w) for r, w in terms]))
    return blocks


def _block_diagonal(ops: propagator.PropagatorOps, block: _Block, workspace: _Workspace):
    # The real diagonal of a block for every window of a 1-d stack: v conj(v)
    # on the block's rows v of B, then each flow term; numpy's product, as
    # _block_stack forms it, so bit for bit the diagonal of its blocks.
    flat = ops.block_diag.reshape(len(ops.block_diag), -1)
    v = workspace.array(1, (len(flat), block.rows.size))
    np.take(flat, block.rows, axis=1, out=v, mode="clip")
    diag = np.multiply(v, np.conjugate(v, out=workspace.array(0, v.shape)), out=v).real
    for positions, weight in block.terms:
        diag[:, positions] += weight[:, None]
    return diag


def _block_stack(
    ops: propagator.PropagatorOps, block: _Block, index: np.ndarray, workspace: _Workspace
) -> np.ndarray:
    # The block of the Choi matrices of a 1-d stack's windows at ``index``,
    # in buffer 0: v_r conj(v_s) on the block's rows v of B, plus each flow term.
    v = ops.block_diag.reshape(len(ops.block_diag), -1)[np.ix_(index, block.rows)]
    size = block.rows.size
    out = workspace.array(0, (len(index), size, size))
    np.multiply(v[:, :, None], v.conj()[:, None, :], out=out)
    for positions, weight in block.terms:
        out[:, positions[:, None], positions] += weight[index, None, None]
    return out


def dense_cp(ops: propagator.PropagatorOps, tol: float, workspace: _Workspace) -> np.ndarray:
    """Whether the Choi matrix of each window of a stack of ops has its
    smallest eigenvalue at or above -``tol`` (``tol`` > 0), decided on its
    support in ``workspace``.

    Refused with ``SizeLimitError`` above ``positivity.CHOI_MAX_DIM`` rows,
    as ``positivity.choi_matrix`` is, before any block is built. The rows
    off the support are zero, so they pass. Each pivot of a Cholesky
    factorisation is its diagonal entry less a sum of squares, so a shifted
    diagonal entry <= 0 fails it at or before its own pivot: a window's
    blocks are built only where all their diagonals pass that pre-test.
    Each block is then built and factorised by ``_choi_psd`` for the
    windows still passing, in stacks of at most half the workspace. Returns
    an array of the stack's shape.
    """
    positivity._check_choi_dim(ops)
    stack = ops.block_diag.shape[:-2]
    ops = _flatten(ops)
    blocks = _choi_blocks(ops)
    cp = np.ones(len(ops.block_diag), dtype=bool)
    for block in blocks:
        cp &= (_block_diagonal(ops, block, workspace) + tol > 0.0).all(axis=-1)
    for block in blocks:
        passed = np.flatnonzero(cp)
        step = workspace.windows(block.rows.size**2)
        for start in range(0, passed.size, step):
            index = passed[start : start + step]
            cp[index] = _choi_psd(_block_stack(ops, block, index, workspace), tol)
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
