"""Hot numeric kernels for block-sparse multilinear scoring.

Facts of arity n touch P = n + 1 participant vectors (relation first),
each restricted to its first m segments of length ds. A batch is packed
into one float array X of shape (B, P, m, ds); the block codes are a
flat vector of length K = m**P (any numeric dtype; the kernels cast it
to X's dtype), the (m,)*P core tensor in numpy's C order: flat block k
is the core entry np.unravel_index(k, (m,)*P), the relation's segment
index slowest. context_batch's reshape of the codes and
blocks.CoreAssignment.core are the only places that read this layout.

The compute dtype is the packed batch's: blocks.pack_participants packs
X in the embeddings' float32 or float64, and the kernels return that
dtype.

context_batch is the only contraction: it contracts the (m,)*P core
tensor against every participant but one (the hole), for a list of
holes, with one BLAS matmul per hole and chunk of the batch: the core as
an (m, m**(P-1)) matrix times the outer product of the other
participants' segments. A chunk's outer product stays within a fixed
byte budget whatever B, P or m (chunk_steps). score_batch pairs the
relation's context (hole 0) with the relation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


# Upper bound on one chunk's outer-product matrix W, in bytes.
_CHUNK_BYTES = 256 * 1024


def chunk_steps(itemsize: int, P: int, m: int, ds: int) -> tuple[int, int]:
    """(t_step, b_step): the within-segment offsets and the rows of one chunk.

    One (row, offset) column of W takes itemsize * m**(P-1) bytes; a chunk
    takes as many offsets as fit in _CHUNK_BYTES (at least one, at most
    ds), then as many rows of those (at least one). Neither depends on B,
    so a batch split at multiples of b_step runs the same matmuls.
    """
    pair_bytes = itemsize * m ** (P - 1)
    t_step = min(ds, max(1, _CHUNK_BYTES // pair_bytes))
    return t_step, max(1, _CHUNK_BYTES // (pair_bytes * t_step))


def score_batch(codes: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Block-sparse scores of a packed batch, shape (B,).

    score[b] = sum_k codes[k] * sum_t prod_q X[b, q, j_q(k), t]
    """
    return (context_batch(codes, X, [0])[0] * X[:, 0]).sum(axis=(1, 2))


def context_batch(codes: np.ndarray, X: np.ndarray, holes: Sequence[int]) -> np.ndarray:
    """Contexts with participant holes[i] held out, shape (len(holes), B, m, ds).

    Pairing out[i] against any vector v, sum_{j,t} out[i,b,j,t] * v[j,t]
    equals score_batch with participant holes[i] replaced by v; holes may
    repeat and come in any order. One loop copies each chunk of X (rows
    `rows`, within-segment offsets `ts`) once; per hole, the chunk takes
    one matmul: the core with the hole's axis first, (m, m**(P-1)), times
    the outer product W of the other participants' segments, held as
    (m**(P-1), rows * ts) so every broadcast runs along contiguous memory.
    chunk_steps sizes the chunks so W stays within _CHUNK_BYTES; a chunk
    holds at least one (row, offset) pair.
    """
    B, P, m, ds = X.shape
    if not all(0 <= h < P for h in holes):
        raise ValueError(f"holes {holes} out of range for {P} participants")
    core = np.asarray(codes, dtype=X.dtype).reshape((m,) * P)
    cores = [np.moveaxis(core, h, 0).reshape(m, -1) for h in holes]
    others = [[q for q in range(P) if q != h] for h in holes]
    t_step, b_step = chunk_steps(X.itemsize, P, m, ds)
    out = np.empty((len(holes), B, m, ds), dtype=X.dtype)
    for b0 in range(0, B, b_step):
        rows = slice(b0, b0 + b_step)
        for t0 in range(0, ds, t_step):
            ts = slice(t0, t0 + t_step)
            Xc = X[rows, :, :, ts].transpose(1, 2, 0, 3).copy()
            for i, (hole_core, rest) in enumerate(zip(cores, others)):
                # from the last participant back, so W's rows are row-major
                # in the other participants' segment indices, the first slowest
                W = Xc[rest[-1]]
                for q in reversed(rest[:-1]):
                    W = (Xc[q, :, None] * W).reshape(-1, *W.shape[1:])
                ctx = (hole_core @ W.reshape(len(W), -1)).reshape(m, *Xc.shape[2:])
                out[i, rows, :, ts] = ctx.transpose(1, 0, 2)
    return out
