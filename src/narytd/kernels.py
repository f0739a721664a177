"""Hot numeric kernels for block-sparse multilinear scoring.

Facts of arity n touch P = n + 1 participant vectors (relation first),
each restricted to its first m segments of length ds. A batch is packed
into one float array X of shape (B, P, m, ds); the block codes are a
flat vector of length K = m**P (any numeric dtype; the kernels cast it
to X's dtype), indexed row-major with the relation's segment index
slowest.

The compute dtype is X's: float32 stays float32 and any other dtype is
computed in float64 (see compute_array), so the kernels return the
dtype of the embeddings they were packed from.

Both kernels contract the (m,)*P core tensor against every participant
but one (the hole) with one BLAS matmul per chunk of the batch: the core
as an (m, m**(P-1)) matrix times the outer product of the other
participants' segments (see _context_chunks). A chunk's outer product
stays within a fixed byte budget whatever B, P or m, and score_batch
pairs each chunk's context with the relation instead of holding the
whole batch's context.
"""

from __future__ import annotations

import numpy as np


def decode_block(k: int, positions: int, m: int) -> tuple[int, ...]:
    """Row-major multi-index (j_r, j_1, ..., j_n) of flat block k, 0-based."""
    idx = [0] * positions
    for q in range(positions - 1, -1, -1):
        idx[q] = k % m
        k //= m
    return tuple(idx)


def encode_block(index: tuple[int, ...], m: int) -> int:
    """Flat block id of a 0-based multi-index, inverse of decode_block."""
    k = 0
    for j in index:
        k = k * m + j
    return k


def compute_array(a) -> np.ndarray:
    """`a` as an array of its compute dtype: float32 kept, anything else float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


# Upper bound on one chunk's outer-product matrix W, in bytes.
_CHUNK_BYTES = 256 * 1024


def _context_chunks(codes: np.ndarray, X: np.ndarray, hole: int):
    """Yield (rows, ts, context) for consecutive chunks of the batch.

    A chunk is the rows `rows` of X restricted to the within-segment
    offsets `ts`; `context` is the core contracted against every
    participant but `hole` on that chunk, shape (m, rows, ts). It is one
    matmul: the core with the hole's axis first, (m, m**(P-1)), times the
    outer product W of the other participants' segments, held as
    (m**(P-1), rows * ts) so every broadcast runs along contiguous
    memory. Chunks are sized so W stays within _CHUNK_BYTES; a chunk
    holds at least one (row, offset) pair.
    """
    codes = np.asarray(codes, dtype=X.dtype)
    B, P, m, ds = X.shape
    if not 0 <= hole < P:
        raise ValueError(f"hole {hole} out of range for {P} participants")
    core = np.moveaxis(codes.reshape((m,) * P), hole, 0).reshape(m, -1)
    others = [q for q in range(P) if q != hole]
    pair_bytes = core.itemsize * core.shape[1]  # one (row, offset) column of W
    t_step = min(ds, max(1, _CHUNK_BYTES // pair_bytes))
    b_step = max(1, _CHUNK_BYTES // (pair_bytes * t_step))
    for b0 in range(0, B, b_step):
        rows = slice(b0, b0 + b_step)
        for t0 in range(0, ds, t_step):
            ts = slice(t0, t0 + t_step)
            Xc = X[rows, :, :, ts].transpose(1, 2, 0, 3).copy()
            # from the last participant back, so W's rows are row-major in
            # the other participants' segment indices, the first one slowest
            W = Xc[others[-1]]
            for q in reversed(others[:-1]):
                W = (Xc[q, :, None] * W).reshape(-1, *W.shape[1:])
            yield rows, ts, (core @ W.reshape(len(W), -1)).reshape(m, *Xc.shape[2:])


def score_batch(codes: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Block-sparse scores of a packed batch, shape (B,).

    score[b] = sum_k codes[k] * sum_t prod_q X[b, q, j_q(k), t]
    """
    X = compute_array(X)
    out = np.zeros(len(X), dtype=X.dtype)
    for rows, ts, ctx in _context_chunks(codes, X, 0):
        out[rows] += (ctx * X[rows, 0, :, ts].transpose(1, 0, 2)).sum(axis=(0, 2))
    return out


def context_batch(codes: np.ndarray, X: np.ndarray, hole: int) -> np.ndarray:
    """Per-segment context with one participant held out, shape (B, m, ds).

    Pairing the result against any vector v, sum_{j,t} out[b,j,t] * v[j,t]
    equals score_batch on the batch with participant `hole` replaced by v.
    """
    X = compute_array(X)
    B, _, m, ds = X.shape
    out = np.empty((B, m, ds), dtype=X.dtype)
    for rows, ts, ctx in _context_chunks(codes, X, hole):
        out[rows, :, ts] = ctx.transpose(1, 0, 2)
    return out
