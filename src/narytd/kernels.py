"""Hot numeric kernels for block-sparse multilinear scoring.

Facts of arity n touch P = n + 1 participant vectors (relation first),
each restricted to its first m segments of length ds. A batch is packed
into one contiguous float64 array X of shape (B, P, m, ds); the block
codes are a flat float64 vector of length K = m**P, indexed row-major
with the relation's segment index slowest.

The block sums are numpy einsum contractions of the (m,)*P core tensor
against the P participant slices.
"""

from __future__ import annotations

import string

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


_BLOCK_LETTERS = string.ascii_lowercase


def score_batch(codes: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Block-sparse scores of a packed batch, shape (B,).

    score[b] = sum_k codes[k] * sum_t prod_q X[b, q, j_q(k), t]
    """
    codes = np.ascontiguousarray(codes, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    B, P, m, ds = X.shape
    core = codes.reshape((m,) * P)
    subs = ",".join([_BLOCK_LETTERS[:P]] + [f"z{_BLOCK_LETTERS[q]}y" for q in range(P)])
    operands = [core] + [X[:, q] for q in range(P)]
    return np.einsum(subs + "->z", *operands, optimize=True)


def context_batch(codes: np.ndarray, X: np.ndarray, hole: int) -> np.ndarray:
    """Per-segment context with one participant held out, shape (B, m, ds).

    Pairing the result against any vector v, sum_{j,t} out[b,j,t] * v[j,t]
    equals score_batch on the batch with participant `hole` replaced by v.
    """
    codes = np.ascontiguousarray(codes, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    B, P, m, ds = X.shape
    if not 0 <= hole < P:
        raise ValueError(f"hole {hole} out of range for {P} participants")
    core = codes.reshape((m,) * P)
    subs = ",".join(
        [_BLOCK_LETTERS[:P]] + [f"z{_BLOCK_LETTERS[q]}y" for q in range(P) if q != hole]
    )
    out = f"->z{_BLOCK_LETTERS[hole]}y"
    operands = [core] + [X[:, q] for q in range(P) if q != hole]
    # einsum drops the y axis when no operand carries it (P == 1): broadcast back
    res = np.einsum(subs + out, *operands, optimize=True)
    if res.shape[-1] != ds:  # pragma: no cover - unreachable for arity >= 2
        res = np.broadcast_to(res[..., None], (B, m, ds)).copy()
    return res
