"""Candidate scores, the multi-class log loss gradient, Adam, checkpoints.

Positions are 0-based throughout: a fact of arity n has entity positions
0..n-1, and participant q in the packed kernel layout is the relation for
q = 0, entity position q - 1 otherwise.

A batch of B facts of arity n poses n*B queries, one per (fact, entity
position), the position being the query's hole. One kernels.context_batch
call over holes 1..n gives their contexts hole-major, reshaped to one
(n*B, m*ds) matrix, row p*B + b for fact b's hole p. The training
gradient sweeps the candidates with one matmul against it, and
candidate_scores, which filtered ranking uses, returns that matmul.

A gradient and each Adam moment are one array shaped like the
embeddings' matrix (entity rows, then relation rows; see
SegmentedEmbeddings). Scores, gradients and Adam moments take the
embeddings' dtype (float32 for trained embeddings, see init_embeddings);
loss sums are float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels
from .blocks import ArchitectureSet, CoreAssignment, load_architecture, pack_participants, save_architecture
from .data import Fact, fact_groups, int_fields, load_json_object, require_file
from .data import write_file, write_json
from .embeddings import SegmentedEmbeddings
from .errors import DataError


def candidate_scores(
    assignment: CoreAssignment, embeddings: SegmentedEmbeddings, X: np.ndarray
) -> np.ndarray:
    """Scores of every entity at every hole of a packed batch, (n*B, n_e).

    Rows are hole-major: row p*B + b scores each entity substituted at
    position p of fact b. The candidate sweep is one matrix product
    against the entity rows' active prefix.
    """
    B, P, m, ds = X.shape
    C = kernels.context_batch(assignment.codes, X, range(1, P)).reshape((P - 1) * B, m * ds)
    return C @ embeddings.entity_matrix[:, : m * ds].T


# Upper bound on one row block of the in-place softmax, in bytes: the
# block's max, exp, sum and divide passes then run in cache.
_SOFTMAX_BLOCK_BYTES = 2 << 20


def _scatter_rows(target: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """target[ids[i]] += rows[i] for every i, repeated ids summed.

    Rows are sorted by id (stable) and each run of equal ids is summed by
    one np.add.reduceat, so every target row is written once.
    """
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    target[ids[starts]] += np.add.reduceat(rows[order], starts, axis=0)


def _grad_arity_group(
    codes: np.ndarray,
    embeddings: SegmentedEmbeddings,
    relation_ids: np.ndarray,
    entity_ids: np.ndarray,
    grads: np.ndarray,
) -> float:
    """Accumulate the loss gradient of one same-arity group; return its loss.

    Each of the B facts yields n queries, one per entity position (hole).
    One context_batch call stacks their contexts hole-major into one
    (n*B, m*ds) matrix C, so the candidate sweep is one matmul Z = C @ E.T over
    the used entity columns. The softmax runs in place on Z, with one exp
    pass over row blocks of at most _SOFTMAX_BLOCK_BYTES; Z then holds
    G = softmax - onehot(truth), the loss gradient with respect to the
    candidate scores. The hole gradient G.T @ C and the softmax-weighted candidate
    mixture G @ E are one matmul each. The remaining
    participants of each query get their gradient from contexts in which
    the hole holds that mixture (multilinearity): one context_batch call
    per hole, whose relation and entity rows are scattered into `grads`
    (shaped like embeddings.matrix) by one call.
    """
    B, n = entity_ids.shape
    X = pack_participants(embeddings, relation_ids, entity_ids)
    m, ds = X.shape[2], X.shape[3]
    used = m * ds
    n_e = embeddings.entity_count
    E_used = embeddings.entity_matrix[:, :used]
    grad = grads[:, :used]
    C = kernels.context_batch(codes, X, range(1, n + 1)).reshape(n * B, used)
    Z = C @ E_used.T
    rows = np.arange(n * B)
    true_ids = entity_ids.T.ravel()
    z_true = Z[rows, true_ids]
    zmax, sums = np.empty(n * B, dtype=Z.dtype), np.empty(n * B, dtype=Z.dtype)
    step = max(1, _SOFTMAX_BLOCK_BYTES // Z[0].nbytes)
    for r0 in range(0, n * B, step):
        block = slice(r0, r0 + step)
        z = Z[block]
        zmax[block] = z.max(axis=1)
        z -= zmax[block, None]
        np.exp(z, out=z)
        sums[block] = z.sum(axis=1)
        z /= sums[block, None]
    loss = float((np.log(sums, dtype=np.float64) + zmax - z_true).sum())
    Z[rows, true_ids] -= 1.0
    # candidates at the hole: every entity row takes its softmax share
    # ((C.T @ Z).T: on two OpenBLAS threads Z.T @ C takes ~28 MB more peak memory)
    grad[:n_e] += (C.T @ Z).T
    # remaining slots see the softmax-weighted candidate mixture, which
    # by multilinearity stands in for the whole candidate sweep
    virtual = (Z @ E_used).reshape(n, B, m, ds)
    del Z
    for p in range(n):
        Xv = X.copy()
        Xv[:, p + 1] = virtual[p]
        slots = [q for q in range(n) if q != p]
        ctx = kernels.context_batch(codes, Xv, [0] + [q + 1 for q in slots]).reshape(n * B, used)
        # ctx holds the relation's B rows, then each slot's B rows
        ids = np.concatenate([n_e + relation_ids, entity_ids[:, slots].T.ravel()])
        _scatter_rows(grad, ids, ctx)
    return loss


def grad_embeddings_mc(
    architectures: Sequence[ArchitectureSet],
    embeddings: SegmentedEmbeddings,
    facts: Sequence[Fact],
) -> tuple[np.ndarray, float]:
    """Monte-Carlo gradient averaged over the given architecture sets.

    Search passes its lam sampled sets; fixed training passes a one-element
    list. Returns the mean gradient, shaped like embeddings.matrix, and the
    mean summed batch loss. The facts become id arrays once, and each
    distinct set's gradient and loss are computed once. With several
    distinct sets, the sets' gradients and losses are added in sample
    order, a repeated set's once per draw, and the sum is scaled. Draws of
    one distinct set give its gradient and loss exactly (three equal
    gradients summed and scaled by 1/3 would round).
    """
    if not architectures:
        raise ValueError("need at least one architecture")
    first = [architectures.index(architecture) for architecture in architectures]
    groups = fact_groups(facts)
    computed = {}
    for i in dict.fromkeys(first):
        grads, loss = np.zeros_like(embeddings.matrix), 0.0
        for arity, _, rel_ids, ent_ids in groups:
            codes = architectures[i][arity].codes
            loss += _grad_arity_group(codes, embeddings, rel_ids, ent_ids, grads)
        computed[i] = grads, loss
    if len(computed) == 1:
        return computed[0]
    total, loss = computed[0][0].copy(), computed[0][1]  # a copy: the set may repeat
    for i in first[1:]:
        total += computed[i][0]
        loss += computed[i][1]
    total *= 1.0 / len(architectures)
    return total, loss / len(architectures)


# ---------------------------------------------------------------------------
# optimizer

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's first and second moments, shaped like and in the dtype of the
    embeddings' matrix."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_embeddings(cls, embeddings: SegmentedEmbeddings) -> "AdamState":
        return cls(np.zeros_like(embeddings.matrix), np.zeros_like(embeddings.matrix))


# Upper bound on one row block of an Adam update, in bytes: the block's
# passes over parameter, gradient and moments then run in cache.
_ADAM_BLOCK_BYTES = 256 * 1024


def adam_step(
    embeddings: SegmentedEmbeddings,
    grads: np.ndarray,
    state: AdamState,
    learning_rate: float,
) -> tuple[SegmentedEmbeddings, AdamState]:
    """One bias-corrected Adam update, applied in place.

    The update runs over row blocks of embeddings.matrix of at most
    _ADAM_BLOCK_BYTES, with two scratch arrays, and the operation order of
    param -= lr * (m / c1) / (sqrt(v / c2) + eps), so its results are
    bit-identical to that formula evaluated on whole matrices. Every
    operation writes into the parameter's dtype, so float32 parameters
    and moments stay float32.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    param = embeddings.matrix
    rows = max(1, _ADAM_BLOCK_BYTES // (param.itemsize * param.shape[1]))
    step_buf = np.empty((min(rows, len(param)), param.shape[1]), dtype=param.dtype)
    denom_buf = np.empty_like(step_buf)
    for r0 in range(0, len(param), rows):
        block = slice(r0, r0 + rows)
        p, g, m_b, v_b = param[block], grads[block], state.m[block], state.v[block]
        step, denom = step_buf[: len(p)], denom_buf[: len(p)]
        m_b *= ADAM_BETA1
        m_b += np.multiply(1.0 - ADAM_BETA1, g, out=step)
        v_b *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=step)
        v_b += np.multiply(step, g, out=step)
        np.divide(m_b, c1, out=step)
        np.multiply(learning_rate, step, out=step)
        np.divide(v_b, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        p -= np.divide(step, denom, out=step)
    return embeddings, state


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    directory: str | Path,
    embeddings: SegmentedEmbeddings,
    architecture: ArchitectureSet,
    config: dict | None = None,
    extra_meta: dict | None = None,
) -> Path:
    """Write meta.json plus raw row-major little-endian float32 matrices."""
    directory = Path(directory)
    for name, matrix in (
        ("entities.bin", embeddings.entity_matrix),
        ("relations.bin", embeddings.relation_matrix),
    ):
        write_file(directory / name, np.ascontiguousarray(matrix, dtype="<f4").tobytes())
    save_architecture(directory / "architecture.json", architecture)
    meta = {
        "n_e": embeddings.entity_count,
        "n_r": embeddings.relation_count,
        "dimension": embeddings.dimension,
        "segment_count": embeddings.segment_count,
        "max_arity": architecture.max_arity,
        "config": config or {},
    }
    meta.update(extra_meta or {})
    write_json(directory / "meta.json", meta)
    return directory


def load_checkpoint(directory: str | Path) -> tuple[SegmentedEmbeddings, ArchitectureSet, dict]:
    """Embeddings (float32, copied from the files), architecture and meta of a
    checkpoint; the architecture is always the directory's own architecture.json."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    meta = load_json_object(meta_path, "checkpoint meta")
    what = f"checkpoint meta {meta_path}"
    n_e, n_r, d, segments = int_fields(meta, ("n_e", "n_r", "dimension", "segment_count"), what)
    for name, value in (("n_e", n_e), ("n_r", n_r), ("dimension", d)):
        if value < 1:
            raise DataError(f"{what} field {name!r} must be >= 1, got {value}")
    ent, rel = (
        np.frombuffer(require_file(directory / name, "checkpoint matrix").read_bytes(), "<f4")
        for name in ("entities.bin", "relations.bin")
    )
    if ent.size != n_e * d or rel.size != n_r * d:
        raise DataError("checkpoint matrix sizes do not match meta.json")
    embeddings = SegmentedEmbeddings(ent.reshape(n_e, d), rel.reshape(n_r, d), segments)
    architecture_path = directory / "architecture.json"
    architecture = load_architecture(architecture_path)
    if architecture.segment_count != segments:
        raise DataError(
            f"{architecture_path} has segment count {architecture.segment_count}, "
            f"{what} has {segments}"
        )
    return embeddings, architecture, meta
