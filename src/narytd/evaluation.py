"""Filtered link-prediction evaluation: per-position ranks, MRR, Hits@T.

Each (fact, entity position) pair is one query. Candidates that are
known-true fillers for that query (over train+valid+test) are removed
before ranking, except the query's own answer.

rank_matrix ranks a list of architecture sets on the same facts, as a
search step scores its lam samples. It converts the facts once, and per
same-arity chunk of facts it packs the participants and looks up the
known fillers (FilterIndex.fillers, (rows, cols) arrays with no Python
per query) once for all sets. Each distinct set then gets one context
matrix for the chunk (kernels.context_batch: every hole of every fact),
which one tiled sweep, _tile_ranks, ranks against every entity: the
scores are made tile by tile in reused buffers, and a set equal to an
earlier one takes that set's ranks. The chunk's contexts, the entity
slice and the score tile each hold at most model._CACHE_BLOCK_BYTES, so
ranking memory grows neither with the split, nor with the vocabulary,
nor with the number of sets.

Ranking computes in float64 whatever the embeddings' dtype: a chunk's
packed participants and each entity slice are upcast as they are used,
which is exact, so ranks equal a float64 computation on the stored
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .blocks import ArchitectureSet, pack_participants
from .data import Dataset, Fact, FilterIndex, build_filter_index, fact_groups
from .embeddings import SegmentedEmbeddings
from .errors import DataError, NumericError
from .kernels import context_batch

HITS_LEVELS = (1, 3, 10)

TIE_POLICIES = ("optimistic", "pessimistic")


@dataclass
class RankingMetrics:
    mrr: float
    hits: dict[int, float]
    count: int

    def to_doc(self, split: str | None = None, wall_seconds: float | None = None) -> dict:
        doc = {
            "split": split,
            "mrr": self.mrr,
            "hits1": self.hits[1],
            "hits3": self.hits[3],
            "hits10": self.hits[10],
            "queries": self.count,
        }
        if wall_seconds is not None:
            doc["wall_seconds"] = wall_seconds
        return doc


def _check_tie_policy(tie_policy: str) -> None:
    if tie_policy not in TIE_POLICIES:
        raise DataError(f"unknown tie policy {tie_policy!r}; expected {TIE_POLICIES}")


def _tile_ranks(
    C: np.ndarray,
    E: np.ndarray,
    truth: np.ndarray,
    filler_rows: np.ndarray,
    filler_cols: np.ndarray,
    beats,
) -> np.ndarray:
    """Filtered ranks of the float64 query contexts C, shape (R,).

    Query r's candidate scores are C[r] @ E.T over the entity rows E (of
    C's width, any float dtype), truth[r] is its answer and the
    (filler_rows, filler_cols) entries are the known-true fillers. With
    t_r the truth's score, rank[r] = 1 + #{candidates e: beats(z_re, t_r)}
    less the fillers and the truth among them; beats is np.greater
    (optimistic ties) or np.greater_equal (pessimistic).

    The scores are never whole: E is cast to float64 in slices of `width`
    rows into one reused buffer S, the last slice zero-padded, and each
    tile C[rows] @ S.T of `width` rows is written into one reused tile
    buffer, every buffer within model._CACHE_BLOCK_BYTES. Each tile counts
    its candidates that beat the truth and reads the scores of the fillers
    it holds. t_r comes from a GEMM of the tiles' exact shape, with the
    truth rows in S, so a candidate equal to the truth ties exactly; the
    truth is counted with the fillers, so it never counts itself.
    """
    R, used = C.shape
    n_e = len(E)
    if filler_cols.size and not 0 <= filler_cols.min() <= filler_cols.max() < n_e:
        raise DataError("known filler entity id outside the entity rows")
    budget = model._CACHE_BLOCK_BYTES // C.itemsize
    width = max(1, min(n_e, math.isqrt(budget), budget // used))
    S = np.zeros((width, used))
    tile = np.empty((width, width))
    flags = np.empty((width, width), dtype=bool)
    # the fillers other than the truth, then the truth, grouped by the tile
    # that holds them, tiles in sweep order (entity slice, then row block)
    other = filler_cols != truth[filler_rows]
    rows = np.concatenate([filler_rows[other], np.arange(R)])
    cols = np.concatenate([filler_cols[other], truth])
    row_tiles = -(-R // width)
    key = cols // width * row_tiles + rows // width
    order = np.argsort(key, kind="stable")
    rows, cols = rows[order], cols[order]
    bounds = np.cumsum(np.bincount(key, minlength=-(-n_e // width) * row_tiles))
    t = np.empty(R)
    for r0 in range(0, R, width):
        C_b = C[r0 : r0 + width]
        S[: len(C_b)] = E[truth[r0 : r0 + width]]
        t[r0 : r0 + width] = np.matmul(C_b, S.T, out=tile[: len(C_b)]).diagonal()
    count = np.ones(R, dtype=np.int64)
    z = np.empty(len(rows))
    lo = 0
    ends = iter(bounds)
    for e0 in range(0, n_e, width):
        valid = min(width, n_e - e0)
        S[:valid] = E[e0 : e0 + valid]
        S[valid:] = 0.0
        for r0 in range(0, R, width):
            C_b = C[r0 : r0 + width]
            Z = np.matmul(C_b, S.T, out=tile[: len(C_b)])
            hit = beats(Z[:, :valid], t[r0 : r0 + width, None], out=flags[: len(C_b), :valid])
            count[r0 : r0 + width] += np.count_nonzero(hit, axis=1)
            hi = next(ends)
            z[lo:hi] = Z[rows[lo:hi] - r0, cols[lo:hi] - e0]
            lo = hi
    count -= np.bincount(rows[beats(z, t[rows])], minlength=R)
    return count


def mrr(ranks: Sequence[int]) -> float:
    if len(ranks) == 0:
        raise DataError("cannot compute MRR of zero ranks")
    return float(np.mean(1.0 / np.asarray(ranks, dtype=np.float64)))


def hits_at(ranks: Sequence[int], level: int) -> float:
    if len(ranks) == 0:
        raise DataError("cannot compute Hits@T of zero ranks")
    if level < 1:
        raise DataError(f"Hits level must be >= 1, got {level}")
    ranks = np.asarray(ranks)
    return float(np.mean(ranks <= level))


def aggregate(ranks: Sequence[int]) -> RankingMetrics:
    return RankingMetrics(
        mrr=mrr(ranks),
        hits={level: hits_at(ranks, level) for level in HITS_LEVELS},
        count=len(ranks),
    )


def rank_matrix(
    embeddings: SegmentedEmbeddings,
    architectures: Sequence[ArchitectureSet],
    facts: Sequence[Fact],
    filter_index: FilterIndex,
    tie_policy: str = "optimistic",
) -> np.ndarray:
    """Filtered ranks as a (sets, facts, max arity) array; a position a fact lacks holds 0.

    Facts are scored in float64, in same-arity row chunks whose hole-major
    (arity * rows, m*ds) contexts hold at most model._CACHE_BLOCK_BYTES
    (one fact's, if a fact's are more). Each chunk is packed, upcast and
    its fillers looked up once for all sets, then each distinct set's
    contexts are made by one context_batch call and ranked by one tiled
    sweep (see _tile_ranks), so memory grows neither with the number of
    facts, nor with the vocabulary, nor with the number of sets. A set
    equal to an earlier one takes its ranks, which is exact. Embeddings
    holding a NaN or an infinity raise NumericError: NaN scores would
    rank every truth first.
    """
    _check_tie_policy(tie_policy)
    matrix = embeddings.matrix
    # a NaN makes min and max NaN, an infinity one of them; neither makes a temporary
    if not np.isfinite([matrix.min(initial=0.0), matrix.max(initial=0.0)]).all():
        raise NumericError("cannot rank with embeddings that hold a NaN or an infinity")
    beats = np.greater_equal if tie_policy == "pessimistic" else np.greater
    first = [architectures.index(architecture) for architecture in architectures]
    distinct = sorted(set(first))
    groups = fact_groups(facts)
    max_arity = max((g[0] for g in groups), default=0)
    ranks = np.zeros((len(architectures), len(facts), max_arity), dtype=np.int64)
    for arity, index, rel_ids, ent_ids in groups:
        assignments = [architectures[i][arity] for i in distinct]
        used = min(arity, embeddings.segment_count) * embeddings.segment_length
        E = embeddings.entity_matrix[:, :used]
        step = max(1, model._CACHE_BLOCK_BYTES // (8 * arity * used))
        for start in range(0, len(index), step):
            rows, rel, ent = (a[start : start + step] for a in (index, rel_ids, ent_ids))
            X = pack_participants(embeddings, rel, ent).astype(np.float64, copy=False)
            truth, fillers = ent.T.ravel(), filter_index.fillers(rel, ent)
            for i, assignment in zip(distinct, assignments):
                C = context_batch(assignment.codes, X, range(1, arity + 1)).reshape(-1, used)
                rank = _tile_ranks(C, E, truth, *fillers, beats)
                ranks[i, rows, :arity] = rank.reshape(arity, len(ent)).T
    return ranks[first]


def query_ranks(
    embeddings: SegmentedEmbeddings,
    architecture: ArchitectureSet,
    facts: Sequence[Fact],
    filter_index: FilterIndex,
    tie_policy: str = "optimistic",
) -> list[int]:
    """Filtered ranks for every (fact, position) query, by fact then position."""
    ranks = rank_matrix(embeddings, [architecture], facts, filter_index, tie_policy)[0]
    return ranks[ranks > 0].tolist()


def evaluate(
    embeddings: SegmentedEmbeddings,
    architecture: ArchitectureSet,
    dataset: Dataset,
    split: str,
    filter_index: FilterIndex | None = None,
    tie_policy: str = "optimistic",
) -> RankingMetrics:
    """Filtered MRR and Hits over every (fact, position) query of a split."""
    facts = dataset.split(split)
    if not facts:
        raise DataError(f"split {split!r} is empty")
    if filter_index is None:
        filter_index = build_filter_index(dataset)
    ranks = query_ranks(embeddings, architecture, facts, filter_index, tie_policy)
    return aggregate(ranks)
