"""Filtered link-prediction evaluation: per-position ranks, MRR, Hits@T.

Each (fact, entity position) pair is one query. Candidates that are
known-true fillers for that query (over train+valid+test) are removed
before ranking, except the query's own answer.

Ranking is one block routine, _block_ranks: it counts, per row of a
score matrix, the candidates above the truth and subtracts the known-true
fillers among them, so no candidate mask is built per query. rank_matrix
ranks a list of architecture sets on the same facts, as a search step
scores its lam samples: it converts the facts once, and per same-arity
chunk of facts it packs the participants and looks up the known fillers
(FilterIndex.fillers, (rows, cols) arrays with no Python per query) once
for all sets. Each distinct set then gets one hole-major score matrix
(model.candidate_scores: every hole of every fact in the chunk), with
chunks sized so that matrix holds at most model._SCORE_BLOCK scores
(16 MB of float64), which bounds evaluation memory whatever the split
size; a set equal to an earlier one takes that set's ranks.

Ranking computes in float64 whatever the embeddings' dtype: rank_matrix
upcasts the (float32) trained embeddings once per call, so ranks equal a
float64 computation on the stored values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .blocks import ArchitectureSet, pack_participants
from .data import Dataset, Fact, FilterIndex, build_filter_index, fact_groups
from .embeddings import SegmentedEmbeddings
from .errors import DataError, NumericError
from .model import candidate_scores

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


def _block_ranks(
    Z: np.ndarray,
    truth: np.ndarray,
    filler_rows: np.ndarray,
    filler_cols: np.ndarray,
    tie_policy: str,
) -> np.ndarray:
    """Filtered ranks of a block of queries, shape (b,).

    Row b of Z holds query b's candidate scores and truth[b] its answer;
    the known-true fillers are the (filler_rows, filler_cols) entries.
    rank[b] = 1 + #{Z[b] > t_b} minus the fillers other than the truth
    that score above t_b, where t_b = Z[b, truth[b]]. Pessimistic ties
    also count the score-equal candidates, fillers and truth excepted.
    """
    t = Z[np.arange(len(Z)), truth]
    other = filler_cols != truth[filler_rows]
    rows, cols = filler_rows[other], filler_cols[other]
    filler_z, filler_t = Z[rows, cols], t[rows]
    rank = 1 + np.count_nonzero(Z > t[:, None], axis=1)
    rank -= np.bincount(rows[filler_z > filler_t], minlength=len(Z))
    if tie_policy == "pessimistic":
        rank += np.count_nonzero(Z == t[:, None], axis=1) - 1  # the truth ties itself
        rank -= np.bincount(rows[filler_z == filler_t], minlength=len(Z))
    return rank


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

    Facts are scored in float64, in same-arity row chunks. Each chunk is
    packed and its fillers looked up once for all sets, then scored at
    every hole by one candidate_scores call per distinct set, whose
    hole-major (arity * rows, n_e) matrix holds at most model._SCORE_BLOCK
    scores (one fact's, if a fact's are more) and is the only one alive,
    so memory grows neither with the number of facts nor with the number
    of sets; the chunk is then ranked as one block (see _block_ranks). A
    set equal to an earlier one takes its ranks, which is exact.
    Embeddings holding a NaN or an infinity raise NumericError: NaN scores
    would rank every truth first.
    """
    _check_tie_policy(tie_policy)
    matrix = embeddings.matrix
    # a NaN makes min and max NaN, an infinity one of them; neither makes a temporary
    if not np.isfinite([matrix.min(initial=0.0), matrix.max(initial=0.0)]).all():
        raise NumericError("cannot rank with embeddings that hold a NaN or an infinity")
    # float64 relation rows make the constructor cast the entity rows
    # straight into its one float64 matrix
    embeddings = SegmentedEmbeddings(
        embeddings.entity_matrix,
        embeddings.relation_matrix.astype(np.float64),
        embeddings.segment_count,
    )
    first = [architectures.index(architecture) for architecture in architectures]
    distinct = sorted(set(first))
    groups = fact_groups(facts)
    max_arity = max((g[0] for g in groups), default=0)
    ranks = np.zeros((len(architectures), len(facts), max_arity), dtype=np.int64)
    for arity, index, rel_ids, ent_ids in groups:
        assignments = [architectures[i][arity] for i in distinct]
        step = max(1, model._SCORE_BLOCK // (arity * embeddings.entity_count))
        for start in range(0, len(index), step):
            rows, rel, ent = (a[start : start + step] for a in (index, rel_ids, ent_ids))
            X = pack_participants(embeddings, rel, ent)
            truth, fillers = ent.T.ravel(), filter_index.fillers(rel, ent)
            for i, assignment in zip(distinct, assignments):
                Z = candidate_scores(assignment, embeddings, X)
                rank = _block_ranks(Z, truth, *fillers, tie_policy)
                del Z  # one score matrix at a time
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
