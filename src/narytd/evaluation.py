"""Filtered link-prediction evaluation: per-position ranks, MRR, Hits@T.

Each (fact, entity position) pair is one query. Candidates that are
known-true fillers for that query (over train+valid+test) are removed
before ranking, except the query's own answer.

Ranking is one block routine, _block_ranks: it counts, per row of a
score matrix, the candidates above the truth and subtracts the known-true
fillers among them, so no candidate mask is built per query. query_ranks
feeds it row chunks of at most _SCORE_BYTES of scores, which bounds
evaluation memory whatever the split size; filtered_rank is its one-row
form.

Ranking computes in float64 whatever the embeddings' dtype: query_ranks
upcasts the (float32) trained embeddings once per call, so ranks equal a
float64 computation on the stored values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .blocks import ArchitectureSet, pack_participants
from .data import Dataset, Fact, FilterIndex, build_filter_index, group_by_arity
from .embeddings import SegmentedEmbeddings
from .errors import DataError
from .model import batch_ids, candidate_scores

HITS_LEVELS = (1, 3, 10)

TIE_POLICIES = ("optimistic", "pessimistic")

# Upper bound on one chunk's candidate score matrix in query_ranks, in bytes.
_SCORE_BYTES = 32 << 20


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


def filtered_rank(
    scores: np.ndarray,
    true_entity: int,
    filter_set: Iterable[int],
    tie_policy: str = "optimistic",
) -> int:
    """Rank of the true filler after dropping known-true competitors.

    Optimistic ties: score-equal survivors do not push the rank down.
    Pessimistic ties: they all count as ranked above the truth.
    """
    _check_tie_policy(tie_policy)
    scores = np.asarray(scores)
    if not 0 <= true_entity < len(scores):
        raise DataError(f"true entity {true_entity} outside candidate range")
    cols = np.unique(np.fromiter(filter_set, dtype=np.int64))
    rank = _block_ranks(
        scores[None, :], np.array([true_entity]), np.zeros_like(cols), cols, tie_policy
    )
    return int(rank[0])


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


def query_ranks(
    embeddings: SegmentedEmbeddings,
    architecture: ArchitectureSet,
    facts: Sequence[Fact],
    filter_index: FilterIndex,
    tie_policy: str = "optimistic",
) -> list[int]:
    """Filtered ranks for every (fact, position) query, in fact order.

    Facts are scored in float64, in same-arity row chunks whose (rows,
    n_e) score matrix stays within _SCORE_BYTES, so memory does not grow
    with the number of facts. Each chunk is packed once and scored one
    hole position at a time, and each (chunk, position) is ranked as one
    block (see _block_ranks). The returned list is ordered by fact then
    position, regardless of batching.
    """
    _check_tie_policy(tie_policy)
    embeddings = SegmentedEmbeddings(
        embeddings.entity_matrix.astype(np.float64, copy=False),
        embeddings.relation_matrix.astype(np.float64, copy=False),
        embeddings.segment_count,
    )
    arities = np.fromiter((f.arity for f in facts), dtype=np.int64, count=len(facts))
    first_query = np.cumsum(arities) - arities
    ranks = np.empty(int(arities.sum()), dtype=np.int64)
    step = max(1, _SCORE_BYTES // (8 * embeddings.entity_count))  # float64 scores
    for arity, group in sorted(group_by_arity(facts).items()):
        assignment = architecture[arity]
        first = first_query[arities == arity]
        rel_ids, ent_ids = batch_ids(group)
        for start in range(0, len(group), step):
            chunk = slice(start, start + step)
            X = pack_participants(embeddings, rel_ids[chunk], ent_ids[chunk])
            for p in range(arity):
                Z = candidate_scores(assignment, embeddings, X, p)
                fillers = [
                    filter_index.fillers(fact.relation, fact.entities, p) for fact in group[chunk]
                ]
                counts = np.fromiter(map(len, fillers), dtype=np.int64, count=len(fillers))
                cols = np.fromiter(chain.from_iterable(fillers), dtype=np.int64, count=counts.sum())
                rows = np.repeat(np.arange(len(fillers)), counts)
                ranks[first[chunk] + p] = _block_ranks(Z, ent_ids[chunk, p], rows, cols, tie_policy)
    return ranks.tolist()


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


def evaluate_with_timing(
    embeddings: SegmentedEmbeddings,
    architecture: ArchitectureSet,
    dataset: Dataset,
    split: str,
    filter_index: FilterIndex | None = None,
    tie_policy: str = "optimistic",
) -> dict:
    """Metrics document {split, mrr, hits1, hits3, hits10, queries, wall_seconds}."""
    start = time.perf_counter()
    metrics = evaluate(embeddings, architecture, dataset, split, filter_index, tie_policy)
    return metrics.to_doc(split=split, wall_seconds=time.perf_counter() - start)
