"""Filtered link-prediction evaluation: per-position ranks, MRR, Hits@T.

Each (fact, entity position) pair is one query. Candidates that are
known-true fillers for that query (over train+valid+test) are removed
before ranking, except the query's own answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .blocks import ArchitectureSet
from .data import Dataset, Fact, FilterIndex, build_filter_index, group_by_arity
from .embeddings import SegmentedEmbeddings
from .errors import DataError
from .model import batch_ids, candidate_scores

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
    if tie_policy not in TIE_POLICIES:
        raise DataError(f"unknown tie policy {tie_policy!r}; expected {TIE_POLICIES}")
    scores = np.asarray(scores)
    if not 0 <= true_entity < len(scores):
        raise DataError(f"true entity {true_entity} outside candidate range")
    exclude = np.zeros(len(scores), dtype=bool)
    idx = np.fromiter((e for e in filter_set), dtype=np.int64)
    if idx.size:
        exclude[idx] = True
    exclude[true_entity] = False
    true_score = scores[true_entity]
    survivors = ~exclude
    rank = 1 + int(np.count_nonzero(survivors & (scores > true_score)))
    if tie_policy == "pessimistic":
        ties = survivors & (scores == true_score)
        rank += int(np.count_nonzero(ties)) - 1  # the truth ties itself
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


def query_ranks(
    embeddings: SegmentedEmbeddings,
    architecture: ArchitectureSet,
    facts: Sequence[Fact],
    filter_index: FilterIndex,
    tie_policy: str = "optimistic",
) -> list[int]:
    """Filtered ranks for every (fact, position) query, in fact order.

    Facts are scored in same-arity batches; the returned list is ordered
    by fact then position, regardless of batching.
    """
    per_fact: dict[int, list[int]] = {}
    for arity, group in sorted(group_by_arity(facts).items()):
        assignment = architecture[arity]
        indices = [i for i, f in enumerate(facts) if f.arity == arity]
        rel_ids, ent_ids = batch_ids(group)
        for p in range(arity):
            Z = candidate_scores(assignment, embeddings, rel_ids, ent_ids, p)
            for row, fact_idx in enumerate(indices):
                fact = facts[fact_idx]
                fillers = filter_index.fillers(fact.relation, fact.entities, p)
                rank = filtered_rank(Z[row], fact.entities[p], fillers, tie_policy)
                per_fact.setdefault(fact_idx, []).append(rank)
    ranks: list[int] = []
    for i in range(len(facts)):
        ranks.extend(per_fact.get(i, []))
    return ranks


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
