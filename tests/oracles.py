"""Reference constructions the tests check the library against.

score_fact scores one fact through the batch path; candidate_scores
scores every entity at every hole of a packed batch as one whole matrix;
memorization_model builds embeddings that reproduce a fact set exactly.
The library itself scores batches, ranks candidates in tiles and never
needs an exact memorization.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from narytd import kernels
from narytd.blocks import ArchitectureSet, CoreAssignment, preset_set, score_batch
from narytd.data import Fact, Vocabulary, fact_groups
from narytd.embeddings import SegmentedEmbeddings
from narytd.errors import DataError


def score_fact(
    assignment: CoreAssignment, embeddings: SegmentedEmbeddings, fact: Fact
) -> float:
    """Multilinear block-sparse score of one fact."""
    [(_, _, relation_ids, entity_ids)] = fact_groups([fact])
    return float(score_batch(assignment, embeddings, relation_ids, entity_ids)[0])


def candidate_scores(
    assignment: CoreAssignment, embeddings: SegmentedEmbeddings, X: np.ndarray
) -> np.ndarray:
    """Scores of every entity at every hole of a packed batch, (n*B, n_e).

    Rows are hole-major: row p*B + b scores each entity substituted at
    position p of fact b; one matrix product of the holes' contexts
    against the entity rows' active prefix.
    """
    B, P, m, ds = X.shape
    C = kernels.context_batch(assignment.codes, X, range(1, P)).reshape((P - 1) * B, m * ds)
    return C @ embeddings.entity_matrix[:, : m * ds].T


def memorization_model(
    facts: Sequence[Fact], vocabulary: Vocabulary
) -> tuple[SegmentedEmbeddings, ArchitectureSet]:
    """Indicator embeddings that reproduce a fact set exactly.

    With one coordinate per fact (d = len(facts), one segment) and +1 at
    coordinate k for every symbol participating in the k-th fact, the
    all-ones diagonal pattern scores every listed fact >= 1 while any
    tuple whose symbols never share a fact scores exactly 0.
    """
    if not facts:
        raise DataError("cannot build a memorization model from an empty fact set")
    d = len(facts)
    ent = np.zeros((vocabulary.entity_count, d))
    rel = np.zeros((vocabulary.relation_count, d))
    for _, index, relation_ids, entity_ids in fact_groups(facts):  # fact k sets coordinate k
        rel[relation_ids, index] = 1.0
        ent[entity_ids, index[:, None]] = 1.0
    embeddings = SegmentedEmbeddings(ent, rel, segment_count=1)
    max_arity = max(f.arity for f in facts)
    architecture = preset_set("cp", max(max_arity, 2), segment_count=1)
    return embeddings, architecture
