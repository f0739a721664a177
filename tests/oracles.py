"""Reference constructions the tests check the library against.

score_rows scores same-arity id arrays in one kernel call, and
score_fact one fact through it; candidate_scores scores every entity at
every hole of a packed batch as one whole matrix;
filtered_ranks counts every candidate of every query against its
truth, one float64 row dot per score;
memorization_model builds embeddings that reproduce a fact set exactly;
eager_positives is planted generation's collection of positives with
every candidate draw scored. The library itself scores a generator's
draws in bounded blocks and stops at the quota, ranks candidates in
screened float32 tiles and never needs an exact memorization.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from narytd import kernels
from narytd.blocks import ArchitectureSet, CoreAssignment, pack_participants, preset_set
from narytd.data import Fact, Vocabulary, fact_groups
from narytd.embeddings import SegmentedEmbeddings
from narytd.errors import DataError, GenerationError
from narytd.synth import _CHUNK, PlantedSpec


def score_rows(
    assignment: CoreAssignment, embeddings: SegmentedEmbeddings, relation_ids, entity_ids
) -> np.ndarray:
    """Scores of same-arity facts given as id arrays, packed whole and
    scored in one kernel call, in the embeddings' dtype."""
    X = pack_participants(embeddings, relation_ids, entity_ids)
    return kernels.score_batch(assignment.codes, X)


def score_fact(
    assignment: CoreAssignment, embeddings: SegmentedEmbeddings, fact: Fact
) -> float:
    """Multilinear block-sparse score of one fact."""
    [(_, _, relation_ids, entity_ids)] = fact_groups([fact])
    return float(score_rows(assignment, embeddings, relation_ids, entity_ids)[0])


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


def filtered_ranks(
    C: np.ndarray,
    E: np.ndarray,
    truth: Sequence[int],
    filler_rows: Sequence[int],
    filler_cols: Sequence[int],
    tie_policy: str = "optimistic",
) -> list[int]:
    """Filtered ranks of the contexts C against the entity rows E, by brute force.

    Every score C[r] . E[e] is the float64 sum of the products (no BLAS),
    and every candidate other than the truth and query r's fillers counts
    if it scores above the truth, or also level with it under pessimistic
    ties.
    """
    C = np.asarray(C, dtype=np.float64)
    E = np.asarray(E)
    ranks = []
    for r, c in enumerate(C):
        scores = (c * E).sum(axis=1)
        known = {int(e) for q, e in zip(filler_rows, filler_cols) if q == r}
        t = scores[truth[r]]
        rank = 1
        for e, s in enumerate(scores):
            if e == truth[r] or e in known:
                continue
            rank += bool(s > t or (tie_policy == "pessimistic" and s == t))
        ranks.append(rank)
    return ranks


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


def eager_positives(
    spec: PlantedSpec, embeddings: SegmentedEmbeddings, arity: int, rng: np.random.Generator
) -> tuple[list[Fact], int]:
    """An arity's planted positives, scoring each chunk of draws whole.

    Draws _CHUNK candidates per RNG call, as synth does, scores all of
    them, then keeps the distinct ones that clear the margin in draw
    order until facts_per_arity are kept. Also returns the draws consumed
    up to the last kept positive.
    """
    assignment = spec.assignments[arity]
    seen: set[tuple] = set()
    positives: list[Fact] = []
    draws = consumed = 0
    while len(positives) < spec.facts_per_arity:
        if draws >= spec.max_draws:
            raise GenerationError(
                f"drew {draws} arity-{arity} candidates but found only "
                f"{len(positives)}/{spec.facts_per_arity} scoring >= {spec.margin}; "
                f"try a smaller margin"
            )
        chunk = min(_CHUNK, spec.max_draws - draws)
        rel_ids = rng.integers(0, spec.relation_count, size=chunk)
        ent_ids = rng.integers(0, spec.entity_count, size=(chunk, arity))
        scores = score_rows(assignment, embeddings, rel_ids, ent_ids)
        for i in np.nonzero(scores >= spec.margin)[0]:
            key = (int(rel_ids[i]),) + tuple(int(e) for e in ent_ids[i])
            if key in seen:
                continue
            seen.add(key)
            positives.append(Fact(key[0], key[1:]))
            consumed = draws + int(i) + 1
            if len(positives) == spec.facts_per_arity:
                break
        draws += chunk
    return positives, consumed
