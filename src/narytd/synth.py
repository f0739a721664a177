"""Synthetic datasets planted by a hidden block assignment.

Random segmented embeddings plus a known ground-truth architecture define
a scoring rule; uniformly drawn candidate tuples that clear a margin
become the dataset's facts. Search-recovery tests then check whether the
architecture search can rediscover the hidden assignment (or an equally
good one) from the facts alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import ArchitectureSet, CoreAssignment, block_count, score_batch
from .data import Dataset, Fact, Vocabulary, check_seed
from .embeddings import SegmentedEmbeddings
from .errors import DataError, GenerationError

_CHUNK = 8192


@dataclass
class PlantedSpec:
    entity_count: int
    relation_count: int
    arities: tuple[int, ...]
    dimension: int
    segment_count: int
    assignments: ArchitectureSet  # hidden ground truth
    facts_per_arity: int
    margin: float
    seed: int = 0
    sigma: float | None = None  # embedding scale; None -> 1/sqrt(dimension)
    max_draws: int = 10_000_000

    def __post_init__(self):
        if self.entity_count < 1 or self.relation_count < 1:
            raise DataError("need at least one entity and one relation")
        if self.dimension < 1 or self.segment_count < 1:
            raise DataError(
                f"dimension {self.dimension} and segment count {self.segment_count} must be >= 1"
            )
        if self.dimension % self.segment_count != 0:
            raise DataError(
                f"dimension {self.dimension} not divisible by segment count {self.segment_count}"
            )
        arities = self.arities
        if not arities or min(arities) < 2 or len(set(arities)) < len(arities):
            raise DataError(f"arities must be a non-empty set of distinct values >= 2, got {arities}")
        for n in self.arities:
            if n not in self.assignments:
                raise DataError(f"ground truth has no assignment for arity {n}")
        if self.facts_per_arity < 1:
            raise DataError("facts_per_arity must be >= 1")
        if self.max_draws < 1:
            raise DataError(f"max_draws must be >= 1, got {self.max_draws}")
        if not np.isfinite(self.margin):
            raise DataError(f"margin must be finite, got {self.margin}")
        if self.sigma is not None and not 0 < self.sigma < np.inf:
            raise DataError(f"sigma must be finite and > 0, got {self.sigma}")
        check_seed(self.seed)


@dataclass
class PlantedResult:
    dataset: Dataset
    truth: ArchitectureSet
    embeddings: SegmentedEmbeddings  # the generator's hidden embeddings


def generate_planted(spec: PlantedSpec) -> PlantedResult:
    """Sample facts whose ground-truth score clears the margin.

    Tuples are drawn uniformly and deduplicated; generation fails with a
    diagnostic if max_draws candidates cannot produce facts_per_arity
    positives for some arity. Positives split 80/10/10 per arity.
    """
    rng = np.random.default_rng(spec.seed)
    sigma = spec.sigma if spec.sigma is not None else 1.0 / np.sqrt(spec.dimension)
    embeddings = SegmentedEmbeddings(
        rng.normal(0.0, sigma, size=(spec.entity_count, spec.dimension)),
        rng.normal(0.0, sigma, size=(spec.relation_count, spec.dimension)),
        spec.segment_count,
    )
    train: list[Fact] = []
    valid: list[Fact] = []
    test: list[Fact] = []
    for n in sorted(spec.arities):
        positives = _collect_positives(spec, embeddings, n, rng)
        order = rng.permutation(len(positives))
        n_train = int(0.8 * len(positives))
        n_valid = int(0.1 * len(positives))
        train += [positives[i] for i in order[:n_train]]
        valid += [positives[i] for i in order[n_train : n_train + n_valid]]
        test += [positives[i] for i in order[n_train + n_valid :]]
    vocab = Vocabulary(
        [f"e{i}" for i in range(spec.entity_count)],
        [f"r{i}" for i in range(spec.relation_count)],
    )
    dataset = Dataset(vocab, train, valid, test)
    return PlantedResult(dataset, spec.assignments.copy(), embeddings)


def _collect_positives(
    spec: PlantedSpec, embeddings: SegmentedEmbeddings, arity: int, rng: np.random.Generator
) -> list[Fact]:
    assignment = spec.assignments[arity]
    seen: set[tuple] = set()
    positives: list[Fact] = []
    draws = 0
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
        draws += chunk
        scores = score_batch(assignment, embeddings, rel_ids, ent_ids)
        for i in np.nonzero(scores >= spec.margin)[0]:
            key = (int(rel_ids[i]),) + tuple(int(e) for e in ent_ids[i])
            if key in seen:
                continue
            seen.add(key)
            positives.append(Fact(key[0], key[1:]))
            if len(positives) == spec.facts_per_arity:
                break
    return positives


def check_nonzero_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"nonzero fraction must be in [0, 1], got {fraction}")


def random_truth(
    arities: tuple[int, ...],
    segment_count: int,
    seed: int,
    nonzero_fraction: float = 0.4,
) -> ArchitectureSet:
    """A random hidden assignment with at least one nonzero block per arity."""
    if segment_count < 1:
        raise DataError(f"segment count must be >= 1, got {segment_count}")
    check_nonzero_fraction(nonzero_fraction)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    assignments = {}
    max_arity = max(arities)
    for n in range(2, max_arity + 1):
        K = block_count(n, segment_count)
        codes = np.zeros(K, dtype=np.int8)
        active = max(1, int(round(nonzero_fraction * K)))
        chosen = rng.choice(K, size=active, replace=False)
        codes[chosen] = rng.choice([-1, 1], size=active)
        assignments[n] = CoreAssignment(n, segment_count, codes)
    return ArchitectureSet(assignments)
