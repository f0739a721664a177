"""Synthetic datasets planted by a hidden block assignment.

Random segmented embeddings plus a known ground-truth architecture define
a scoring rule; uniformly drawn candidate tuples that clear a margin
become the dataset's facts. Candidates are drawn a chunk at a time and
scored block by block only until each arity's quota is met; the draws,
and so every dataset, are those of scoring each chunk whole.
Search-recovery tests then check whether the architecture search can
rediscover the hidden assignment (or an equally good one) from the facts
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .blocks import ArchitectureSet, CoreAssignment, block_count, pack_participants
from .data import Dataset, Fact, Vocabulary, check_seed
from .embeddings import SegmentedEmbeddings
from .errors import DataError, GenerationError

# Candidate draws per RNG call. Another value changes the random stream and
# so every generated dataset. A chunk is scored in _block_rows blocks only
# until the quota is met; where it stops changes no draw.
_CHUNK = 8192

# Upper bound on one block of packed participants, in bytes.
_PACK_BYTES = 1 << 20


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
        if self.facts_per_arity < 1:
            raise DataError("facts_per_arity must be >= 1")
        for n in self.arities:
            if n not in self.assignments:
                raise DataError(f"ground truth has no assignment for arity {n}")
            if self.facts_per_arity > (tuples := self.relation_count * self.entity_count**n):
                raise DataError(
                    f"facts_per_arity {self.facts_per_arity} exceeds the {tuples} distinct"
                    f" arity-{n} facts of {self.relation_count} relations and"
                    f" {self.entity_count} entities"
                )
        if self.assignments.segment_count != self.segment_count:
            raise DataError(
                f"ground truth has {self.assignments.segment_count} segments,"
                f" not {self.segment_count}"
            )
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

    Tuples are drawn uniformly, _CHUNK at a time. Each chunk is packed and
    scored in blocks of _block_rows rows, whose scores equal those of one
    kernels.score_batch call over the chunk, and each block's positives
    are deduplicated in draw order; scoring stops once the arity has
    facts_per_arity of them, and the rest of the chunk, whose positives
    would go unused, is dropped unscored. Generation fails with a
    diagnostic if max_draws candidates cannot produce facts_per_arity
    positives for some arity. Positives split 80/10/10 per arity.
    """
    rng = np.random.default_rng(spec.seed)
    sigma = spec.sigma if spec.sigma is not None else 1.0 / np.sqrt(spec.dimension)
    zero = np.float64(0.0)
    embeddings = SegmentedEmbeddings(
        np.broadcast_to(zero, (spec.entity_count, spec.dimension)),
        np.broadcast_to(zero, (spec.relation_count, spec.dimension)),
        spec.segment_count,
    )
    # entity rows, then relation rows: the draws of one rng.normal(0, sigma)
    # call per block, bit for bit, with no second matrix
    rng.standard_normal(out=embeddings.matrix)
    embeddings.matrix *= sigma
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


def _block_rows(assignment: CoreAssignment, embeddings: SegmentedEmbeddings) -> int:
    """Rows of one scoring block: as many whole kernel chunks as fit in
    _PACK_BYTES of packed participants, and at least one. A chunk cut
    only at block boundaries runs the kernel's matmuls unchanged."""
    P, m, ds = assignment.arity + 1, assignment.m, embeddings.segment_length
    itemsize = embeddings.matrix.itemsize
    _, b_step = kernels.chunk_steps(itemsize, P, m, ds)
    return b_step * max(1, _PACK_BYTES // (itemsize * P * m * ds * b_step))


def _collect_positives(
    spec: PlantedSpec, embeddings: SegmentedEmbeddings, arity: int, rng: np.random.Generator
) -> list[Fact]:
    assignment = spec.assignments[arity]
    rows = _block_rows(assignment, embeddings)
    positives: dict[Fact, None] = {}  # distinct, in first-draw order
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
        for b0 in range(0, chunk, rows):
            block = slice(b0, b0 + rows)
            X = pack_participants(embeddings, rel_ids[block], ent_ids[block])
            hits = np.flatnonzero(kernels.score_batch(assignment.codes, X) >= spec.margin) + b0
            for relation, entities in zip(rel_ids[hits].tolist(), ent_ids[hits].tolist()):
                positives[Fact(relation, tuple(entities))] = None
                if len(positives) == spec.facts_per_arity:
                    return list(positives)
    return list(positives)


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
