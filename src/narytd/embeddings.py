"""Segmented entity/relation embedding matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .kernels import compute_array


@dataclass
class SegmentedEmbeddings:
    """Entity and relation embeddings whose rows split into M equal segments.

    A fact of arity n reads only the first min(n, M) segments of each
    participating row, so low-arity facts train a shared prefix of the
    vectors while high-arity facts also reach the tail segments.

    Both matrices share one dtype, which is the dtype training computes
    in: float32 when both are given as float32, float64 otherwise.
    """

    entity_matrix: np.ndarray  # (n_e, d) float32 or float64
    relation_matrix: np.ndarray  # (n_r, d), same dtype as entity_matrix
    segment_count: int

    def __post_init__(self):
        self.entity_matrix = compute_array(self.entity_matrix)
        self.relation_matrix = compute_array(self.relation_matrix)
        if self.entity_matrix.dtype != self.relation_matrix.dtype:
            self.entity_matrix = self.entity_matrix.astype(np.float64)
            self.relation_matrix = self.relation_matrix.astype(np.float64)
        if self.entity_matrix.ndim != 2 or self.relation_matrix.ndim != 2:
            raise DataError("embedding matrices must be 2-d")
        if self.entity_matrix.shape[1] != self.relation_matrix.shape[1]:
            raise DataError("entity and relation dimensions differ")
        if self.segment_count < 1 or self.dimension % self.segment_count != 0:
            raise DataError(
                f"dimension {self.dimension} not divisible by "
                f"segment count {self.segment_count}"
            )

    @property
    def dimension(self) -> int:
        return self.entity_matrix.shape[1]

    @property
    def entity_count(self) -> int:
        return self.entity_matrix.shape[0]

    @property
    def relation_count(self) -> int:
        return self.relation_matrix.shape[0]

    @property
    def segment_length(self) -> int:
        return self.dimension // self.segment_count

    def active_width(self, arity: int) -> int:
        """Number of leading coordinates a fact of this arity reads."""
        return min(arity, self.segment_count) * self.segment_length

    def copy(self) -> "SegmentedEmbeddings":
        return SegmentedEmbeddings(
            self.entity_matrix.copy(), self.relation_matrix.copy(), self.segment_count
        )


def init_embeddings(
    entity_count: int, relation_count: int, dimension: int, segment_count: int, seed: int
) -> SegmentedEmbeddings:
    """Fresh float32 embeddings, entries i.i.d. uniform on [-sqrt(6/d), +sqrt(6/d)].

    The draws are float64 rounded to float32, so training computes in
    float32 (see SegmentedEmbeddings), whose constructor checks the shape.
    """
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / dimension)
    ent = rng.uniform(-bound, bound, size=(entity_count, dimension))
    rel = rng.uniform(-bound, bound, size=(relation_count, dimension))
    return SegmentedEmbeddings(ent.astype(np.float32), rel.astype(np.float32), segment_count)
