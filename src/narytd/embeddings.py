"""Segmented entity/relation embeddings, stored as one parameter matrix."""

from __future__ import annotations

import numpy as np

from .errors import DataError


class SegmentedEmbeddings:
    """Entity and relation embeddings whose rows split into M equal segments.

    A fact of arity n reads only the first min(n, M) segments of each
    participating row, so low-arity facts train a shared prefix of the
    vectors while high-arity facts also reach the tail segments.

    Both kinds of row live in one (n_e + n_r, d) `matrix`, entity rows
    first, so relation r is row n_e + r; a gradient and each Adam moment
    is one array of that shape. The constructor copies its two arguments
    into it, and `entity_matrix` and `relation_matrix` are views of its
    row blocks, through which writes reach the embeddings. The matrix is
    float32 when both arguments are float32 and float64 otherwise; that
    dtype is the one training computes in.
    """

    def __init__(self, entity_matrix, relation_matrix, segment_count: int):
        ent, rel = np.asarray(entity_matrix), np.asarray(relation_matrix)
        if ent.ndim != 2 or rel.ndim != 2:
            raise DataError("embedding matrices must be 2-d")
        if ent.shape[1] != rel.shape[1]:
            raise DataError("entity and relation dimensions differ")
        dtype = np.float32 if ent.dtype == rel.dtype == np.float32 else np.float64
        self.matrix = np.concatenate([ent, rel], dtype=dtype, casting="unsafe")
        self.entity_count = len(ent)
        self.segment_count = segment_count
        if segment_count < 1 or self.dimension % segment_count != 0:
            raise DataError(
                f"dimension {self.dimension} not divisible by "
                f"segment count {segment_count}"
            )

    @property
    def entity_matrix(self) -> np.ndarray:
        return self.matrix[: self.entity_count]

    @property
    def relation_matrix(self) -> np.ndarray:
        return self.matrix[self.entity_count :]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    @property
    def relation_count(self) -> int:
        return len(self.matrix) - self.entity_count

    @property
    def segment_length(self) -> int:
        return self.dimension // self.segment_count

    def copy(self) -> "SegmentedEmbeddings":
        return SegmentedEmbeddings(self.entity_matrix, self.relation_matrix, self.segment_count)


def init_embeddings(
    entity_count: int, relation_count: int, dimension: int, segment_count: int, seed: int
) -> SegmentedEmbeddings:
    """Fresh float32 embeddings, entries i.i.d. uniform on [-sqrt(6/d), +sqrt(6/d)].

    The draws are float64 rounded to float32, so training computes in
    float32 (see SegmentedEmbeddings), whose constructor checks the shape.
    They are written straight into the matrix in row blocks of about 1 MB
    of float64, entity rows first, so no (n, d) float64 array is made;
    each entry takes one draw from the stream, so the values equal those
    of one whole entity draw followed by one whole relation draw.
    """
    zero = np.float32(0.0)
    embeddings = SegmentedEmbeddings(
        np.broadcast_to(zero, (entity_count, dimension)),
        np.broadcast_to(zero, (relation_count, dimension)),
        segment_count,
    )
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / dimension)
    matrix = embeddings.matrix
    rows = max(1, (1 << 20) // (8 * dimension))
    for r0 in range(0, len(matrix), rows):
        block = matrix[r0 : r0 + rows]
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    return embeddings
