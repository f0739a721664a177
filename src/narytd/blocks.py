"""Block-sparse core tensors: assignments, presets, packing, file i/o.

For arity n and segment count M, the score couples the participants'
first m = min(n, M) segments through K = m**(n+1) diagonal blocks, each
carrying a code in {-1, 0, +1}. The flat code vector is the (m,)*(n+1)
core tensor in numpy's C order, `CoreAssignment.core` is that tensor as a
view, and core[j_r, j_1, ..., j_n] (0-based, j_r slowest) multiplies the
product of the selected segments.

Codes are checked once, when a CoreAssignment is constructed: a code
vector of the wrong length or with a value outside {-1, 0, +1} raises
DataError there, so every assignment that exists is well formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .data import int_fields, load_json_object, write_json
from .embeddings import SegmentedEmbeddings
from .errors import DataError

PRESET_NAMES = ("cp", "distmult", "complex", "simple")


def block_count(arity: int, segment_count: int) -> int:
    """Number of diagonal blocks, min(n, M) ** (n + 1)."""
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    if segment_count < 1:
        raise ValueError(f"segment count must be >= 1, got {segment_count}")
    m = min(arity, segment_count)
    return m ** (arity + 1)


@dataclass
class CoreAssignment:
    """One arity's block codes, a flat {-1, 0, +1} vector of length K."""

    arity: int
    segment_count: int
    codes: np.ndarray

    def __post_init__(self):
        if self.arity < 2 or self.segment_count < 1:
            raise DataError(f"need arity >= 2, segments >= 1: {self.arity}, {self.segment_count}")
        codes = np.asarray(self.codes)
        if codes.shape != (self.block_total,):
            raise DataError(
                f"expected {self.block_total} block codes for arity {self.arity} with "
                f"{self.segment_count} segments, got shape {codes.shape}"
            )
        # the values as given: the int8 cast would wrap 300 to 44 and truncate 0.5 to 0
        bad = np.flatnonzero(~((codes == -1) | (codes == 0) | (codes == 1)))
        if bad.size:
            k = int(bad[0])
            value = codes.tolist()[k]
            raise DataError(f"arity {self.arity}: code {value!r} at block {k} not in {{-1, 0, 1}}")
        self.codes = codes.astype(np.int8, copy=False)

    @property
    def m(self) -> int:
        return min(self.arity, self.segment_count)

    @property
    def block_total(self) -> int:
        return block_count(self.arity, self.segment_count)

    @property
    def core(self) -> np.ndarray:
        """The codes as the (m,) * (arity + 1) core tensor, a view: writes reach `codes`."""
        return self.codes.reshape((self.m,) * (self.arity + 1))

    def nonzero_blocks(self) -> list[tuple[tuple[int, ...], int]]:
        """(multi-index, code) of every nonzero block, in ascending flat order."""
        core = self.core
        return list(zip(map(tuple, np.argwhere(core).tolist()), core[core != 0].tolist()))

    def op_counts(self) -> dict[int, int]:
        return {op: int(np.sum(self.codes == op)) for op in (-1, 0, 1)}

    def copy(self) -> "CoreAssignment":
        return CoreAssignment(self.arity, self.segment_count, self.codes.copy())


@dataclass
class ArchitectureSet:
    """One CoreAssignment per arity 2..max_arity, sharing a segment count."""

    assignments: dict[int, CoreAssignment]
    segment_count: int = field(init=False)
    max_arity: int = field(init=False)

    def __post_init__(self):
        if not self.assignments:
            raise DataError("architecture set is empty")
        counts = {a.segment_count for a in self.assignments.values()}
        if len(counts) > 1:
            raise DataError(f"inconsistent segment counts {sorted(counts)}")
        self.segment_count = counts.pop()
        self.max_arity = max(self.assignments)
        for n in range(2, self.max_arity + 1):
            if n not in self.assignments:
                raise DataError(f"architecture set missing arity {n}")
            if self.assignments[n].arity != n:
                raise DataError(f"assignment under key {n} has arity {self.assignments[n].arity}")

    def __getitem__(self, arity: int) -> CoreAssignment:
        try:
            return self.assignments[arity]
        except KeyError:
            raise DataError(f"no block assignment for arity {arity}") from None

    def __contains__(self, arity: int) -> bool:
        return arity in self.assignments

    def arities(self) -> list[int]:
        return sorted(self.assignments)

    def copy(self) -> "ArchitectureSet":
        return ArchitectureSet({n: a.copy() for n, a in self.assignments.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArchitectureSet):
            return NotImplemented
        return (
            self.segment_count == other.segment_count
            and self.arities() == other.arities()
            and all(
                np.array_equal(self.assignments[n].codes, other.assignments[n].codes)
                for n in self.arities()
            )
        )


def zero_assignment(arity: int, segment_count: int) -> CoreAssignment:
    return CoreAssignment(arity, segment_count, np.zeros(block_count(arity, segment_count), np.int8))


def preset(name: str, arity: int, segment_count: int) -> CoreAssignment:
    """Fixed block patterns reproducing classical bilinear/multilinear models.

    cp (alias distmult): +1 exactly where all segment indices coincide.
    complex: n=2, M=2 only; segments act as real/imaginary parts.
    simple: n=2, M=2 only; segments act as head/tail roles (unit scale).
    """
    name = name.lower()
    if name not in PRESET_NAMES:
        raise DataError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    if name in ("cp", "distmult"):
        assignment = zero_assignment(arity, segment_count)
        assignment.core[(np.arange(assignment.m),) * (arity + 1)] = 1
        return assignment
    if arity != 2 or segment_count != 2:
        raise DataError(f"preset {name!r} requires arity 2 and 2 segments")
    assignment = zero_assignment(2, 2)
    if name == "complex":
        # Re<r, h, conj(t)> with segment 0 real, segment 1 imaginary
        entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): -1}
    else:  # simple
        entries = {(0, 0, 1): 1, (1, 1, 0): 1}
    for index, code in entries.items():
        assignment.core[index] = code
    return assignment


def preset_set(name: str, max_arity: int, segment_count: int) -> ArchitectureSet:
    return ArchitectureSet(
        {n: preset(name, n, segment_count) for n in range(2, max_arity + 1)}
    )


# ---------------------------------------------------------------------------
# packing


def pack_participants(
    embeddings: SegmentedEmbeddings,
    relation_ids: np.ndarray,
    entity_ids: np.ndarray,
) -> np.ndarray:
    """Pack a same-arity batch into the kernel layout (B, n+1, m, ds).

    relation_ids: (B,) int; entity_ids: (B, n) int. Participant 0 is the
    relation; only the first m = min(n, M) segments are gathered. X takes
    the embeddings' dtype. Rows are gathered through the entity_matrix and
    relation_matrix views, so an entity id past the entity rows raises
    IndexError instead of reading a relation row. Ids of other shapes and
    negative ids raise DataError; a negative id would read a row from the end.
    """
    relation_ids = np.asarray(relation_ids)
    entity_ids = np.asarray(entity_ids)
    if entity_ids.ndim != 2 or relation_ids.shape != entity_ids.shape[:1]:
        raise DataError(
            f"need relation ids of shape (B,) and entity ids of shape (B, n),"
            f" got {relation_ids.shape} and {entity_ids.shape}"
        )
    for kind, ids in (("relation", relation_ids), ("entity", entity_ids)):
        if ids.size and ids.min() < 0:
            raise DataError(f"negative {kind} id {ids.min()}")
    B, n = entity_ids.shape
    m = min(n, embeddings.segment_count)
    ds = embeddings.segment_length
    used = m * ds
    X = np.empty((B, n + 1, m, ds), dtype=embeddings.matrix.dtype)
    X[:, 0] = embeddings.relation_matrix[relation_ids, :used].reshape(B, m, ds)
    for q in range(n):
        X[:, q + 1] = embeddings.entity_matrix[entity_ids[:, q], :used].reshape(B, m, ds)
    return X


# ---------------------------------------------------------------------------
# architecture file i/o


def architecture_to_doc(architecture: ArchitectureSet) -> dict:
    """JSON document: arity keys -> flat code arrays, plus shape fields."""
    doc: dict = {
        "segment_count": architecture.segment_count,
        "max_arity": architecture.max_arity,
    }
    for n in architecture.arities():
        doc[str(n)] = [int(c) for c in architecture.assignments[n].codes]
    return doc


def architecture_from_doc(doc: Mapping) -> ArchitectureSet:
    """Architecture set of a JSON document; malformed shapes or codes raise DataError."""
    segment_count, max_arity = int_fields(doc, ("segment_count", "max_arity"), "architecture")
    assignments = {}
    for n in range(2, max_arity + 1):
        key = str(n)
        if key not in doc:
            raise DataError(f"architecture document missing arity {n}")
        codes = doc[key]
        if not isinstance(codes, list):
            raise DataError(f"codes for arity {n} must be a JSON array, got {codes!r}")
        for k, code in enumerate(codes):
            if type(code) is not int:  # rejects bool and float, which numpy would take
                raise DataError(f"arity {n}: code {code!r} at block {k} is not a JSON integer")
        assignments[n] = CoreAssignment(n, segment_count, codes)
    return ArchitectureSet(assignments)


def save_architecture(path: str | Path, architecture: ArchitectureSet) -> None:
    write_json(path, architecture_to_doc(architecture))


def load_architecture(path: str | Path) -> ArchitectureSet:
    return architecture_from_doc(load_json_object(path, "architecture file"))
