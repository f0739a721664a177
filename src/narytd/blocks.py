"""Block-sparse core tensors: assignments, presets, validation, scoring.

For arity n and segment count M, the score couples the participants'
first m = min(n, M) segments through K = m**(n+1) diagonal blocks, each
carrying a code in {-1, 0, +1}. Block k corresponds to the multi-index
(j_r, j_1, ..., j_n) in row-major order with j_r slowest (0-based here;
`codes[k]` multiplies the product of the selected segments).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .data import Fact, Vocabulary, load_json_object
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
        self.codes = np.asarray(self.codes, dtype=np.int8)

    @property
    def m(self) -> int:
        return min(self.arity, self.segment_count)

    @property
    def block_total(self) -> int:
        return block_count(self.arity, self.segment_count)

    def nonzero_blocks(self) -> list[tuple[tuple[int, ...], int]]:
        m = self.m
        return [
            (kernels.decode_block(int(k), self.arity + 1, m), int(self.codes[k]))
            for k in np.nonzero(self.codes)[0]
        ]

    def op_counts(self) -> dict[int, int]:
        return {op: int(np.sum(self.codes == op)) for op in (-1, 0, 1)}

    def copy(self) -> "CoreAssignment":
        return CoreAssignment(self.arity, self.segment_count, self.codes.copy())


def validate(assignment: CoreAssignment) -> list[str]:
    """Structural violations of an assignment; empty list means ok."""
    violations: list[str] = []
    if assignment.arity < 2:
        violations.append(f"arity must be >= 2, got {assignment.arity}")
    if assignment.segment_count < 1:
        violations.append(f"segment count must be >= 1, got {assignment.segment_count}")
    if violations:
        return violations
    expected = assignment.block_total
    if assignment.codes.ndim != 1 or len(assignment.codes) != expected:
        violations.append(
            f"expected {expected} block codes for arity {assignment.arity} "
            f"with {assignment.segment_count} segments, got {len(assignment.codes)}"
        )
    bad = np.nonzero(~np.isin(assignment.codes, (-1, 0, 1)))[0]
    for k in bad:
        violations.append(f"code {int(assignment.codes[k])} at block {int(k)} not in {{-1, 0, 1}}")
    return violations


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

    def validate_all(self) -> list[str]:
        out = []
        for n in self.arities():
            out += [f"arity {n}: {v}" for v in validate(self.assignments[n])]
        return out

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
        m = assignment.m
        codes = assignment.codes
        for j in range(m):
            codes[kernels.encode_block((j,) * (arity + 1), m)] = 1
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
        assignment.codes[kernels.encode_block(index, 2)] = code
    return assignment


def preset_set(name: str, max_arity: int, segment_count: int) -> ArchitectureSet:
    return ArchitectureSet(
        {n: preset(name, n, segment_count) for n in range(2, max_arity + 1)}
    )


# ---------------------------------------------------------------------------
# scoring


def pack_participants(
    embeddings: SegmentedEmbeddings,
    relation_ids: np.ndarray,
    entity_ids: np.ndarray,
) -> np.ndarray:
    """Pack a same-arity batch into the kernel layout (B, n+1, m, ds).

    relation_ids: (B,) int; entity_ids: (B, n) int. Participant 0 is the
    relation; only the first m = min(n, M) segments are gathered. X takes
    the embeddings' dtype.
    """
    relation_ids = np.asarray(relation_ids)
    entity_ids = np.asarray(entity_ids)
    B, n = entity_ids.shape
    m = min(n, embeddings.segment_count)
    ds = embeddings.segment_length
    used = m * ds
    X = np.empty((B, n + 1, m, ds), dtype=embeddings.entity_matrix.dtype)
    X[:, 0] = embeddings.relation_matrix[relation_ids, :used].reshape(B, m, ds)
    for q in range(n):
        X[:, q + 1] = embeddings.entity_matrix[entity_ids[:, q], :used].reshape(B, m, ds)
    return X


def score_batch(
    assignment: CoreAssignment, embeddings: SegmentedEmbeddings, relation_ids, entity_ids
) -> np.ndarray:
    """Scores for a batch of same-arity facts given as id arrays."""
    entity_ids = np.asarray(entity_ids)
    if entity_ids.shape[1] != assignment.arity:
        raise DataError(
            f"arity mismatch: assignment is {assignment.arity}, facts are {entity_ids.shape[1]}"
        )
    if embeddings.segment_count != assignment.segment_count:
        raise DataError("embedding and assignment segment counts differ")
    X = pack_participants(embeddings, relation_ids, entity_ids)
    return kernels.score_batch(assignment.codes, X)


def score_fact(
    assignment: CoreAssignment, embeddings: SegmentedEmbeddings, fact: Fact
) -> float:
    """Multilinear block-sparse score of one fact."""
    return float(
        score_batch(
            assignment,
            embeddings,
            np.array([fact.relation]),
            np.array([fact.entities]),
        )[0]
    )


# ---------------------------------------------------------------------------
# exact memorization construction


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
    for k, fact in enumerate(facts):
        rel[fact.relation, k] = 1.0
        for e in fact.entities:
            ent[e, k] = 1.0
    embeddings = SegmentedEmbeddings(ent, rel, segment_count=1)
    max_arity = max(f.arity for f in facts)
    architecture = preset_set("cp", max(max_arity, 2), segment_count=1)
    return embeddings, architecture


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
    try:
        segment_count, max_arity = doc["segment_count"], doc["max_arity"]
    except KeyError as exc:
        raise DataError(f"architecture document missing field {exc}") from None
    for name, value in (("segment_count", segment_count), ("max_arity", max_arity)):
        if type(value) is not int:  # rejects bool, float and str alike
            raise DataError(f"architecture field {name!r} must be an integer, got {value!r}")
    assignments = {}
    for n in range(2, max_arity + 1):
        key = str(n)
        if key not in doc:
            raise DataError(f"architecture document missing arity {n}")
        codes = doc[key]
        if not isinstance(codes, list):
            raise DataError(f"codes for arity {n} must be a JSON array, got {codes!r}")
        for k, code in enumerate(codes):
            if type(code) is not int or code not in (-1, 0, 1):
                raise DataError(
                    f"arity {n}: code {code!r} at block {k} is not an integer in {{-1, 0, 1}}"
                )
        assignment = CoreAssignment(n, segment_count, np.array(codes, dtype=np.int8))
        problems = validate(assignment)
        if problems:
            raise DataError(f"invalid assignment for arity {n}: " + "; ".join(problems))
        assignments[n] = assignment
    return ArchitectureSet(assignments)


def save_architecture(path: str | Path, architecture: ArchitectureSet) -> None:
    Path(path).write_text(
        json.dumps(architecture_to_doc(architecture), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_architecture(path: str | Path) -> ArchitectureSet:
    return architecture_from_doc(load_json_object(path, "architecture file"))
