"""N-ary fact ingestion: TSV parsing, vocabularies, splits, filter indexes.

Canonical input is one fact per line, `relation<TAB>e1<TAB>...<TAB>en`
with n >= 2, UTF-8, `#` starting a comment line. A dataset directory
holds `train.tsv`, optional `valid.tsv`, and `test.tsv`.

Every artifact is written atomically by write_file (write_json for JSON),
and the integer fields of every JSON artifact are read by int_fields.
"""

from __future__ import annotations

import json
import logging
import os
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import DataError, ParseError

logger = logging.getLogger(__name__)

RawFact = tuple[str, tuple[str, ...]]

# share of train carved out as validation when a dataset has no valid.tsv
HOLDOUT_FRACTION = 0.1


@dataclass(frozen=True)
class Fact:
    """One n-ary fact: a relation id plus an ordered tuple of entity ids."""

    relation: int
    entities: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.entities)


class Vocabulary:
    """Dense 0-based ids for entity and relation names."""

    def __init__(self, entity_names: Sequence[str], relation_names: Sequence[str]):
        self.entity_names = list(entity_names)
        self.relation_names = list(relation_names)
        self._entity_ids = {name: i for i, name in enumerate(self.entity_names)}
        self._relation_ids = {name: i for i, name in enumerate(self.relation_names)}
        if len(self._entity_ids) != len(self.entity_names):
            raise DataError("duplicate entity names in vocabulary")
        if len(self._relation_ids) != len(self.relation_names):
            raise DataError("duplicate relation names in vocabulary")

    @property
    def entity_count(self) -> int:
        return len(self.entity_names)

    @property
    def relation_count(self) -> int:
        return len(self.relation_names)

    def entity_id(self, name: str) -> int:
        try:
            return self._entity_ids[name]
        except KeyError:
            raise DataError(f"unknown entity {name!r}") from None

    def relation_id(self, name: str) -> int:
        try:
            return self._relation_ids[name]
        except KeyError:
            raise DataError(f"unknown relation {name!r}") from None

    def entity_name(self, eid: int) -> str:
        return self.entity_names[eid]

    def relation_name(self, rid: int) -> str:
        return self.relation_names[rid]


@dataclass
class Dataset:
    """Id-encoded facts in train/valid/test splits over one vocabulary."""

    vocabulary: Vocabulary
    train: list[Fact]
    valid: list[Fact]
    test: list[Fact]
    max_arity: int = field(init=False)

    def __post_init__(self):
        arities = {f.arity for split in (self.train, self.valid, self.test) for f in split}
        if not arities:
            raise DataError("dataset has no facts")
        self.max_arity = max(arities)
        train_arities = {f.arity for f in self.train}
        missing = {f.arity for f in self.valid + self.test} - train_arities
        if missing:
            raise DataError(
                f"arities {sorted(missing)} appear in valid/test but not in train"
            )

    def split(self, name: str) -> list[Fact]:
        if name not in ("train", "valid", "test"):
            raise DataError(f"unknown split {name!r}; expected one of train, valid, test")
        return getattr(self, name)

    def all_facts(self) -> Iterator[Fact]:
        yield from self.train
        yield from self.valid
        yield from self.test

    def arities(self) -> list[int]:
        return sorted({f.arity for f in self.all_facts()})


class FilterIndex:
    """Known-true fillers per (fact-with-hole, hole position).

    Keys cover train+valid+test, so ranking a test query can drop every
    corrupted candidate that is itself a known fact.
    """

    def __init__(self):
        self._index: dict[tuple, set[int]] = defaultdict(set)

    @staticmethod
    def key(relation: int, entities: Sequence[int], position: int) -> tuple:
        rest = tuple(entities[:position]) + tuple(entities[position + 1 :])
        return (relation, position, rest)

    def add(self, fact: Fact) -> None:
        for p in range(fact.arity):
            self._index[self.key(fact.relation, fact.entities, p)].add(fact.entities[p])

    def fillers(self, relation: int, entities: Sequence[int], position: int) -> frozenset[int]:
        return frozenset(self._index.get(self.key(relation, entities, position), ()))

    def __len__(self) -> int:
        return len(self._index)


def parse_facts(stream: TextIO, source: str | None = None) -> list[RawFact]:
    """Parse TSV fact lines into (relation name, entity names) tuples.

    Blank lines and `#` comments are skipped; anything else must have at
    least three tab-separated fields (relation plus two entities).
    """
    facts: list[RawFact] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise ParseError(
                f"expected relation plus >= 2 entities, got {len(fields)} field(s)",
                line_number=lineno,
                source=source,
            )
        if any(not f for f in fields):
            raise ParseError("empty field", line_number=lineno, source=source)
        facts.append((fields[0], tuple(fields[1:])))
    return facts


def require_file(path: str | Path, what: str) -> Path:
    """`path` as a Path; DataError, naming it `what`, unless it is a regular file."""
    path = Path(path)
    if not path.is_file():
        problem = "is not a regular file" if path.exists() else "not found"
        raise DataError(f"{what} {problem}: {path}")
    return path


def parse_facts_file(path: str | Path) -> list[RawFact]:
    path = require_file(path, "fact file")
    with open(path, encoding="utf-8") as fh:
        return parse_facts(fh, source=str(path))


def load_json_object(path: str | Path, what: str) -> dict:
    """The JSON object stored at `path`; `what` names the file in errors.

    A missing file, a directory, invalid JSON and a document that is not
    an object all raise DataError.
    """
    path = require_file(path, what)
    try:
        doc = json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    return doc


def int_fields(doc: Mapping, names: Sequence[str], what: str) -> tuple[int, ...]:
    """The named fields of a JSON document `what`; DataError unless each
    is present and a JSON integer (a bool, float or string is not)."""
    for name in names:
        if name not in doc:
            raise DataError(f"{what} missing field {name!r}")
        if type(doc[name]) is not int:
            raise DataError(f"{what} field {name!r} must be an integer, got {doc[name]!r}")
    return tuple(doc[name] for name in names)


def write_file(path: str | Path, data: str | bytes) -> None:
    """Replace the file at `path` by `data` (a str as UTF-8), creating its directory.

    A sibling temporary file, made by open() so it gets the umask-derived
    mode, is moved over the target by os.replace, and removed on any
    failure. No fsync: this guards against a failed process, not power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc: dict) -> None:
    """write_file of a JSON document: sorted keys, indent 2, a final newline."""
    write_file(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def serialize_facts(facts: Iterable[RawFact]) -> str:
    """Canonical TSV for raw facts; inverse of parse_facts up to comments."""
    lines = ["\t".join((rel,) + ents) for rel, ents in facts]
    return "\n".join(lines) + ("\n" if lines else "")


def facts_to_raw(facts: Iterable[Fact], vocabulary: Vocabulary) -> list[RawFact]:
    return [
        (vocabulary.relation_name(f.relation), tuple(vocabulary.entity_name(e) for e in f.entities))
        for f in facts
    ]


def holdout_split(
    facts: list[RawFact], fraction: float, seed: int
) -> tuple[list[RawFact], list[RawFact]]:
    """Deterministically carve `fraction` of facts out as a validation set."""
    if not 0 <= fraction < 1:
        raise DataError(f"holdout fraction must be in [0, 1), got {fraction}")
    n_valid = int(len(facts) * fraction)
    order = np.random.default_rng(seed).permutation(len(facts))
    valid_idx = set(order[:n_valid].tolist())
    train = [f for i, f in enumerate(facts) if i not in valid_idx]
    valid = [f for i, f in enumerate(facts) if i in valid_idx]
    return train, valid


def build_dataset(
    train: Sequence[RawFact],
    valid: Sequence[RawFact] | None = None,
    test: Sequence[RawFact] = (),
    valid_holdout_fraction: float = 0.0,
    seed: int = 0,
    strict_vocabulary: bool = True,
) -> Dataset:
    """Assemble a Dataset from raw name-level facts.

    If `valid` is None and the holdout fraction is positive, a seeded
    slice of train becomes the validation split. In strict mode (default)
    any entity or relation that never occurs in train is an error.
    """
    if not train:
        raise DataError("train split is empty")
    train = list(train)
    test = list(test)

    def symbols(raw: Sequence[RawFact]) -> tuple[set[str], set[str]]:
        rels = {rel for rel, _ in raw}
        ents = {e for _, ents in raw for e in ents}
        return rels, ents

    # strictness judges the provided splits against the full train file;
    # a holdout carved below is exempt by construction
    train_rels, train_ents = symbols(train)
    if strict_vocabulary:
        for split_name, raw in (("valid", valid or []), ("test", test)):
            rels, ents = symbols(raw)
            bad_rels = sorted(rels - train_rels)
            bad_ents = sorted(ents - train_ents)
            if bad_rels or bad_ents:
                parts = []
                if bad_ents:
                    parts.append(f"entities {bad_ents[:10]}")
                if bad_rels:
                    parts.append(f"relations {bad_rels[:10]}")
                raise DataError(
                    f"{split_name} split contains symbols unseen in train: "
                    + ", ".join(parts)
                    + " (disable strict vocabulary mode to allow)"
                )

    if valid is None and valid_holdout_fraction > 0:
        train, valid = holdout_split(train, valid_holdout_fraction, seed)
    valid = list(valid or [])

    # ids ordered by first occurrence across train, valid, test
    entity_names: list[str] = []
    relation_names: list[str] = []
    seen_e: set[str] = set()
    seen_r: set[str] = set()
    for rel, ents in train + valid + test:
        if rel not in seen_r:
            seen_r.add(rel)
            relation_names.append(rel)
        for e in ents:
            if e not in seen_e:
                seen_e.add(e)
                entity_names.append(e)
    vocab = Vocabulary(entity_names, relation_names)

    def encode(raw: Sequence[RawFact]) -> list[Fact]:
        return [
            Fact(vocab.relation_id(rel), tuple(vocab.entity_id(e) for e in ents))
            for rel, ents in raw
        ]

    ds = Dataset(vocab, encode(train), encode(valid), encode(test))
    overlap = set(map(_fact_key, ds.train)) & set(map(_fact_key, ds.valid + ds.test))
    if overlap:
        logger.warning("train overlaps valid/test on %d fact(s)", len(overlap))
    return ds


def _fact_key(fact: Fact) -> tuple:
    return (fact.relation,) + fact.entities


def build_filter_index(dataset: Dataset) -> FilterIndex:
    """Index every (fact, position) over all three splits."""
    index = FilterIndex()
    for fact in dataset.all_facts():
        index.add(fact)
    return index


def group_by_arity(facts: Iterable[Fact]) -> dict[int, list[Fact]]:
    """Partition facts by arity, preserving order within each group."""
    groups: dict[int, list[Fact]] = {}
    for fact in facts:
        groups.setdefault(fact.arity, []).append(fact)
    return groups


def load_dataset_dir(
    directory: str | Path,
    valid_holdout_fraction: float = HOLDOUT_FRACTION,
    seed: int = 0,
    strict_vocabulary: bool = True,
) -> Dataset:
    """Load train.tsv / valid.tsv (optional) / test.tsv from a directory."""
    directory = Path(directory)
    train_path = directory / "train.tsv"
    test_path = directory / "test.tsv"
    valid_path = directory / "valid.tsv"
    train = parse_facts_file(train_path)
    test = parse_facts_file(test_path) if test_path.exists() else []
    valid = parse_facts_file(valid_path) if valid_path.exists() else None
    return build_dataset(
        train,
        valid,
        test,
        valid_holdout_fraction=valid_holdout_fraction,
        seed=seed,
        strict_vocabulary=strict_vocabulary,
    )


def write_dataset_dir(directory: str | Path, dataset: Dataset) -> None:
    """Write canonical train/valid/test TSVs for a dataset."""
    directory = Path(directory)
    vocab = dataset.vocabulary
    for name in ("train", "valid", "test"):
        facts = dataset.split(name)
        if name == "valid" and not facts:
            continue
        write_file(directory / f"{name}.tsv", serialize_facts(facts_to_raw(facts, vocab)))


def split_stats(dataset: Dataset) -> dict:
    """Entity/relation counts and per-arity fact counts per split."""
    stats: dict = {
        "entities": dataset.vocabulary.entity_count,
        "relations": dataset.vocabulary.relation_count,
        "max_arity": dataset.max_arity,
        "splits": {},
    }
    for name in ("train", "valid", "test"):
        facts = dataset.split(name)
        per_arity = {str(n): len(g) for n, g in sorted(group_by_arity(facts).items())}
        stats["splits"][name] = {"facts": len(facts), "per_arity": per_arity}
    return stats
