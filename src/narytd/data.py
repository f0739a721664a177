"""N-ary fact ingestion: TSV parsing, vocabularies, splits, filter indexes.

Canonical input is one fact per line, `relation<TAB>e1<TAB>...<TAB>en`
with n >= 2, UTF-8 (a leading byte order mark is ignored), `#` starting
a comment line. A dataset directory holds `train.tsv`, `valid.tsv` and
`test.tsv`; load_dataset_dir reads them as they are, a missing or empty
file being an empty split, and write_dataset_dir writes all three.
build_dataset, called by `ingest` with no valid file, is the one place
that carves a seeded validation holdout out of train, and split_stats
counts the train facts that valid or test repeats.

An id is a position in the Vocabulary's entity_names or relation_names
list. build_dataset gives names ids in one pass, train then valid then
test, each id the next free one at the name's first occurrence. Its strict
vocabulary check is therefore an id-range test: a name is unseen in
train exactly when its id is past the ones train assigned.

fact_groups is the one conversion of facts into per-arity id arrays;
FilterIndex keeps a bytewise-sorted np.void table per arity, read by
searchsorted. Every artifact is written atomically by write_file
(write_json for JSON), and the integer fields of every JSON artifact are
read by int_fields.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import DataError, NumericError, ParseError

RawFact = tuple[str, tuple[str, ...]]


@dataclass(frozen=True, slots=True)
class Fact:
    """One n-ary fact: a relation id plus an ordered tuple of entity ids."""

    relation: int
    entities: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.entities)


class Vocabulary:
    """Entity and relation names; an id is a name's position in its list."""

    def __init__(self, entity_names: Sequence[str], relation_names: Sequence[str]):
        self.entity_names = list(entity_names)
        self.relation_names = list(relation_names)
        if len(set(self.entity_names)) != len(self.entity_names):
            raise DataError("duplicate entity names in vocabulary")
        if len(set(self.relation_names)) != len(self.relation_names):
            raise DataError("duplicate relation names in vocabulary")

    @property
    def entity_count(self) -> int:
        return len(self.entity_names)

    @property
    def relation_count(self) -> int:
        return len(self.relation_names)

    def sha256(self) -> str:
        """Hex SHA-256 of the entity names, then the relation names, in id
        order, hashed as one ASCII JSON array of the two lists, which no
        other pair of lists prints as."""
        text = json.dumps([self.entity_names, self.relation_names])
        return hashlib.sha256(text.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class Dataset:
    """Id-encoded facts in train/valid/test splits over one vocabulary.

    The splits are taken as any sequences and stored as tuples, and the
    dataset is frozen, so no split can change after the arity checks and
    max_arity and arities() always describe the stored facts.
    """

    vocabulary: Vocabulary
    train: tuple[Fact, ...]
    valid: tuple[Fact, ...]
    test: tuple[Fact, ...]
    max_arity: int = field(init=False)

    def __post_init__(self):
        for name in ("train", "valid", "test"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        train_arities = {len(f.entities) for f in self.train}
        other_arities = {len(f.entities) for split in (self.valid, self.test) for f in split}
        arities = sorted(train_arities | other_arities)
        if not arities:
            raise DataError("dataset has no facts")
        object.__setattr__(self, "_arities", arities)
        object.__setattr__(self, "max_arity", arities[-1])
        missing = other_arities - train_arities
        if missing:
            raise DataError(
                f"arities {sorted(missing)} appear in valid/test but not in train"
            )

    def split(self, name: str) -> tuple[Fact, ...]:
        if name not in ("train", "valid", "test"):
            raise DataError(f"unknown split {name!r}; expected one of train, valid, test")
        return getattr(self, name)

    def all_facts(self) -> Iterator[Fact]:
        yield from self.train
        yield from self.valid
        yield from self.test

    def arities(self) -> list[int]:
        """The arities of all three splits, ascending."""
        return list(self._arities)


class FilterIndex:
    """Known-true fillers of every (fact, hole position) query over `facts`.

    Per arity it keeps the distinct rows (hole position, relation, other
    entities, filler) of _hole_rows, sorted bytewise, so each key's
    fillers form one run; no id range or arity can overflow such a key.
    """

    def __init__(self, facts: Sequence[Fact]):
        self._rows = {}
        for n, _, relation_ids, entity_ids in fact_groups(facts):
            rows = np.sort(_hole_rows(relation_ids, entity_ids))
            self._rows[n] = rows[np.r_[True, rows[1:] != rows[:-1]]]  # each distinct row once

    def fillers(self, relation_ids: np.ndarray, entity_ids: np.ndarray) -> tuple[np.ndarray, ...]:
        """(rows, cols) of a same-arity chunk: entity cols[i] is a known filler of
        its hole-major query rows[i] (query p*B + b holds fact b's position p out)."""
        n, queries = entity_ids.shape[1], _hole_rows(relation_ids, entity_ids)
        table = self._rows.get(n, queries[:0])  # an arity the index lacks: no fillers
        filler = queries.view(np.int64)[n + 1 :: n + 2]
        filler[:] = 0  # all bytes 0x00: the key's first possible row
        lo = np.searchsorted(table, queries, side="left")
        filler[:] = -1  # all bytes 0xff: its last
        counts = np.searchsorted(table, queries, side="right") - lo
        rows = np.repeat(np.arange(len(queries)), counts)
        offset = np.repeat(lo - np.cumsum(counts) + counts, counts)  # run start less output start
        return rows, table.view(np.int64)[n + 1 :: n + 2][offset + np.arange(len(rows))]


def _hole_rows(relation_ids: np.ndarray, entity_ids: np.ndarray) -> np.ndarray:
    """Rows (hole position, relation, other entities, filler) of int64s, each
    one np.void compared bytewise; row p*B + b holds position p of fact b out."""
    B, n = entity_ids.shape
    order = [[q for q in range(n) if q != p] + [p] for p in range(n)]  # others, then the hole
    rows = np.empty((n, B, n + 2), dtype=np.int64)
    rows[:, :, 0] = np.arange(n)[:, None]
    rows[:, :, 1] = relation_ids
    rows[:, :, 2:] = entity_ids[:, order].transpose(1, 0, 2)
    return rows.reshape(n * B, n + 2).view(np.dtype((np.void, 8 * (n + 2)))).ravel()


def fact_groups(facts: Sequence[Fact]) -> list[tuple]:
    """(n, index (N,), relation ids (N,), entity ids (N, n)) per arity n, ascending,
    index[i] being row i's position in `facts`; rows keep input order. This is
    the one place where a fact list becomes id arrays."""
    arities = np.fromiter((len(f.entities) for f in facts), np.int64, len(facts))
    relations = np.fromiter((f.relation for f in facts), np.int64, len(facts))
    flat = np.fromiter(chain.from_iterable(f.entities for f in facts), np.int64, arities.sum())
    starts = np.cumsum(arities) - arities
    groups = []
    for n in sorted(set(arities.tolist())):
        index = np.flatnonzero(arities == n)
        groups.append((n, index, relations[index], flat[starts[index, None] + np.arange(n)]))
    return groups


def parse_facts(stream: TextIO, source: str | None = None) -> list[RawFact]:
    """Parse TSV fact lines into (relation name, entity names) tuples.

    Blank lines and `#` comments are skipped; anything else must have at
    least three tab-separated fields (relation plus two entities).
    """
    facts: list[RawFact] = []
    for lineno, raw in enumerate(stream, start=1):
        # errors="surrogateescape" turns each byte that is not UTF-8 into U+DC80..U+DCFF
        if not raw.isascii() and re.search("[\udc80-\udcff]", raw):
            raise ParseError("not UTF-8", line_number=lineno, source=source)
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
    # utf-8-sig drops a leading byte order mark, which would join the first relation name
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
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


def json_text(doc, indent: int | None = None) -> str:
    """json.dumps with sorted keys; a NaN or infinity raises NumericError."""
    try:
        return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"refusing to write a non-finite number: {exc}") from None


def write_json(path: str | Path, doc: dict) -> None:
    """write_file of json_text(doc, indent=2) and a final newline."""
    write_file(path, json_text(doc, indent=2) + "\n")


def serialize_facts(facts: Iterable[RawFact]) -> str:
    """Canonical TSV for raw facts; inverse of parse_facts up to comments."""
    lines = ["\t".join((rel,) + ents) for rel, ents in facts]
    return "\n".join(lines) + ("\n" if lines else "")


def facts_to_raw(facts: Iterable[Fact], vocabulary: Vocabulary) -> list[RawFact]:
    relations, entities = vocabulary.relation_names, vocabulary.entity_names
    return [(relations[f.relation], tuple(entities[e] for e in f.entities)) for f in facts]


def check_seed(seed: int) -> None:
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")


def holdout_split(facts: list, fraction: float, seed: int) -> tuple[list, list]:
    """Deterministically carve `fraction` of facts out as a validation set."""
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
    any entity or relation that never occurs in train is an error. The
    holdout fraction must be in [0, 1) and the seed >= 0 even when `valid`
    is given.
    """
    if not 0 <= valid_holdout_fraction < 1:
        raise DataError(f"holdout fraction must be in [0, 1), got {valid_holdout_fraction}")
    check_seed(seed)
    if not train:
        raise DataError("train split is empty")

    # ids ordered by first occurrence across train as given, valid, test, so
    # the holdout carved below, and its seed, leave every id unchanged
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}

    def encode(raw: Sequence[RawFact]) -> list[Fact]:
        return [
            Fact(
                relation_ids.setdefault(rel, len(relation_ids)),
                tuple(entity_ids.setdefault(e, len(entity_ids)) for e in ents),
            )
            for rel, ents in raw
        ]

    splits = {"train": encode(train)}
    n_ent, n_rel = len(entity_ids), len(relation_ids)
    for split_name, raw in (("valid", valid or []), ("test", test)):
        splits[split_name] = encode(raw)
        # names past train's ids are unseen there; a strict valid split adds none
        unseen = [
            f"{kind} {sorted(islice(ids, n, None))[:10]}"
            for kind, ids, n in (("entities", entity_ids, n_ent), ("relations", relation_ids, n_rel))
            if strict_vocabulary and len(ids) > n
        ]
        if unseen:
            raise DataError(
                f"{split_name} split contains symbols unseen in train: {', '.join(unseen)}"
                " (disable strict vocabulary mode to allow)"
            )
    if valid is None and valid_holdout_fraction > 0:  # a holdout is exempt by construction
        splits["train"], splits["valid"] = holdout_split(
            splits["train"], valid_holdout_fraction, seed
        )
    return Dataset(Vocabulary(list(entity_ids), list(relation_ids)), **splits)


def build_filter_index(dataset: Dataset) -> FilterIndex:
    """Index every (fact, position) over all three splits."""
    return FilterIndex(list(dataset.all_facts()))


def group_by_arity(facts: Iterable[Fact]) -> dict[int, list[Fact]]:
    """Partition facts by arity, ascending, preserving order within each group."""
    facts = list(facts)
    return {n: [facts[i] for i in index.tolist()] for n, index, _, _ in fact_groups(facts)}


def load_dataset_dir(directory: str | Path, strict_vocabulary: bool = True) -> Dataset:
    """The dataset in `directory`: train.tsv, and valid.tsv and test.tsv as they
    are, a missing one being an empty split. Nothing is carved or drawn here;
    a directory without valid.tsv has no validation split."""
    directory = Path(directory)
    valid, test = directory / "valid.tsv", directory / "test.tsv"
    return build_dataset(
        parse_facts_file(directory / "train.tsv"),
        parse_facts_file(valid) if valid.exists() else [],
        parse_facts_file(test) if test.exists() else [],
        strict_vocabulary=strict_vocabulary,
    )


def write_dataset_dir(directory: str | Path, dataset: Dataset) -> None:
    """Write canonical train/valid/test TSVs for a dataset, an empty split as an
    empty file, so no split of an earlier dataset in `directory` survives."""
    directory = Path(directory)
    vocab = dataset.vocabulary
    for name in ("train", "valid", "test"):
        facts = dataset.split(name)
        write_file(directory / f"{name}.tsv", serialize_facts(facts_to_raw(facts, vocab)))


def split_stats(dataset: Dataset) -> dict:
    """Entity/relation counts, per-arity fact counts per split, and
    `train_overlap`: the distinct train facts that valid or test also holds."""
    stats: dict = {
        "entities": dataset.vocabulary.entity_count,
        "relations": dataset.vocabulary.relation_count,
        "max_arity": dataset.max_arity,
        "train_overlap": len(set(dataset.train) & set(chain(dataset.valid, dataset.test))),
        "splits": {},
    }
    for name in ("train", "valid", "test"):
        facts = dataset.split(name)
        per_arity = {str(n): len(index) for n, index, _, _ in fact_groups(facts)}
        stats["splits"][name] = {"facts": len(facts), "per_arity": per_arity}
    return stats
