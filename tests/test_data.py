import dataclasses
import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narytd.data import (
    Dataset,
    Fact,
    FilterIndex,
    Vocabulary,
    build_dataset,
    build_filter_index,
    fact_groups,
    facts_to_raw,
    group_by_arity,
    holdout_split,
    load_dataset_dir,
    parse_facts,
    parse_facts_file,
    serialize_facts,
    split_stats,
    write_dataset_dir,
)
from narytd.errors import DataError, ParseError


def test_parse_three_ary_fact():
    facts = parse_facts(io.StringIO("playedCharacterIn\tLeonardNimoy\tSpock\tStarTrek1\n"))
    assert facts == [("playedCharacterIn", ("LeonardNimoy", "Spock", "StarTrek1"))]
    assert len(facts[0][1]) == 3


def test_parse_empty_file():
    assert parse_facts(io.StringIO("")) == []


def test_parse_too_few_fields():
    with pytest.raises(ParseError) as exc:
        parse_facts(io.StringIO("r\te1\n"))
    assert exc.value.line_number == 1


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\nr\ta\tb\n  # another\nr2\tc\td\te\n"
    facts = parse_facts(io.StringIO(text))
    assert [rel for rel, _ in facts] == ["r", "r2"]


def test_parse_error_reports_source_and_line():
    with pytest.raises(ParseError) as exc:
        parse_facts(io.StringIO("r\ta\tb\nbroken line\n"), source="facts.tsv")
    assert "facts.tsv:2" in str(exc.value)


def test_serialize_round_trip():
    text = "# comment\nr\ta\tb\nr2\tx\ty\tz\n"
    facts = parse_facts(io.StringIO(text))
    canonical = serialize_facts(facts)
    assert canonical == "r\ta\tb\nr2\tx\ty\tz\n"
    assert parse_facts(io.StringIO(canonical)) == facts


def raw(n, prefix="f"):
    return [(f"r{i % 3}", (f"{prefix}{i}a", f"{prefix}{i}b")) for i in range(n)]


def test_holdout_deterministic():
    facts = raw(10)
    t1, v1 = holdout_split(facts, 0.2, seed=7)
    t2, v2 = holdout_split(facts, 0.2, seed=7)
    assert len(t1) == 8 and len(v1) == 2
    assert t1 == t2 and v1 == v2
    t3, _ = holdout_split(facts, 0.2, seed=8)
    assert t3 != t1  # different seed, different carve


def test_build_dataset_holdout():
    ds = build_dataset(raw(10), valid_holdout_fraction=0.2, seed=7)
    assert len(ds.train) == 8 and len(ds.valid) == 2
    ds2 = build_dataset(raw(10), valid_holdout_fraction=0.2, seed=7)
    assert ds.train == ds2.train and ds.valid == ds2.valid
    # another seed carves other facts out of the same ids
    ds3 = build_dataset(raw(10), valid_holdout_fraction=0.2, seed=8)
    assert ds3.train != ds.train
    assert ds3.vocabulary.entity_names == ds.vocabulary.entity_names
    assert ds3.vocabulary.relation_names == ds.vocabulary.relation_names
    for d in (ds, ds3):
        assert sorted(facts_to_raw(d.train + d.valid, d.vocabulary)) == sorted(raw(10))


def test_build_dataset_rejects_negative_seed():
    # also when a given valid split leaves the seed unused
    with pytest.raises(DataError, match="seed"):
        build_dataset(raw(10), raw(2), valid_holdout_fraction=0.2, seed=-1)


def test_build_dataset_strict_rejects_unseen():
    train = [("r", ("a", "b"))]
    valid = [("r", ("a", "ghost"))]
    with pytest.raises(DataError) as exc:
        build_dataset(train, valid)
    assert "ghost" in str(exc.value)
    ds = build_dataset(train, valid, strict_vocabulary=False)
    assert ds.vocabulary.entity_count == 3
    advice = " (disable strict vocabulary mode to allow)"
    # the first ten unseen entities in sorted order, then the unseen relation
    valid = [("q", (f"u{i:02d}", "a")) for i in reversed(range(11))]
    with pytest.raises(DataError) as exc:
        build_dataset(train, valid)
    ten = [f"u{i:02d}" for i in range(10)]
    assert str(exc.value) == (
        f"valid split contains symbols unseen in train: entities {ten}, relations ['q']" + advice
    )
    with pytest.raises(DataError) as exc:
        build_dataset(train, [("r", ("b", "a"))], test=[("r", ("a", "z"))])
    assert str(exc.value) == "test split contains symbols unseen in train: entities ['z']" + advice


def test_build_dataset_ids_follow_first_occurrence():
    # names seen only in valid or test come after every train name, valid's first
    train = [("r", ("b", "a")), ("s", ("a", "c"))]
    valid = [("t", ("d", "b")), ("r", ("e", "d"))]
    test = [("u", ("f", "e")), ("t", ("g", "a"))]
    ds = build_dataset(train, valid, test, strict_vocabulary=False)
    assert ds.vocabulary.entity_names == ["b", "a", "c", "d", "e", "f", "g"]
    assert ds.vocabulary.relation_names == ["r", "s", "t", "u"]
    assert ds.train == (Fact(0, (0, 1)), Fact(1, (1, 2)))
    assert ds.valid == (Fact(2, (3, 0)), Fact(0, (4, 3)))
    assert ds.test == (Fact(3, (5, 4)), Fact(2, (6, 1)))


def test_dataset_requires_train_arity_coverage():
    train = [("r", ("a", "b"))]
    test = [("r", ("a", "b", "b"))]
    with pytest.raises(DataError):
        build_dataset(train, valid=[], test=test, strict_vocabulary=False)


def test_filter_index_groups_fillers():
    ds = build_dataset([("r", ("a", "b")), ("r", ("a", "c"))])
    index = build_filter_index(ds)
    a = ds.vocabulary.entity_names.index("a")
    b = ds.vocabulary.entity_names.index("b")
    c = ds.vocabulary.entity_names.index("c")
    r = ds.vocabulary.relation_names.index("r")
    rows, cols = index.fillers(np.array([r]), np.array([[a, b]]))
    # query p of a one-fact chunk holds position p out
    assert sorted(cols[rows == 1].tolist()) == sorted([b, c])
    assert cols[rows == 0].tolist() == [a]


def test_filter_index_singleton_dataset():
    ds = build_dataset([("r", ("a", "b", "c"))])
    index = build_filter_index(ds)
    fact = ds.train[0]
    rows, cols = index.fillers(np.array([fact.relation]), np.array([fact.entities]))
    assert rows.tolist() == [0, 1, 2] and cols.tolist() == list(fact.entities)


def test_filter_index_self_membership_random():
    rng = np.random.default_rng(11)
    names = [f"e{i}" for i in range(20)]
    rels = [f"r{i}" for i in range(4)]
    facts = []
    for _ in range(50):
        n = int(rng.integers(2, 5))
        facts.append((rels[rng.integers(4)], tuple(names[i] for i in rng.integers(20, size=n))))
    ds = build_dataset(facts)
    index = build_filter_index(ds)
    for fact in ds.all_facts():
        rows, cols = index.fillers(np.array([fact.relation]), np.array([fact.entities]))
        for p in range(fact.arity):
            assert fact.entities[p] in cols[rows == p]


# few relations and entity ids, so facts repeat and keys collide; the
# large ids would overflow any key packed into one integer
FACTS = st.lists(
    st.builds(
        Fact,
        st.sampled_from([0, 1, 2**40]),
        st.lists(st.sampled_from([0, 1, 2, 2**62]), min_size=2, max_size=4).map(tuple),
    ),
    max_size=25,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(indexed=FACTS, others=FACTS)
def test_property_fillers_match_dict_of_sets(indexed, others):
    facts = indexed + indexed[:3]  # duplicate facts index once
    known: dict[tuple, set[int]] = {}
    for f in facts:
        for p, e in enumerate(f.entities):
            known.setdefault((f.relation, p, f.entities[:p] + f.entities[p + 1 :]), set()).add(e)
    index = FilterIndex(facts)
    queries = indexed + others  # keys in the index and keys absent from it
    for n in (2, 3, 4):  # an arity may be absent from the index or the queries
        group = [f for f in queries if f.arity == n]
        rows, cols = index.fillers(
            np.array([f.relation for f in group], dtype=np.int64),
            np.array([f.entities for f in group], dtype=np.int64).reshape(len(group), n),
        )
        got = list(zip(rows.tolist(), cols.tolist()))
        want = {
            (p * len(group) + b, e)
            for p in range(n)
            for b, f in enumerate(group)
            for e in known.get((f.relation, p, f.entities[:p] + f.entities[p + 1 :]), ())
        }
        assert len(got) == len(set(got)) and set(got) == want


def test_fact_groups_by_ascending_arity_in_input_order():
    facts = [Fact(1, (0, 1, 2)), Fact(0, (3, 4)), Fact(2, (5, 6, 7)), Fact(0, (8, 9))]
    groups = fact_groups(facts)
    assert [n for n, *_ in groups] == [2, 3]
    (_, index2, rel2, ent2), (_, index3, rel3, ent3) = groups
    assert index2.tolist() == [1, 3] and rel2.tolist() == [0, 0]
    assert ent2.tolist() == [[3, 4], [8, 9]]
    assert index3.tolist() == [0, 2] and rel3.tolist() == [1, 2]
    assert ent3.tolist() == [[0, 1, 2], [5, 6, 7]]
    assert fact_groups([]) == []


def test_fact_file_not_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"r\ta\tb\nr\t\xff\tc\n")
    with pytest.raises(ParseError, match=r"bad\.tsv:2: .*UTF-8"):
        parse_facts_file(path)


def test_leading_bom_is_ignored(tmp_path):
    # a BOM used to become part of the first relation's name
    text = b"r1\ta\tb\n# comment\nr1\tb\tc\td\n"
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert parse_facts_file(marked) == parse_facts_file(plain)
    assert parse_facts_file(marked)[0] == ("r1", ("a", "b"))


def test_group_by_arity_mixed():
    facts = [Fact(0, (0, 1)), Fact(0, (1, 2)), Fact(1, (0, 1, 2, 3)), Fact(0, (2, 0))]
    groups = group_by_arity(facts)
    assert sorted(groups) == [2, 4]
    assert len(groups[2]) == 3 and len(groups[4]) == 1


def test_group_by_arity_single_and_empty():
    facts = [Fact(0, (0, 1)), Fact(0, (1, 0))]
    assert list(group_by_arity(facts)) == [2]
    assert group_by_arity([]) == {}


def test_group_by_arity_is_partition():
    rng = np.random.default_rng(3)
    facts = [
        Fact(int(rng.integers(3)), tuple(int(x) for x in rng.integers(6, size=rng.integers(2, 6))))
        for _ in range(80)
    ]
    groups = group_by_arity(facts)
    rebuilt = [f for n in groups for f in groups[n]]
    assert sorted(map(id, rebuilt)) == sorted(map(id, facts))
    position_of = {id(f): i for i, f in enumerate(facts)}
    for n, members in groups.items():
        assert all(f.arity == n for f in members)
        # order preserved within the group
        positions = [position_of[id(f)] for f in members]
        assert positions == sorted(positions)


def test_dataset_dir_round_trip(tmp_path):
    ds = build_dataset(raw(12), valid_holdout_fraction=0.25, seed=3)
    write_dataset_dir(tmp_path, ds)
    assert (tmp_path / "train.tsv").exists()
    assert (tmp_path / "valid.tsv").exists()
    # the carved holdout legitimately holds symbols absent from train
    back = load_dataset_dir(tmp_path, strict_vocabulary=False)
    assert facts_to_raw(back.train, back.vocabulary) == facts_to_raw(ds.train, ds.vocabulary)
    assert facts_to_raw(back.valid, back.vocabulary) == facts_to_raw(ds.valid, ds.vocabulary)
    # an empty split is written too, so the holdout's valid.tsv does not outlive it
    write_dataset_dir(tmp_path, build_dataset(raw(12)))
    assert (tmp_path / "valid.tsv").read_bytes() == b""
    assert load_dataset_dir(tmp_path).valid == ()


@pytest.mark.parametrize(
    "entities, relations, kind",
    [(["a", "b", "a"], ["r"], "entity"), (["a", "b"], ["r", "s", "r"], "relation")],
)
def test_vocabulary_rejects_duplicate_names(entities, relations, kind):
    with pytest.raises(DataError, match=f"duplicate {kind} names"):
        Vocabulary(entities, relations)


MIXED_VOCABULARY = Vocabulary(["a", "b", "c", "d", "e"], ["r", "s"])
MIXED_TRAIN = [Fact(0, (0, 1)), Fact(1, (1, 2, 3)), Fact(0, (2, 3)), Fact(1, (0, 1, 2, 3)),
               Fact(0, (3, 4))]
MIXED_TEST = [Fact(0, (0, 1)), Fact(1, (2, 3, 4)), Fact(1, (1, 2, 3))]


def test_split_stats_of_mixed_arities_with_empty_valid():
    assert split_stats(Dataset(MIXED_VOCABULARY, MIXED_TRAIN, [], MIXED_TEST)) == {
        "entities": 5,
        "relations": 2,
        "max_arity": 4,
        "train_overlap": 2,
        "splits": {
            "train": {"facts": 5, "per_arity": {"2": 3, "3": 1, "4": 1}},
            "valid": {"facts": 0, "per_arity": {}},
            "test": {"facts": 3, "per_arity": {"2": 1, "3": 2}},
        },
    }


def test_dataset_arities_span_every_split():
    train = [Fact(0, (0, 1, 2, 3)), Fact(0, (0, 1)), Fact(1, (1, 2, 3))]
    ds = Dataset(MIXED_VOCABULARY, train, [Fact(1, (2, 3, 4))], [Fact(0, (3, 4))])
    assert ds.arities() == [2, 3, 4] and ds.max_arity == 4
    ds = Dataset(MIXED_VOCABULARY, MIXED_TRAIN[:1], [], [])
    assert ds.arities() == [2] and ds.max_arity == 2


def test_dataset_splits_are_read_only():
    # a changed split would skip the arity checks and leave max_arity stale
    train = [Fact(0, (0, 1))]
    ds = Dataset(MIXED_VOCABULARY, train, [], [])
    train.append(Fact(0, (0, 1, 2)))  # the caller's list is not the stored split
    assert ds.train == (Fact(0, (0, 1)),)
    with pytest.raises(AttributeError):
        ds.train.append(Fact(0, (0, 1, 2)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.train = [Fact(0, (0, 1, 2))]
    assert ds.arities() == [2] and ds.max_arity == 2


def test_fact_is_slotted_frozen_hashable_and_picklable():
    # a dataset holds one Fact per fact, so a per-instance dict would cost
    # every one of them; slots must not lose equality, hashing or pickling
    fact = Fact(2, (0, 5, 1))
    assert not hasattr(fact, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        fact.relation = 3
    assert fact == Fact(2, (0, 5, 1)) and hash(fact) == hash(Fact(2, (0, 5, 1)))
    assert len({fact, Fact(2, (0, 5, 1)), Fact(2, (0, 1, 5))}) == 2
    back = pickle.loads(pickle.dumps(fact))
    assert back == fact and hash(back) == hash(fact) and back.arity == 3


def test_dataset_errors_in_order():
    with pytest.raises(DataError, match="dataset has no facts"):
        Dataset(MIXED_VOCABULARY, [], [], [])
    # no facts is checked first, then valid/test arities that train lacks
    with pytest.raises(DataError, match=r"arities \[2, 3\] appear in valid/test but not in train"):
        Dataset(MIXED_VOCABULARY, [], [], MIXED_TEST)
    with pytest.raises(DataError, match=r"arities \[3\] appear"):
        Dataset(MIXED_VOCABULARY, MIXED_TRAIN[:1], [Fact(1, (2, 3, 4))], [])


def test_split_accessor_rejects_unknown():
    ds = build_dataset(raw(4))
    with pytest.raises(DataError) as exc:
        ds.split("dev")
    assert "train" in str(exc.value)
