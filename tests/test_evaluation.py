import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narytd import evaluation, model
from narytd.blocks import (
    ArchitectureSet,
    CoreAssignment,
    pack_participants,
    preset_set,
    zero_assignment,
)
from narytd.data import (
    Dataset,
    Fact,
    Vocabulary,
    build_dataset,
    build_filter_index,
)
from narytd.embeddings import SegmentedEmbeddings
from narytd.errors import DataError
from narytd.evaluation import (
    _entity_bound,
    _tile_ranks,
    aggregate,
    evaluate,
    hits_at,
    mrr,
    query_ranks,
    rank_matrix,
)
from oracles import candidate_scores, filtered_ranks, memorization_model, score_fact


def tile_ranks(C, E, truth, fillers=(), tie_policy="optimistic"):
    """_tile_ranks of the contexts C against the entity rows E, fillers as (row, col) pairs."""
    rows, cols = np.array(list(fillers), dtype=np.int64).reshape(-1, 2).T
    beats = np.greater_equal if tie_policy == "pessimistic" else np.greater
    return _tile_ranks(np.asarray(C, dtype=np.float64), E, _entity_bound(E), np.asarray(truth),
                       rows, cols, beats).tolist()


def block_ranks(Z, truth, known, tie_policy="optimistic"):
    """_tile_ranks of score rows Z, with each row's known fillers given as a set.

    The rows of Z are the contexts and the entity rows an identity, so the
    tiles hold exactly Z's scores."""
    fillers = [(b, c) for b, cols in enumerate(known) for c in sorted(cols)]
    return tile_ranks(Z, np.eye(len(Z[0])), truth, fillers, tie_policy)


class TestFilteredRank:
    def test_top_candidate(self):
        assert block_ranks([[3.0, 2.0, 1.0]], [0], [{0}]) == [1]

    def test_filter_removes_strictly_better(self):
        assert block_ranks([[3.0, 2.0, 1.0]], [2], [{0, 2}]) == [2]

    def test_all_ties_optimistic(self):
        # five queries of one block, each row's truth at its own column
        assert block_ranks(np.zeros((5, 5)), range(5), [{t} for t in range(5)]) == [1] * 5

    def test_all_ties_pessimistic(self):
        assert block_ranks(np.zeros((1, 5)), [2], [{2}], tie_policy="pessimistic") == [5]

    def test_truth_never_filtered(self):
        assert block_ranks([[1.0, 5.0, 2.0]], [1], [{0, 1, 2}]) == [1]

    def test_bad_policy(self):
        fact = Fact(0, (0, 1))
        fi = build_filter_index(Dataset(Vocabulary(["a", "b", "c"], ["r"]), [fact], [], []))
        emb = SegmentedEmbeddings(np.zeros((3, 2)), np.zeros((1, 2)), 1)
        with pytest.raises(DataError):
            rank_matrix(emb, [preset_set("cp", 2, 1)], [fact], fi, tie_policy="hopeful")


class TestAggregates:
    def test_mrr_values(self):
        assert mrr([1, 2, 4]) == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert mrr([1, 1, 1]) == 1.0
        assert mrr([10]) == pytest.approx(0.1)

    def test_hits_values(self):
        assert hits_at([1, 2, 4], 3) == pytest.approx(2 / 3)
        assert hits_at([1, 2, 4], 1) == pytest.approx(1 / 3)
        assert hits_at([1, 2, 4, 10], 10) == 1.0

    def test_empty_inputs_error(self):
        with pytest.raises(DataError):
            mrr([])
        with pytest.raises(DataError):
            hits_at([], 3)

    def test_monotone_hits(self):
        rng = np.random.default_rng(0)
        ranks = rng.integers(1, 30, size=100).tolist()
        metrics = aggregate(ranks)
        assert metrics.hits[1] <= metrics.hits[3] <= metrics.hits[10]
        assert metrics.hits[1] <= metrics.mrr <= 1.0
        assert metrics.count == 100


def random_dataset(rng, n_e=12, n_r=3, facts=25, arities=(2, 3)):
    names = [f"e{i}" for i in range(n_e)]
    rels = [f"r{i}" for i in range(n_r)]
    raw = []
    seen = set()
    while len(raw) < facts:
        n = int(rng.choice(arities))
        fact = (rels[rng.integers(n_r)], tuple(names[i] for i in rng.integers(n_e, size=n)))
        if fact not in seen:
            seen.add(fact)
            raw.append(fact)
    split = max(1, facts // 5)
    return build_dataset(raw[: -2 * split], raw[-2 * split : -split], raw[-split:],
                         strict_vocabulary=False)


def brute_force_ranks(embeddings, architecture, facts, filter_index, tie_policy="optimistic"):
    """Reference ranks via a per-candidate score_fact loop and explicit counting."""
    ranks = []
    for fact in facts:
        assignment = architecture[fact.arity]
        for p in range(fact.arity):
            scores = np.empty(embeddings.entity_count)
            for e in range(embeddings.entity_count):
                entities = list(fact.entities)
                entities[p] = e
                scores[e] = score_fact(assignment, embeddings, Fact(fact.relation, tuple(entities)))
            rows, cols = filter_index.fillers(np.array([fact.relation]), np.array([fact.entities]))
            known = set(cols[rows == p].tolist())  # query p holds position p out
            truth = fact.entities[p]
            rank = 1
            for e in range(embeddings.entity_count):
                if e == truth or e in known:
                    continue
                if scores[e] > scores[truth]:
                    rank += 1
                elif tie_policy == "pessimistic" and scores[e] == scores[truth]:
                    rank += 1
            ranks.append(rank)
    return ranks


class TestEvaluate:
    def test_memorization_model_perfect_metrics(self):
        vocab = Vocabulary([f"e{i}" for i in range(6)], ["r0", "r1"])
        facts = [Fact(0, (0, 1)), Fact(1, (2, 3, 4))]
        emb, arch = memorization_model(facts, vocab)
        ds = Dataset(vocab, facts, [], [Fact(0, (0, 1)), Fact(1, (2, 3, 4))])
        metrics = evaluate(emb, arch, ds, "test")
        assert metrics.mrr == 1.0
        assert metrics.hits == {1: 1.0, 3: 1.0, 10: 1.0}
        assert metrics.count == 5

    def test_zero_architecture_matches_brute_force(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng)
        arch = ArchitectureSet({2: zero_assignment(2, 2), 3: zero_assignment(3, 2)})
        emb = SegmentedEmbeddings(
            rng.normal(size=(ds.vocabulary.entity_count, 8)),
            rng.normal(size=(ds.vocabulary.relation_count, 8)),
            2,
        )
        fi = build_filter_index(ds)
        fast = query_ranks(emb, arch, ds.test, fi)
        slow = brute_force_ranks(emb, arch, ds.test, fi)
        assert fast == slow
        # under uniform zero scores every surviving candidate ties: optimistic rank 1
        assert all(r == 1 for r in fast)

    def test_fast_ranks_equal_brute_force_random(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            ds = random_dataset(rng, n_e=10, facts=18)
            emb = SegmentedEmbeddings(
                rng.normal(size=(ds.vocabulary.entity_count, 4)),
                rng.normal(size=(ds.vocabulary.relation_count, 4)),
                2,
            )
            arch = ArchitectureSet(
                {
                    n: CoreAssignment(n, 2, rng.choice([-1, 0, 1], size=min(n, 2) ** (n + 1)).astype(np.int8))
                    for n in (2, 3)
                }
            )
            fi = build_filter_index(ds)
            for policy in ("optimistic", "pessimistic"):
                fast = query_ranks(emb, arch, ds.test, fi, policy)
                slow = brute_force_ranks(emb, arch, ds.test, fi, policy)
                assert fast == slow

    def test_adding_known_true_candidate_never_worsens_rank(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n_e=10, facts=20, arities=(2,))
        emb = SegmentedEmbeddings(
            rng.normal(size=(10, 4)), rng.normal(size=(ds.vocabulary.relation_count, 4)), 2
        )
        arch = preset_set("cp", 2, 2)
        fi = build_filter_index(ds)
        target = ds.test[0]
        base_ranks = query_ranks(emb, arch, [target], fi)
        # corrupt position 0 with the highest-scoring other entity, declare it known-true
        X = pack_participants(emb, [target.relation], [target.entities])
        scores = candidate_scores(arch[2], emb, X)[0]  # row 0: hole 0 of the one fact
        rival = int(np.argmax(np.where(np.arange(10) == target.entities[0], -np.inf, scores)))
        corrupt = Fact(target.relation, (rival,) + target.entities[1:])
        augmented = Dataset(
            ds.vocabulary, [*ds.train, corrupt], ds.valid, ds.test
        )
        new_ranks = query_ranks(emb, arch, [target], build_filter_index(augmented))
        assert all(n <= b for n, b in zip(new_ranks, base_ranks))

    @pytest.mark.parametrize("cache_bytes", [1, 8 * 7 * 5, 8 * 7 * 3 * 5, 8 * 7 * 1000])
    def test_chunked_ranks_equal_brute_force(self, cache_bytes, monkeypatch):
        # 7 entities and arity groups of 26 (n=2) and 34 (n=3) facts; a
        # chunk's contexts take n * 4 float64 values per fact, so the groups
        # are ranked in chunks of 1 fact; of 4 and 2 facts, the first group
        # ending in a short chunk; of 13 and 8, the second ending in one; and
        # whole. The tiles are 1 x 1; 5 x 5, the last entity slice partial;
        # and 7 x 7 for the other two
        monkeypatch.setattr(model, "_CACHE_BLOCK_BYTES", cache_bytes)
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_e=7, n_r=2, facts=60, arities=(2, 3))
        # small integer embeddings: exact scores, so ties occur and count
        emb = SegmentedEmbeddings(
            rng.integers(-1, 2, size=(ds.vocabulary.entity_count, 4)).astype(np.float64),
            rng.integers(-1, 2, size=(ds.vocabulary.relation_count, 4)).astype(np.float64),
            2,
        )
        arch = preset_set("cp", 3, 2)
        fi = build_filter_index(ds)
        test = ds.test + ds.valid + ds.train  # more queries, some with several fillers
        # each query's own answer is one of its fillers, so a fact with more
        # fillers than positions has a query with several
        assert any(len(fi.fillers(np.array([f.relation]), np.array([f.entities]))[1]) > f.arity
                   for f in test)
        ranks = {}
        for policy in ("optimistic", "pessimistic"):
            ranks[policy] = query_ranks(emb, arch, test, fi, policy)
            assert ranks[policy] == brute_force_ranks(emb, arch, test, fi, policy)
        assert any(o < p for o, p in zip(ranks["optimistic"], ranks["pessimistic"]))

    @pytest.mark.parametrize("values", ["normal", "integer"])
    def test_float32_embeddings_rank_as_float64(self, values):
        # the same values held as float32 and as float64 rank identically;
        # integer values make ties, which the two policies rank differently
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n_e=9, facts=40)
        n_e, n_r = ds.vocabulary.entity_count, ds.vocabulary.relation_count
        if values == "normal":
            ent, rel = rng.normal(size=(n_e, 4)), rng.normal(size=(n_r, 4))
        else:
            ent, rel = rng.integers(-1, 2, size=(n_e, 4)), rng.integers(-1, 2, size=(n_r, 4))
        emb32 = SegmentedEmbeddings(ent.astype(np.float32), rel.astype(np.float32), 2)
        emb64 = SegmentedEmbeddings(
            emb32.entity_matrix.astype(np.float64), emb32.relation_matrix.astype(np.float64), 2
        )
        arch = ArchitectureSet({
            n: CoreAssignment(n, 2, rng.choice([-1, 0, 1], size=min(n, 2) ** (n + 1)).astype(np.int8))
            for n in (2, 3)
        })
        fi = build_filter_index(ds)
        facts = ds.train + ds.valid + ds.test
        for policy in ("optimistic", "pessimistic"):
            assert query_ranks(emb32, arch, facts, fi, policy) == query_ranks(
                emb64, arch, facts, fi, policy
            )

    def test_float32_embeddings_are_ranked_in_float64(self):
        # at position 1 the truth (entity 1) scores 1 + 2**-24 and entity 2
        # scores 1: distinct in float64, tied once rounded to float32
        ent = np.array([[1.0, 2.0**-24], [1.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        emb = SegmentedEmbeddings(ent, np.ones((1, 2), dtype=np.float32), 1)
        fact = Fact(0, (0, 1))
        fi = build_filter_index(Dataset(Vocabulary(["a", "b", "c"], ["r"]), [fact], [], []))
        ranks = query_ranks(emb, preset_set("cp", 2, 1), [fact], fi, "pessimistic")
        assert ranks == [2, 1]

    def test_peak_memory_flat_in_split_size(self):
        # 128 used float64 columns: a chunk's 2 MB of contexts holds 1024
        # arity-2 facts, so the two splits take one whole chunk and three
        rng = np.random.default_rng(6)
        n_e, n_r = 4000, 5
        emb = SegmentedEmbeddings(rng.normal(size=(n_e, 128)), rng.normal(size=(n_r, 128)), 2)
        arch = preset_set("cp", 2, 2)
        facts = [Fact(int(rng.integers(n_r)), tuple(int(x) for x in rng.integers(n_e, size=2)))
                 for _ in range(3072)]
        fi = build_filter_index(Dataset(Vocabulary([f"e{i}" for i in range(n_e)],
                                                   [f"r{i}" for i in range(n_r)]), facts, [], []))
        peaks = []
        for split in (facts[:1024], facts):
            tracemalloc.start()
            try:
                query_ranks(emb, arch, split, fi)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one whole 6144 x 4000 score matrix alone would be 197 MB
        assert peaks[1] < 1.5 * peaks[0]

    def test_empty_split_errors(self):
        ds = build_dataset([("r", ("a", "b"))])
        with pytest.raises(DataError):
            evaluate(None, None, ds, "test")

    def test_missing_arity_assignment(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, arities=(2, 3))
        arch = ArchitectureSet({2: zero_assignment(2, 2)})
        emb = SegmentedEmbeddings(
            rng.normal(size=(ds.vocabulary.entity_count, 4)),
            rng.normal(size=(ds.vocabulary.relation_count, 4)),
            2,
        )
        with pytest.raises(DataError):
            evaluate(emb, arch, ds, "test")


def random_architecture(rng, arities=(2, 3), segment_count=2):
    return ArchitectureSet({
        n: CoreAssignment(
            n, segment_count, rng.choice([-1, 0, 1], size=min(n, segment_count) ** (n + 1))
        )
        for n in arities
    })


class TestRankMatrix:
    @pytest.mark.parametrize("cache_bytes", [1, 8 * 7 * 3 * 5, 32 << 20])
    def test_list_equals_single_sets_stacked(self, cache_bytes, monkeypatch):
        # a repeated set takes its first occurrence's ranks; chunks of 1
        # fact, of 13 and 8 facts, and whole groups
        monkeypatch.setattr(model, "_CACHE_BLOCK_BYTES", cache_bytes)
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n_e=7, n_r=2, facts=60, arities=(2, 3))
        emb = SegmentedEmbeddings(
            rng.integers(-1, 2, size=(ds.vocabulary.entity_count, 4)).astype(np.float64),
            rng.integers(-1, 2, size=(ds.vocabulary.relation_count, 4)).astype(np.float64),
            2,
        )
        a, b = random_architecture(rng), random_architecture(rng)
        fi = build_filter_index(ds)
        facts = ds.test + ds.valid + ds.train
        for policy in ("optimistic", "pessimistic"):
            got = rank_matrix(emb, [a, b, a.copy()], facts, fi, policy)
            want = np.stack([rank_matrix(emb, [s], facts, fi, policy)[0] for s in (a, b, a)])
            assert got.dtype == np.int64 and got.shape == (3, len(facts), 3)
            assert np.array_equal(got, want)
            assert query_ranks(emb, b, facts, fi, policy) == want[1][want[1] > 0].tolist()

    def test_equal_sets_scored_once_per_chunk(self, monkeypatch):
        # chunks of 7 (n=2) and 5 (n=3) facts: 2 or more per group
        monkeypatch.setattr(model, "_CACHE_BLOCK_BYTES", 8 * 4 * 3 * 5)
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n_e=7, n_r=2, facts=40, arities=(2, 3))
        emb = SegmentedEmbeddings(rng.normal(size=(7, 4)), rng.normal(size=(2, 4)), 2)
        fi = build_filter_index(ds)
        calls = []
        fillers = []
        context_batch = evaluation.context_batch
        monkeypatch.setattr(evaluation, "context_batch",
                            lambda *args: calls.append(args[0]) or context_batch(*args))
        lookup = type(fi).fillers
        monkeypatch.setattr(type(fi), "fillers",
                            lambda self, *args: fillers.append(args) or lookup(self, *args))
        a, b = random_architecture(rng), random_architecture(rng)
        rank_matrix(emb, [a], ds.train, fi)
        chunks = len(calls)
        assert chunks > 2  # more than one chunk per arity group
        for sets, distinct in (([a, a, a], 1), ([a, b, a], 2), ([b, a, b, a], 2)):
            calls.clear()
            fillers.clear()
            rank_matrix(emb, sets, ds.train, fi)
            # each distinct set's contexts once per chunk, one filler lookup per chunk
            assert len(calls) == distinct * chunks
            assert len(fillers) == chunks

    def test_ranks_do_not_depend_on_chunk_size(self, monkeypatch):
        # 300 facts per arity over 4000 entities and 8 used columns: 2**14
        # bytes make chunks of 128 and 85 facts and tiles 45 wide, 2**17
        # whole groups and tiles 128 wide, 2**21 tiles 512 wide
        rng = np.random.default_rng(11)
        n_e, n_r = 4000, 5
        emb = SegmentedEmbeddings(rng.normal(size=(n_e, 8)), rng.normal(size=(n_r, 8)), 2)
        facts = [Fact(int(rng.integers(n_r)), tuple(int(x) for x in rng.integers(n_e, size=n)))
                 for n in (2, 3) for _ in range(300)]
        fi = build_filter_index(Dataset(Vocabulary([f"e{i}" for i in range(n_e)],
                                                   [f"r{i}" for i in range(n_r)]), facts, [], []))
        sets = [random_architecture(rng), random_architecture(rng)]
        ranks = []
        for cache_bytes in (1 << 14, 1 << 17, 1 << 21):
            monkeypatch.setattr(model, "_CACHE_BLOCK_BYTES", cache_bytes)
            ranks.append(rank_matrix(emb, sets, facts, fi))
        assert np.array_equal(ranks[0], ranks[1]) and np.array_equal(ranks[1], ranks[2])

    def test_peak_memory_flat_in_set_count(self, monkeypatch):
        # one set's contexts and tiles of at most _CACHE_BLOCK_BYTES are alive
        # at a time, however many sets are ranked: a second set's alive would
        # double the peak
        monkeypatch.setattr(model, "_CACHE_BLOCK_BYTES", 1 << 17)
        rng = np.random.default_rng(10)
        n_e, n_r = 4000, 5
        emb = SegmentedEmbeddings(rng.normal(size=(n_e, 8)), rng.normal(size=(n_r, 8)), 2)
        facts = [Fact(int(rng.integers(n_r)), tuple(int(x) for x in rng.integers(n_e, size=2)))
                 for _ in range(200)]
        fi = build_filter_index(Dataset(Vocabulary([f"e{i}" for i in range(n_e)],
                                                   [f"r{i}" for i in range(n_r)]), facts, [], []))
        sets = [random_architecture(rng, arities=(2,)) for _ in range(4)]
        peaks = []
        for lam in (1, 4):
            tracemalloc.start()
            try:
                rank_matrix(emb, sets[:lam], facts, fi)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.3 * peaks[0]
        assert max(peaks) < 1.5 * (1 << 20)


class TestTiles:
    # 11 entities and 8 used columns per arity: the default budget ranks in one
    # 11-wide tile, 512 bytes in 8-wide tiles (the last entity slice holds 3),
    # 384 bytes in 6-wide ones (the last holds 5), 256 bytes in 4-wide slices,
    # narrower than the used columns, and 8 bytes in 1-entity slices and 1-row
    # tiles, one fact per chunk. Float32 rows are swept as stored, float64
    # rows as float32 copies
    @pytest.mark.parametrize("cache_bytes, dtype", [
        pytest.param(cache_bytes, dtype, id=name + suffix)
        for dtype, suffix in ((np.float64, ""), (np.float32, "-float32"))
        for cache_bytes, name in ((2 << 20, "one-tile"), (512, "partial-slice"), (384, "6-wide"),
                                  (256, "narrow-slice"), (8, "1x1"))
    ])
    def test_duplicate_rows_tie_exactly(self, cache_bytes, dtype, monkeypatch):
        # entity rows copied from 4 distinct ones: every truth ties with the
        # copies of its row, and each copy must score the truth's score exactly
        monkeypatch.setattr(model, "_CACHE_BLOCK_BYTES", cache_bytes)
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, n_e=11, n_r=2, facts=30, arities=(2, 3))
        base = rng.normal(size=(4, 8)).astype(dtype)
        emb = SegmentedEmbeddings(base[rng.integers(4, size=11)],
                                  rng.normal(size=(2, 8)).astype(dtype), 2)
        arch = random_architecture(rng)
        fi = build_filter_index(ds)
        facts = ds.test + ds.valid + ds.train
        ranks = {}
        for policy in ("optimistic", "pessimistic"):
            ranks[policy] = query_ranks(emb, arch, facts, fi, policy)
            assert ranks[policy] == brute_force_ranks(emb, arch, facts, fi, policy)
        assert any(o < p for o, p in zip(ranks["optimistic"], ranks["pessimistic"]))

    def test_rank_memory_flat_in_vocabulary(self):
        # the same 500 facts ranked over 10k and over 40k float32 entity rows
        # (d=64): the tiles are 512 wide either way, so the traced peak may
        # differ by little; a float64 copy of the entity rows alone would
        # grow it by 15.4 MB
        rng = np.random.default_rng(13)
        facts = [Fact(int(rng.integers(5)), tuple(int(x) for x in rng.integers(10_000, size=2)))
                 for _ in range(500)]
        arch = preset_set("cp", 2, 2)
        peaks = []
        for n_e in (10_000, 40_000):
            emb = SegmentedEmbeddings(rng.normal(size=(n_e, 64)).astype(np.float32),
                                      rng.normal(size=(5, 64)).astype(np.float32), 2)
            fi = build_filter_index(Dataset(Vocabulary([f"e{i}" for i in range(n_e)],
                                                       [f"r{i}" for i in range(5)]), facts, [], []))
            tracemalloc.start()
            try:
                rank_matrix(emb, [arch], facts, fi)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + (1 << 20)

    def test_filler_past_the_entity_rows_raises(self):
        # the index knows entity 3, the embeddings hold 3 entity rows; a tile
        # sweep would read a padded column, or none, for its score
        vocab = Vocabulary(["a", "b", "c", "d"], ["r"])
        fi = build_filter_index(Dataset(vocab, [Fact(0, (0, 1)), Fact(0, (3, 1))], [], []))
        emb = SegmentedEmbeddings(np.ones((3, 2)), np.ones((1, 2)), 1)
        with pytest.raises(DataError, match="outside the entity rows"):
            query_ranks(emb, preset_set("cp", 2, 1), [Fact(0, (0, 1))], fi)

    def test_band_memory_flat_in_ties(self):
        # 2,000 copies of one entity row among 10k, every fact's entities
        # drawn from them: each query's truth ties with about 2,000
        # candidates, all in its float32 band and settled by float64 dots in
        # bounded blocks, so the traced peak may exceed the no-tie case's
        # by as little as the vocabulary test allows
        rng = np.random.default_rng(14)
        n_e = 10_000
        facts = [Fact(int(rng.integers(5)), tuple(int(x) for x in rng.integers(2000, size=2)))
                 for _ in range(500)]
        fi = build_filter_index(Dataset(Vocabulary([f"e{i}" for i in range(n_e)],
                                                   [f"r{i}" for i in range(5)]), facts, [], []))
        arch = preset_set("cp", 2, 2)
        ent = rng.normal(size=(n_e, 64)).astype(np.float32)
        rel = rng.normal(size=(5, 64)).astype(np.float32)
        peaks, ranks = [], []
        for ties in (False, True):
            if ties:
                ent[:2000] = ent[0]
            emb = SegmentedEmbeddings(ent, rel, 2)
            tracemalloc.start()
            try:
                ranks.append(rank_matrix(emb, [arch, arch.copy()], facts, fi, "pessimistic")[0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # pessimistic ties: every copy that is not a known filler beats the truth
        assert ranks[1].min() > 1900
        assert peaks[1] < peaks[0] + (1 << 20)


def near_tie_case(dtype):
    """Contexts and entity rows whose float32 scores tie with the truth's.

    Context row m * (1, 2**-53, 0.75, -0.5) scores entity row (1, k, 0, 0)
    m * (1 + k * 2**-53) in float64: for k = -2, -1, 0, 2, 4 that is 2 or
    1 ulps below the truth's (k = 0, entity 0), level with it, or 1 or 2
    ulps above; in float32 all five round alike. Twelve random rows
    score far from them.
    """
    rng = np.random.default_rng(15)
    near = np.array([[1.0, k, 0.0, 0.0] for k in (0, -2, -1, 0, 2, 4)])
    E = np.vstack([near, 3 * rng.normal(size=(12, 4))]).astype(dtype)
    m = np.array([1.0, -1.0, 2.0**-30, 2.0**40, -(2.0**-70)])
    C = m[:, None] * np.array([1.0, 2.0**-53, 0.75, -0.5])
    fillers = [(0, 4), (1, 2), (2, 3), (3, 0)]  # (2, 3) ties; (3, 0) is the truth
    return C, E, np.zeros(len(C), dtype=np.int64), fillers


class TestScreen:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_near_ties_are_settled_in_float64(self, dtype):
        C, E, truth, fillers = near_tie_case(dtype)
        s = (C[0] * E[:6].astype(np.float64)).sum(axis=1)
        assert list(np.sign(s - s[0])) == [0, -1, -1, 0, 1, 1]
        z = C[0].astype(np.float32) @ E[:6].astype(np.float32).T
        assert np.all(z == z[0])
        got = {}
        for policy in ("optimistic", "pessimistic"):
            got[policy] = tile_ranks(C, E, truth, fillers, policy)
            assert got[policy] == filtered_ranks(C, E, truth, *zip(*fillers), policy)
        assert got["optimistic"] != got["pessimistic"]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("c_scale", [1e-30, 1e30])
    @pytest.mark.parametrize("e_scale", [1e-30, 1e30])
    def test_extreme_magnitudes(self, e_scale, c_scale, dtype):
        # scores of 1e-60 underflow in float32 and scores of 1e60 overflow
        # it; the power-of-two scaling keeps both screenable, near ties too
        C, E, truth, fillers = near_tie_case(np.float64)
        rng = np.random.default_rng(16)
        C = np.vstack([C, rng.normal(size=(20, 4))]) * c_scale
        truth = np.concatenate([truth, rng.integers(len(E), size=20)])
        E = (E * e_scale).astype(dtype)
        for policy in ("optimistic", "pessimistic"):
            assert tile_ranks(C, E, truth, fillers, policy) == filtered_ranks(
                C, E, truth, *zip(*fillers), policy)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_property_screened_ranks_equal_brute_force(data):
    # small integer entity rows, some nudged by 2**-30 (lost in float32),
    # contexts of a few bits plus noise, zero rows, scales of 2**+-100 and
    # tiles of every width: the float64 count decides every rank
    R, n_e, used = (data.draw(st.integers(1, hi)) for hi in (12, 30, 9))
    c_exp, e_exp = (data.draw(st.integers(-100, 100)) for _ in range(2))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    policy = data.draw(st.sampled_from(["optimistic", "pessimistic"]))
    cache_bytes = data.draw(st.sampled_from([8, 96, 384, 2 << 20]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    E = rng.integers(-2, 3, size=(n_e, used)) + rng.choice([0.0, 2.0**-30, -(2.0**-30)],
                                                           size=(n_e, used))
    E = np.ldexp(E, e_exp).astype(dtype)
    C = rng.integers(-3, 4, size=(R, used)) + rng.choice([0.0, 1.0], size=(R, 1)) * rng.normal(
        scale=2.0**-40, size=(R, used))
    C = np.ldexp(C * rng.choice([0.0, 1.0, 1.0], size=(R, 1)), c_exp)
    truth = rng.integers(n_e, size=R)
    fillers = {(int(r), int(e)) for r, e in zip(rng.integers(R, size=R), rng.integers(n_e, size=R))}
    with mock.patch.object(model, "_CACHE_BLOCK_BYTES", cache_bytes):
        got = tile_ranks(C, E, truth, sorted(fillers), policy)
    assert got == filtered_ranks(C, E, truth, [r for r, _ in fillers], [e for _, e in fillers],
                                 policy)
