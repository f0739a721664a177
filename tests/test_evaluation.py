import tracemalloc

import numpy as np
import pytest

from narytd import evaluation
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
    _block_ranks,
    aggregate,
    evaluate,
    hits_at,
    mrr,
    query_ranks,
    rank_matrix,
)
from narytd.model import candidate_scores

from oracles import memorization_model, score_fact


def block_ranks(Z, truth, known, tie_policy="optimistic"):
    """_block_ranks of score rows Z, with each row's known fillers given as a set."""
    pairs = [(b, c) for b, cols in enumerate(known) for c in sorted(cols)]
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    Z = np.asarray(Z, dtype=np.float64)
    return _block_ranks(Z, np.asarray(truth), rows, cols, tie_policy).tolist()


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
            ds.vocabulary, ds.train + [corrupt], ds.valid, ds.test
        )
        new_ranks = query_ranks(emb, arch, [target], build_filter_index(augmented))
        assert all(n <= b for n, b in zip(new_ranks, base_ranks))

    @pytest.mark.parametrize("score_bytes", [1, 8 * 7 * 5, 8 * 7 * 3 * 5, 8 * 7 * 1000])
    def test_chunked_ranks_equal_brute_force(self, score_bytes, monkeypatch):
        # 7 entities and arity groups of 26 (n=2) and 34 (n=3) facts; a
        # chunk's stacked matrix takes 8 * n * 7 bytes per fact, so the
        # groups are ranked in chunks of 1 fact; of 2 and 1; of 7 and 5
        # facts, each group ending in a short chunk; and whole
        monkeypatch.setattr(evaluation, "_SCORE_BYTES", score_bytes)
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

    def test_peak_memory_flat_in_split_size(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_SCORE_BYTES", 1 << 20)
        rng = np.random.default_rng(6)
        n_e, n_r = 4000, 5
        emb = SegmentedEmbeddings(rng.normal(size=(n_e, 8)), rng.normal(size=(n_r, 8)), 2)
        arch = preset_set("cp", 2, 2)
        facts = [Fact(int(rng.integers(n_r)), tuple(int(x) for x in rng.integers(n_e, size=2)))
                 for _ in range(1000)]
        fi = build_filter_index(Dataset(Vocabulary([f"e{i}" for i in range(n_e)],
                                                   [f"r{i}" for i in range(n_r)]), facts, [], []))
        peaks = []
        for split in (facts[:100], facts):
            tracemalloc.start()
            try:
                query_ranks(emb, arch, split, fi)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one whole 1000 x 4000 score matrix alone would be 32 MB
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
    @pytest.mark.parametrize("score_bytes", [1, 8 * 7 * 3 * 5, 32 << 20])
    def test_list_equals_single_sets_stacked(self, score_bytes, monkeypatch):
        # a repeated set takes its first occurrence's ranks; chunks of 1
        # fact, of 7 and 5 facts, and whole groups
        monkeypatch.setattr(evaluation, "_SCORE_BYTES", score_bytes)
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
        monkeypatch.setattr(evaluation, "_SCORE_BYTES", 8 * 7 * 3 * 5)  # 2 chunks per group
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n_e=7, n_r=2, facts=40, arities=(2, 3))
        emb = SegmentedEmbeddings(rng.normal(size=(7, 4)), rng.normal(size=(2, 4)), 2)
        fi = build_filter_index(ds)
        calls = []
        monkeypatch.setattr(evaluation, "candidate_scores",
                            lambda *args: calls.append(args[0]) or candidate_scores(*args))
        a, b = random_architecture(rng), random_architecture(rng)
        rank_matrix(emb, [a], ds.train, fi)
        chunks = len(calls)
        assert chunks > 2  # more than one chunk per arity group
        for sets, distinct in (([a, a, a], 1), ([a, b, a], 2), ([b, a, b, a], 2)):
            calls.clear()
            rank_matrix(emb, sets, ds.train, fi)
            assert len(calls) == distinct * chunks

    def test_peak_memory_flat_in_set_count(self, monkeypatch):
        # one score matrix of at most _SCORE_BYTES is alive at a time, however
        # many sets are ranked: a second one alive would double the peak
        monkeypatch.setattr(evaluation, "_SCORE_BYTES", 1 << 20)
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
