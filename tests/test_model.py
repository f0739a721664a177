import tracemalloc

import numpy as np
import pytest

from narytd import kernels, model
from narytd.blocks import (
    ArchitectureSet,
    CoreAssignment,
    pack_participants,
    preset_set,
    zero_assignment,
)
from narytd.data import Fact, Vocabulary, fact_groups
from narytd.embeddings import SegmentedEmbeddings, init_embeddings
from narytd.errors import DataError
from narytd.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    adam_step,
    grad_embeddings_mc,
    load_checkpoint,
    save_checkpoint,
)
from narytd.search import ArchitectureDistribution, sample_architectures

from oracles import candidate_scores, score_fact


def same_arity_ids(facts):
    """(relation ids, entity ids) of facts that share one arity."""
    [(_, _, rel_ids, ent_ids)] = fact_groups(facts)
    return rel_ids, ent_ids


def random_model(rng, n_e=5, n_r=2, d=8, M=2, arities=(2, 3)):
    emb = SegmentedEmbeddings(rng.normal(size=(n_e, d)), rng.normal(size=(n_r, d)), M)
    assignments = {
        n: CoreAssignment(n, M, rng.choice([-1, 0, 1], size=min(n, M) ** (n + 1)).astype(np.int8))
        for n in range(2, max(arities) + 1)
    }
    return emb, ArchitectureSet(assignments)


class TestInitEmbeddings:
    def test_deterministic(self):
        a = init_embeddings(2, 1, 4, 2, seed=0)
        b = init_embeddings(2, 1, 4, 2, seed=0)
        assert a.entity_matrix.dtype == a.relation_matrix.dtype == np.float32
        assert np.array_equal(a.entity_matrix, b.entity_matrix)
        assert np.array_equal(a.relation_matrix, b.relation_matrix)
        c = init_embeddings(2, 1, 4, 2, seed=1)
        assert not np.array_equal(a.entity_matrix, c.entity_matrix)

    def test_blocked_draws_match_whole_draws(self):
        # the entries are drawn into the float32 matrix in row blocks: the
        # same values as whole (n, d) float64 draws, with a traced peak below
        # one such float64 matrix
        n_e, n_r, d = 20_000, 50, 64
        tracemalloc.start()
        try:
            emb = init_embeddings(n_e, n_r, d, 2, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n_e + n_r) * d * 8
        rng = np.random.default_rng(3)
        bound = np.sqrt(6.0 / d)
        ent = rng.uniform(-bound, bound, size=(n_e, d)).astype(np.float32)
        rel = rng.uniform(-bound, bound, size=(n_r, d)).astype(np.float32)
        assert np.array_equal(emb.entity_matrix, ent)
        assert np.array_equal(emb.relation_matrix, rel)

    def test_dimension_divisibility(self):
        with pytest.raises(DataError):
            init_embeddings(2, 1, 5, 2, seed=0)

    def test_uniform_law_statistics(self):
        # 1e6 entries from U[-a, a]: the sample mean sits within 3 standard errors
        d = 100
        emb = init_embeddings(9000, 1000, d, 2, seed=42)
        entries = np.concatenate([emb.entity_matrix.ravel(), emb.relation_matrix.ravel()])
        assert entries.size == 1_000_000
        bound = np.sqrt(6.0 / d)
        assert np.abs(entries).max() <= bound
        sigma = bound / np.sqrt(3.0)
        assert abs(entries.mean()) <= 3.0 * sigma / 1000.0


class TestOneMatrix:
    """Entity and relation rows are row blocks of one copied matrix."""

    def test_layout_and_copy(self):
        ent, rel = np.arange(6.0).reshape(3, 2), np.arange(6.0, 10.0).reshape(2, 2)
        emb = SegmentedEmbeddings(ent, rel, 1)
        assert emb.matrix.shape == (5, 2) and emb.entity_count == 3 and emb.relation_count == 2
        assert np.array_equal(emb.matrix, np.concatenate([ent, rel]))
        assert np.array_equal(emb.matrix[emb.entity_count + 1], rel[1])  # relation r is row n_e + r
        # the constructor copies: the given arrays are not aliased
        emb.matrix[:] = 0.0
        assert ent[0, 1] == 1.0 and rel[0, 0] == 6.0
        # the views write through to the one matrix, and copy() shares nothing
        other = emb.copy()
        emb.entity_matrix[2] += 1.0
        emb.relation_matrix[0, 1] = 7.0
        assert emb.matrix[2].tolist() == [1.0, 1.0] and emb.matrix[3, 1] == 7.0
        assert not other.matrix.any()

    def test_entity_id_past_entity_rows_raises(self):
        # a gather over the one matrix would read relation row 0 silently
        emb = SegmentedEmbeddings(np.ones((3, 4)), np.ones((2, 4)), 2)
        with pytest.raises(IndexError):
            pack_participants(emb, np.array([0]), np.array([[0, 3]]))

    @pytest.mark.parametrize(
        "relation, entities, kind", [(-1, [0, 1], "relation"), (0, [0, -1], "entity")]
    )
    def test_negative_id_raises(self, relation, entities, kind):
        # numpy would read id -1 as the last row
        emb = SegmentedEmbeddings(np.ones((3, 4)), np.ones((2, 4)), 2)
        with pytest.raises(DataError, match=f"negative {kind} id -1"):
            pack_participants(emb, np.array([relation]), np.array([entities]))

    @pytest.mark.parametrize(
        "relations, entities",
        [([0], [0, 1]), ([0, 1], [[0, 1]]), ([0], [[0, 1], [1, 2]]), ([[0]], [[0, 1]])],
    )
    def test_ids_of_other_shapes_raise(self, relations, entities):
        # a 1-D entity array used to end in an unpacking ValueError, arrays
        # of different lengths in a reshape ValueError
        emb = SegmentedEmbeddings(np.ones((3, 4)), np.ones((2, 4)), 2)
        with pytest.raises(DataError, match="shape"):
            pack_participants(emb, np.array(relations), np.array(entities))


class TestComputeDtype:
    @pytest.mark.parametrize(
        "ent, rel, expected",
        [
            (np.float32, np.float32, np.float32),
            (np.float64, np.float64, np.float64),
            (np.float16, np.float16, np.float64),
            (np.int64, np.int64, np.float64),
            (np.float32, np.float64, np.float64),
            (np.float32, np.float16, np.float64),
        ],
    )
    def test_embeddings_keep_float32_or_float64(self, ent, rel, expected):
        emb = SegmentedEmbeddings(np.ones((3, 4), dtype=ent), np.ones((2, 4), dtype=rel), 2)
        assert emb.entity_matrix.dtype == emb.relation_matrix.dtype == expected

    def test_float32_gradient_matches_float64(self):
        rng = np.random.default_rng(13)
        emb, arch = random_model(rng, n_e=9, n_r=3, d=8, M=2, arities=(2, 3, 4))
        emb32 = SegmentedEmbeddings(
            emb.entity_matrix.astype(np.float32), emb.relation_matrix.astype(np.float32), 2
        )
        emb64 = SegmentedEmbeddings(
            emb32.entity_matrix.astype(np.float64), emb32.relation_matrix.astype(np.float64), 2
        )
        facts = [
            Fact(int(rng.integers(3)), tuple(int(x) for x in rng.integers(9, size=n)))
            for n in (2, 3, 4, 2, 3, 4, 3)
        ]
        X = pack_participants(emb32, *same_arity_ids(facts[:1]))
        assert X.dtype == kernels.context_batch(arch[2].codes, X, [1])[0].dtype == np.float32
        g32, loss32 = grad_embeddings_mc([arch], emb32, facts)
        g64, loss64 = grad_embeddings_mc([arch], emb64, facts)
        for got, want in ((g32[:9], g64[:9]), (g32[9:], g64[9:])):
            assert got.dtype == np.float32
            assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()
        assert type(loss32) is float and loss32 == pytest.approx(loss64, rel=1e-4)

    def test_adam_keeps_float32(self):
        rng = np.random.default_rng(14)
        emb = init_embeddings(5, 2, 4, 2, seed=0)
        state = AdamState.for_embeddings(emb)
        for _ in range(3):
            grads = rng.normal(size=(7, 4)).astype(np.float32)
            # a numpy float64 rate must not promote anything written in place
            adam_step(emb, grads, state, np.float64(0.05))
        for array in (emb.entity_matrix, emb.relation_matrix, state.m, state.v):
            assert array.dtype == np.float32


class TestCandidateScores:
    """The holes' contexts paired with every entity row (the sweep that training
    and ranking run in blocks) give the candidates' scores; rows hole-major:
    row p*B + b is fact b's hole p."""

    def test_true_entry_matches_score_fact(self):
        rng = np.random.default_rng(0)
        emb, arch = random_model(rng)
        facts = [Fact(1, (0, 3, 2)), Fact(0, (4, 4, 1)), Fact(1, (2, 0, 3))]
        Z = candidate_scores(arch[3], emb, pack_participants(emb, *same_arity_ids(facts)))
        assert Z.shape == (3 * len(facts), emb.entity_count)
        for p in range(3):
            for b, fact in enumerate(facts):
                assert Z[p * len(facts) + b, fact.entities[p]] == pytest.approx(
                    score_fact(arch[3], emb, fact), rel=1e-10
                )

    def test_zero_assignment_gives_zeros(self):
        rng = np.random.default_rng(1)
        emb, _ = random_model(rng)
        facts = [Fact(0, (0, 1)), Fact(1, (3, 2))]
        Z = candidate_scores(zero_assignment(2, 2), emb, pack_participants(emb, *same_arity_ids(facts)))
        assert Z.shape == (4, emb.entity_count) and np.all(Z == 0.0)

    def test_matches_per_candidate_loop(self):
        rng = np.random.default_rng(2)
        emb, arch = random_model(rng, n_e=3)
        facts = [Fact(0, (0, 2)), Fact(1, (1, 1)), Fact(0, (2, 0))]
        Z = candidate_scores(arch[2], emb, pack_participants(emb, *same_arity_ids(facts)))
        for p in range(2):
            for b, fact in enumerate(facts):
                for e in range(3):
                    entities = list(fact.entities)
                    entities[p] = e
                    slow = score_fact(arch[2], emb, Fact(fact.relation, tuple(entities)))
                    assert Z[p * len(facts) + b, e] == pytest.approx(slow, rel=1e-10, abs=1e-12)


class TestMulticlassLogLoss:
    """The summed loss grad_embeddings_mc returns for one set."""

    def test_zero_assignment_uniform_loss(self):
        rng = np.random.default_rng(4)
        emb, _ = random_model(rng, n_e=7)
        for n in (2, 3):
            arch = ArchitectureSet({k: zero_assignment(k, 2) for k in range(2, n + 1)})
            _, loss = grad_embeddings_mc([arch], emb, [Fact(0, tuple(range(n)))])
            assert loss == pytest.approx(n * np.log(7), rel=1e-12)

    def test_single_candidate_zero_loss(self):
        rng = np.random.default_rng(5)
        emb, arch = random_model(rng, n_e=1)
        assert grad_embeddings_mc([arch], emb, [Fact(0, (0, 0))])[1] == pytest.approx(0.0)

    def test_hand_computed_toy(self):
        # d=2, M=2, one +1 block at (0,0,0): score = r[0]*e1[0]*e2[0]
        emb = SegmentedEmbeddings(
            np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]), np.array([[1.0, 0.0]]), 2
        )
        assignment = zero_assignment(2, 2)
        assignment.codes[0] = 1
        fact = Fact(0, (0, 1))  # score = 1*1*2 = 2
        # position 0: candidate scores (2, 4, -2); position 1: (1, 2, -1)
        want = (
            -2.0 + np.log(np.exp(2.0) + np.exp(4.0) + np.exp(-2.0))
            - 2.0 + np.log(np.exp(1.0) + np.exp(2.0) + np.exp(-1.0))
        )
        _, got = grad_embeddings_mc([ArchitectureSet({2: assignment})], emb, [fact])
        assert got == pytest.approx(want, rel=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(6)
        emb, arch = random_model(rng)
        for _ in range(20):
            fact = Fact(int(rng.integers(2)), tuple(int(x) for x in rng.integers(5, size=2)))
            assert grad_embeddings_mc([arch], emb, [fact])[1] >= 0.0


def brute_loss(architecture, embeddings, facts):
    """Independent loss path: per-candidate score_fact loop, scalar logsumexp."""
    total = 0.0
    for fact in facts:
        assignment = architecture[fact.arity]
        for p in range(fact.arity):
            scores = []
            for e in range(embeddings.entity_count):
                entities = list(fact.entities)
                entities[p] = e
                scores.append(score_fact(assignment, embeddings, Fact(fact.relation, tuple(entities))))
            scores = np.array(scores)
            m = scores.max()
            total += m + np.log(np.exp(scores - m).sum()) - scores[fact.entities[p]]
    return total


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        emb, arch = random_model(rng, n_e=4, n_r=2, d=4, M=2)
        facts = [Fact(0, (0, 1)), Fact(1, (2, 3, 1))]
        grads, _ = grad_embeddings_mc([arch], emb, facts)
        h = 1e-5
        for mat, grad in ((emb.entity_matrix, grads[:4]), (emb.relation_matrix, grads[4:])):
            fd = np.zeros_like(mat)
            for idx in np.ndindex(*mat.shape):
                orig = mat[idx]
                mat[idx] = orig + h
                up = brute_loss(arch, emb, facts)
                mat[idx] = orig - h
                down = brute_loss(arch, emb, facts)
                mat[idx] = orig
                fd[idx] = (up - down) / (2 * h)
            rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert rel < 1e-6

    def test_loss_agrees_with_brute_force(self):
        rng = np.random.default_rng(8)
        emb, arch = random_model(rng)
        facts = [Fact(0, (0, 1)), Fact(1, (2, 3)), Fact(0, (4, 0, 1))]
        _, loss = grad_embeddings_mc([arch], emb, facts)
        assert loss == pytest.approx(brute_loss(arch, emb, facts), rel=1e-10)

    def test_zero_assignment_zero_gradient(self):
        rng = np.random.default_rng(9)
        emb, _ = random_model(rng)
        arch = ArchitectureSet({2: zero_assignment(2, 2), 3: zero_assignment(3, 2)})
        grads, loss = grad_embeddings_mc([arch], emb, [Fact(0, (0, 1)), Fact(1, (0, 1, 2))])
        assert np.all(grads == 0.0)
        assert loss == pytest.approx(2 * np.log(5) + 3 * np.log(5))

    def test_mc_with_one_hot_distribution_equals_fixed(self):
        rng = np.random.default_rng(10)
        emb, arch = random_model(rng, arities=(2,))
        facts = [Fact(0, (0, 1)), Fact(1, (2, 3))]
        K = arch[2].block_total
        theta = np.zeros((3, K))
        for k, code in enumerate(arch[2].codes):
            theta[int(code) + 1, k] = 1.0
        dist = ArchitectureDistribution({2: theta}, 2)
        sampled, _ = sample_architectures(dist, 1, np.random.default_rng(0))[0]
        mc, mc_loss = grad_embeddings_mc([sampled], emb, facts)
        fixed, fixed_loss = grad_embeddings_mc([arch], emb, facts)
        assert np.array_equal(mc, fixed)
        assert mc_loss == fixed_loss

    def test_mc_mean_over_identical_samples_is_stable(self):
        rng = np.random.default_rng(11)
        emb, arch = random_model(rng)
        facts = [Fact(0, (0, 1))]
        one, _ = grad_embeddings_mc([arch], emb, facts)
        two, _ = grad_embeddings_mc([arch, arch], emb, facts)
        assert np.array_equal(one, two)
        three, _ = grad_embeddings_mc([arch, arch, arch], emb, facts)
        assert np.array_equal(one, three)

    def test_mc_converts_the_batch_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        emb, first = random_model(rng)
        archs = [first, random_model(rng)[1], random_model(rng)[1]]
        facts = [Fact(0, (0, 1)), Fact(1, (2, 3, 4)), Fact(0, (3, 1))]
        calls = []
        monkeypatch.setattr(model, "fact_groups", lambda f: calls.append(f) or fact_groups(f))
        total, loss = grad_embeddings_mc(archs, emb, facts)
        assert len(calls) == 1
        # each set's gradient and loss are still summed apart, then added in set order
        want, want_loss = grad_embeddings_mc([archs[0]], emb, facts)
        for arch in archs[1:]:
            grads, arch_loss = grad_embeddings_mc([arch], emb, facts)
            want += grads
            want_loss += arch_loss
        want *= 1.0 / 3
        assert np.array_equal(total, want)
        assert loss == want_loss / 3

    def test_mc_computes_a_repeated_set_once(self, monkeypatch):
        rng = np.random.default_rng(15)
        emb, a = random_model(rng)
        b = random_model(rng)[1]
        facts = [Fact(0, (0, 1)), Fact(1, (2, 3, 4)), Fact(0, (3, 1))]  # two arity groups
        per_set = {key: grad_embeddings_mc([arch], emb, facts) for key, arch in (("a", a), ("b", b))}
        calls = []
        group_grad = model._grad_arity_group
        monkeypatch.setattr(
            model, "_grad_arity_group", lambda *args: calls.append(args) or group_grad(*args)
        )
        total, loss = grad_embeddings_mc([a, b, a], emb, facts)
        assert len(calls) == 4  # each distinct set once per arity group
        # the cached gradients and losses are added in sample order
        want, want_loss = per_set["a"][0].copy(), per_set["a"][1]
        for key in "ba":
            want += per_set[key][0]
            want_loss += per_set[key][1]
        want *= 1.0 / 3
        assert np.array_equal(total, want)
        assert loss == want_loss / 3


def per_hole_grad_batch(architecture, embeddings, facts):
    """Reference gradient: one softmax, candidate matmul and np.add.at
    scatter per hole position, two exp passes per softmax."""
    ent_grad = np.zeros_like(embeddings.entity_matrix)
    rel_grad = np.zeros_like(embeddings.relation_matrix)
    loss = 0.0
    for arity, _, rel_ids, ent_ids in fact_groups(facts):
        codes = architecture[arity].codes
        B, n = ent_ids.shape
        X = pack_participants(embeddings, rel_ids, ent_ids)
        m, ds = X.shape[2], X.shape[3]
        used = m * ds
        E = embeddings.entity_matrix[:, :used]
        rows = np.arange(B)
        for p in range(n):
            ctx = kernels.context_batch(codes, X, [p + 1])[0].reshape(B, used)
            Z = ctx @ E.T
            zmax = Z.max(axis=1)
            lse = zmax + np.log(np.exp(Z - zmax[:, None]).sum(axis=1))
            loss += float((lse - Z[rows, ent_ids[:, p]]).sum())
            G = np.exp(Z - lse[:, None])
            G[rows, ent_ids[:, p]] -= 1.0
            ent_grad[:, :used] += G.T @ ctx
            Xv = X.copy()
            Xv[:, p + 1] = (G @ E).reshape(B, m, ds)
            for q in range(n + 1):
                if q == p + 1:
                    continue
                ctx_q = kernels.context_batch(codes, Xv, [q])[0].reshape(B, used)
                if q == 0:
                    np.add.at(rel_grad[:, :used], rel_ids, ctx_q)
                else:
                    np.add.at(ent_grad[:, :used], ent_ids[:, q - 1], ctx_q)
    return ent_grad, rel_grad, loss


class TestStackedGradient:
    @pytest.mark.parametrize("cache_bytes", [1, 8 * 9 * 5, 1 << 20])
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_matches_per_hole_reference(self, M, cache_bytes, monkeypatch):
        # arities 2-4 give m = min(n, M): 1 for M=1, 2 for M=2, and with
        # M=3 an arity-2 group whose used columns stop short of d; the
        # softmax runs in row blocks of 1, 5 and all rows, and the hole
        # gradient, whose slices take a quarter of the budget, in slices of
        # 1 entity, of 2 entities with a short last slice (90 // (8 * 4) at
        # M=3's 4 used columns of arity 2; 1 at 6 columns, all 9 at 1) and
        # of all 9. Groups of 8, 12 and 16 rows are swept in blocks of m*ds
        # rows (1 row at d=1, otherwise 4 or 6, with short last blocks), of
        # 7 rows (63 // 9 candidates, above that floor at d=6) and whole
        monkeypatch.setattr(model, "_CACHE_BLOCK_BYTES", cache_bytes)
        rng = np.random.default_rng(20 + M)
        n_e, n_r = 9, 3
        arch = ArchitectureSet({
            n: CoreAssignment(n, M, rng.choice([-1, 0, 1], size=min(n, M) ** (n + 1)).astype(np.int8))
            for n in (2, 3, 4)
        })
        # repeated entities and relations exercise the row scatter's sums
        facts = [
            Fact(int(rng.integers(n_r)), tuple(int(x) for x in rng.integers(n_e, size=n)))
            for n in (2, 3, 4, 2, 3, 4, 4, 2, 3, 3, 2, 4)
        ]
        for d in (1, 6) if M == 1 else (6,):
            emb = SegmentedEmbeddings(rng.normal(size=(n_e, d)), rng.normal(size=(n_r, d)), M)
            ref_ent, ref_rel, ref_loss = per_hole_grad_batch(arch, emb, facts)
            for score_block in (1, 9 * 7, 1 << 20):
                monkeypatch.setattr(model, "_SCORE_BLOCK", score_block)
                grads, loss = grad_embeddings_mc([arch], emb, facts)
                np.testing.assert_allclose(grads[:n_e], ref_ent, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(grads[n_e:], ref_rel, rtol=1e-12, atol=1e-12)
                assert loss == pytest.approx(ref_loss, rel=1e-12)

    def test_float32_blocks_match_one_block(self, monkeypatch):
        # a 20k-benchmark-like step (d=128, M=2, arity 3) over 4000 entities:
        # 768 rows swept in blocks of 2**21 // 4000 = 524 rows, then in one
        rng = np.random.default_rng(24)
        n_e, n_r, B = 4000, 10, 256
        emb = SegmentedEmbeddings(
            rng.normal(scale=0.5, size=(n_e, 128)).astype(np.float32),
            rng.normal(scale=0.5, size=(n_r, 128)).astype(np.float32),
            2,
        )
        facts = [Fact(int(r), tuple(int(x) for x in e))
                 for r, e in zip(rng.integers(n_r, size=B), rng.integers(n_e, size=(B, 3)))]
        arch = preset_set("cp", 3, 2)
        blocked, blocked_loss = grad_embeddings_mc([arch], emb, facts)
        monkeypatch.setattr(model, "_SCORE_BLOCK", 3 * B * n_e)
        whole, whole_loss = grad_embeddings_mc([arch], emb, facts)
        assert blocked.dtype == np.float32
        assert np.abs(blocked - whole).max() <= 1e-6 * np.abs(whole).max()
        assert blocked_loss == pytest.approx(whole_loss, rel=1e-6)

    def test_peak_memory_flat_in_batch_size(self, monkeypatch):
        # the sweep's one score buffer holds 2**18 // 20000 = 13 rows, so a
        # 4x batch adds only its own rows; a whole (n*B, n_e) score matrix
        # would be 10 MB at B=64 and 41 MB at B=256
        monkeypatch.setattr(model, "_SCORE_BLOCK", 1 << 18)
        rng = np.random.default_rng(25)
        n_e, n_r = 20000, 5
        emb = SegmentedEmbeddings(
            rng.normal(size=(n_e, 8)).astype(np.float32),
            rng.normal(size=(n_r, 8)).astype(np.float32),
            2,
        )
        arch = preset_set("cp", 2, 2)
        facts = [Fact(int(r), tuple(int(x) for x in e))
                 for r, e in zip(rng.integers(n_r, size=256), rng.integers(n_e, size=(256, 2)))]
        peaks = []
        for batch in (facts[:64], facts):
            tracemalloc.start()
            try:
                grad_embeddings_mc([arch], emb, batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.3 * peaks[0]
        assert max(peaks) < 4 << 20

    @staticmethod
    def step_20k(rng):
        """A 20k-benchmark-like step (d=128, M=2, arity 3, B=256): embeddings, facts, set."""
        n_e, n_r, B = 20000, 10, 256
        emb = SegmentedEmbeddings(
            rng.normal(scale=0.5, size=(n_e, 128)).astype(np.float32),
            rng.normal(scale=0.5, size=(n_r, 128)).astype(np.float32),
            2,
        )
        facts = [Fact(int(r), tuple(int(x) for x in e))
                 for r, e in zip(rng.integers(n_r, size=B), rng.integers(n_e, size=(B, 3)))]
        return emb, facts, preset_set("cp", 3, 2)

    def test_peak_memory_holds_no_whole_hole_gradient_partial(self):
        # the gradient and the 128-row score buffer are 10 MB each, and the
        # hole gradient goes through one 512 KB slice buffer (1024 rows); a
        # whole-budget 2 MB buffer would exceed the bound, and a whole
        # (n_e, m*ds) partial would add another 10 MB
        emb, facts, arch = self.step_20k(np.random.default_rng(26))
        tracemalloc.start()
        try:
            grads, _ = grad_embeddings_mc([arch], emb, facts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = max(128, model._SCORE_BLOCK // emb.entity_count)
        score_buffer = rows * emb.entity_count * grads.itemsize
        assert peak < grads.nbytes + score_buffer + model._CACHE_BLOCK_BYTES // 4 + (2 << 20)

    def test_float32_hole_gradient_slices_bitwise(self, monkeypatch):
        # slicing the hole gradient by entity rows reorders no sum, so the
        # 20k-like step's float32 gradient and loss are bit-identical with
        # slices of 1024 rows and of 4096 (a 4x budget), both with a short
        # last slice of 20000 rows
        emb, facts, arch = self.step_20k(np.random.default_rng(27))
        grads, loss = grad_embeddings_mc([arch], emb, facts)
        monkeypatch.setattr(model, "_CACHE_BLOCK_BYTES", 4 * model._CACHE_BLOCK_BYTES)
        wide, wide_loss = grad_embeddings_mc([arch], emb, facts)
        assert grads.dtype == np.float32
        assert np.array_equal(grads, wide)
        assert loss == wide_loss


class TestAdam:
    @pytest.mark.parametrize("block_bytes", [1, 8 * 6 * 3, 1 << 20])
    def test_matches_out_of_place_formula_bitwise(self, block_bytes, monkeypatch):
        # row blocks of 1, 3 (a short last block) and all rows, over 7 entity
        # and 3 relation rows
        monkeypatch.setattr(model, "_ADAM_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(12)
        emb = SegmentedEmbeddings(rng.normal(size=(7, 6)), rng.normal(size=(3, 6)), 2)
        param = emb.matrix.copy()
        m, v = np.zeros_like(param), np.zeros_like(param)
        state = AdamState.for_embeddings(emb)
        lr = 0.03
        for t in range(1, 17):
            grad = rng.normal(size=(10, 6))
            adam_step(emb, grad, state, lr)
            c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            param -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        assert np.array_equal(emb.matrix, param)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_zero_gradient_keeps_parameters(self):
        emb = init_embeddings(3, 2, 4, 2, seed=0)
        before_e = emb.entity_matrix.copy()
        state = AdamState.for_embeddings(emb)
        grads = np.zeros_like(emb.matrix)
        adam_step(emb, grads, state, learning_rate=0.1)
        assert np.array_equal(emb.entity_matrix, before_e)
        assert state.step == 1

    def test_first_step_magnitude(self):
        # scalar parameter, g=1: bias correction makes |update| = lr
        emb = SegmentedEmbeddings(np.array([[0.5]]), np.array([[0.5]]), 1)
        state = AdamState.for_embeddings(emb)
        grads = np.array([[1.0], [0.0]])
        adam_step(emb, grads, state, learning_rate=0.01)
        update = emb.entity_matrix[0, 0] - 0.5
        assert update < 0
        assert abs(update) == pytest.approx(0.01, rel=1e-6)

    def test_deterministic_trajectory(self):
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        results = []
        for rng in (rng1, rng2):
            emb = init_embeddings(4, 2, 4, 2, seed=5)
            arch = preset_set("cp", 2, 2)
            state = AdamState.for_embeddings(emb)
            for _ in range(5):
                facts = [Fact(0, tuple(int(x) for x in rng.integers(4, size=2)))]
                grads, _ = grad_embeddings_mc([arch], emb, facts)
                adam_step(emb, grads, state, 0.05)
            results.append(emb.entity_matrix.copy())
        assert np.array_equal(results[0], results[1])


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        emb = init_embeddings(4, 3, 8, 2, seed=1)
        arch = preset_set("cp", 3, 2)
        vocab = Vocabulary(["a", "b", "c", "d"], ["r", "s", "t"])
        save_checkpoint(tmp_path / "ckpt", emb, arch, vocab, config={"seed": 1},
                        extra_meta={"final_valid_mrr": 0.5})
        back, arch2, meta = load_checkpoint(tmp_path / "ckpt")
        assert arch2 == arch
        assert meta["final_valid_mrr"] == 0.5
        assert meta["vocabulary_sha256"] == vocab.sha256()
        assert meta["n_e"] == 4 and meta["dimension"] == 8
        # float32 embeddings come back unchanged, as writable float32
        for got, saved in ((back.entity_matrix, emb.entity_matrix),
                           (back.relation_matrix, emb.relation_matrix)):
            assert got.dtype == np.float32 and got.flags.writeable
            assert np.array_equal(got, saved)

    def test_binary_layout_little_endian_rows(self, tmp_path):
        emb = SegmentedEmbeddings(
            np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0]]), 1
        )
        save_checkpoint(tmp_path / "c", emb, preset_set("cp", 2, 1), Vocabulary(["a", "b"], ["r"]))
        raw = (tmp_path / "c" / "entities.bin").read_bytes()
        vals = np.frombuffer(raw, dtype="<f4")
        assert vals.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_missing_meta(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path)
