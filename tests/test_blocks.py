import tracemalloc

import numpy as np
import pytest

from narytd import blocks, kernels
from narytd.blocks import (
    ArchitectureSet,
    CoreAssignment,
    architecture_from_doc,
    architecture_to_doc,
    block_count,
    load_architecture,
    preset,
    preset_set,
    save_architecture,
    score_batch,
    zero_assignment,
)
from narytd.data import Fact, Vocabulary, build_dataset
from narytd.embeddings import SegmentedEmbeddings
from narytd.errors import DataError

from oracles import memorization_model, score_fact


def toy_embeddings():
    # d=2, two segments of length 1: r=[1,2], e0=[3,4], e1=[5,6]
    return SegmentedEmbeddings(
        np.array([[3.0, 4.0], [5.0, 6.0]]), np.array([[1.0, 2.0]]), segment_count=2
    )


class TestBlockCount:
    def test_values(self):
        assert block_count(3, 4) == 81
        assert block_count(4, 4) == 1024
        assert block_count(2, 3) == 8
        assert block_count(2, 1) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            block_count(1, 4)
        with pytest.raises(ValueError):
            block_count(3, 0)


class TestScoreFact:
    def test_diagonal_pair_of_blocks(self):
        emb = toy_embeddings()
        assert score_fact(preset("cp", 2, 2), emb, Fact(0, (0, 1))) == pytest.approx(63.0)

    def test_single_negative_block(self):
        emb = toy_embeddings()
        assignment = zero_assignment(2, 2)
        assignment.core[0, 1, 0] = -1
        assert score_fact(assignment, emb, Fact(0, (0, 1))) == pytest.approx(-20.0)

    def test_all_zero_assignment(self):
        emb = toy_embeddings()
        assert score_fact(zero_assignment(2, 2), emb, Fact(0, (0, 1))) == 0.0

    def test_arity_mismatch(self):
        emb = toy_embeddings()
        with pytest.raises(DataError):
            score_fact(preset("cp", 3, 2), emb, Fact(0, (0, 1)))

    def test_linear_in_each_participant(self):
        rng = np.random.default_rng(0)
        emb = SegmentedEmbeddings(rng.normal(size=(4, 8)), rng.normal(size=(2, 8)), 2)
        assignment = CoreAssignment(3, 2, rng.choice([-1, 0, 1], size=16).astype(np.int8))
        fact = Fact(1, (0, 2, 3))
        base = score_fact(assignment, emb, fact)
        for alpha in (0.0, 0.5, 3.0):
            scaled = emb.copy()
            scaled.entity_matrix[2] *= alpha
            assert score_fact(assignment, scaled, fact) == pytest.approx(alpha * base)


def random_scoring_case(arity, segments, dimension, dtype, rows, seed=0):
    """(assignment, embeddings, relation ids, entity ids) with random codes and rows."""
    rng = np.random.default_rng(seed)
    emb = SegmentedEmbeddings(
        rng.normal(size=(40, dimension)).astype(dtype),
        rng.normal(size=(5, dimension)).astype(dtype),
        segments,
    )
    K = block_count(arity, segments)
    assignment = CoreAssignment(arity, segments, rng.choice([-1, 0, 1], size=K).astype(np.int8))
    return assignment, emb, rng.integers(0, 5, size=rows), rng.integers(0, 40, size=(rows, arity))


class TestBoundedScoreBatch:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("segments", [1, 2, 3, 4])
    @pytest.mark.parametrize("arity", [2, 3, 4, 5])
    @pytest.mark.parametrize("chunk_bytes, pack_bytes", [(None, 20_000), (4096, 16384)])
    def test_blocks_equal_one_kernel_call(
        self, monkeypatch, chunk_bytes, pack_bytes, arity, segments, dtype
    ):
        # 400 rows in blocks of at most pack_bytes, at the kernel's own chunk
        # sizes (where a block cut between chunk boundaries changes the last
        # bits of some scores) and at small ones (many blocks for every
        # shape); each block but the last is whole kernel chunks, and the
        # scores equal one kernel call over all rows bit for bit
        if chunk_bytes:
            monkeypatch.setattr(kernels, "_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(blocks, "_PACK_BYTES", pack_bytes)
        sizes = []
        pack = blocks.pack_participants
        monkeypatch.setattr(
            blocks, "pack_participants", lambda e, r, ids: sizes.append(len(ids)) or pack(e, r, ids)
        )
        for dimension in (12, 24, 48):
            assignment, emb, rel, ent = random_scoring_case(arity, segments, dimension, dtype, 400)
            sizes.clear()
            got = score_batch(assignment, emb, rel, ent)
            m, itemsize = min(arity, segments), np.dtype(dtype).itemsize
            _, b_step = kernels.chunk_steps(itemsize, arity + 1, m, dimension // segments)
            assert sum(sizes) == 400
            assert all(size % b_step == 0 for size in sizes[:-1])
            if chunk_bytes:
                assert len(sizes) >= 3
            want = kernels.score_batch(assignment.codes, pack(emb, rel, ent))
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    def test_traced_peak_is_bounded(self):
        # 8192 arity-3 rows at d=128 pack to 34 MB of float64 in one piece
        assignment, emb, rel, ent = random_scoring_case(3, 2, 128, np.float64, 8192)
        tracemalloc.start()
        try:
            score_batch(assignment, emb, rel, ent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_rows(self, dtype):
        assignment, emb, _, _ = random_scoring_case(3, 2, 8, dtype, 0)
        scores = score_batch(assignment, emb, np.empty(0, np.int64), np.empty((0, 3), np.int64))
        assert scores.shape == (0,) and scores.dtype == dtype

    @pytest.mark.parametrize("relations", [2, 6])  # 6 = 2 * 3: divides the row count evenly
    def test_id_arrays_of_different_lengths(self, relations):
        assignment, emb, _, ent = random_scoring_case(2, 2, 8, np.float64, 3)
        with pytest.raises(DataError, match="relation ids"):
            score_batch(assignment, emb, np.zeros(relations, np.int64), ent)

    def test_one_dimensional_entity_ids(self):
        with pytest.raises(DataError, match=r"shape \(rows, 2\), got \(2,\)"):
            score_batch(preset("cp", 2, 2), toy_embeddings(), np.array([0]), np.array([0, 1]))


class TestPresets:
    def test_cp_nonzeros_on_diagonal(self):
        assignment = preset("cp", 3, 2)
        nz = assignment.nonzero_blocks()
        assert nz == [((0, 0, 0, 0), 1), ((1, 1, 1, 1), 1)]

    def test_distmult_alias(self):
        assert np.array_equal(preset("distmult", 3, 4).codes, preset("cp", 3, 4).codes)

    def test_complex_matches_complex_arithmetic(self):
        rng = np.random.default_rng(1)
        assignment = preset("complex", 2, 2)
        for _ in range(100):
            emb = SegmentedEmbeddings(rng.normal(size=(3, 4)), rng.normal(size=(1, 4)), 2)
            got = score_fact(assignment, emb, Fact(0, (1, 2)))
            as_c = lambda v: v[:2] + 1j * v[2:]
            r, h, t = as_c(emb.relation_matrix[0]), as_c(emb.entity_matrix[1]), as_c(emb.entity_matrix[2])
            want = float(np.real(np.sum(r * h * np.conj(t))))
            assert got == pytest.approx(want, rel=1e-6)

    def test_simple_two_term_oracle(self):
        rng = np.random.default_rng(2)
        assignment = preset("simple", 2, 2)
        for _ in range(100):
            emb = SegmentedEmbeddings(rng.normal(size=(3, 6)), rng.normal(size=(1, 6)), 2)
            got = score_fact(assignment, emb, Fact(0, (0, 2)))
            r, h, t = emb.relation_matrix[0], emb.entity_matrix[0], emb.entity_matrix[2]
            want = float(np.sum(r[:3] * h[:3] * t[3:]) + np.sum(r[3:] * h[3:] * t[:3]))
            assert got == pytest.approx(want, rel=1e-9)

    def test_restricted_presets_reject_other_shapes(self):
        for name in ("complex", "simple"):
            with pytest.raises(DataError):
                preset(name, 3, 2)
            with pytest.raises(DataError):
                preset(name, 2, 4)

    def test_unknown_preset(self):
        with pytest.raises(DataError):
            preset("tucker", 2, 2)


def direct_inner_product(emb, fact, arity):
    used = min(arity, emb.segment_count) * emb.segment_length
    prod = emb.relation_matrix[fact.relation, :used].copy()
    for e in fact.entities:
        prod *= emb.entity_matrix[e, :used]
    return float(prod.sum())


class TestDiagonalEquivalence:
    def test_cp_preset_equals_prefix_inner_product(self):
        # the diagonal pattern reproduces the plain multilinear product over
        # the arity-active prefix of the embeddings (the whole vector when
        # the arity reaches the segment count)
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            for M in (1, 2, 4):
                d = 8
                assignment = preset("cp", n, M)
                for _ in range(20):
                    emb = SegmentedEmbeddings(
                        rng.normal(size=(n + 1, d)), rng.normal(size=(1, d)), M
                    )
                    fact = Fact(0, tuple(range(n)))
                    got = score_fact(assignment, emb, fact)
                    want = direct_inner_product(emb, fact, n)
                    assert got == pytest.approx(want, rel=1e-10)


class TestMemorizationModel:
    def test_single_fact(self):
        ds = build_dataset([("r0", ("e0", "e1"))], strict_vocabulary=False)
        # add a never-used entity to the vocabulary
        vocab = Vocabulary(["e0", "e1", "e2"], ["r0"])
        facts = [Fact(0, (0, 1))]
        emb, arch = memorization_model(facts, vocab)
        assert emb.dimension == 1
        assert score_fact(arch[2], emb, facts[0]) == pytest.approx(1.0)
        assert score_fact(arch[2], emb, Fact(0, (0, 2))) == 0.0
        assert score_fact(arch[2], emb, Fact(0, (2, 2))) == 0.0

    def test_two_disjoint_facts_brute_force(self):
        vocab = Vocabulary(["a", "b", "c", "d"], ["r0", "r1"])
        facts = [Fact(0, (0, 1)), Fact(1, (2, 3))]
        emb, arch = memorization_model(facts, vocab)
        assert emb.dimension == 2
        fact_symbol_sets = [({f.relation}, set(f.entities)) for f in facts]
        for r in range(2):
            for e1 in range(4):
                for e2 in range(4):
                    got = score_fact(arch[2], emb, Fact(r, (e1, e2)))
                    # nonzero only when relation and entities all come from one fact
                    member = any(
                        r in rs and {e1, e2} <= es for rs, es in fact_symbol_sets
                    )
                    if member:
                        assert got >= 1.0
                    else:
                        assert got == 0.0
        for fact in facts:
            assert score_fact(arch[fact.arity], emb, fact) == pytest.approx(1.0)

    def test_empty_fact_set(self):
        with pytest.raises(DataError):
            memorization_model([], Vocabulary(["a"], ["r"]))


class TestValidate:
    """CoreAssignment checks its codes when it is constructed."""

    def test_ok(self):
        assignment = CoreAssignment(2, 2, np.array([1, 0, -1, 0, 0, 1, 0, 0]))
        assert assignment.codes.dtype == np.int8
        assert assignment.codes.tolist() == [1, 0, -1, 0, 0, 1, 0, 0]

    def test_wrong_length_names_expected(self):
        with pytest.raises(DataError, match="expected 8 block codes") as exc:
            CoreAssignment(2, 2, np.zeros(7, np.int8))
        assert "(7,)" in str(exc.value)

    def test_domain_violation_reports_index(self):
        codes = np.zeros(8, np.int8)
        codes[5] = 2
        with pytest.raises(DataError, match="code 2 at block 5"):
            CoreAssignment(2, 2, codes)

    @pytest.mark.parametrize("value", [300, 0.5, -1.5, np.nan])
    def test_value_checked_before_int8_cast(self, value):
        # an int8 cast would wrap 300 to 44 and truncate 0.5 to 0
        codes = [0] * 8
        codes[3] = value
        with pytest.raises(DataError, match="at block 3") as exc:
            CoreAssignment(2, 2, codes)
        assert f"code {value!r} " in str(exc.value)

    @pytest.mark.parametrize("arity, segments", [(1, 2), (2, 0)])
    def test_shape_preconditions(self, arity, segments):
        with pytest.raises(DataError, match="need arity >= 2"):
            CoreAssignment(arity, segments, np.zeros(1, np.int8))


class TestArchitectureSet:
    def test_requires_contiguous_arities(self):
        with pytest.raises(DataError):
            ArchitectureSet({2: preset("cp", 2, 2), 4: preset("cp", 4, 2)})

    def test_consistent_segment_count(self):
        with pytest.raises(DataError):
            ArchitectureSet({2: preset("cp", 2, 2), 3: preset("cp", 3, 4)})

    def test_file_round_trip(self, tmp_path):
        arch = preset_set("cp", 4, 2)
        arch.assignments[3].codes[5] = -1
        path = tmp_path / "arch.json"
        save_architecture(path, arch)
        back = load_architecture(path)
        assert back == arch

    def test_doc_layout(self):
        doc = architecture_to_doc(preset_set("cp", 3, 2))
        assert doc["segment_count"] == 2 and doc["max_arity"] == 3
        assert set(doc) == {"segment_count", "max_arity", "2", "3"}
        assert len(doc["3"]) == 16

    def test_doc_rejects_bad_codes(self):
        doc = architecture_to_doc(preset_set("cp", 2, 2))
        doc["2"][0] = 5
        with pytest.raises(DataError):
            architecture_from_doc(doc)
