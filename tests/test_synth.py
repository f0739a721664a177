import numpy as np
import pytest

from narytd import synth
from narytd.blocks import ArchitectureSet, score_batch, score_block_rows, zero_assignment
from narytd.data import group_by_arity
from narytd.errors import DataError, GenerationError
from narytd.synth import _CHUNK, PlantedSpec, generate_planted, random_truth
from oracles import eager_positives


def base_spec(**overrides):
    kwargs = dict(
        entity_count=25,
        relation_count=2,
        arities=(2,),
        dimension=8,
        segment_count=2,
        assignments=random_truth((2,), 2, seed=1),
        facts_per_arity=100,
        margin=1.0,
        seed=3,
        sigma=0.8,
    )
    kwargs.update(overrides)
    return PlantedSpec(**kwargs)


def reference_spec(arities=(2,), segment_count=2, **overrides):
    truth = random_truth(arities, segment_count, seed=1)
    return base_spec(arities=arities, segment_count=segment_count, assignments=truth, **overrides)


def eager_planted(spec, monkeypatch):
    """generate_planted with every chunk of draws scored whole (the
    reference), and the draws each arity consumed up to its quota."""
    consumed = {}

    def collect(spec, embeddings, arity, rng):
        positives, consumed[arity] = eager_positives(spec, embeddings, arity, rng)
        return positives

    with monkeypatch.context() as patch:
        patch.setattr(synth, "_collect_positives", collect)
        return generate_planted(spec), consumed


# at 650 facts per arity, both arities meet their quota in the second chunk of draws
QUOTA_SHAPE = dict(entity_count=200, dimension=32, arities=(2, 3), margin=5.0)


@pytest.mark.parametrize(
    "overrides",
    [
        # 30 entities: arity 2 has 1800 distinct tuples, so draws often repeat
        dict(entity_count=30, arities=(2, 3, 4, 5), facts_per_arity=40),
        dict(entity_count=30, segment_count=1, dimension=4, arities=(2, 3), facts_per_arity=40),
        dict(segment_count=4, dimension=16, arities=(4, 5), facts_per_arity=40),
        dict(QUOTA_SHAPE, facts_per_arity=800),  # arity 2 needs three chunks
        dict(QUOTA_SHAPE, facts_per_arity=650, max_draws=13_000),  # a short last chunk
    ],
    ids=["arities-2-5", "M1", "M4", "several-chunks", "short-chunk"],
)
def test_generation_matches_eager_reference(overrides, monkeypatch):
    spec = reference_spec(**overrides)
    want, _ = eager_planted(spec, monkeypatch)
    got = generate_planted(spec)
    for name in ("train", "valid", "test"):
        assert got.dataset.split(name) == want.dataset.split(name)
    assert got.truth.arities() == want.truth.arities()
    for n in got.truth.arities():
        assert np.array_equal(got.truth[n].codes, want.truth[n].codes)
    assert got.embeddings.matrix.dtype == want.embeddings.matrix.dtype
    assert np.array_equal(got.embeddings.matrix, want.embeddings.matrix)


def test_exhausted_draws_raise_the_reference_error(monkeypatch):
    spec = reference_spec(**QUOTA_SHAPE, facts_per_arity=650, max_draws=12_345)
    with pytest.raises(GenerationError) as want:
        eager_planted(spec, monkeypatch)
    with pytest.raises(GenerationError) as got:
        generate_planted(spec)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("drew 12345 arity-2 candidates but found only ")


def test_generation_stops_scoring_at_quota(monkeypatch):
    spec = reference_spec(**QUOTA_SHAPE, facts_per_arity=650)
    _, consumed = eager_planted(spec, monkeypatch)
    assert all(_CHUNK < consumed[n] < 2 * _CHUNK for n in spec.arities)
    scored = []

    def counting(assignment, embeddings, relation_ids, entity_ids):
        scored.append(len(relation_ids))
        return score_batch(assignment, embeddings, relation_ids, entity_ids)

    monkeypatch.setattr(synth, "score_batch", counting)
    result = generate_planted(spec)
    # the rows up to each quota, plus at most the rest of the block that met it
    bound = sum(
        consumed[n] + score_block_rows(spec.assignments[n], result.embeddings)
        for n in spec.arities
    )
    assert sum(scored) <= bound


def test_all_zero_truth_exhausts_draws():
    truth = ArchitectureSet({2: zero_assignment(2, 2)})
    spec = base_spec(assignments=truth, max_draws=50_000)
    with pytest.raises(GenerationError) as exc:
        generate_planted(spec)
    assert "smaller margin" in str(exc.value)


def test_margin_too_large_exhausts_draws():
    spec = base_spec(margin=1e9, max_draws=50_000)
    with pytest.raises(GenerationError):
        generate_planted(spec)


def test_deterministic_under_seed():
    a = generate_planted(base_spec())
    b = generate_planted(base_spec())
    assert a.dataset.train == b.dataset.train
    assert a.dataset.valid == b.dataset.valid
    assert a.dataset.test == b.dataset.test
    assert np.array_equal(a.embeddings.entity_matrix, b.embeddings.entity_matrix)
    c = generate_planted(base_spec(seed=4))
    assert a.dataset.train != c.dataset.train


def test_positives_rescore_above_margin():
    result = generate_planted(base_spec())
    truth = result.truth
    for split in (result.dataset.train, result.dataset.valid, result.dataset.test):
        for arity, facts in group_by_arity(split).items():
            rel = np.array([f.relation for f in facts])
            ents = np.array([f.entities for f in facts])
            scores = score_batch(truth[arity], result.embeddings, rel, ents)
            assert np.all(scores >= base_spec().margin)


def test_split_sizes_80_10_10():
    result = generate_planted(base_spec(facts_per_arity=200, entity_count=40))
    assert len(result.dataset.train) == 160
    assert len(result.dataset.valid) == 20
    assert len(result.dataset.test) == 20


def test_facts_unique_within_arity():
    result = generate_planted(base_spec(facts_per_arity=150))
    keys = [(f.relation,) + f.entities for f in result.dataset.all_facts()]
    assert len(keys) == len(set(keys))


def test_mixed_arities_covered():
    truth = random_truth((2, 3), 2, seed=2)
    result = generate_planted(
        base_spec(assignments=truth, arities=(2, 3), facts_per_arity=60, entity_count=30)
    )
    assert result.dataset.max_arity == 3
    train_arities = {f.arity for f in result.dataset.train}
    assert train_arities == {2, 3}


def test_spec_validation():
    with pytest.raises(DataError):
        base_spec(dimension=7)  # not divisible by segments
    with pytest.raises(DataError):
        base_spec(arities=(1,))
    with pytest.raises(DataError):
        base_spec(facts_per_arity=0)
    truth2 = random_truth((2,), 2, seed=0)
    with pytest.raises(DataError):
        base_spec(assignments=truth2, arities=(2, 4))  # missing arity 4 truth
    # numpy's generators raise a ValueError on a negative seed, which the CLI does not map
    with pytest.raises(DataError, match="seed"):
        base_spec(seed=-1)
    with pytest.raises(DataError, match="seed"):
        random_truth((2,), 2, seed=-1)


def test_spec_rejects_repeated_arities():
    # each listed arity is planted on its own, so a repeated one would plant
    # its facts twice and could put a fact in two splits
    truth = random_truth((2, 3), 2, seed=0)
    for arities in ((2, 2), (2, 3, 2)):
        with pytest.raises(DataError, match="distinct"):
            base_spec(assignments=truth, arities=arities)


def test_default_sigma_is_inverse_sqrt_dimension():
    # the default scale keeps entries near 1/sqrt(d); margins must then be
    # far smaller for generation to succeed
    spec = base_spec(sigma=None, margin=0.005, facts_per_arity=20)
    result = generate_planted(spec)
    std = result.embeddings.entity_matrix.std()
    assert std == pytest.approx(1.0 / np.sqrt(8), rel=0.1)


def test_random_truth_has_nonzero_blocks():
    truth = random_truth((2, 3), 4, seed=7)
    for n in (2, 3):
        assert np.any(truth[n].codes != 0)
