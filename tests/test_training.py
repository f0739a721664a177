import numpy as np
import pytest

from narytd.blocks import ArchitectureSet, preset_set, zero_assignment
from narytd.data import Dataset, Fact, Vocabulary, build_filter_index
from narytd.embeddings import init_embeddings
from narytd.errors import DataError
from narytd.evaluation import evaluate
from narytd.synth import PlantedSpec, generate_planted, random_truth
from narytd.training import TrainConfig, train_fixed


def tiny_dataset(rng, n_e=8, n_r=2, facts=30):
    pool = set()
    while len(pool) < facts:
        pool.add((int(rng.integers(n_r)), tuple(int(x) for x in rng.integers(n_e, size=2))))
    facts_list = [Fact(r, ents) for r, ents in sorted(pool)]
    vocab = Vocabulary([f"e{i}" for i in range(n_e)], [f"r{i}" for i in range(n_r)])
    k = facts // 5
    return Dataset(vocab, facts_list[: -2 * k], facts_list[-2 * k : -k], facts_list[-k:])


def test_zero_learning_rate_keeps_embeddings():
    rng = np.random.default_rng(0)
    ds = tiny_dataset(rng)
    config = TrainConfig(dimension=4, segment_count=2, learning_rate=0.0, max_epochs=1,
                         batch_size=8, seed=3, eval_every=0)
    baseline = init_embeddings(8, 2, 4, 2, seed=3)
    result = train_fixed(preset_set("cp", 2, 2), ds, config)
    assert len(result.history) == 1
    assert np.array_equal(result.embeddings.entity_matrix, baseline.entity_matrix)
    assert np.array_equal(result.embeddings.relation_matrix, baseline.relation_matrix)


def test_zero_epochs_returns_initial_model():
    rng = np.random.default_rng(1)
    ds = tiny_dataset(rng)
    config = TrainConfig(dimension=4, segment_count=2, max_epochs=0, seed=9)
    result = train_fixed(preset_set("cp", 2, 2), ds, config)
    baseline = init_embeddings(8, 2, 4, 2, seed=9)
    assert result.history == []
    assert np.array_equal(result.embeddings.entity_matrix, baseline.entity_matrix)


def test_training_reduces_planted_loss():
    truth = random_truth((2,), 2, seed=4)
    spec = PlantedSpec(20, 2, (2,), 8, 2, truth, 120, 1.0, seed=4, sigma=0.8)
    ds = generate_planted(spec).dataset
    config = TrainConfig(dimension=8, segment_count=2, learning_rate=0.05, decay_rate=0.99,
                         batch_size=32, max_epochs=50, seed=0, eval_every=0)
    result = train_fixed(preset_set("cp", 2, 2), ds, config)
    assert result.history[-1].mean_loss < result.history[0].mean_loss


def test_deterministic_given_seed():
    rng = np.random.default_rng(2)
    ds = tiny_dataset(rng)
    config = TrainConfig(dimension=4, segment_count=2, learning_rate=0.05, max_epochs=3,
                         batch_size=8, seed=11, eval_every=0)
    a = train_fixed(preset_set("cp", 2, 2), ds, config)
    b = train_fixed(preset_set("cp", 2, 2), ds, config)
    assert np.array_equal(a.embeddings.entity_matrix, b.embeddings.entity_matrix)
    assert [r.mean_loss for r in a.history] == [r.mean_loss for r in b.history]


def test_missing_arity_fails_before_training():
    rng = np.random.default_rng(3)
    ds = tiny_dataset(rng)
    ds = Dataset(ds.vocabulary, [*ds.train, Fact(0, (0, 1, 2))], ds.valid, ds.test)
    arch = ArchitectureSet({2: zero_assignment(2, 2)})
    with pytest.raises(DataError):
        train_fixed(arch, ds, TrainConfig(dimension=4, segment_count=2, max_epochs=1))


def test_negative_entity_id_fails_training_and_evaluation():
    # numpy reads id -1 as the last row, in the gather and in the score matrix's
    # truth column, so without the check this trains and ranks without an error
    vocab = Vocabulary(["a", "b", "c"], ["r"])
    ds = Dataset(vocab, [Fact(0, (0, -1)), Fact(0, (1, 2))], [], [Fact(0, (0, -1))])
    arch = preset_set("cp", 2, 2)
    with pytest.raises(DataError, match="negative entity id -1"):
        train_fixed(arch, ds, TrainConfig(dimension=4, segment_count=2, max_epochs=1, eval_every=0))
    with pytest.raises(DataError, match="negative entity id -1"):
        evaluate(init_embeddings(3, 1, 4, 2, seed=0), arch, ds, "test", build_filter_index(ds))


def test_early_stopping_on_flat_validation():
    rng = np.random.default_rng(4)
    ds = tiny_dataset(rng)
    # zero lr: validation MRR can never improve after the first check
    config = TrainConfig(dimension=4, segment_count=2, learning_rate=0.0, max_epochs=50,
                         batch_size=8, seed=0, eval_every=1, patience=3)
    result = train_fixed(preset_set("cp", 2, 2), ds, config)
    assert len(result.history) == 4  # first check + patience exhausted
    assert len(result.valid_mrr_history) == 4


def test_config_rejects_negative_seed():
    with pytest.raises(DataError, match="seed"):
        TrainConfig(seed=-1)
