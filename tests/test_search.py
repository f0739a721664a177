import functools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from narytd import evaluation
from narytd.blocks import ArchitectureSet, CoreAssignment, zero_assignment
from narytd.data import Dataset, Fact, FilterIndex, Vocabulary, build_filter_index
from narytd.embeddings import SegmentedEmbeddings
from narytd.errors import DataError, NumericError
from narytd.evaluation import query_ranks
from narytd.search import (
    ASNG_ALPHA,
    OP_CODES,
    THETA_FLOOR,
    ArchitectureDistribution,
    AsngState,
    SearchConfig,
    asng_update,
    derive_final,
    init_theta,
    load_theta,
    per_fact_ranked_weights,
    sample_architectures,
    save_theta,
    search_loop,
    theta_from_doc,
    theta_gradient,
    theta_to_doc,
    validation_utility,
)
from narytd.synth import PlantedSpec, generate_planted, random_truth
from narytd.training import TrainConfig, train_fixed


def one_hot_distribution(architecture: ArchitectureSet) -> ArchitectureDistribution:
    thetas = {}
    for n in architecture.arities():
        codes = architecture[n].codes
        theta = np.zeros((3, len(codes)))
        theta[codes.astype(int) + 1, np.arange(len(codes))] = 1.0
        thetas[n] = theta
    return ArchitectureDistribution(thetas, architecture.segment_count)


class TestInitTheta:
    def test_uniform_columns(self):
        dist = init_theta(2, 2)
        assert set(dist.thetas) == {2}
        assert dist.thetas[2].shape == (3, 8)
        assert np.all(dist.thetas[2] == pytest.approx(1 / 3))

    def test_block_counts_per_arity(self):
        dist = init_theta(4, 4)
        assert dist.thetas[2].shape == (3, 8)
        assert dist.thetas[3].shape == (3, 81)
        assert dist.thetas[4].shape == (3, 1024)

    def test_columns_sum_to_one(self):
        dist = init_theta(3, 2)
        for theta in dist.thetas.values():
            np.testing.assert_allclose(theta.sum(axis=0), 1.0, atol=1e-12)

    def test_rejects_simplex_violation(self):
        with pytest.raises(DataError):
            ArchitectureDistribution({2: np.full((3, 8), 0.5)}, 2)

    @pytest.mark.parametrize("column", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [np.nan] * 3])
    def test_rejects_non_finite_column(self, column):
        theta = np.full((3, 8), 1 / 3)
        theta[:, 0] = column
        with pytest.raises(DataError, match="not probability vectors"):
            ArchitectureDistribution({2: theta}, 2)


class TestSampling:
    def test_one_hot_is_deterministic(self):
        arch = ArchitectureSet({2: CoreAssignment(2, 2, np.array([1, -1, 0, 1, 0, 0, -1, 1], np.int8))})
        dist = one_hot_distribution(arch)
        rng = np.random.default_rng(0)
        for sampled, stat in sample_architectures(dist, 5, rng):
            assert sampled == arch
            assert np.all(stat.sum(axis=0) == 1.0)

    def test_statistic_records_draw(self):
        dist = init_theta(2, 2)
        rng = np.random.default_rng(1)
        [(arch, stat)] = sample_architectures(dist, 1, rng)
        for k, code in enumerate(arch[2].codes):
            assert stat[int(code) + 1, k] == 1.0

    def test_uniform_frequencies_chi_squared(self):
        # 30,000 draws of one block: counts stay inside the 99% chi^2 band
        dist = init_theta(2, 1)  # K = 1
        rng = np.random.default_rng(7)
        counts = np.zeros(3)
        for arch, _ in sample_architectures(dist, 30_000, rng):
            counts[int(arch[2].codes[0]) + 1] += 1
        expected = 10_000.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= 9.2103  # chi^2_{2, 0.99}

    def test_sampling_deterministic_under_seed(self):
        dist = init_theta(3, 2)
        a = sample_architectures(dist, 4, np.random.default_rng(5))
        b = sample_architectures(dist, 4, np.random.default_rng(5))
        for (arch_a, _), (arch_b, _) in zip(a, b):
            assert arch_a == arch_b


class TestThetaGradient:
    def test_single_sample_direct_substitution(self):
        dist = init_theta(2, 1)
        stat = np.array([[0.0], [0.0], [1.0]])
        direction = theta_gradient([(stat, 1.0)], dist)
        np.testing.assert_allclose(direction[:, 0], [-1 / 3, -1 / 3, 2 / 3], atol=1e-12)

    def test_zero_utilities_zero_direction(self):
        dist = init_theta(2, 2)
        rng = np.random.default_rng(0)
        samples = [(stat, 0.0) for _, stat in sample_architectures(dist, 3, rng)]
        direction = theta_gradient(samples, dist)
        assert np.all(direction == 0.0)

    def test_per_fact_ranked_weights_values(self):
        # rows are samples, columns facts; per fact the best sample scores +1,
        # the worst -1 and a fact where all samples tie scores 0 for each
        U = np.array([[1.0, 0.5, 0.2, 0.3], [0.0, 0.5, 0.4, 0.3], [0.5, 0.5, 0.1, 0.3]])
        np.testing.assert_array_equal(per_fact_ranked_weights(U), [0.25, 0.0, -0.25])



class TestAsngUpdate:
    def test_zero_direction_keeps_theta_and_decays_signal(self):
        dist = init_theta(2, 2)
        state = AsngState.for_distribution(dist)
        state.signal[:] = 1.0
        before = dist.thetas[2].copy()
        signal_before = state.signal.copy()
        asng_update(dist, np.zeros((3, 8)), state)
        np.testing.assert_allclose(dist.thetas[2], before, atol=1e-12)
        assert np.all(np.abs(state.signal) < np.abs(signal_before))

    def test_constant_direction_increases_favored_entry(self):
        dist = init_theta(2, 2)
        state = AsngState.for_distribution(dist)
        direction = np.zeros((3, 8))
        direction[:, 3] = [-0.5, -0.5, 1.0]
        prev = dist.thetas[2][2, 3]
        for _ in range(25):
            asng_update(dist, direction, state)
            now = dist.thetas[2][2, 3]
            if now >= 1.0 - 1e-6:
                break
            assert now > prev
            prev = now
        assert dist.thetas[2][2, 3] > 0.9

    def test_simplex_preserved_under_random_updates(self):
        dist = init_theta(3, 2)
        state = AsngState.for_distribution(dist)
        rng = np.random.default_rng(3)
        for _ in range(2000):
            direction = rng.normal(scale=0.5, size=dist.theta.shape)
            asng_update(dist, direction, state)
            for theta in dist.thetas.values():
                assert np.all(theta >= 0.0)
                np.testing.assert_allclose(theta.sum(axis=0), 1.0, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        columns=hnp.arrays(np.float64, (3, 8), elements=st.floats(0.0, 1.0)),
        directions=st.lists(
            hnp.arrays(np.float64, (3, 8), elements=st.floats(-1.0, 1.0)), min_size=1, max_size=5
        ),
        delta_init=st.floats(1e-3, 1e3),
    )
    def test_property_columns_stay_on_floored_simplex(self, columns, directions, delta_init):
        # directions span [-1, 1], the range theta_gradient's (T - theta) terms produce
        columns = columns + THETA_FLOOR
        dist = ArchitectureDistribution({2: columns / columns.sum(axis=0)}, 2)
        state = AsngState.for_distribution(dist, delta_init=delta_init)
        for direction in directions:
            asng_update(dist, direction, state)
            theta = dist.thetas[2]
            assert np.all(np.isfinite(theta))
            assert np.all(theta >= THETA_FLOOR)
            assert np.all(np.abs(theta.sum(axis=0) - 1.0) <= 1e-9)


    def test_overflowing_step_raises_numeric_error(self):
        # delta / pnorm overflows to inf, and inf * 0 would turn theta into NaN
        dist = init_theta(2, 2)
        state = AsngState.for_distribution(dist, delta_init=1e300)
        direction = np.zeros((3, 8))
        direction[:, 0] = [1e-12, -1e-12, 0.0]
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
            asng_update(dist, direction, state)


class TestOneThetaMatrix:
    def test_layout_and_views(self):
        dist = init_theta(4, 4)
        assert dist.theta.shape == (3, 8 + 81 + 1024)
        assert dist.columns == {2: slice(0, 8), 3: slice(8, 89), 4: slice(89, 1113)}
        for n, cols in dist.columns.items():
            assert np.shares_memory(dist.thetas[n], dist.theta)
            assert dist.thetas[n].shape == (3, cols.stop - cols.start)
        dist.thetas[3][:, 0] = [0.0, 0.0, 1.0]
        assert np.array_equal(dist.theta[:, 8], [0.0, 0.0, 1.0])

    def test_constructor_copies(self):
        theta = np.full((3, 8), 1 / 3)
        dist = ArchitectureDistribution({2: theta}, 2)
        dist.theta[:] = 0.0
        assert np.all(theta == 1 / 3)

    def test_bitwise_equal_to_per_arity_matrices(self):
        # the same 50 steps with one dict entry per arity, one loop per arity
        # in every step: sampling, gradient, Fisher vector, update, entropy
        lam = 3
        dist = init_theta(4, 4)
        state = AsngState.for_distribution(dist)
        ref = {n: t.copy() for n, t in dist.thetas.items()}
        ref_signal, ref_gamma, ref_trust = np.zeros(2 * (8 + 81 + 1024)), 0.0, 1.0
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        weight_rng = np.random.default_rng(4)
        for _ in range(50):
            samples = sample_architectures(dist, lam, rng)
            ref_samples = [_per_arity_sample(ref, ref_rng) for _ in range(lam)]
            for (arch, _), (codes, _) in zip(samples, ref_samples):
                assert all(np.array_equal(arch[n].codes, codes[n]) for n in ref)
            # the search loop draws its validation batch after the samples
            assert np.array_equal(rng.choice(50, 5, replace=False),
                                  ref_rng.choice(50, 5, replace=False))
            weights = weight_rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=lam).tolist()
            direction = theta_gradient([(t, w) for (_, t), w in zip(samples, weights)], dist)
            ref_direction = _per_arity_gradient(ref, [s for _, s in ref_samples], weights)
            asng_update(dist, direction, state)
            ref_signal, ref_gamma, ref_trust = _per_arity_asng(
                ref, ref_direction, ref_signal, ref_gamma, ref_trust
            )
            assert np.array_equal(dist.theta, np.concatenate([ref[n] for n in sorted(ref)], axis=1))
            assert np.array_equal(state.signal, ref_signal)
            assert state.trust == ref_trust
            assert dist.entropy() == _per_arity_entropy(ref)
        assert dist.entropy() < np.log(3)  # the steps moved theta


def _per_arity_sample(thetas, rng):
    codes, stats = {}, {}
    for n in sorted(thetas):
        K = thetas[n].shape[1]
        cum = np.cumsum(thetas[n], axis=0)
        u = rng.random(K)
        rows = (u >= cum[0]).astype(np.int64) + (u >= cum[1])
        codes[n] = OP_CODES[rows]
        stats[n] = np.zeros((3, K))
        stats[n][rows, np.arange(K)] = 1.0
    return codes, stats


def _per_arity_gradient(thetas, stats, weights):
    direction = {n: np.zeros_like(t) for n, t in thetas.items()}
    for stat, w in zip(stats, weights):
        if w == 0.0:
            continue
        for n in direction:
            direction[n] += w * (stat[n] - thetas[n])
    for n in direction:
        direction[n] /= len(stats)
    return direction


def _per_arity_asng(thetas, direction, signal, gamma, trust, delta_init=1.0):
    delta = delta_init / trust
    beta = min(delta / np.sqrt(signal.shape[0]), 1.0)
    pieces = []
    for n in sorted(thetas):
        theta = np.maximum(thetas[n], 1e-4)
        sq = np.sqrt(theta[:2])
        last = theta[2]
        s = direction[n][:2] / sq
        s += sq * ((direction[n][0] + direction[n][1]) / (last + np.sqrt(last)))
        pieces.append(s.ravel())
    normalized = np.concatenate(pieces)
    pnorm = float(np.sqrt(normalized @ normalized)) + 1e-9
    for n in sorted(thetas):
        theta = thetas[n]
        theta += (delta / pnorm) * direction[n]
        np.clip(theta, THETA_FLOOR, 1.0, out=theta)
        theta *= 1.0 / theta.sum(axis=0)
        np.maximum(theta, THETA_FLOOR, out=theta)
    signal = signal * (1.0 - beta) + (np.sqrt(beta * (2.0 - beta)) / pnorm) * normalized
    gamma = (1.0 - beta) ** 2 * gamma + beta * (2.0 - beta)
    trust *= float(np.exp(beta * (gamma - signal @ signal / ASNG_ALPHA)))
    return signal, gamma, min(max(trust, 1e-8), 1e8)


def _per_arity_entropy(thetas):
    total = 0.0
    for n in sorted(thetas):
        p = np.clip(thetas[n], 1e-300, 1.0)
        total += float(-(p * np.log(p)).sum())
    return total / sum(t.shape[1] for t in thetas.values())


def test_failing_property_test_reports_its_example(tmp_path):
    # under the suite's warning filters, a failing hypothesis test must print
    # its falsifying example, not abort the session with an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "Falsifying example" in done.stdout and "INTERNALERROR" not in done.stdout


class TestDeriveFinal:
    def test_one_hot_roundtrip(self):
        arch = ArchitectureSet({2: CoreAssignment(2, 2, np.array([1, -1, 0, 0, 1, -1, 1, 0], np.int8))})
        assert derive_final(one_hot_distribution(arch)) == arch

    def test_uniform_prefers_zero(self):
        derived = derive_final(init_theta(2, 2))
        assert np.all(derived[2].codes == 0)

    def test_argmax_row(self):
        theta = np.tile([[0.2], [0.3], [0.5]], (1, 8))
        dist = ArchitectureDistribution({2: theta}, 2)
        assert np.all(derive_final(dist)[2].codes == 1)

    @pytest.mark.parametrize(
        "column, code",
        [([0.2, 0.4, 0.4], 0), ([0.4, 0.2, 0.4], 1)],
        ids=["zero-ties-plus", "plus-ties-minus"],
    )
    def test_tie_order(self, column, code):
        # a 0/+1 tie drops the block; a +1/-1 tie takes +1
        theta = np.tile(np.array(column)[:, None], (1, 8))
        dist = ArchitectureDistribution({2: theta}, 2)
        assert np.all(derive_final(dist)[2].codes == code)

    def test_idempotent(self):
        dist = init_theta(3, 2)
        rng = np.random.default_rng(0)
        state = AsngState.for_distribution(dist)
        for _ in range(50):
            asng_update(dist, rng.normal(size=dist.theta.shape), state)
        a = derive_final(dist)
        b = derive_final(dist)
        assert a == b


class TestValidationUtility:
    def test_single_entity_vocabulary(self):
        vocab = Vocabulary(["only"], ["r"])
        facts = [Fact(0, (0, 0))]
        ds = Dataset(vocab, facts, facts, facts)
        emb = SegmentedEmbeddings(np.ones((1, 4)), np.ones((1, 4)), 2)
        (utilities,), (mean,) = validation_utility(
            emb, [ArchitectureSet({2: zero_assignment(2, 2)})], facts, build_filter_index(ds)
        )
        assert np.all(utilities == 1.0) and mean == 1.0

    def test_zero_architecture_tie_policy_value(self):
        rng = np.random.default_rng(1)
        vocab = Vocabulary([f"e{i}" for i in range(6)], ["r"])
        facts = [Fact(0, (0, 1)), Fact(0, (2, 3))]
        ds = Dataset(vocab, facts, facts, facts)
        emb = SegmentedEmbeddings(rng.normal(size=(6, 4)), rng.normal(size=(1, 4)), 2)
        fi = build_filter_index(ds)
        arch = ArchitectureSet({2: zero_assignment(2, 2)})
        (utilities,), _ = validation_utility(emb, [arch], facts, fi, tie_policy="optimistic")
        assert np.all(utilities == 1.0)  # uniform scores, optimistic ties
        (utilities,), _ = validation_utility(emb, [arch], facts, fi, tie_policy="pessimistic")
        # every surviving candidate ties: rank = entity_count - filtered-out
        assert np.all(utilities < 0.5)

    def test_memorization_model_perfect_utility(self):
        from oracles import memorization_model

        vocab = Vocabulary([f"e{i}" for i in range(4)], ["r0", "r1"])
        facts = [Fact(0, (0, 1)), Fact(1, (2, 3))]
        emb, arch = memorization_model(facts, vocab)
        ds = Dataset(vocab, facts, facts, facts)
        _, (mean,) = validation_utility(emb, [arch], facts, build_filter_index(ds))
        assert mean == 1.0

    def test_empty_batch_errors(self):
        with pytest.raises(DataError):
            validation_utility(None, [], [], None)

    def test_equals_per_fact_loop_bitwise(self):
        # mixed arities in mixed order, three sets of which two are equal: each
        # utility rounds as the per-fact sum of reciprocal ranks in position
        # order, divided by the arity, and each set's mean as its row's mean
        rng = np.random.default_rng(2)
        n_e = 30
        vocab = Vocabulary([f"e{i}" for i in range(n_e)], ["r0", "r1"])
        facts = [Fact(int(rng.integers(2)), tuple(int(x) for x in rng.integers(n_e, size=n)))
                 for n in rng.integers(2, 5, size=300)]
        emb = SegmentedEmbeddings(rng.normal(size=(n_e, 6)), rng.normal(size=(2, 6)), 3)
        a, b = (
            ArchitectureSet({
                n: CoreAssignment(n, 3, rng.choice([-1, 0, 1], size=min(n, 3) ** (n + 1)))
                for n in (2, 3, 4)
            })
            for _ in range(2)
        )
        fi = build_filter_index(Dataset(vocab, facts, [], []))
        utilities, means = validation_utility(emb, [a, b, a], facts, fi)
        assert utilities.shape == (3, len(facts)) and means.shape == (3,)
        for arch, got, mean in zip((a, b, a), utilities, means):
            ranks = iter(query_ranks(emb, arch, facts, fi))
            want = np.empty(len(facts))
            for i, fact in enumerate(facts):
                recip = 0.0
                for _ in range(fact.arity):
                    recip += 1.0 / next(ranks)
                want[i] = recip / fact.arity
            assert np.array_equal(got, want) and mean == float(want.mean())

    def test_list_equals_single_sets(self):
        ds, truth = mixed_arity_case()
        rng = np.random.default_rng(3)
        emb = SegmentedEmbeddings(rng.normal(size=(20, 8)), rng.normal(size=(2, 8)), 2)
        sets = [truth, derive_final(init_theta(3, 2)), truth.copy()]
        fi = build_filter_index(ds)
        utilities, means = validation_utility(emb, sets, ds.test, fi, "pessimistic")
        for s, got, mean in zip(sets, utilities, means):
            (want,), (want_mean,) = validation_utility(emb, [s], ds.test, fi, "pessimistic")
            assert np.array_equal(got, want) and mean == want_mean


def planted_dataset():
    truth = random_truth((2,), 2, seed=4)
    spec = PlantedSpec(20, 2, (2,), 8, 2, truth, 150, 1.0, seed=4, sigma=0.8)
    return generate_planted(spec).dataset


@functools.cache
def mixed_arity_case():
    """A planted arity-2 and arity-3 dataset and its truth."""
    truth = random_truth((2, 3), 2, seed=5)
    spec = PlantedSpec(20, 2, (2, 3), 8, 2, truth, 40, 0.5, seed=5, sigma=0.8)
    return generate_planted(spec).dataset, truth


class TestSearchLoop:
    def test_config_rejects_negative_seed(self):
        with pytest.raises(DataError, match="seed"):
            SearchConfig(seed=-1)

    def test_zero_epochs_returns_tie_rule_architecture(self):
        ds = planted_dataset()
        sc = SearchConfig(lam=2, search_epochs=0, val_batch_size=16, seed=0, dimension=8)
        tc = TrainConfig(dimension=8, segment_count=2, batch_size=32, seed=0)
        result = search_loop(ds, sc, tc)
        assert np.all(result.architecture[2].codes == 0)
        assert len(result.trace) == 0

    def test_trace_length_counts_iterations(self):
        ds = planted_dataset()
        sc = SearchConfig(lam=2, search_epochs=3, val_batch_size=16, seed=0, dimension=8)
        tc = TrainConfig(dimension=8, segment_count=2, batch_size=32, seed=0)
        result = search_loop(ds, sc, tc)
        batches_per_epoch = int(np.ceil(len(ds.train) / 32))
        assert len(result.trace) == 3 * batches_per_epoch
        record = result.trace[0]
        assert {"iteration", "epoch", "utilities", "val_mrr", "theta_entropy", "sampled_ops"} <= set(record)
        assert [r["iteration"] for r in result.trace] == list(range(len(result.trace)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch_size=st.integers(8, 64),
        epochs=st.integers(1, 3),
        lam=st.integers(1, 3),
        decay_rate=st.floats(0.5, 1.0),
    )
    def test_property_one_hot_search_equals_fixed_training(
        self, seed, batch_size, epochs, lam, decay_rate
    ):
        ds, arch = mixed_arity_case()
        tc = TrainConfig(dimension=8, segment_count=2, decay_rate=decay_rate,
                         batch_size=batch_size, max_epochs=epochs, seed=seed, eval_every=0)
        sc = SearchConfig(lam=lam, search_epochs=epochs, val_batch_size=4, seed=seed + 1)
        fixed = train_fixed(arch, ds, tc)
        searched = search_loop(ds, sc, tc, initial_theta=one_hot_distribution(arch))
        assert np.array_equal(searched.embeddings.entity_matrix, fixed.embeddings.entity_matrix)
        assert np.array_equal(
            searched.embeddings.relation_matrix, fixed.embeddings.relation_matrix
        )

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_step_converts_validation_batch_once(self, lam, monkeypatch):
        # one step over the whole train split and the whole 8-fact validation
        # split, whose arity-2 and arity-3 groups are one chunk each
        calls = {"fact_groups": 0, "pack_participants": 0, "fillers": 0, "candidate_scores": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("fact_groups", "pack_participants", "candidate_scores"):
            counted(evaluation, name)
        counted(FilterIndex, "fillers")
        ds, truth = mixed_arity_case()
        tc = TrainConfig(dimension=8, segment_count=2, batch_size=len(ds.train), seed=0)
        sc = SearchConfig(lam=lam, search_epochs=1, val_batch_size=len(ds.valid), seed=0)
        for initial, distinct in ((None, lam), (one_hot_distribution(truth), 1)):
            calls.update(dict.fromkeys(calls, 0))
            result = search_loop(ds, sc, tc, initial_theta=initial)
            assert len(result.trace) == 1 and len(result.trace[0]["utilities"]) == lam
            # uniform theta draws distinct sets here; one-hot theta draws one set lam times
            assert calls == {"fact_groups": 1, "pack_participants": 2, "fillers": 2,
                             "candidate_scores": 2 * distinct}

    def test_requires_validation_split(self):
        ds = planted_dataset()
        empty_valid = Dataset(ds.vocabulary, ds.train, [], ds.test)
        sc = SearchConfig(lam=2, search_epochs=1, seed=0, dimension=8)
        tc = TrainConfig(dimension=8, segment_count=2, seed=0)
        with pytest.raises(DataError):
            search_loop(empty_valid, sc, tc)


class TestThetaSnapshot:
    def test_doc_layout(self):
        dist = init_theta(3, 2)
        doc = theta_to_doc(dist)
        assert set(doc) == {"segment_count", "max_arity", "2", "3"}
        assert len(doc["2"]) == 3 and len(doc["2"][0]) == 8

    def test_file_round_trip(self, tmp_path):
        dist = init_theta(2, 2)
        state = AsngState.for_distribution(dist)
        rng = np.random.default_rng(0)
        for _ in range(10):
            asng_update(dist, rng.normal(size=(3, 8)), state)
        save_theta(tmp_path / "theta.json", dist)
        back = load_theta(tmp_path / "theta.json")
        np.testing.assert_allclose(back.thetas[2], dist.thetas[2], atol=1e-15)

    def test_doc_validates(self):
        doc = theta_to_doc(init_theta(2, 2))
        doc["2"][0][0] = 0.9  # break the simplex
        with pytest.raises(DataError):
            theta_from_doc(doc)

    @pytest.mark.parametrize(
        "rows",
        ["x", [[1, 2], [3]], [["a"] * 8] * 3, [["1"] * 8, ["0"] * 8, ["0"] * 8],
         [[True] * 8, [False] * 8, [False] * 8], 0.5, [0.5] * 3],
    )
    def test_doc_rows_must_be_arrays_of_numbers(self, rows):
        # the first three used to raise a bare ValueError; numeric strings and bools were read as floats
        doc = theta_to_doc(init_theta(2, 2))
        doc["2"] = rows
        with pytest.raises(DataError, match="arity 2"):
            theta_from_doc(doc)

    @pytest.mark.parametrize(
        "field, value",
        [("segment_count", 2.7), ("segment_count", "two"), ("segment_count", True),
         ("max_arity", 2.0), ("max_arity", None)],
    )
    def test_doc_fields_must_be_integers(self, field, value):
        # 2.7 used to be truncated to 2 and "two" to raise a bare ValueError
        doc = theta_to_doc(init_theta(2, 2))
        doc[field] = value
        with pytest.raises(DataError, match=repr(field)):
            theta_from_doc(doc)
