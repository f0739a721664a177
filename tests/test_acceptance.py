"""Acceptance suite: one test per criterion, each printing a PASS line with
its wall time and asserting its stated tolerance and runtime budget.

Criterion 9 is optional and data-dependent: it runs only when the
NARYTD_JF17K4_DIR environment variable points at a dataset directory with
train.tsv/test.tsv (and NARYTD_RUN_BENCHMARK=1 enables the long run).
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from narytd.blocks import (
    ArchitectureSet,
    CoreAssignment,
    memorization_model,
    preset,
    score_fact,
)
from narytd.data import (
    Dataset,
    Fact,
    Vocabulary,
    build_filter_index,
    load_dataset_dir,
)
from narytd.embeddings import SegmentedEmbeddings
from narytd.evaluation import evaluate, query_ranks
from narytd.model import grad_embeddings_mc
from narytd.search import (
    ArchitectureDistribution,
    AsngState,
    SearchConfig,
    asng_update,
    sample_architectures,
    search_loop,
    theta_gradient,
)
from narytd.synth import PlantedSpec, generate_planted
from narytd.training import TrainConfig, train_fixed

from test_evaluation import brute_force_ranks
from test_model import brute_loss
from test_search import one_hot_distribution


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s, budget {budget_seconds}s)")
        if not failed:
            assert elapsed < budget_seconds, f"criterion {number} overran {budget_seconds}s"


def test_criterion_1_diagonal_preset_equals_direct_product():
    """Diagonal preset scores equal the direct multilinear product of the
    arity-active prefix (the full vectors whenever arity >= segments)."""
    with criterion(1, "diagonal-preset equivalence", 10):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            for M in (1, 2, 4):
                for d in (4, 8, 16):
                    assignment = preset("cp", n, M)
                    used = min(n, M) * (d // M)
                    for _ in range(100):
                        emb = SegmentedEmbeddings(
                            rng.normal(size=(n, d)), rng.normal(size=(1, d)), M
                        )
                        fact = Fact(0, tuple(range(n)))
                        got = score_fact(assignment, emb, fact)
                        direct = emb.relation_matrix[0, :used].copy()
                        for e in fact.entities:
                            direct *= emb.entity_matrix[e, :used]
                        want = float(direct.sum())
                        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_criterion_2_memorization_oracle():
    """Indicator construction scores every stored fact >= 1, scores
    symbol-disjoint corruptions 0, and evaluates to exact MRR 1.0."""
    with criterion(2, "memorization oracle", 5):
        rng = np.random.default_rng(20)
        for trial in range(20):
            n_facts = int(rng.integers(2, 9))
            facts = []
            entity_names = []
            rel_names = []
            cursor = 0
            for k in range(n_facts):
                arity = int(rng.integers(2, 5))
                ents = tuple(range(cursor, cursor + arity))
                cursor += arity
                entity_names += [f"e{e}" for e in ents]
                rel_names.append(f"r{k}")
                facts.append(Fact(k, ents))
            entity_names.append("never_used")
            vocab = Vocabulary(entity_names, rel_names)
            emb, arch = memorization_model(facts, vocab)
            assert emb.dimension == n_facts
            for fact in facts:
                assert score_fact(arch[fact.arity], emb, fact) >= 1.0
            # symbol-disjoint corruptions: swap in entities from other facts
            for fact in facts:
                foreign = [e for f in facts if f is not fact for e in f.entities]
                foreign.append(vocab.entity_id("never_used"))
                for p in range(fact.arity):
                    ents = list(fact.entities)
                    ents[p] = foreign[int(rng.integers(len(foreign)))]
                    assert score_fact(arch[fact.arity], emb, Fact(fact.relation, tuple(ents))) == 0.0
            ds = Dataset(vocab, facts, [], list(facts))
            metrics = evaluate(emb, arch, ds, "test", build_filter_index(ds))
            assert metrics.mrr == 1.0


def test_criterion_3_gradient_fidelity():
    """Analytic gradients match central finite differences of an
    independently coded per-candidate loss within 1e-4 relative error."""
    with criterion(3, "gradient fidelity", 30):
        rng = np.random.default_rng(30)
        h = 1e-4
        worst = 0.0
        for trial in range(50):
            n_e = int(rng.integers(3, 7))
            n_r = int(rng.integers(1, 3))
            M = int(rng.choice([1, 2]))
            d = int(rng.choice([4, 8]))
            max_n = int(rng.integers(2, 4))
            emb = SegmentedEmbeddings(
                rng.normal(scale=0.5, size=(n_e, d)), rng.normal(scale=0.5, size=(n_r, d)), M
            )
            arch = ArchitectureSet(
                {
                    n: CoreAssignment(
                        n, M, rng.choice([-1, 0, 1], size=min(n, M) ** (n + 1)).astype(np.int8)
                    )
                    for n in range(2, max_n + 1)
                }
            )
            facts = [
                Fact(int(rng.integers(n_r)), tuple(int(x) for x in rng.integers(n_e, size=max_n)))
                for _ in range(2)
            ]
            grads, _ = grad_embeddings_mc([arch], emb, facts)
            for mat, grad in (
                (emb.entity_matrix, grads[:n_e]),
                (emb.relation_matrix, grads[n_e:]),
            ):
                fd = np.zeros_like(mat)
                for idx in np.ndindex(*mat.shape):
                    orig = mat[idx]
                    mat[idx] = orig + h
                    up = brute_loss(arch, emb, facts)
                    mat[idx] = orig - h
                    down = brute_loss(arch, emb, facts)
                    mat[idx] = orig
                    fd[idx] = (up - down) / (2.0 * h)
                rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
                worst = max(worst, rel)
        assert worst <= 1e-4, f"worst relative gradient error {worst:.2e}"


def test_criterion_4_ranking_oracle():
    """Batched filtered evaluation reproduces the brute-force per-candidate
    ranking loop exactly on random datasets."""
    with criterion(4, "ranking oracle", 30):
        rng = np.random.default_rng(40)
        for trial in range(20):
            n_e = int(rng.integers(8, 51))
            n_r = int(rng.integers(1, 4))
            M = int(rng.choice([1, 2]))
            d = int(rng.choice([4, 8]))
            arities = sorted(set(int(a) for a in rng.choice([2, 2, 3, 4], size=2)))
            names = [f"e{i}" for i in range(n_e)]
            rels = [f"r{i}" for i in range(n_r)]
            pool = set()
            target = int(rng.integers(15, 40))
            while len(pool) < target:
                n = int(rng.choice(arities))
                pool.add((int(rng.integers(n_r)), tuple(int(x) for x in rng.integers(n_e, size=n))))
            facts = [Fact(r, e) for r, e in sorted(pool)]
            k = max(1, len(facts) // 5)
            ds = Dataset(Vocabulary(names, rels), facts[: -2 * k], facts[-2 * k : -k], facts[-k:])
            emb = SegmentedEmbeddings(
                rng.normal(size=(n_e, d)), rng.normal(size=(n_r, d)), M
            )
            arch = ArchitectureSet(
                {
                    n: CoreAssignment(
                        n, M, rng.choice([-1, 0, 1], size=min(n, M) ** (n + 1)).astype(np.int8)
                    )
                    for n in range(2, max(arities) + 1)
                }
            )
            fi = build_filter_index(ds)
            fast = query_ranks(emb, arch, ds.test, fi)
            slow = brute_force_ranks(emb, arch, ds.test, fi)
            assert fast == slow


def test_criterion_5_simplex_invariant():
    """1e5 adaptive natural-gradient updates keep every column on the simplex."""
    with criterion(5, "simplex invariant", 10):
        from narytd.search import init_theta

        dist = init_theta(2, 2)
        state = AsngState.for_distribution(dist)
        rng = np.random.default_rng(50)
        directions = rng.normal(scale=0.7, size=(100_000, 3, 8))
        for i in range(100_000):
            asng_update(dist, directions[i], state)
            theta = dist.thetas[2]
            sums = theta.sum(axis=0)
            assert np.all(theta >= 0.0)
            assert np.all(np.abs(sums - 1.0) <= 1e-9)


def test_criterion_6_estimator_sanity():
    """Empirical mean of the distribution-gradient estimator on a one-block
    toy matches the exactly computable expectation within 3 standard errors."""
    with criterion(6, "estimator sanity", 10):
        theta_col = np.array([0.2, 0.3, 0.5])
        dist = ArchitectureDistribution({2: theta_col.reshape(3, 1).copy()}, 1)
        utility_by_row = np.array([0.0, 0.25, 1.0])  # op -1, 0, +1
        exact = np.zeros(3)
        for p in range(3):
            one_hot = np.zeros(3)
            one_hot[p] = 1.0
            exact += theta_col[p] * utility_by_row[p] * (one_hot - theta_col)

        rng = np.random.default_rng(60)
        draws = 100_000
        samples = sample_architectures(dist, draws, rng)
        scored = []
        rows = np.empty(draws, dtype=np.int64)
        for i, (arch, stat) in enumerate(samples):
            row = int(arch[2].codes[0]) + 1
            rows[i] = row
            scored.append((stat, float(utility_by_row[row])))
        direction = theta_gradient(scored, dist)[:, 0]

        # per-sample contributions for the standard error
        one_hots = np.zeros((draws, 3))
        one_hots[np.arange(draws), rows] = 1.0
        contributions = utility_by_row[rows][:, None] * (one_hots - theta_col[None, :])
        se = contributions.std(axis=0, ddof=1) / np.sqrt(draws)
        np.testing.assert_allclose(direction, contributions.mean(axis=0), atol=1e-12)
        assert np.all(np.abs(direction - exact) <= 3.0 * se), (direction, exact, se)


def test_criterion_8_one_hot_search_equals_fixed_training():
    """With a one-hot distribution the search loop's embedding trajectory is
    bit-identical to fixed-architecture training under the same seed."""
    with criterion(8, "one-hot search equals fixed training", 120):
        codes = np.array([1, 0, -1, 0, 1, 0, 0, -1], dtype=np.int8)
        arch = ArchitectureSet({2: CoreAssignment(2, 2, codes)})
        spec = PlantedSpec(
            entity_count=25,
            relation_count=2,
            arities=(2,),
            dimension=8,
            segment_count=2,
            assignments=arch,
            facts_per_arity=120,
            margin=1.0,
            seed=8,
            sigma=0.8,
        )
        ds = generate_planted(spec).dataset
        # equality at every epoch boundary, not just the end of the run
        for epochs in (1, 2, 3, 4):
            train_config = TrainConfig(
                dimension=8,
                segment_count=2,
                learning_rate=0.05,
                decay_rate=0.99,
                batch_size=32,
                max_epochs=epochs,
                seed=13,
                eval_every=0,
            )
            search_config = SearchConfig(
                lam=2, search_epochs=epochs, val_batch_size=64, seed=13, dimension=8
            )
            fixed = train_fixed(arch, ds, train_config)
            searched = search_loop(
                ds, search_config, train_config, initial_theta=one_hot_distribution(arch)
            )
            assert searched.architecture == arch
            assert np.array_equal(
                searched.embeddings.entity_matrix, fixed.embeddings.entity_matrix
            )
            assert np.array_equal(
                searched.embeddings.relation_matrix, fixed.embeddings.relation_matrix
            )


def _stable_retrained_mrr(architecture, dataset, filter_index, tie_policy="optimistic"):
    """Retraining protocol for the recovery comparison: identical config and
    retrain seeds for every architecture, each run scored by its best
    validation MRR, runs averaged (single-run final MRR fluctuates ~20%
    between reruns of the same architecture at this scale)."""
    best = []
    for seed in (101, 102, 103):
        config = TrainConfig(
            dimension=16, segment_count=2, learning_rate=0.05, decay_rate=0.99,
            batch_size=256, max_epochs=80, seed=seed, eval_every=4, patience=6,
        )
        result = train_fixed(
            architecture, dataset, config, filter_index=filter_index, tie_policy=tie_policy
        )
        best.append(max(m for _, m in result.valid_mrr_history))
    return float(np.mean(best))


def test_criterion_7_planted_architecture_recovery():
    """Three seeded searches on a planted dataset: the median run either
    recovers >= 7/8 block codes literally or derives an architecture whose
    retrained validation MRR reaches 0.95x the retrained ground truth."""
    with criterion(7, "planted architecture recovery", 1200):
        truth = ArchitectureSet(
            {2: CoreAssignment(2, 2, np.array([1, 0, 0, 0, 0, 0, 0, 0], np.int8))}
        )
        spec = PlantedSpec(
            entity_count=100,
            relation_count=8,
            arities=(2,),
            dimension=16,
            segment_count=2,
            assignments=truth,
            facts_per_arity=2000,
            margin=1.0,
            seed=5,
            sigma=0.7,
        )
        planted = generate_planted(spec)
        ds = planted.dataset
        fi = build_filter_index(ds)

        runs = []
        for seed in (1, 2, 3):
            search_config = SearchConfig(
                lam=2, search_epochs=100, val_batch_size=200, theta_lr=0.25,
                seed=seed, dimension=16,
            )
            train_config = TrainConfig(
                dimension=16, segment_count=2, learning_rate=0.05, decay_rate=1.0,
                batch_size=256, max_epochs=1, seed=seed, eval_every=0,
            )
            start = time.perf_counter()
            result = search_loop(ds, search_config, train_config, filter_index=fi)
            elapsed = time.perf_counter() - start
            assert elapsed < 300, f"search run exceeded the 5 minute budget: {elapsed:.0f}s"
            derived = result.architecture
            matched = int(np.sum(derived[2].codes == planted.truth[2].codes))
            runs.append((matched, seed, derived))
            print(f"  search seed {seed}: {matched}/8 codes matched, {elapsed:.0f}s")

        runs.sort(key=lambda r: r[0])
        median_matched, median_seed, median_arch = runs[1]
        if median_matched >= 7:
            print(f"  median run (seed {median_seed}) recovered {median_matched}/8 codes")
            return
        # equivalence branch: retrain derived and truth identically and compare
        assert np.any(median_arch[2].codes != 0), "derived a degenerate all-zero architecture"
        truth_mrr = _stable_retrained_mrr(planted.truth, ds, fi)
        derived_mrr = _stable_retrained_mrr(median_arch, ds, fi)
        ratio = derived_mrr / truth_mrr
        # guard against the optimistic-tie degeneracy (constant scorers rank 1)
        truth_pess = _stable_retrained_mrr(planted.truth, ds, fi, tie_policy="pessimistic")
        derived_pess = _stable_retrained_mrr(median_arch, ds, fi, tie_policy="pessimistic")
        pess_ratio = derived_pess / truth_pess
        print(
            f"  median run (seed {median_seed}): {median_matched}/8 codes, retrained MRR "
            f"{derived_mrr:.4f} vs truth {truth_mrr:.4f} (ratio {ratio:.3f}, "
            f"pessimistic ratio {pess_ratio:.3f})"
        )
        assert ratio >= 0.95, f"derived architecture reaches only {ratio:.3f}x of truth"
        assert pess_ratio >= 0.95, f"pessimistic cross-check failed: {pess_ratio:.3f}"


JF17K4_DIR = os.environ.get("NARYTD_JF17K4_DIR", "")


@pytest.mark.skipif(
    not (JF17K4_DIR and os.path.isdir(JF17K4_DIR)),
    reason="optional benchmark: set NARYTD_JF17K4_DIR to a 4-ary dataset directory",
)
def test_criterion_9_optional_benchmark():
    """Optional data-dependent check: search at d=64 then retrain at d=128
    reaches test MRR >= 0.70 on the supplied 4-ary benchmark split."""
    with criterion(9, "optional 4-ary benchmark", 7200):
        ds = load_dataset_dir(JF17K4_DIR, valid_holdout_fraction=0.1, seed=0,
                              strict_vocabulary=False)
        fi = build_filter_index(ds)
        train_config = TrainConfig(
            dimension=64, segment_count=4, learning_rate=0.05, decay_rate=0.995,
            batch_size=256, seed=0, eval_every=0,
        )
        search_config = SearchConfig(
            lam=2, search_epochs=10, val_batch_size=256, theta_lr=0.25, seed=0, dimension=64
        )
        result = search_loop(ds, search_config, train_config, filter_index=fi)
        retrain_config = TrainConfig(
            dimension=128, segment_count=4, learning_rate=0.05, decay_rate=0.995,
            batch_size=256, max_epochs=200, seed=0, eval_every=5, patience=8,
        )
        trained = train_fixed(result.architecture, ds, retrain_config, filter_index=fi)
        metrics = evaluate(trained.embeddings, result.architecture, ds, "test", fi)
        print(f"benchmark test MRR {metrics.mrr:.4f}")
        assert metrics.mrr >= 0.70
