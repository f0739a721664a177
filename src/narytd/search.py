"""Architecture search over block codes via stochastic natural gradient.

Each block's code is drawn from a per-block categorical over the three
ops; the 3 x K probability matrices (rows in op order -1, 0, +1) are
ascended toward higher validation utility with an adaptive natural
gradient whose trust-region scale follows the accumulated update signal.
The loop alternates one embedding step on a training batch with one
distribution step scored on a validation batch, then picks the most
probable op per block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .blocks import ArchitectureSet, CoreAssignment, block_count
from .data import Dataset, Fact, FilterIndex, build_filter_index, int_fields, load_json_object
from .data import write_json
from .embeddings import SegmentedEmbeddings, init_embeddings
from .errors import DataError
from .evaluation import query_ranks
from .model import AdamState, adam_step, grad_embeddings_mc
from .training import TrainConfig, batch_rng, epoch_batches

OP_CODES = np.array([-1, 0, 1], dtype=np.int8)  # row order of every theta matrix

# tie preference when probabilities are equal: drop the block, then +1, then -1
_TIE_ORDER = (1, 2, 0)

# ASNG's threshold on the accumulated signal: the trust region shrinks
# while |s|^2 exceeds ASNG_ALPHA * gamma
ASNG_ALPHA = 1.5
# smallest probability a theta entry keeps after an update
THETA_FLOOR = 1e-12


@dataclass
class ArchitectureDistribution:
    """Per-arity 3 x K column-stochastic matrices of op probabilities."""

    thetas: dict[int, np.ndarray]
    segment_count: int

    def __post_init__(self):
        if not self.thetas:
            raise DataError("distribution has no arities")
        self.max_arity = max(self.thetas)
        for n in range(2, self.max_arity + 1):
            if n not in self.thetas:
                raise DataError(f"distribution missing arity {n}")
            theta = np.asarray(self.thetas[n], dtype=np.float64)
            expected = block_count(n, self.segment_count)
            if theta.shape != (3, expected):
                raise DataError(
                    f"theta for arity {n} must be 3 x {expected}, got {theta.shape}"
                )
            # theta >= 0 is False for NaN, and an infinite entry fails one of the two tests
            if not np.all(theta >= 0) or np.any(np.abs(theta.sum(axis=0) - 1.0) > 1e-9):
                raise DataError(f"theta columns for arity {n} are not probability vectors")
            self.thetas[n] = theta

    def arities(self) -> list[int]:
        return sorted(self.thetas)

    def column_count(self) -> int:
        return sum(t.shape[1] for t in self.thetas.values())

    def sample_with_stats(
        self, rng: np.random.Generator
    ) -> tuple[ArchitectureSet, "SufficientStatistic"]:
        assignments = {}
        stats = {}
        for n in self.arities():
            theta = self.thetas[n]
            K = theta.shape[1]
            cum = np.cumsum(theta, axis=0)
            u = rng.random(K)
            rows = (u >= cum[0]).astype(np.int64) + (u >= cum[1])
            assignments[n] = CoreAssignment(n, self.segment_count, OP_CODES[rows])
            one_hot = np.zeros((3, K))
            one_hot[rows, np.arange(K)] = 1.0
            stats[n] = one_hot
        return ArchitectureSet(assignments), SufficientStatistic(stats)

    def entropy(self) -> float:
        """Mean per-block entropy (nats) across all arities."""
        total = 0.0
        columns = 0
        for theta in self.thetas.values():
            p = np.clip(theta, 1e-300, 1.0)
            total += float(-(p * np.log(p)).sum())
            columns += theta.shape[1]
        return total / columns

    def copy(self) -> "ArchitectureDistribution":
        return ArchitectureDistribution(
            {n: t.copy() for n, t in self.thetas.items()}, self.segment_count
        )


@dataclass
class SufficientStatistic:
    """One-hot record of the op sampled for each block, per arity."""

    stats: dict[int, np.ndarray]

    def op_counts(self) -> dict[int, int]:
        counts = np.zeros(3)
        for one_hot in self.stats.values():
            counts += one_hot.sum(axis=1)
        return {int(OP_CODES[i]): int(counts[i]) for i in range(3)}


def init_theta(max_arity: int, segment_count: int) -> ArchitectureDistribution:
    """Uniform (1/3, 1/3, 1/3) columns for every arity 2..max_arity."""
    if max_arity < 2:
        raise DataError(f"max arity must be >= 2, got {max_arity}")
    thetas = {
        n: np.full((3, block_count(n, segment_count)), 1.0 / 3.0)
        for n in range(2, max_arity + 1)
    }
    return ArchitectureDistribution(thetas, segment_count)


def sample_architectures(
    distribution: ArchitectureDistribution, lam: int, rng: np.random.Generator
) -> list[tuple[ArchitectureSet, SufficientStatistic]]:
    """lam i.i.d. draws from the distribution with their statistics."""
    return [distribution.sample_with_stats(rng) for _ in range(lam)]


def derive_final(distribution: ArchitectureDistribution) -> ArchitectureSet:
    """Most probable op per block; exact ties prefer 0, then +1, then -1."""
    order = list(_TIE_ORDER)  # argmax takes the first maximum in this order
    return ArchitectureSet({
        n: CoreAssignment(
            n,
            distribution.segment_count,
            OP_CODES[order][np.argmax(distribution.thetas[n][order], axis=0)],
        )
        for n in distribution.arities()
    })


# ---------------------------------------------------------------------------
# utilities and the distribution gradient


def validation_utility(
    embeddings: SegmentedEmbeddings,
    architecture: ArchitectureSet,
    facts: Sequence[Fact],
    filter_index: FilterIndex,
    tie_policy: str = "optimistic",
) -> tuple[np.ndarray, float]:
    """Per-fact utilities (mean reciprocal filtered rank over positions).

    Returns the per-fact array in input order plus its mean. Each fact's
    reciprocal ranks are summed in position order, one position at a time
    across all facts, so every sum rounds as a per-fact loop would.
    """
    if not facts:
        raise DataError("validation batch is empty")
    recips = 1.0 / np.array(query_ranks(embeddings, architecture, facts, filter_index, tie_policy))
    arities = np.fromiter((f.arity for f in facts), dtype=np.int64, count=len(facts))
    first = np.cumsum(arities) - arities
    utilities = np.zeros(len(facts))
    for p in range(int(arities.max())):
        has = arities > p
        utilities[has] += recips[first[has] + p]
    utilities /= arities
    return utilities, float(utilities.mean())


def per_fact_ranked_weights(per_fact_utilities: np.ndarray) -> np.ndarray:
    """Sample weights from per-fact comparisons, averaged over the batch.

    Each validation fact ranks the lam samples on its own reciprocal-rank
    utility (+1 best, -1 worst, ties 0); the per-sample weight is the mean
    over facts. Near-tied samples produce small weights, so the step size
    shrinks as the distribution converges.
    """
    U = np.asarray(per_fact_utilities, dtype=np.float64)  # (lam, facts)
    top = U.max(axis=0)
    bottom = U.min(axis=0)
    contested = top > bottom
    plus = (U == top) & contested
    minus = (U == bottom) & contested
    return (plus.astype(np.float64) - minus.astype(np.float64)).mean(axis=1)


def theta_gradient(
    samples: Sequence[tuple[SufficientStatistic, float]],
    distribution: ArchitectureDistribution,
) -> dict[int, np.ndarray]:
    """Ascent direction (1/lam) sum_i w_i (T_i - theta) per arity.

    Each sample's weight w_i is used as given; the search loop passes
    per_fact_ranked_weights of the samples' validation utilities.
    """
    if not samples:
        raise DataError("theta_gradient needs at least one sample")
    lam = len(samples)
    direction = {n: np.zeros_like(t) for n, t in distribution.thetas.items()}
    for stat, w in samples:
        if w == 0.0:
            continue
        for n in direction:
            direction[n] += w * (stat.stats[n] - distribution.thetas[n])
    for n in direction:
        direction[n] /= lam
    return direction


# ---------------------------------------------------------------------------
# adaptive natural-gradient update


@dataclass
class AsngState:
    """Accumulated-signal trust region for the natural-gradient step size.

    The running signal s tracks Fisher-normalized update directions; when
    it stays coherent the trust region Delta shrinks and the effective
    step delta_init / Delta grows, and vice versa under noise.
    """

    signal: np.ndarray
    gamma: float = 0.0
    trust: float = 1.0  # Delta
    delta_init: float = 1.0

    @classmethod
    def for_distribution(
        cls, distribution: ArchitectureDistribution, delta_init: float = 1.0
    ) -> "AsngState":
        # two free coordinates per 3-way column
        return cls(signal=np.zeros(2 * distribution.column_count()), delta_init=delta_init)


def _fisher_normalized(
    distribution: Mapping[int, np.ndarray] | ArchitectureDistribution,
    direction: Mapping[int, np.ndarray],
) -> np.ndarray:
    """sqrt-Fisher image of the direction in minimal (first two rows) coords.

    Probabilities are floored before inverting so entries sitting at the
    simplex clip floor cannot blow up the normalization; the step size
    divides by this vector's norm, so unbounded curvature would stall or
    destabilize the trust-region accumulator.
    """
    pieces = []
    for n in distribution.arities():
        theta = np.maximum(distribution.thetas[n], 1e-4)
        ng = direction[n]
        sq = np.sqrt(theta[:2])
        last = theta[2]
        s = ng[:2] / sq
        s += sq * ((ng[0] + ng[1]) / (last + np.sqrt(last)))
        pieces.append(s.ravel())
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def asng_update(
    distribution: ArchitectureDistribution,
    direction: Mapping[int, np.ndarray],
    state: AsngState,
) -> tuple[ArchitectureDistribution, AsngState]:
    """Natural-gradient step with adaptive scale; keeps columns on the simplex.

    After the step every entry is clipped to [THETA_FLOOR, 1] and each
    column renormalized to sum 1; an entry the renormalization took below
    THETA_FLOOR is raised back to it, so a column's sum stays within
    3 * THETA_FLOOR of 1. Mutates and returns its inputs.
    """
    delta = state.delta_init / state.trust
    dim = state.signal.shape[0]
    beta = min(delta / np.sqrt(dim), 1.0)  # keep the accumulator well defined
    normalized = _fisher_normalized(distribution, direction)
    pnorm = float(np.sqrt(normalized @ normalized)) + 1e-9
    step = delta / pnorm
    for n in distribution.arities():
        theta = distribution.thetas[n]
        theta += step * direction[n]
        np.clip(theta, THETA_FLOOR, 1.0, out=theta)
        theta *= 1.0 / theta.sum(axis=0)
        np.maximum(theta, THETA_FLOOR, out=theta)
    signal = state.signal
    signal *= 1.0 - beta
    signal += (np.sqrt(beta * (2.0 - beta)) / pnorm) * normalized
    state.gamma = (1.0 - beta) ** 2 * state.gamma + beta * (2.0 - beta)
    state.trust *= float(np.exp(beta * (state.gamma - signal @ signal / ASNG_ALPHA)))
    state.trust = min(max(state.trust, 1e-8), 1e8)
    return distribution, state


# ---------------------------------------------------------------------------
# search loop


@dataclass
class SearchConfig:
    lam: int = 2
    search_epochs: int = 10
    val_batch_size: int = 128
    theta_lr: float = 1.0  # delta_init of the adaptive step rule
    seed: int = 0
    dimension: int | None = None  # search-phase dim; None falls back to train config
    tie_policy: str = "optimistic"

    def __post_init__(self):
        if self.lam < 1:
            raise DataError("lam must be >= 1")
        if self.search_epochs < 0 or self.val_batch_size < 1:
            raise DataError("search_epochs must be >= 0 and val_batch_size >= 1")
        if self.theta_lr <= 0:
            raise DataError("theta_lr must be positive")


@dataclass
class SearchTrace:
    """Append-only per-iteration search log."""

    records: list[dict] = field(default_factory=list)

    def append(self, **record) -> None:
        record["iteration"] = len(self.records)
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)


@dataclass
class SearchResult:
    architecture: ArchitectureSet
    distribution: ArchitectureDistribution
    trace: SearchTrace
    embeddings: SegmentedEmbeddings


def search_loop(
    dataset: Dataset,
    search_config: SearchConfig,
    train_config: TrainConfig,
    filter_index: FilterIndex | None = None,
    initial_theta: ArchitectureDistribution | None = None,
) -> SearchResult:
    """Alternate embedding updates and distribution updates, then derive.

    Each iteration consumes one training mini-batch: lam architectures are
    sampled, the Monte-Carlo averaged gradient updates the embeddings, and
    the same samples are scored on a fresh validation batch to update the
    distribution. Batch shuffling reads its own seeded stream so a one-hot
    distribution reproduces fixed-architecture training bit for bit.
    """
    if not dataset.valid:
        raise DataError("architecture search requires a validation split")
    vocab = dataset.vocabulary
    M = train_config.segment_count
    dim = search_config.dimension or train_config.dimension
    if dim % M != 0:
        raise DataError(f"search dimension {dim} not divisible by segment count {M}")
    if filter_index is None:
        filter_index = build_filter_index(dataset)

    max_arity = dataset.max_arity
    if initial_theta is not None:
        if initial_theta.segment_count != M or initial_theta.max_arity < max_arity:
            raise DataError("initial theta does not cover the dataset's arities")
        distribution = initial_theta.copy()
    else:
        distribution = init_theta(max(max_arity, 2), M)
    state = AsngState.for_distribution(distribution, delta_init=search_config.theta_lr)
    embeddings = init_embeddings(
        vocab.entity_count, vocab.relation_count, dim, M, train_config.seed
    )
    adam = AdamState.for_embeddings(embeddings)
    shuffle_rng = batch_rng(train_config.seed)
    sample_rng = np.random.default_rng([search_config.seed, 1])
    trace = SearchTrace()
    valid = dataset.valid

    for epoch in range(search_config.search_epochs):
        lr = train_config.learning_rate * train_config.decay_rate**epoch
        for batch in epoch_batches(dataset.train, train_config.batch_size, shuffle_rng):
            samples = sample_architectures(distribution, search_config.lam, sample_rng)
            grads, _ = grad_embeddings_mc([arch for arch, _ in samples], embeddings, batch)
            embeddings, adam = adam_step(embeddings, grads, adam, lr)

            if len(valid) > search_config.val_batch_size:
                pick = sample_rng.choice(
                    len(valid), size=search_config.val_batch_size, replace=False
                )
                val_batch = [valid[i] for i in pick]
            else:
                val_batch = valid
            utilities = []
            per_fact = []
            for arch, _ in samples:
                fact_u, mean_u = validation_utility(
                    embeddings, arch, val_batch, filter_index, search_config.tie_policy
                )
                per_fact.append(fact_u)
                utilities.append(mean_u)
            weights = per_fact_ranked_weights(np.stack(per_fact))
            direction = theta_gradient(
                [(stat, float(w)) for (_, stat), w in zip(samples, weights)], distribution
            )
            distribution, state = asng_update(distribution, direction, state)
            trace.append(
                epoch=epoch,
                utilities=[float(u) for u in utilities],
                val_mrr=float(np.mean(utilities)),
                theta_entropy=distribution.entropy(),
                sampled_ops=[stat.op_counts() for _, stat in samples],
                trust=state.trust,
            )

    return SearchResult(derive_final(distribution), distribution, trace, embeddings)


# ---------------------------------------------------------------------------
# theta snapshot i/o


def theta_to_doc(distribution: ArchitectureDistribution) -> dict:
    doc: dict = {
        "segment_count": distribution.segment_count,
        "max_arity": distribution.max_arity,
    }
    for n in distribution.arities():
        doc[str(n)] = [[float(x) for x in row] for row in distribution.thetas[n]]
    return doc


def theta_from_doc(doc: Mapping) -> ArchitectureDistribution:
    segment_count, max_arity = int_fields(doc, ("segment_count", "max_arity"), "theta document")
    thetas = {}
    for n in range(2, max_arity + 1):
        key = str(n)
        if key not in doc:
            raise DataError(f"theta document missing arity {n}")
        rows = doc[key]
        if not (
            isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows)
            and all(type(x) in (int, float) for row in rows for x in row)
        ):
            raise DataError(f"theta for arity {n} must be equal-length JSON arrays of numbers")
        thetas[n] = np.asarray(rows, dtype=np.float64)
    return ArchitectureDistribution(thetas, segment_count)


def save_theta(path: str | Path, distribution: ArchitectureDistribution) -> None:
    write_json(path, theta_to_doc(distribution))


def load_theta(path: str | Path) -> ArchitectureDistribution:
    return theta_from_doc(load_json_object(path, "theta file"))
