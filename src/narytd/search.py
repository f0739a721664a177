"""Architecture search over block codes via stochastic natural gradient.

Each block's code is drawn from a per-block categorical over the three
ops. One 3 x K probability matrix (rows in op order -1, 0, +1) holds every
arity's blocks as a column block, arities ascending, so a sample's one-hot
statistic, the ascent direction and the ASNG signal are one array each.
The matrix is ascended toward higher validation utility with an adaptive
natural gradient whose trust-region scale follows the accumulated update
signal. Two sums keep the per-arity order the blocks once had, so a
search writes the same bytes as one with a matrix per arity: the signal
vector lists each block's two free rows block by block, and the entropy
adds one sum per block; a whole-matrix sum rounds differently.
The loop alternates one embedding step on a training batch (the loop fixed
training runs, training.RunState) with one distribution step scored on a
validation batch, then picks the most probable op per block. Both steps
take the lam sampled sets as one list: model.grad_embeddings_mc converts
the training batch once, and validation_utility ranks the validation
batch for every set in one evaluation.rank_matrix call, which converts
and looks up the batch once and scores each distinct set once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .blocks import ArchitectureSet, CoreAssignment, block_count
from .data import Dataset, Fact, FilterIndex, build_filter_index, int_fields, load_json_object
from .data import json_text, write_json
from .embeddings import SegmentedEmbeddings, init_embeddings
from .errors import DataError, NumericError
from .evaluation import rank_matrix
from .training import RunState, TrainConfig

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
    """Column-stochastic op probabilities of every block of every arity.

    The constructor copies `thetas` (arity -> 3 x K_n) into one float64
    `theta` of shape (3, K), K = sum of K_n, in which arity n's blocks are
    the column block `columns[n]`, arities ascending; `thetas[n]` becomes a
    view of that block, through which writes reach the matrix.
    """

    thetas: dict[int, np.ndarray]
    segment_count: int

    def __post_init__(self):
        if not self.thetas or min(self.thetas) < 2:
            raise DataError(f"distribution arities must be 2..n, got {sorted(self.thetas)}")
        self.max_arity = max(self.thetas)
        blocks, self.columns, start = [], {}, 0
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
            blocks.append(theta)
            self.columns[n] = slice(start, start + expected)
            start += expected
        self.theta = np.concatenate(blocks, axis=1)
        self.thetas = {n: self.theta[:, cols] for n, cols in self.columns.items()}

    def arities(self) -> list[int]:
        return list(self.columns)

    def architecture(self, codes: np.ndarray) -> ArchitectureSet:
        """The set whose arity-n codes are `codes[columns[n]]`, for a length-K vector."""
        return ArchitectureSet({
            n: CoreAssignment(n, self.segment_count, codes[cols])
            for n, cols in self.columns.items()
        })

    def entropy(self) -> float:
        """Mean per-block entropy (nats) across all arities."""
        p = np.clip(self.theta, 1e-300, 1.0)
        h = -(p * np.log(p))
        # one contiguous sum per arity block, in arity order
        total = sum(float(h[:, cols].ravel().sum()) for cols in self.columns.values())
        return total / self.theta.shape[1]

    def copy(self) -> "ArchitectureDistribution":
        return ArchitectureDistribution(self.thetas, self.segment_count)


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
) -> list[tuple[ArchitectureSet, np.ndarray]]:
    """lam i.i.d. draws from the distribution, each with its 3 x K one-hot statistic.

    One rng.random((lam, K)) call draws every block of every sample, in
    the order a draw per sample and arity would.
    """
    cum = np.cumsum(distribution.theta, axis=0)
    u = rng.random((lam, distribution.theta.shape[1]))
    rows = (u >= cum[0]).astype(np.int64) + (u >= cum[1])
    one_hots = (rows[:, None, :] == np.arange(3)[:, None]).astype(np.float64)
    return [
        (distribution.architecture(OP_CODES[r]), one_hot) for r, one_hot in zip(rows, one_hots)
    ]


def derive_final(distribution: ArchitectureDistribution) -> ArchitectureSet:
    """Most probable op per block; exact ties prefer 0, then +1, then -1."""
    order = list(_TIE_ORDER)  # argmax takes the first maximum in this order
    return distribution.architecture(
        OP_CODES[order][np.argmax(distribution.theta[order], axis=0)]
    )


# ---------------------------------------------------------------------------
# utilities and the distribution gradient


def validation_utility(
    embeddings: SegmentedEmbeddings,
    architectures: Sequence[ArchitectureSet],
    facts: Sequence[Fact],
    filter_index: FilterIndex,
    tie_policy: str = "optimistic",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-fact utilities (mean reciprocal filtered rank over positions) of each set.

    Returns a (sets, facts) array, facts in input order, and its (sets,)
    row means. The facts are ranked for every set by one rank_matrix call.
    Each fact's reciprocal ranks are summed in position order, one position
    at a time across all facts, so every sum rounds as a per-fact loop would.
    """
    if not facts:
        raise DataError("validation batch is empty")
    ranks = rank_matrix(embeddings, architectures, facts, filter_index, tie_policy)
    utilities = np.zeros(ranks.shape[:2])
    for recips in 1.0 / np.where(ranks > 0, ranks, np.inf).transpose(2, 0, 1):
        utilities += recips  # a lacking position adds 0
    utilities /= np.count_nonzero(ranks, axis=2)
    return utilities, utilities.mean(axis=1)


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
    samples: Sequence[tuple[np.ndarray, float]],
    distribution: ArchitectureDistribution,
) -> np.ndarray:
    """Ascent direction (1/lam) sum_i w_i (T_i - theta), one 3 x K array.

    T_i is sample i's one-hot statistic. Each sample's weight w_i is used
    as given; the search loop passes per_fact_ranked_weights of the
    samples' validation utilities.
    """
    if not samples:
        raise DataError("theta_gradient needs at least one sample")
    direction = np.zeros_like(distribution.theta)
    for one_hot, w in samples:
        if w != 0.0:
            direction += w * (one_hot - distribution.theta)
    direction /= len(samples)
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
        return cls(signal=np.zeros(2 * distribution.theta.shape[1]), delta_init=delta_init)


def _fisher_normalized(
    distribution: ArchitectureDistribution, direction: np.ndarray
) -> np.ndarray:
    """sqrt-Fisher image of the direction in minimal (first two rows) coords.

    Probabilities are floored before inverting so entries sitting at the
    simplex clip floor cannot blow up the normalization; the step size
    divides by this vector's norm, so unbounded curvature would stall or
    destabilize the trust-region accumulator. The vector lists each arity
    block's two rows in turn, so its dot products sum in arity order.
    """
    theta = np.maximum(distribution.theta, 1e-4)
    sq = np.sqrt(theta[:2])
    last = theta[2]
    s = direction[:2] / sq
    s += sq * ((direction[0] + direction[1]) / (last + np.sqrt(last)))
    return np.concatenate([s[:, cols].ravel() for cols in distribution.columns.values()])


def asng_update(
    distribution: ArchitectureDistribution,
    direction: np.ndarray,
    state: AsngState,
) -> tuple[ArchitectureDistribution, AsngState]:
    """Natural-gradient step with adaptive scale; keeps columns on the simplex.

    After the step every entry is clipped to [THETA_FLOOR, 1] and each
    column renormalized to sum 1; an entry the renormalization took below
    THETA_FLOOR is raised back to it, so a column's sum stays within
    3 * THETA_FLOOR of 1. Mutates and returns its inputs. A step that
    leaves theta non-finite (an overflowing step size) raises NumericError.
    """
    delta = state.delta_init / state.trust
    dim = state.signal.shape[0]
    beta = min(delta / np.sqrt(dim), 1.0)  # keep the accumulator well defined
    normalized = _fisher_normalized(distribution, direction)
    pnorm = float(np.sqrt(normalized @ normalized)) + 1e-9
    step = delta / pnorm
    theta = distribution.theta
    theta += step * direction
    np.clip(theta, THETA_FLOOR, 1.0, out=theta)
    theta *= 1.0 / theta.sum(axis=0)
    np.maximum(theta, THETA_FLOOR, out=theta)
    if not np.all(np.isfinite(theta)):
        raise NumericError(f"theta is not finite after a step of size {step:g}")
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
        if not 0 < self.theta_lr < np.inf:
            raise DataError(f"theta_lr must be finite and > 0, got {self.theta_lr}")


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
        return "".join(json_text(r) + "\n" for r in self.records)


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
    distribution. The embedding steps are training.RunState's, so a one-hot
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
    run = RunState(
        init_embeddings(vocab.entity_count, vocab.relation_count, dim, M, train_config.seed),
        train_config,
    )
    sample_rng = np.random.default_rng([search_config.seed, 1])
    trace = SearchTrace()
    valid, tie_policy = dataset.valid, search_config.tie_policy
    archs: list[ArchitectureSet] = []  # this step's draws
    stats: list[np.ndarray] = []  # and their one-hot statistics

    def draw() -> list[ArchitectureSet]:
        archs[:], stats[:] = zip(*sample_architectures(distribution, search_config.lam, sample_rng))
        return archs

    for epoch in range(search_config.search_epochs):
        for _ in run.epoch(dataset.train, epoch, draw):
            if len(valid) > search_config.val_batch_size:
                pick = sample_rng.choice(
                    len(valid), size=search_config.val_batch_size, replace=False
                )
                val_batch = [valid[i] for i in pick]
            else:
                val_batch = valid
            per_fact, utilities = validation_utility(
                run.embeddings, archs, val_batch, filter_index, tie_policy
            )
            weights = per_fact_ranked_weights(per_fact)
            direction = theta_gradient(list(zip(stats, weights.tolist())), distribution)
            distribution, state = asng_update(distribution, direction, state)
            trace.append(
                epoch=epoch,
                utilities=utilities.tolist(),
                val_mrr=float(utilities.mean()),
                theta_entropy=distribution.entropy(),
                sampled_ops=[
                    dict(zip(OP_CODES.tolist(), map(int, stat.sum(axis=1)))) for stat in stats
                ],
                trust=state.trust,
            )

    return SearchResult(derive_final(distribution), distribution, trace, run.embeddings)


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
