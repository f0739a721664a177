"""The embedding loop (RunState) that fixed training and search share, and train_fixed."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .blocks import ArchitectureSet
from .data import Dataset, Fact, FilterIndex, build_filter_index
from .embeddings import SegmentedEmbeddings, init_embeddings
from .errors import DataError, NumericError
from .evaluation import evaluate
from .model import AdamState, adam_step, grad_embeddings_mc

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    dimension: int = 64
    segment_count: int = 2
    learning_rate: float = 0.05
    decay_rate: float = 0.995
    batch_size: int = 128
    max_epochs: int = 100
    seed: int = 0
    patience: int = 10
    eval_every: int = 1  # epochs between validation checks; 0 disables

    def __post_init__(self):
        if self.dimension <= 0 or self.segment_count <= 0:
            raise DataError("dimension and segment count must be positive")
        if self.dimension % self.segment_count != 0:
            raise DataError(
                f"dimension {self.dimension} not divisible by segment count {self.segment_count}"
            )
        if self.batch_size < 1 or self.max_epochs < 0 or self.patience < 1 or self.eval_every < 0:
            raise DataError("batch_size and patience must be >= 1, max_epochs and eval_every >= 0")
        if not 0 <= self.learning_rate < np.inf:  # 0 is allowed: it freezes the embeddings
            raise DataError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 < self.decay_rate <= 1:
            raise DataError(f"decay_rate must be in (0, 1], got {self.decay_rate}")


@dataclass
class LossReport:
    epoch: int
    mean_loss: float
    facts: int


@dataclass
class TrainResult:
    embeddings: SegmentedEmbeddings
    history: list[LossReport]
    valid_mrr_history: list[tuple[int, float]] = field(default_factory=list)

    @property
    def final_valid_mrr(self) -> float | None:
        """Validation MRR of the returned embeddings; None unless the last epoch was checked."""
        last = self.valid_mrr_history[-1] if self.valid_mrr_history else None
        return last[1] if last and last[0] == self.history[-1].epoch else None


class RunState:
    """Embeddings, their Adam moments and the mini-batch shuffle stream
    [seed, 0], which no architecture draw touches."""

    def __init__(self, embeddings: SegmentedEmbeddings, config: TrainConfig):
        self.embeddings, self.config = embeddings, config
        self.adam = AdamState.for_embeddings(embeddings)
        self.shuffle = np.random.default_rng([config.seed, 0])

    def epoch(self, facts: Sequence[Fact], epoch: int, draw: Callable[[], list]) -> Iterator[float]:
        """One shuffled pass over the facts. Each batch takes one Adam step at rate
        lr * decay_rate**epoch on the mean gradient over draw()'s architecture
        sets, then yields its loss; a non-finite loss raises NumericError."""
        lr = self.config.learning_rate * self.config.decay_rate**epoch
        order, size = self.shuffle.permutation(len(facts)), self.config.batch_size
        for start in range(0, len(facts), size):
            batch = [facts[i] for i in order[start : start + size]]
            grads, loss = grad_embeddings_mc(draw(), self.embeddings, batch)
            if not np.isfinite(loss):
                raise NumericError(f"loss diverged at epoch {epoch}: {loss}")
            self.embeddings, self.adam = adam_step(self.embeddings, grads, self.adam, lr)
            yield loss


def check_architecture_covers(architecture: ArchitectureSet, dataset: Dataset) -> None:
    missing = [n for n in dataset.arities() if n not in architecture]
    if missing:
        raise DataError(f"architecture has no assignment for arities {missing}")


def train_fixed(
    architecture: ArchitectureSet,
    dataset: Dataset,
    config: TrainConfig,
    filter_index: FilterIndex | None = None,
    tie_policy: str = "optimistic",
) -> TrainResult:
    """Train embeddings under one fixed architecture set.

    Runs RunState epochs; stops early when validation MRR has not improved
    for `patience` consecutive checks. Returns the final embeddings and the
    per-epoch loss history.
    """
    check_architecture_covers(architecture, dataset)
    if architecture.segment_count != config.segment_count:
        raise DataError("architecture and config segment counts differ")
    vocab = dataset.vocabulary
    embeddings = init_embeddings(
        vocab.entity_count,
        vocab.relation_count,
        config.dimension,
        config.segment_count,
        config.seed,
    )
    if dataset.valid and filter_index is None and config.eval_every > 0:
        filter_index = build_filter_index(dataset)
    run = RunState(embeddings, config)
    history: list[LossReport] = []
    valid_history: list[tuple[int, float]] = []
    best_mrr = -np.inf
    stale = 0
    n_train = len(dataset.train)
    for epoch in range(config.max_epochs):
        mean_loss = sum(run.epoch(dataset.train, epoch, lambda: [architecture])) / n_train
        history.append(LossReport(epoch=epoch, mean_loss=mean_loss, facts=n_train))
        if dataset.valid and config.eval_every > 0 and (epoch + 1) % config.eval_every == 0:
            metrics = evaluate(
                run.embeddings, architecture, dataset, "valid", filter_index, tie_policy
            )
            valid_history.append((epoch, metrics.mrr))
            if metrics.mrr > best_mrr:
                best_mrr = metrics.mrr
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    logger.info(
                        "early stop at epoch %d: valid MRR flat for %d checks", epoch, stale
                    )
                    break
    return TrainResult(run.embeddings, history, valid_history)
