"""Block-sparse tensor decomposition for n-ary relational data.

Segmented entity/relation embeddings are scored through per-arity sets of
diagonal blocks coded {-1, 0, +1}; a stochastic natural-gradient search
learns the codes from validation ranking utility, and filtered MRR/Hits
evaluation closes the loop.
"""

from .blocks import (
    ArchitectureSet,
    CoreAssignment,
    block_count,
    load_architecture,
    memorization_model,
    preset,
    preset_set,
    save_architecture,
    score_fact,
)
from .data import (
    Dataset,
    Fact,
    FilterIndex,
    Vocabulary,
    build_dataset,
    build_filter_index,
    group_by_arity,
    load_dataset_dir,
    parse_facts,
    serialize_facts,
)
from .embeddings import SegmentedEmbeddings, init_embeddings
from .errors import DataError, GenerationError, NumericError, ParseError
from .evaluation import RankingMetrics, evaluate, hits_at, mrr
from .model import (
    AdamState,
    adam_step,
    grad_embeddings_mc,
    load_checkpoint,
    save_checkpoint,
)
from .search import (
    ArchitectureDistribution,
    SearchConfig,
    SearchResult,
    asng_update,
    derive_final,
    init_theta,
    sample_architectures,
    search_loop,
    theta_gradient,
    validation_utility,
)
from .synth import PlantedResult, PlantedSpec, generate_planted, random_truth
from .training import LossReport, TrainConfig, TrainResult, train_fixed

__version__ = "0.1.0"
