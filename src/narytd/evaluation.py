"""Filtered link-prediction evaluation: per-position ranks, MRR, Hits@T.

Each (fact, entity position) pair is one query. Candidates that are
known-true fillers for that query (over train+valid+test) are removed
before ranking, except the query's own answer.

rank_matrix ranks a list of architecture sets on the same facts, as a
search step scores its lam samples. It converts the facts once, and per
same-arity chunk of facts it packs the participants and looks up the
known fillers (FilterIndex.fillers, (rows, cols) arrays with no Python
per query) once for all sets. Each distinct set then gets one context
matrix for the chunk (kernels.context_batch: every hole of every fact),
which one tiled sweep, _tile_ranks, ranks against every entity, and a
set equal to an earlier one takes that set's ranks. The chunk's
contexts, the entity slice, the score tile and each block of exact
scores hold at most model._CACHE_BLOCK_BYTES, so ranking memory grows
neither with the split, nor with the vocabulary, nor with the number of
sets.

Ranks are those of float64 scores on the stored values: a chunk's
packed participants are upcast, which is exact, and each score is a
float64 row dot of a context and an entity row. The sweep screens every
candidate with float32 GEMMs and a proven error bound, and only the few
candidates within the bound of the truth's score, plus the truth and
the fillers, take the float64 dot, which uses no BLAS: given the
contexts, ranks depend neither on the tile shape nor on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .blocks import ArchitectureSet, pack_participants
from .data import Dataset, Fact, FilterIndex, build_filter_index, fact_groups
from .embeddings import SegmentedEmbeddings
from .errors import DataError, NumericError
from .kernels import context_batch

HITS_LEVELS = (1, 3, 10)

TIE_POLICIES = ("optimistic", "pessimistic")


@dataclass
class RankingMetrics:
    mrr: float
    hits: dict[int, float]
    count: int

    def to_doc(self, split: str | None = None, wall_seconds: float | None = None) -> dict:
        doc = {
            "split": split,
            "mrr": self.mrr,
            "hits1": self.hits[1],
            "hits3": self.hits[3],
            "hits10": self.hits[10],
            "queries": self.count,
        }
        if wall_seconds is not None:
            doc["wall_seconds"] = wall_seconds
        return doc


def _check_tie_policy(tie_policy: str) -> None:
    if tie_policy not in TIE_POLICIES:
        raise DataError(f"unknown tie policy {tie_policy!r}; expected {TIE_POLICIES}")


def _exact_scores(C: np.ndarray, E: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The float64 scores C[rows[k]] . E[cols[k]], one row dot per pair.

    Each is one elementwise product and one row sum, in blocks of pairs
    whose gathered rows hold at most a quarter of model._CACHE_BLOCK_BYTES,
    so that settling many band pairs adds little to the peak. No BLAS is
    involved, so a pair's score depends neither on the block that holds it
    nor on the thread count, and a candidate whose row equals the truth's
    scores exactly the truth's score.
    """
    z = np.empty(len(rows))
    step = max(1, model._CACHE_BLOCK_BYTES // (64 * C.shape[1]))
    for k in range(0, len(rows), step):
        block = C[rows[k : k + step]]
        block *= E[cols[k : k + step]]
        block.sum(axis=1, out=z[k : k + step])
    return z


def _entity_bound(E: np.ndarray) -> tuple[int, float]:
    """(k_E, max_e |e|), the entity rows' part of _tile_ranks' bound.

    2**k_E bounds the largest magnitude in E (k_E >= -126), and max_e |e|
    is the largest Euclidean norm of a row of E as _tile_ranks sweeps it:
    float32 rows as stored, float64 rows scaled by 2**-k_E. Both depend on
    the embeddings alone, so rank_matrix takes them once per arity group;
    the norms are summed in float64 over row blocks of at most
    model._CACHE_BLOCK_BYTES, with no temporary of the vocabulary's size.
    """
    k_E = max(int(np.frexp(max(E.max(initial=0.0), -E.min(initial=0.0)))[1]), -126)
    e_shift = 0 if E.dtype == np.float32 else -k_E
    step = max(1, model._CACHE_BLOCK_BYTES // (8 * E.shape[1]))
    e_norm2 = 0.0
    for e0 in range(0, len(E), step):
        S = np.ldexp(E[e0 : e0 + step], e_shift, dtype=np.float64)
        e_norm2 = max(e_norm2, np.einsum("ij,ij->i", S, S).max())
    return k_E, math.sqrt(e_norm2)


def _tile_ranks(
    C: np.ndarray,
    E: np.ndarray,
    bound: tuple[int, float],
    truth: np.ndarray,
    filler_rows: np.ndarray,
    filler_cols: np.ndarray,
    beats,
) -> np.ndarray:
    """Filtered ranks of the float64 query contexts C, shape (R,).

    Candidate e of query r scores s_re = C[r] . E[e], the float64 row dot
    of _exact_scores on the stored values of the entity rows E (C's width,
    float32 or float64); truth[r] is its answer and the (filler_rows,
    filler_cols) entries its known-true fillers. With t_r = s_r,truth[r],
    rank[r] = 1 + #{e: beats(s_re, t_r)} less the fillers and the truth
    among them. beats is np.greater (optimistic ties) or np.greater_equal
    (pessimistic), so a candidate whose row equals the truth's ties.

    Every candidate is screened in float32. Each context row and float64
    E are first scaled by powers of two, which is exact and keeps every
    comparison, so that the float32 copies cannot overflow: E by 2**-k_E,
    and row r so that its largest magnitude is below 1, or below 2**-k_E
    when float32 rows are swept as stored. bound is _entity_bound(E):
    k_E and max_e |e|. In those units a float32 GEMM of the copies, Z,
    is within

        delta_r = kappa * |c_r| * max_e |e| + underflow_r,
        kappa = 1.01 * (gamma_used + 3u),  gamma_used = used*u / (1 - used*u)

    of every scaled s_re, where u = 2**-24 and |.| is the Euclidean norm
    of a scaled row. gamma_used bounds float32 accumulation over the `used`
    terms in any order; 3u bounds rounding C, and float64 rows of E, to
    float32 plus the float64 dot's own error; the 1.01 covers rounding in
    the bound itself. underflow_r, 2*eta*(used + sqrt(used) * (|c_r| +
    max_e |e|)) with eta = 2**-150, plus used * 2**-1074 before scaling,
    covers float32 and float64 products and casts that underflow. A zero
    context row scores every candidate exactly 0 both ways and takes
    delta_r = 0.

    hi_r >= t_r + delta_r and lo_r <= t_r - delta_r are rounded outward to
    float32, so beats(Z, hi_r) implies beats(s, t_r) and a candidate
    failing beats(Z, lo_r) fails beats(s, t_r). Each tile counts both per
    row; where the two counts differ the candidates between them (the
    band, which holds the truth when delta_r > 0) take their exact score,
    as do the truth and every filler, so that
    rank[r] = 1 + #{beats(Z, hi_r)} + #{band e: beats(s_re, t_r)}
    - #{filler or truth e: beats(s_re, t_r)}, the float64 count.

    Row tiles of the contexts, scaled and cast to float32 one tile at a
    time into one reused buffer, are swept against E's used rows in
    slices of `width`, a view of float32 rows or a float32 copy of float64
    ones in one reused buffer, each pair scored into one reused tile. Each
    buffer, and each block of exact dots and of band pairs, holds at most
    model._CACHE_BLOCK_BYTES.
    """
    R, used = C.shape
    n_e = len(E)
    if filler_cols.size and not 0 <= filler_cols.min() <= filler_cols.max() < n_e:
        raise DataError("known filler entity id outside the entity rows")
    budget = model._CACHE_BLOCK_BYTES
    t = _exact_scores(C, E, np.arange(R), truth)

    def beating(rows, cols):
        """Per query, how many of the pairs (rows, cols) beat its truth."""
        z = _exact_scores(C, E, rows, cols)
        return np.bincount(rows[beats(z, t[rows])], minlength=R)

    other = filler_cols != truth[filler_rows]
    count = 1 - beats(t, t) - beating(filler_rows[other], filler_cols[other])

    stored = E.dtype == np.float32  # swept as stored; float64 rows are cast
    k_E, e_norm = bound
    e_shift = 0 if stored else -k_E
    c_max = np.maximum(C.max(axis=1, initial=0.0), -C.min(axis=1, initial=0.0))
    # row r's scores are screened times 2**shift[r]; its context row is
    # scaled by 2**row_shift[r]
    shift = -np.frexp(c_max)[1] - k_E
    row_shift = (shift - e_shift)[:, None]
    # the row tiles scaled below and the slices swept later: width rows of
    # float64 and width * width float32 scores each fit the budget
    width = max(1, min(n_e, math.isqrt(budget // 4), budget // (8 * used)))
    c_norm = np.empty(R)
    for r0 in range(0, R, width):
        Cs = np.ldexp(C[r0 : r0 + width], row_shift[r0 : r0 + width])
        c_norm[r0 : r0 + width] = np.sqrt(np.einsum("ij,ij->i", Cs, Cs))
    Cs = None  # the last tile, freed before the sweep
    u = np.finfo(np.float32).eps / 2
    eta = np.finfo(np.float32).smallest_subnormal / 2
    gamma = used * u / (1 - used * u)
    delta = 1.01 * (gamma + 3 * u) * c_norm * e_norm
    underflow = (2 * eta * (used + math.sqrt(used) * (c_norm + e_norm))
                 + np.ldexp(float(used), shift - 1074))
    delta += np.where(c_norm > 0, underflow, 0.0)
    t_s = np.ldexp(t, shift)
    upper, lower = t_s + delta, t_s - delta
    with np.errstate(over="ignore"):
        hi, lo = upper.astype(np.float32), lower.astype(np.float32)
    np.nextafter(hi, np.inf, out=hi, where=hi < upper)
    np.nextafter(lo, -np.inf, out=lo, where=lo > lower)

    C32 = np.empty((min(width, R), used), dtype=np.float32)
    tile = np.empty(width * width, dtype=np.float32)
    sure_flags = np.empty(width * width, dtype=bool)
    cand_flags = np.empty(width * width, dtype=bool)
    counts = np.empty((2, width), dtype=np.min_scalar_type(width))
    S32 = None if stored else np.empty((width, used), dtype=np.float32)
    # band pairs wait in two buffers of `cap`, a tile's band rows taken all
    # at once when their pairs fit, else cap // width rows at a time
    cap = max(width, budget // 256)
    band_rows = np.empty(cap, dtype=np.intp)
    band_cols = np.empty(cap, dtype=np.intp)
    fill = 0
    for r0 in range(0, R, width):
        n_r = min(width, R - r0)
        # the float64 row scaled, then rounded once to float32
        c32 = np.ldexp(C[r0 : r0 + n_r], row_shift[r0 : r0 + n_r], out=C32[:n_r])
        for e0 in range(0, n_e, width):
            S = E[e0 : e0 + width]
            if not stored:
                S = np.ldexp(S, e_shift, out=S32[: len(S)])
            n_s = len(S)
            Z = np.matmul(c32, S.T, out=tile[: n_r * n_s].reshape(n_r, n_s))
            sure = beats(Z, hi[r0 : r0 + n_r, None], out=sure_flags[: n_r * n_s].reshape(n_r, n_s))
            cand = beats(Z, lo[r0 : r0 + n_r, None], out=cand_flags[: n_r * n_s].reshape(n_r, n_s))
            n_sure, n_cand = counts[:, :n_r]
            np.add.reduce(sure.view(np.uint8), axis=1, dtype=counts.dtype, out=n_sure)
            np.add.reduce(cand.view(np.uint8), axis=1, dtype=counts.dtype, out=n_cand)
            count[r0 : r0 + n_r] += n_sure
            band = np.flatnonzero(n_cand != n_sure)
            fits = (n_cand[band] - n_sure[band]).sum(dtype=np.int64) <= cap
            group = max(1, len(band) if fits else cap // width)
            for g0 in range(0, len(band), group):
                b = band[g0 : g0 + group]
                i, j = np.nonzero(cand[b] ^ sure[b])
                if fill + len(i) > cap:
                    count += beating(band_rows[:fill], band_cols[:fill])
                    fill = 0
                band_rows[fill : fill + len(i)] = b[i] + r0
                band_cols[fill : fill + len(i)] = j + e0
                fill += len(i)
    count += beating(band_rows[:fill], band_cols[:fill])
    return count


def mrr(ranks: Sequence[int]) -> float:
    if len(ranks) == 0:
        raise DataError("cannot compute MRR of zero ranks")
    return float(np.mean(1.0 / np.asarray(ranks, dtype=np.float64)))


def hits_at(ranks: Sequence[int], level: int) -> float:
    if len(ranks) == 0:
        raise DataError("cannot compute Hits@T of zero ranks")
    if level < 1:
        raise DataError(f"Hits level must be >= 1, got {level}")
    ranks = np.asarray(ranks)
    return float(np.mean(ranks <= level))


def aggregate(ranks: Sequence[int]) -> RankingMetrics:
    return RankingMetrics(
        mrr=mrr(ranks),
        hits={level: hits_at(ranks, level) for level in HITS_LEVELS},
        count=len(ranks),
    )


def rank_matrix(
    embeddings: SegmentedEmbeddings,
    architectures: Sequence[ArchitectureSet],
    facts: Sequence[Fact],
    filter_index: FilterIndex,
    tie_policy: str = "optimistic",
) -> np.ndarray:
    """Filtered ranks as a (sets, facts, max arity) array; a position a fact lacks holds 0.

    Facts are ranked by float64 scores, in same-arity row chunks whose hole-major
    (arity * rows, m*ds) contexts hold at most model._CACHE_BLOCK_BYTES
    (one fact's, if a fact's are more). Each chunk is packed, upcast and
    its fillers looked up once for all sets, then each distinct set's
    contexts are made by one context_batch call and ranked by one tiled
    sweep (see _tile_ranks), so memory grows neither with the number of
    facts, nor with the vocabulary, nor with the number of sets. A set
    equal to an earlier one takes its ranks, which is exact. Embeddings
    holding a NaN or an infinity raise NumericError: NaN scores would
    rank every truth first.
    """
    _check_tie_policy(tie_policy)
    matrix = embeddings.matrix
    # a NaN makes min and max NaN, an infinity one of them; neither makes a temporary
    if not np.isfinite([matrix.min(initial=0.0), matrix.max(initial=0.0)]).all():
        raise NumericError("cannot rank with embeddings that hold a NaN or an infinity")
    beats = np.greater_equal if tie_policy == "pessimistic" else np.greater
    first = [architectures.index(architecture) for architecture in architectures]
    distinct = sorted(set(first))
    groups = fact_groups(facts)
    max_arity = max((g[0] for g in groups), default=0)
    ranks = np.zeros((len(architectures), len(facts), max_arity), dtype=np.int64)
    for arity, index, rel_ids, ent_ids in groups:
        assignments = [architectures[i][arity] for i in distinct]
        used = min(arity, embeddings.segment_count) * embeddings.segment_length
        E = embeddings.entity_matrix[:, :used]
        bound = _entity_bound(E)
        step = max(1, model._CACHE_BLOCK_BYTES // (8 * arity * used))
        for start in range(0, len(index), step):
            rows, rel, ent = (a[start : start + step] for a in (index, rel_ids, ent_ids))
            X = pack_participants(embeddings, rel, ent).astype(np.float64, copy=False)
            truth, fillers = ent.T.ravel(), filter_index.fillers(rel, ent)
            for i, assignment in zip(distinct, assignments):
                C = context_batch(assignment.codes, X, range(1, arity + 1)).reshape(-1, used)
                rank = _tile_ranks(C, E, bound, truth, *fillers, beats)
                ranks[i, rows, :arity] = rank.reshape(arity, len(ent)).T
    return ranks[first]


def query_ranks(
    embeddings: SegmentedEmbeddings,
    architecture: ArchitectureSet,
    facts: Sequence[Fact],
    filter_index: FilterIndex,
    tie_policy: str = "optimistic",
) -> list[int]:
    """Filtered ranks for every (fact, position) query, by fact then position."""
    ranks = rank_matrix(embeddings, [architecture], facts, filter_index, tie_policy)[0]
    return ranks[ranks > 0].tolist()


def evaluate(
    embeddings: SegmentedEmbeddings,
    architecture: ArchitectureSet,
    dataset: Dataset,
    split: str,
    filter_index: FilterIndex | None = None,
    tie_policy: str = "optimistic",
) -> RankingMetrics:
    """Filtered MRR and Hits over every (fact, position) query of a split."""
    facts = dataset.split(split)
    if not facts:
        raise DataError(f"split {split!r} is empty")
    if filter_index is None:
        filter_index = build_filter_index(dataset)
    ranks = query_ranks(embeddings, architecture, facts, filter_index, tie_policy)
    return aggregate(ranks)
