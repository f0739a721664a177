"""The benchmark's three workloads: inputs, one timed pass, correctness checks.

Every workload is an offline batch job run as a closed loop: one pass
starts when the previous one has finished, and there is no arrival rate.

- search-planted: `search_loop` on the planted spec of acceptance
  criterion 7 (100 entities, d=16, M=2, K=8). A tiny vocabulary, so the
  per-query ranking loop and per-call kernel overhead dominate, and the
  only workload where sampled architectures often coincide.
- train-eval-20k: one `train_fixed` epoch, then `evaluate` on the test
  split, at 20,000 entities and d=128 with the sparse `cp` preset. BLAS
  bound (gradient matmuls, dense Adam, 2000 x 20000 candidate matrices);
  kernels and search are almost absent.
- cli-4ary: `synth` (set-up), then `search`, `train`, `eval`, each as
  its own process, at arity 4 and M=4 (K=1024 dense sampled blocks).
  Block-context kernels dominate; every command also pays for process
  start, TSV parsing, filter-index builds and checkpoint I/O.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Traced functions are called through the package namespace, where the
# span recorder's wrappers are installed.
import narytd
from narytd import (
    ArchitectureSet,
    CoreAssignment,
    Dataset,
    PlantedSpec,
    SearchConfig,
    TrainConfig,
    group_by_arity,
    preset_set,
)
from spans import Probe, Recorder, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNNER = HERE / "cli_runner.py"

CHILD_TIMEOUT_S = 150
SIMPLEX_TOL = 1e-9
ORACLE_SCORE_TOL = 1e-9
ORACLE_QUERIES = 200
# Share of sampled queries whose oracle rank interval may be wider than
# one rank. Scores of trained embeddings do not tie; all-zero scores
# (say, an all-zero architecture) tie everywhere and would pass any rank.
ORACLE_MAX_TIES = 0.05


@dataclass
class Context:
    """What a workload's set-up and pass may use besides their inputs."""

    seed: int
    workdir: Path
    probe: Probe
    recorder: Recorder | None  # set in traced units only


@dataclass
class Outcome:
    """Result of one set-up or pass: its operations and their failures."""

    wall_s: float = 0.0
    ops: int = 1
    failures: list[str] = field(default_factory=list)
    step_intervals: list[float] = field(default_factory=list)
    mean_loss: float = math.nan
    stages: dict[str, float] = field(default_factory=dict)  # per-stage throughputs
    deferred: Callable[[], list[str]] | None = None  # checks run outside any trace

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def fingerprint(dataset: Dataset) -> dict[str, str]:
    """sha256 prefix of each split's fact id arrays (relation, arity, entities)."""
    out = {}
    for name in ("train", "valid", "test"):
        ids = [x for f in dataset.split(name) for x in (f.relation, f.arity, *f.entities)]
        out[name] = hashlib.sha256(np.asarray(ids, dtype="<i8").tobytes()).hexdigest()[:16]
    return out


def _intervals(returns: list[float]) -> list[float]:
    return [b - a for a, b in zip(returns, returns[1:])]


def _on_simplex(theta: np.ndarray) -> bool:
    return bool(np.all(theta >= 0) and np.all(np.abs(theta.sum(axis=0) - 1.0) <= SIMPLEX_TOL))


# ---------------------------------------------------------------------------
# search-planted

SEARCH_EPOCHS = 30
SEARCH_BATCH = 256
# Criterion 7's dataset seed. The number of candidate draws generation
# needs, and so the set-up time, varies threefold with this seed, so it
# stays fixed; --seed seeds the search and the embedding training.
PLANTED_SEED = 5


def setup_search_planted(ctx: Context):
    truth = ArchitectureSet({2: CoreAssignment(2, 2, np.array([1, 0, 0, 0, 0, 0, 0, 0], np.int8))})
    spec = PlantedSpec(
        entity_count=100, relation_count=8, arities=(2,), dimension=16, segment_count=2,
        assignments=truth, facts_per_arity=2000, margin=1.0, seed=PLANTED_SEED, sigma=0.7,
    )
    dataset = narytd.generate_planted(spec).dataset
    return dataset, narytd.build_filter_index(dataset)


def pass_search_planted(inputs, ctx: Context) -> Outcome:
    dataset, filter_index = inputs
    search_config = SearchConfig(
        lam=2, search_epochs=SEARCH_EPOCHS, val_batch_size=200, theta_lr=0.25,
        seed=ctx.seed, dimension=16,
    )
    train_config = TrainConfig(
        dimension=16, segment_count=2, learning_rate=0.05, decay_rate=1.0,
        batch_size=SEARCH_BATCH, max_epochs=1, seed=ctx.seed, eval_every=0,
    )
    steps0, losses0 = len(ctx.probe.step_returns), len(ctx.probe.losses)
    start = clock()
    result = narytd.search_loop(dataset, search_config, train_config, filter_index=filter_index)
    out = Outcome(wall_s=clock() - start)

    n_train = len(dataset.train)
    batches = math.ceil(n_train / SEARCH_BATCH)
    iterations = SEARCH_EPOCHS * batches
    out.step_intervals = _intervals(ctx.probe.step_returns[steps0:])
    out.mean_loss = sum(ctx.probe.losses[losses0:][:batches]) / n_train
    out.stages = {
        "search_iters_per_s": len(result.trace) / out.wall_s,
        "search_iter_ms_p50": float(np.percentile(out.step_intervals, 50) * 1e3),
        "search_iter_ms_p95": float(np.percentile(out.step_intervals, 95) * 1e3),
    }
    out.check(len(result.trace) == iterations, f"trace has {len(result.trace)} != {iterations} iterations")
    out.check(
        all(_on_simplex(t) for t in result.distribution.thetas.values()),
        "a theta column left the simplex",
    )
    out.check(math.isfinite(out.mean_loss), f"loss {out.mean_loss} not finite")
    return out


# ---------------------------------------------------------------------------
# train-eval-20k

TE_ENTITIES = 20_000
TE_DIM = 128
TE_PER_ARITY = 2000  # train facts per arity; as many test facts again
TE_ARITIES = (2, 3)


def setup_train_eval(ctx: Context):
    architecture = preset_set("cp", max(TE_ARITIES), 2)
    spec = PlantedSpec(
        entity_count=TE_ENTITIES, relation_count=50, arities=TE_ARITIES, dimension=TE_DIM,
        segment_count=2, assignments=architecture, facts_per_arity=2 * TE_PER_ARITY,
        margin=1.0, seed=ctx.seed, sigma=1.0,
    )
    planted = narytd.generate_planted(spec).dataset
    # re-split each arity's positives evenly into train and test
    rng = np.random.default_rng([ctx.seed, 7])
    train, test = [], []
    for _arity, facts in sorted(group_by_arity(planted.all_facts()).items()):
        order = rng.permutation(len(facts))
        train += [facts[i] for i in order[:TE_PER_ARITY]]
        test += [facts[i] for i in order[TE_PER_ARITY:]]
    dataset = Dataset(planted.vocabulary, train, [], test)
    return dataset, narytd.build_filter_index(dataset), architecture


def pass_train_eval(inputs, ctx: Context) -> Outcome:
    dataset, filter_index, architecture = inputs
    config = TrainConfig(
        dimension=TE_DIM, segment_count=2, batch_size=256, max_epochs=1, seed=ctx.seed,
        eval_every=0,
    )
    steps0 = len(ctx.probe.step_returns)
    start = clock()
    result = narytd.train_fixed(architecture, dataset, config, filter_index=filter_index)
    trained = clock()
    metrics = narytd.evaluate(result.embeddings, architecture, dataset, "test", filter_index)
    out = Outcome(wall_s=clock() - start)

    queries = sum(f.arity for f in dataset.test)
    out.step_intervals = _intervals(ctx.probe.step_returns[steps0:])
    out.mean_loss = result.history[0].mean_loss
    out.stages = {
        "train_facts_per_s": len(dataset.train) / (trained - start),
        "eval_queries_per_s": metrics.count / (out.wall_s - (trained - start)),
    }
    out.check(math.isfinite(out.mean_loss), f"loss {out.mean_loss} not finite")
    out.check(metrics.count == queries, f"{metrics.count} queries ranked, expected {queries}")
    out.check(0.0 < metrics.mrr <= 1.0, f"MRR {metrics.mrr} outside (0, 1]")
    out.deferred = lambda: oracle_mismatches(
        result.embeddings, architecture, dataset, filter_index, ctx.seed
    )
    return out


def _oracle_scores(codes, m, embeddings, relation, entities, hole):
    """Scores of every entity substituted at entity position `hole`.

    Straight from the block codes: score = sum_k code_k * sum_t prod_q
    x_q[j_q(k), t], with the hole's factor left as the candidate matrix.
    Block k is the row-major multi-index (j_r, j_1, ..., j_n), j_r slowest.
    """
    ds = embeddings.segment_length
    P = len(entities) + 1
    rows = [embeddings.relation_matrix[relation]] + [embeddings.entity_matrix[e] for e in entities]
    blocks = np.flatnonzero(codes)
    digits = np.unravel_index(blocks, (m,) * P)
    prod = np.asarray(codes, dtype=np.float64)[blocks, None] * np.ones(ds)
    for q in range(P):
        if q != hole + 1:
            prod *= rows[q][: m * ds].reshape(m, ds)[digits[q]]
    weights = np.zeros((m, ds))  # per segment of the hole: sum of its blocks' products
    np.add.at(weights, digits[hole + 1], prod)
    return embeddings.entity_matrix[:, : m * ds] @ weights.ravel()


def oracle_mismatches(embeddings, architecture, dataset, filter_index, seed) -> list[str]:
    """Compare `query_ranks` with a brute-force filtered rank interval.

    For a seeded sample of test facts with about ORACLE_QUERIES queries
    in all, the oracle ranks the truth among all candidates, dropping
    candidates whose substituted tuple is a known fact (its own index,
    built here from every split). At a score tolerance of
    ORACLE_SCORE_TOL the optimistic rank lies in [lo, hi]; the rank
    `query_ranks` gives each query, with narytd's own filter index, must
    lie in that interval.
    """
    known: dict[tuple, set[int]] = {}
    for f in dataset.all_facts():
        for p, e in enumerate(f.entities):
            known.setdefault((f.relation, p, f.entities[:p] + f.entities[p + 1 :]), set()).add(e)
    rng = np.random.default_rng([seed, 11])
    sample, queries = [], 0
    for i in rng.permutation(len(dataset.test)):
        if queries >= ORACLE_QUERIES:
            break
        sample.append(dataset.test[int(i)])
        queries += sample[-1].arity
    intervals = []
    for fact in sample:
        assignment = architecture[fact.arity]
        for p in range(fact.arity):
            scores = _oracle_scores(
                assignment.codes, assignment.m, embeddings, fact.relation, fact.entities, p
            )
            truth = fact.entities[p]
            alive = np.ones(len(scores), dtype=bool)
            rest = fact.entities[:p] + fact.entities[p + 1 :]
            alive[list(known[(fact.relation, p, rest)])] = False
            target = scores[truth]
            lo = 1 + int(np.count_nonzero(alive & (scores > target + ORACLE_SCORE_TOL)))
            hi = 1 + int(np.count_nonzero(alive & (scores > target - ORACLE_SCORE_TOL)))
            intervals.append((fact, p, lo, hi))
    ranks = narytd.evaluation.query_ranks(embeddings, architecture, sample, filter_index)
    if len(ranks) != len(intervals):
        return [f"query_ranks gave {len(ranks)} ranks for {len(intervals)} sampled queries"]
    failures = []
    ties = sum(hi > lo for _fact, _p, lo, hi in intervals)
    if ties > ORACLE_MAX_TIES * len(intervals):
        failures.append(f"{ties} of {len(intervals)} sampled queries tie with other candidates "
                        "in the oracle, so it cannot check their ranks")
    problems = [
        f"{fact} position {p}: rank {rank}, oracle interval [{lo}, {hi}]"
        for rank, (fact, p, lo, hi) in zip(ranks, intervals)
        if not lo <= rank <= hi
    ]
    if problems:
        failures.append(f"{len(problems)} of {len(intervals)} sampled queries disagree with the "
                        f"brute-force oracle; first: {problems[0]}")
    return failures


# ---------------------------------------------------------------------------
# cli-4ary

CLI_SHAPE = ["--segments", "4", "--dim", "32"]
CLI_SYNTH = [
    "--arities", "4", *CLI_SHAPE, "--entities", "500", "--relations", "10",
    "--facts-per-arity", "1500", "--margin", "0.1", "--sigma", "1.0",
]
CLI_SEARCH = [*CLI_SHAPE, "--lambda", "2", "--search-epochs", "1", "--batch-size", "256",
              "--val-batch-size", "200"]
CLI_TRAIN = [*CLI_SHAPE, "--epochs", "1", "--eval-every", "1"]


def run_command(ctx: Context, command: str, args: list[str], env: dict) -> tuple[Outcome, dict]:
    """One CLI command as its own process; returns its outcome and stdout doc."""
    info_path = ctx.workdir / f"{command}.info.json"
    info_path.unlink(missing_ok=True)
    trace = ctx.recorder is not None
    span = ctx.recorder.open(f"cli.{command}") if trace else None
    spawn = clock()
    argv = [sys.executable, str(RUNNER), "--spawn", repr(spawn), "--trace", str(int(trace)),
            "--info", str(info_path), "--", command, *args, "--seed", str(ctx.seed)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        end = clock()
        if trace:
            ctx.recorder.close(span)
    out = Outcome(wall_s=end - spawn)
    out.check(proc.returncode == 0, f"{command} exited {proc.returncode}: {proc.stderr[-500:]}")
    doc = {}
    if proc.returncode == 0:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        info = json.loads(info_path.read_text(encoding="utf-8"))
        out.step_intervals = _intervals(info["step_returns"])
        out.stages["startup_s"] = info["startup_s"]
        if trace:
            ctx.recorder.extend(info["spans"], span)
    return out, doc


def setup_cli(ctx: Context, env: dict):
    data = ctx.workdir / "data"
    out, _ = run_command(ctx, "synth", ["--out", str(data), *CLI_SYNTH], env)
    if out.failures:
        raise RuntimeError("; ".join(out.failures))
    return data, out.wall_s


def pass_cli(data: Path, ctx: Context, env: dict, dataset: Dataset, filter_index) -> Outcome:
    search_dir, ckpt, eval_doc = (ctx.workdir / n for n in ("search", "ckpt", "eval.json"))
    total = Outcome(ops=0)
    startups = []
    steps = [
        ("search", ["--data", str(data), "--out", str(search_dir), *CLI_SEARCH]),
        ("train", ["--data", str(data), "--out", str(ckpt), "--arch",
                   str(search_dir / "architecture.json"), *CLI_TRAIN]),
        ("eval", ["--checkpoint", str(ckpt), "--data", str(data), "--split", "test",
                  "--out", str(eval_doc)]),
    ]
    for command, args in steps:
        out, doc = run_command(ctx, command, args, env)
        total.ops += 1
        total.wall_s += out.wall_s
        total.step_intervals += out.step_intervals
        total.stages[f"cli.{command}_s"] = out.wall_s
        startups += [out.stages["startup_s"]] if "startup_s" in out.stages else []
        if not out.failures:
            try:
                out.failures += _check_cli_artifacts(command, doc, ctx.workdir, dataset, total)
            except (OSError, ValueError, KeyError, narytd.DataError) as exc:
                out.failures.append(f"{command} artifacts unreadable: {exc!r}")
        if out.failures:
            total.failures.append(f"{command}: " + "; ".join(out.failures))
            break  # later commands need this one's artifacts
    if startups:
        total.stages["cli.startup_s"] = sum(startups) / len(startups)
    if not total.failures:
        total.deferred = lambda: cli_oracle_mismatches(ctx.workdir, dataset, filter_index, ctx.seed)
    return total


def cli_oracle_mismatches(workdir: Path, dataset: Dataset, filter_index, seed) -> list[str]:
    """The brute-force oracle on the trained checkpoint and its searched
    architecture (dense codes over K=1024 blocks at arity 4)."""
    embeddings, architecture, _meta = narytd.load_checkpoint(workdir / "ckpt")
    searched = narytd.load_architecture(workdir / "search" / "architecture.json")
    if architecture != searched:
        return ["the checkpoint's architecture differs from the searched one"]
    return oracle_mismatches(embeddings, architecture, dataset, filter_index, seed)


def _check_cli_artifacts(command, doc, workdir, dataset, total: Outcome) -> list[str]:
    out = Outcome()
    wall = total.stages[f"cli.{command}_s"]
    if command == "search":
        narytd.load_architecture(workdir / "search" / "architecture.json")
        theta = json.loads((workdir / "search" / "theta.json").read_text(encoding="utf-8"))
        for n in range(2, int(theta["max_arity"]) + 1):
            out.check(_on_simplex(np.asarray(theta[str(n)])), f"theta arity {n} off the simplex")
        lines = (workdir / "search" / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        out.check(len(records) == doc["iterations"] > 0, "search trace length mismatch")
        total.stages["search_iters_per_s"] = doc["iterations"] / wall
    elif command == "train":
        narytd.load_checkpoint(workdir / "ckpt")
        history = json.loads((workdir / "ckpt" / "loss_history.json").read_text(encoding="utf-8"))
        total.mean_loss = history["epochs"][0]["mean_loss"]
        out.check(math.isfinite(total.mean_loss), f"loss {total.mean_loss} not finite")
        total.stages["train_facts_per_s"] = sum(e["facts"] for e in history["epochs"]) / wall
    else:
        result = json.loads((workdir / "eval.json").read_text(encoding="utf-8"))
        queries = sum(f.arity for f in dataset.test)
        out.check(result["queries"] == queries, f"eval ranked {result['queries']} != {queries} queries")
        total.stages["eval_queries_per_s"] = result["queries"] / wall
    return out.failures


def load_cli_dataset(data: Path) -> Dataset:
    """The synthesized dataset exactly as the CLI commands load it."""
    return narytd.load_dataset_dir(data, strict_vocabulary=False)
