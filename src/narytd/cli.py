"""Command-line interface: ingest, synth, search, train, eval, diff-arch,
inspect-arch.

Every setting resolves as CLI flag > config file (--config, JSON key/value
document) > built-in default, and each artifact-producing command echoes
its effective configuration into the output directory. A command's
settings are the destinations of its own flags. The search, train and
eval defaults are the TrainConfig and SearchConfig field defaults, under
the flags' key names; only a few CLI-only keys have their own. Exit
codes: 0 success, 2 usage error, 3 data error or unwritable output, 4
numeric failure. A non-zero exit prints one line on stderr: a usage
error omits argparse's usage block, and floating-point warnings are
silenced, since the finiteness checks report a divergence. search and
train check that their output directory can be made and that their
settings are in range before they read any data.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .blocks import (
    PRESET_NAMES,
    ArchitectureSet,
    load_architecture,
    preset_set,
    save_architecture,
)
from .data import (
    Dataset,
    build_dataset,
    build_filter_index,
    check_seed,
    json_text,
    load_dataset_dir,
    load_json_object,
    parse_facts_file,
    split_stats,
    write_dataset_dir,
    write_file,
    write_json,
)
from .errors import DataError, NumericError
from .evaluation import TIE_POLICIES, evaluate
from .model import load_checkpoint, save_checkpoint
from .search import SearchConfig, save_theta, search_loop
from .synth import PlantedSpec, check_nonzero_fraction, generate_planted, random_truth
from .training import TrainConfig, train_fixed

SPLITS = ("train", "valid", "test")

INGEST_DEFAULTS = {
    "holdout_fraction": 0.1,  # share of train carved out as valid when --valid is not given
    "seed": 0,
    "arity": None,
    "strict": True,
}

SYNTH_DEFAULTS = {
    "entities": 100,
    "relations": 4,
    "arities": "2",
    "dimension": 16,
    "segments": 2,
    "facts_per_arity": 2000,
    "margin": 1.0,
    "sigma": 1.0,
    "seed": 0,
    "max_draws": 10_000_000,
    "truth_arch": None,
    "nonzero_fraction": 0.4,
}

# the settings whose keys are named unlike their dataclass fields
KEY_OF_FIELD = {"segment_count": "segments", "entity_count": "entities",
                "relation_count": "relations"}


def _key(field_name: str) -> str:
    return KEY_OF_FIELD.get(field_name, field_name)


# Defaults of search, train and eval. TrainConfig comes last so that it
# wins on the shared names: SearchConfig.dimension=None means "as training".
RUN_DEFAULTS = {
    "arity": None,
    "preset": None,
    "arch": None,
    **{_key(f.name): f.default for cls in (SearchConfig, TrainConfig) for f in fields(cls)},
}

# argparse destinations that are inputs, outputs or the parser's own, not settings
NOT_SETTINGS = {"command", "func", "config", "train", "valid", "test", "data", "out",
                "checkpoint", "split"}

# value types of the settings whose default is None; the others take their default's type
OPTIONAL_TYPES = {"arity": int, "preset": str, "arch": str, "truth_arch": str}

# the allowed values of the flags that take one of a fixed set, config values included
CHOICES = {"tie_policy": TIE_POLICIES, "preset": PRESET_NAMES, "split": SPLITS}


def _print_doc(doc: dict) -> None:
    sys.stdout.write(json_text(doc) + "\n")


def _effective(args: argparse.Namespace, defaults: dict = RUN_DEFAULTS) -> dict:
    """flag > config file > default, for the settings this command's flags set."""
    file_cfg = load_json_object(args.config, "config file") if args.config else {}
    out = {}
    for key, flag in vars(args).items():
        if key in NOT_SETTINGS:
            continue
        if flag is not None:
            out[key] = flag
        elif key in file_cfg:
            out[key] = _checked(key, file_cfg[key], defaults[key])
        else:
            out[key] = defaults[key]
    return out


def _checked(key: str, value, default):
    """A config-file value, if it has its key's type (an int also passes for a float)
    and, for a flag with choices, is one of them."""
    if value is None and default is None:
        return value
    want = OPTIONAL_TYPES.get(key, type(default))
    kinds = (int, float) if want is float else (want,)
    if isinstance(value, bool) is not (want is bool) or not isinstance(value, kinds):
        raise DataError(f"config key {key!r} must be {want.__name__}, got {value!r}")
    if key in CHOICES and value not in CHOICES[key]:
        raise DataError(f"config key {key!r} must be one of {CHOICES[key]}, got {value!r}")
    return value


def _build(cls, cfg: dict, **values):
    """A TrainConfig, SearchConfig or PlantedSpec from the settings named like
    its fields; `values` gives the fields that are not settings."""
    keys = {f.name: _key(f.name) for f in fields(cls) if f.name not in values}
    return cls(**{name: cfg[key] for name, key in keys.items() if key in cfg}, **values)


def _output_dir(out: str) -> Path:
    """`out` as a Path, checked before any work and without creating anything:
    NotADirectoryError if the nearest existing path on its way up is not a directory."""
    out = Path(out)
    nearest = next((p for p in (out, *out.parents) if p.exists()), None)
    if nearest is not None and not nearest.is_dir():
        raise NotADirectoryError(f"cannot make output directory {out}: {nearest} is not a directory")
    return out


def _load_data(cfg: dict, path: str) -> Dataset:
    """The dataset directory, restricted to arity-`arity` facts if one is set."""
    # ingest already enforced the vocabulary policy; loading trusts the dir
    dataset = load_dataset_dir(path, strict_vocabulary=False)
    if cfg.get("arity") is None:
        return dataset
    arity = int(cfg["arity"])
    keep = lambda facts: [f for f in facts if f.arity == arity]
    train = keep(dataset.train)
    if not train:
        raise DataError(f"no arity-{arity} facts in the train split")
    return Dataset(dataset.vocabulary, train, keep(dataset.valid), keep(dataset.test))


def _write_dataset(out: Path, dataset: Dataset, cfg: dict) -> int:
    """The dataset's TSVs, stats.json and config.json under `out`; prints the stats."""
    write_dataset_dir(out, dataset)
    stats = split_stats(dataset)
    write_json(out / "stats.json", stats)
    write_json(out / "config.json", cfg)
    _print_doc(stats)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _effective(args, INGEST_DEFAULTS)
    raw_train = parse_facts_file(args.train)
    raw_valid = parse_facts_file(args.valid) if args.valid else None
    raw_test = parse_facts_file(args.test) if args.test else []
    if cfg["arity"] is not None:
        n = int(cfg["arity"])
        pick = lambda raw: [f for f in raw if len(f[1]) == n]
        raw_train = pick(raw_train)
        raw_valid = pick(raw_valid) if raw_valid is not None else None
        raw_test = pick(raw_test)
    dataset = build_dataset(
        raw_train,
        raw_valid,
        raw_test,
        valid_holdout_fraction=cfg["holdout_fraction"],
        seed=cfg["seed"],
        strict_vocabulary=cfg["strict"],
    )
    return _write_dataset(Path(args.out), dataset, cfg)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _effective(args, SYNTH_DEFAULTS)
    try:
        arities = tuple(int(a) for a in str(cfg["arities"]).split(","))
    except ValueError:
        raise DataError(f"arities must be comma-separated integers, got {cfg['arities']!r}") from None
    check_nonzero_fraction(cfg["nonzero_fraction"])  # also with a truth file, which ignores it
    if cfg["truth_arch"]:
        truth = load_architecture(cfg["truth_arch"])
    else:
        truth = random_truth(
            arities, cfg["segments"], cfg["seed"], nonzero_fraction=cfg["nonzero_fraction"]
        )
    result = generate_planted(_build(PlantedSpec, cfg, arities=arities, assignments=truth))
    save_architecture(Path(args.out) / "truth.json", result.truth)
    return _write_dataset(Path(args.out), result.dataset, cfg)


def cmd_search(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    out = _output_dir(args.out)
    train_config = _build(TrainConfig, cfg)
    search_config = _build(SearchConfig, cfg)
    dataset = _load_data(cfg, args.data)
    if not dataset.valid:
        valid = Path(args.data) / "valid.tsv"
        raise DataError(f"search needs validation facts, and {valid} is missing or holds none;"
                        " narytd ingest carves a valid.tsv out of train")
    start = time.perf_counter()
    result = search_loop(dataset, search_config, train_config)
    save_architecture(out / "architecture.json", result.architecture)
    save_theta(out / "theta.json", result.distribution)
    write_file(out / "trace.jsonl", "".join(json_text(record) + "\n" for record in result.trace))
    write_json(out / "config.json", cfg)
    summary = {
        "iterations": len(result.trace),
        "theta_entropy": result.distribution.entropy(),
        "wall_seconds": time.perf_counter() - start,
        "architecture_file": str(out / "architecture.json"),
        "ops": {
            str(n): result.architecture[n].op_counts()
            for n in result.architecture.arities()
        },
    }
    _print_doc(summary)
    return 0


def _resolve_architecture(cfg: dict, dataset: Dataset) -> ArchitectureSet:
    if cfg["arch"] and cfg["preset"]:
        raise DataError("give either --arch or --preset, not both")
    if cfg["arch"]:
        return load_architecture(cfg["arch"])
    if cfg["preset"]:
        return preset_set(cfg["preset"], max(dataset.max_arity, 2), cfg["segments"])
    raise DataError("training needs --arch FILE or --preset NAME")


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    out = _output_dir(args.out)
    config = _build(TrainConfig, cfg)
    dataset = _load_data(cfg, args.data)
    architecture = _resolve_architecture(cfg, dataset)
    start = time.perf_counter()
    filter_index = build_filter_index(dataset) if dataset.valid else None
    result = train_fixed(
        architecture, dataset, config, filter_index=filter_index, tie_policy=cfg["tie_policy"]
    )
    extra = {"wall_seconds": time.perf_counter() - start}
    # result.embeddings are float32, the values the checkpoint stores, so
    # meta records the metrics of the artifact on disk
    if dataset.valid:
        extra["final_valid_mrr"] = result.final_valid_mrr
        if extra["final_valid_mrr"] is None:  # training did not check its last epoch
            extra["final_valid_mrr"] = evaluate(
                result.embeddings, architecture, dataset, "valid", filter_index, cfg["tie_policy"]
            ).mrr
    save_checkpoint(out, result.embeddings, architecture, config=cfg, extra_meta=extra)
    write_json(out / "config.json", cfg)
    write_json(out / "loss_history.json", {
        "epochs": [asdict(report) for report in result.history],  # epoch, mean_loss, facts
        "valid_mrr": [{"epoch": e, "mrr": v} for e, v in result.valid_mrr_history],
    })
    _print_doc({"checkpoint": str(out), "epochs": len(result.history), **extra})
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    check_seed(cfg["seed"])  # eval draws nothing; --seed is checked like every command's
    embeddings, architecture, meta = load_checkpoint(args.checkpoint)
    # the facts of the arity the checkpoint was trained on, if `train --arity` set one
    trained = meta.get("config", {})
    if not isinstance(trained, dict):
        raise DataError(f"checkpoint meta field 'config' must be a JSON object, got {trained!r}")
    dataset = _load_data({"arity": _checked("arity", trained.get("arity"), None)}, args.data)
    vocab = dataset.vocabulary
    if (embeddings.entity_count, embeddings.relation_count) != (
        vocab.entity_count,
        vocab.relation_count,
    ):
        raise DataError(
            f"checkpoint {args.checkpoint} has {embeddings.entity_count} entities and "
            f"{embeddings.relation_count} relations, the dataset vocabulary "
            f"{vocab.entity_count} and {vocab.relation_count}"
        )
    start = time.perf_counter()
    metrics = evaluate(embeddings, architecture, dataset, args.split, tie_policy=cfg["tie_policy"])
    doc = metrics.to_doc(split=args.split, wall_seconds=time.perf_counter() - start)
    _print_doc(doc)
    if args.out:
        write_json(args.out, doc)
    return 0


def cmd_diff_arch(args: argparse.Namespace) -> int:
    left = load_architecture(args.left)
    right = load_architecture(args.right)
    if left.segment_count != right.segment_count or left.max_arity != right.max_arity:
        raise DataError(
            "architectures are not comparable: "
            f"segments {left.segment_count} vs {right.segment_count}, "
            f"max arity {left.max_arity} vs {right.max_arity}"
        )
    doc: dict = {"arities": {}, "blocks_total": 0, "blocks_matched": 0}
    for n in left.arities():
        a, b = left[n].codes, right[n].codes
        matched = int(np.sum(a == b))
        doc["arities"][str(n)] = {"blocks": len(a), "matched": matched}
        doc["blocks_total"] += len(a)
        doc["blocks_matched"] += matched
    doc["match_fraction"] = doc["blocks_matched"] / doc["blocks_total"]
    _print_doc(doc)
    return 0


def cmd_inspect_arch(args: argparse.Namespace) -> int:
    architecture = load_architecture(args.arch)
    doc: dict = {
        "segment_count": architecture.segment_count,
        "max_arity": architecture.max_arity,
        "arities": {},
    }
    for n in architecture.arities():
        assignment = architecture[n]
        entry = {
            "blocks": assignment.block_total,
            "ops": {str(op): c for op, c in assignment.op_counts().items()},
        }
        if args.blocks:
            entry["nonzero"] = [
                {"index": list(idx), "code": code}
                for idx, code in assignment.nonzero_blocks()
            ]
        doc["arities"][str(n)] = entry
    _print_doc(doc)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage error is one stderr line, without the usage
    block; add_subparsers makes the subcommand parsers of this class too."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="narytd",
        description="Block-sparse tensor decomposition for n-ary relational data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse TSV fact files into a dataset directory")
    p.add_argument("--train", required=True, help="train TSV path")
    p.add_argument("--valid", help="valid TSV path (optional; a holdout is carved otherwise)")
    p.add_argument("--test", help="test TSV path")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--arity", type=int, help="keep only facts of this arity")
    p.add_argument("--holdout-fraction", dest="holdout_fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--no-strict", dest="strict", action="store_const", const=False,
        help="allow entities/relations that never occur in train",
    )
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--entities", type=int)
    p.add_argument("--relations", type=int)
    p.add_argument("--arities", help="comma-separated arities, e.g. 2,3")
    p.add_argument("--dim", dest="dimension", type=int)
    p.add_argument("--segments", type=int)
    p.add_argument("--facts-per-arity", dest="facts_per_arity", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--sigma", type=float, help="embedding scale (default 1.0)")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-draws", dest="max_draws", type=int)
    p.add_argument("--truth-arch", dest="truth_arch", help="architecture file to plant")
    p.add_argument("--nonzero-fraction", dest="nonzero_fraction", type=float)
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_synth)

    # flags search and train share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--data", required=True, help="dataset directory")
    run.add_argument("--dim", dest="dimension", type=int)
    run.add_argument("--segments", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--lr", dest="learning_rate", type=float)
    run.add_argument("--decay-rate", dest="decay_rate", type=float)
    run.add_argument("--batch-size", dest="batch_size", type=int)
    run.add_argument("--tie-policy", dest="tie_policy", choices=CHOICES["tie_policy"])
    run.add_argument("--arity", type=int, help="use only the facts of this arity")
    run.add_argument("--config", help="JSON config file")

    p = sub.add_parser("search", parents=[run], help="search block codes on a dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lambda", dest="lam", type=int, help="architecture samples per step")
    p.add_argument("--search-epochs", dest="search_epochs", type=int)
    p.add_argument("--theta-lr", dest="theta_lr", type=float)
    p.add_argument("--val-batch-size", dest="val_batch_size", type=int)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", parents=[run], help="train embeddings under a fixed architecture")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--arch", help="architecture file")
    p.add_argument("--preset", choices=CHOICES["preset"])
    p.add_argument("--epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=CHOICES["split"])
    p.add_argument("--tie-policy", dest="tie_policy", choices=CHOICES["tie_policy"])
    p.add_argument("--seed", type=int, help="checked but unused: eval draws nothing")
    p.add_argument("--out", help="also write the metrics document here")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diff-arch", help="count matching blocks of two architecture files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_diff_arch)

    p = sub.add_parser("inspect-arch", help="summarize an architecture file")
    p.add_argument("arch")
    p.add_argument("--blocks", action="store_true", help="list nonzero blocks")
    p.set_defaults(func=cmd_inspect_arch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a diverging step overflows; the finiteness checks report it as exit 4
        with np.errstate(all="ignore"):
            return args.func(args)
    except (DataError, OSError) as exc:  # an OSError's text names its path
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
