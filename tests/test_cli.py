import json
import os

import numpy as np
import pytest

from narytd import cli, data, evaluation, training
from narytd.blocks import load_architecture, preset_set, save_architecture
from narytd.cli import main
from narytd.data import load_dataset_dir
from narytd.evaluation import evaluate
from narytd.model import load_checkpoint, save_checkpoint
from narytd.search import load_theta

from oracles import memorization_model


def run(*argv):
    return main([str(a) for a in argv])


def write_facts(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.fixture
def fact_files(tmp_path):
    train = tmp_path / "train_raw.tsv"
    test = tmp_path / "test_raw.tsv"
    rng = np.random.default_rng(0)
    lines = []
    seen = set()
    while len(lines) < 40:
        n = int(rng.choice([2, 3]))
        fact = (f"r{rng.integers(3)}",) + tuple(f"e{i}" for i in rng.integers(12, size=n))
        if fact not in seen:
            seen.add(fact)
            lines.append("\t".join(fact))
    write_facts(train, lines[:34])
    write_facts(test, lines[34:])
    return train, test


def synth_args(out, **over):
    args = {
        "entities": 25,
        "relations": 2,
        "arities": "2",
        "dim": 8,
        "segments": 2,
        "facts-per-arity": 80,
        "margin": 1.0,
        "sigma": 0.8,
        "seed": 3,
    }
    args.update(over)
    argv = ["synth", "--out", out]
    for key, val in args.items():
        argv += [f"--{key}", val]
    return argv


class TestIngest:
    def test_writes_canonical_dataset(self, tmp_path, fact_files, capsys):
        train, test = fact_files
        out = tmp_path / "ds"
        assert run("ingest", "--train", train, "--test", test, "--out", out,
                   "--holdout-fraction", 0.1, "--no-strict") == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entities"] <= 12 and stats["relations"] <= 3
        assert (out / "train.tsv").exists() and (out / "stats.json").exists()
        ds = load_dataset_dir(out, strict_vocabulary=False)
        assert len(ds.valid) >= 1
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["holdout_fraction"] == 0.1

    def test_arity_filter(self, tmp_path, fact_files, capsys):
        train, test = fact_files
        out = tmp_path / "ds3"
        assert run("ingest", "--train", train, "--test", test, "--out", out,
                   "--arity", 3, "--no-strict") == 0
        stats = json.loads(capsys.readouterr().out)
        for split in stats["splits"].values():
            assert set(split["per_arity"]) <= {"3"}

    def test_missing_file_exits_3(self, tmp_path, capsys):
        rc = run("ingest", "--train", tmp_path / "nope.tsv", "--out", tmp_path / "o")
        assert rc == 3
        assert "nope.tsv" in capsys.readouterr().err

    def test_invalid_utf8_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"r\ta\tb\nr\t\xff\tc\n")
        assert run("ingest", "--train", bad, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "bad.tsv:2" in err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("r\ta\tb\nr\tonly_one\n")
        rc = run("ingest", "--train", bad, "--out", tmp_path / "o")
        assert rc == 3
        assert "bad.tsv:2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", 1.5])
    def test_out_of_domain_holdout_fraction_exits_3(self, value, tmp_path, fact_files, capsys):
        train, test = fact_files
        out = tmp_path / "o"
        assert run("ingest", "--train", train, "--test", test, "--out", out,
                   "--holdout-fraction", value, "--no-strict") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "holdout fraction" in err
        assert not out.exists()

    def test_train_overlap_is_counted_in_stats(self, tmp_path, fact_files, capsys, caplog):
        # the count was a logged warning, a second stderr line before a failure's own
        train, _ = fact_files
        test = tmp_path / "overlap_raw.tsv"
        write_facts(test, train.read_text().splitlines()[:2])
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["ingest", "--train", train, "--test", test, "--holdout-fraction", 0, "--no-strict"]
        assert run(*argv, "--out", blocker / "ds") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not caplog.records
        out = tmp_path / "ds"
        assert run(*argv, "--out", out) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["train_overlap"] == 2
        assert json.loads((out / "stats.json").read_text()) == stats

    def test_ingest_without_holdout_empties_valid_tsv(self, tmp_path, capsys):
        # every fact of the first ingest's valid.tsv is in the second's train.tsv,
        # so a valid.tsv left in place would have search validate on training facts
        data, out = tmp_path / "data", tmp_path / "ing"
        assert run(*synth_args(data, entities=60)) == 0
        argv = ["ingest", "--train", data / "train.tsv", "--test", data / "test.tsv",
                "--out", out, "--no-strict"]
        assert run(*argv, "--seed", 1) == 0
        assert (out / "valid.tsv").read_text()
        assert run(*argv, "--holdout-fraction", 0) == 0
        assert json.loads((out / "stats.json").read_text())["splits"]["valid"]["facts"] == 0
        assert (out / "valid.tsv").read_bytes() == b""
        capsys.readouterr()
        assert run("search", "--data", out, "--out", tmp_path / "s", "--dim", 8, "--seed", 1) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "valid.tsv" in err


class TestSynth:
    def test_deterministic_directories(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*synth_args(a)) == 0
        assert run(*synth_args(b)) == 0
        for name in ("train.tsv", "valid.tsv", "test.tsv", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_truth_file_validates(self, tmp_path):
        out = tmp_path / "s"
        assert run(*synth_args(out)) == 0
        truth = load_architecture(out / "truth.json")
        assert truth.arities() == [2]

    def test_bare_synth_uses_feasible_defaults(self, tmp_path, capsys):
        out = tmp_path / "bare"
        assert run("synth", "--out", out) == 0
        assert json.loads(capsys.readouterr().out)["splits"]["train"]["facts"] > 0

    def test_infeasible_margin_exits_4(self, tmp_path, capsys):
        rc = run(*synth_args(tmp_path / "x", margin=1e9, **{"max-draws": 20000}))
        assert rc == 4
        assert "margin" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, word",
        [("arities", "2,x", "arities"), ("arities", "2,2", "arities"),
         ("arities", "3,2,3", "arities"), ("segments", 0, "segment count"),
         ("dim", 0, "dimension"), ("dim", -8, "dimension"),
         ("nonzero-fraction", 2, "nonzero fraction"),
         ("nonzero-fraction", -1, "nonzero fraction"),
         ("max-draws", 0, "max_draws"), ("max-draws", -5, "max_draws"),
         ("margin", "nan", "margin"), ("margin", "inf", "margin"), ("sigma", -1, "sigma"),
         ("sigma", 0, "sigma"), ("sigma", "nan", "sigma")],
    )
    def test_malformed_value_exits_3(self, tmp_path, capsys, flag, value, word):
        # each used to end in a traceback, except -1, which planted one block
        out = tmp_path / "x"
        assert run(*synth_args(out, **{flag: value})) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and word in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", 2, -1])
    def test_truth_file_with_malformed_fraction_exits_3(self, tmp_path, capsys, value):
        # a truth file makes the fraction unused, but it is echoed into config.json
        # and must be in range there too; nothing is written
        assert run(*synth_args(tmp_path / "first")) == 0
        out = tmp_path / "x"
        truth = tmp_path / "first" / "truth.json"
        assert run(*synth_args(out, **{"truth-arch": truth, "nonzero-fraction": value})) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "nonzero fraction" in err
        assert not out.exists()

    def test_too_few_facts_for_valid_writes_an_empty_valid_tsv(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run(*synth_args(out)) == 0
        assert (out / "valid.tsv").read_text()
        # 9 positives per arity carve int(0.1 * 9) = 0 valid facts
        assert run(*synth_args(out, **{"facts-per-arity": 9})) == 0
        assert (out / "valid.tsv").read_bytes() == b""


@pytest.fixture
def planted_dir(tmp_path):
    out = tmp_path / "planted"
    assert run(*synth_args(out, **{"facts-per-arity": 120})) == 0
    return out


class TestSearchCommand:
    def test_zero_epochs_yields_all_zero_architecture(self, planted_dir, tmp_path, capsys):
        out = tmp_path / "searched"
        assert run("search", "--data", planted_dir, "--out", out, "--dim", 8,
                   "--segments", 2, "--search-epochs", 0, "--seed", 1) == 0
        arch = load_architecture(out / "architecture.json")
        assert np.all(arch[2].codes == 0)
        theta = load_theta(out / "theta.json")
        assert np.all(theta.thetas[2] == pytest.approx(1 / 3))
        assert (out / "trace.jsonl").read_text() == ""

    def test_search_deterministic_under_seed(self, planted_dir, tmp_path, capsys):
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            assert run("search", "--data", planted_dir, "--out", out, "--dim", 8,
                       "--segments", 2, "--search-epochs", 2, "--batch-size", 32,
                       "--seed", 9) == 0
            outs.append(out)
        for artifact in ("architecture.json", "theta.json", "trace.jsonl"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_search_artifacts_reload(self, planted_dir, tmp_path, capsys):
        out = tmp_path / "searched2"
        assert run("search", "--data", planted_dir, "--out", out, "--dim", 8,
                   "--segments", 2, "--search-epochs", 2, "--lambda", 2,
                   "--batch-size", 32, "--seed", 1) == 0
        summary = json.loads(capsys.readouterr().out)
        load_architecture(out / "architecture.json")
        trace_lines = (out / "trace.jsonl").read_text().strip().splitlines()
        assert len(trace_lines) == summary["iterations"]
        assert all("utilities" in json.loads(line) for line in trace_lines)


class TestRunSettings:
    @pytest.mark.parametrize(
        "command, flag, value",
        [("train", "--lr", -0.05), ("train", "--lr", "nan"), ("train", "--decay-rate", -1),
         ("train", "--decay-rate", 1.5), ("search", "--theta-lr", "nan"),
         ("search", "--theta-lr", "inf"), ("train", "--patience", -3), ("train", "--patience", 0),
         ("train", "--eval-every", -1), ("train", "--segments", 0),
         ("train", "--segments", -1)],
    )
    def test_out_of_domain_value_exits_3(self, command, flag, value, planted_dir, tmp_path,
                                         capsys):
        out = tmp_path / "o"
        extra = ["--preset", "cp"] if command == "train" else []
        assert run(command, "--data", planted_dir, "--out", out, flag, value, *extra) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value, word",
        [("train", "--segments", 0, "segment count"), ("search", "--lambda", 0, "lam")],
    )
    def test_settings_are_checked_before_the_data(self, command, flag, value, word, tmp_path,
                                                  capsys):
        extra = ["--preset", "cp"] if command == "train" else []
        rc = run(command, "--data", tmp_path / "missing", "--out", tmp_path / "o", flag, value,
                 *extra)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and word in err and "missing" not in err

    @pytest.mark.parametrize("command", ["search", "train"])
    def test_diverged_run_exits_4(self, command, planted_dir, tmp_path, capsys):
        out = tmp_path / "o"
        extra = ["--preset", "cp"] if command == "train" else []
        with np.errstate(all="ignore"):  # the diverging steps overflow
            rc = run(command, "--data", planted_dir, "--out", out, "--dim", 8, "--lr", 1e30,
                     *extra)
        assert rc == 4
        assert "diverged" in capsys.readouterr().err
        assert not out.exists()


    def test_non_finite_theta_exits_4_at_the_first_step(self, planted_dir, tmp_path, capsys):
        # --theta-lr 1e300 passes the config check, but its step size overflows
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            rc = run("search", "--data", planted_dir, "--out", out, "--dim", 8,
                     "--theta-lr", 1e300)
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and "theta is not finite" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "command, flag, value",
        [("train", "--lr", 1e30), ("search", "--lr", 1e30), ("search", "--theta-lr", 1e300)],
    )
    def test_diverging_run_prints_one_line(self, command, flag, value, planted_dir, tmp_path,
                                           capsys):
        # numpy's overflow warnings used to print before the error line; as errors
        # here, one such warning fails the run
        out = tmp_path / "o"
        extra = ["--preset", "cp"] if command == "train" else []
        assert run(command, "--data", planted_dir, "--out", out, "--dim", 8, flag, value,
                   *extra) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert not out.exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["ingest", "synth", "search", "train", "eval"])
    def test_exits_3_with_one_line(self, command, planted_dir, tmp_path, capsys, monkeypatch):
        # each used to end in a traceback: FileExistsError, FileExistsError,
        # NotADirectoryError after the whole search, IsADirectoryError; search
        # and train now fail before they load any data
        file = tmp_path / "file"
        file.write_text("keep\n")
        directory = tmp_path / "dir"
        directory.mkdir()
        (directory / "k").write_text("keep\n")
        if command == "eval":
            assert run("train", "--data", planted_dir, "--out", tmp_path / "ckpt", "--preset",
                       "cp", "--dim", 8, "--epochs", 1, "--eval-every", 0) == 0
        capsys.readouterr()
        argv = {
            "ingest": ["ingest", "--train", planted_dir / "train.tsv", "--out", file],
            "synth": synth_args(file),
            "search": ["search", "--data", planted_dir, "--out", file / "sub", "--dim", 8,
                       "--search-epochs", 1],
            "train": ["train", "--data", planted_dir, "--out", file, "--preset", "cp",
                      "--dim", 8, "--epochs", 1],
            "eval": ["eval", "--checkpoint", tmp_path / "ckpt", "--data", planted_dir,
                     "--out", directory],
        }[command]

        def no_work(*args, **kwargs):
            raise AssertionError("ran before checking --out")

        monkeypatch.setattr(cli, "search_loop", no_work)
        monkeypatch.setattr(cli, "train_fixed", no_work)
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("dir" if command == "eval" else "file") in err
        assert list(tmp_path.rglob("*.tmp")) == []
        assert file.read_text() == "keep\n"
        assert os.listdir(directory) == ["k"] and (directory / "k").read_text() == "keep\n"


class TestNegativeSeed:
    @pytest.mark.parametrize("case", ["train", "search", "synth", "synth-truth", "ingest",
                                      "eval", "config"])
    def test_exits_3_naming_the_seed(self, case, planted_dir, tmp_path, capsys):
        # each used to end in "ValueError: expected non-negative integer", except
        # eval, which read valid.tsv and never used the seed
        out = tmp_path / "o"
        config = tmp_path / "config.json"
        config.write_text('{"seed": -1}')
        if case == "eval":
            assert run("train", "--data", planted_dir, "--out", tmp_path / "ckpt", "--preset",
                       "cp", "--dim", 8, "--epochs", 1, "--eval-every", 0) == 0
        capsys.readouterr()
        seed = ["--seed", -1]
        argv = {
            "train": ["train", "--data", planted_dir, "--out", out, "--preset", "cp", *seed],
            "search": ["search", "--data", planted_dir, "--out", out, *seed],
            "synth": synth_args(out, seed=-1),
            "synth-truth": synth_args(out, seed=-1, **{"truth-arch": planted_dir / "truth.json"}),
            "ingest": ["ingest", "--train", planted_dir / "train.tsv", "--out", out, *seed],
            "eval": ["eval", "--checkpoint", tmp_path / "ckpt", "--data", planted_dir,
                     "--out", out, *seed],
            "config": ["train", "--data", planted_dir, "--out", out, "--preset", "cp",
                       "--config", config],
        }[case]
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err
        assert not out.exists()


class TestTrainEval:
    def test_preset_bypasses_architecture_file(self, planted_dir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert run("train", "--data", planted_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 3, "--batch-size", 32,
                   "--seed", 0) == 0
        emb, arch, meta = load_checkpoint(ckpt)
        assert meta["config"]["preset"] == "cp"
        assert "final_valid_mrr" in meta

    def test_eval_reproduces_recorded_mrr(self, planted_dir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt2"
        assert run("train", "--data", planted_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 3, "--batch-size", 32,
                   "--seed", 0) == 0
        capsys.readouterr()
        meta = json.loads((ckpt / "meta.json").read_text())
        assert run("eval", "--checkpoint", ckpt, "--data", planted_dir,
                   "--split", "valid") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mrr"] == pytest.approx(meta["final_valid_mrr"], abs=1e-9)
        assert doc["queries"] > 0 and "wall_seconds" in doc

    def test_eval_does_not_depend_on_the_holdout_seed(self, tmp_path, capsys):
        # eval's --seed is checked but draws nothing; the ids a checkpoint was
        # trained under must not move with it
        data_dir = tmp_path / "data"
        assert run(*synth_args(data_dir, entities=30)) == 0
        (data_dir / "valid.tsv").unlink()
        ckpt = tmp_path / "ckpt"
        assert run("train", "--data", data_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 3, "--batch-size", 32,
                   "--seed", 1) == 0
        capsys.readouterr()
        metrics = []
        for seed in range(4):
            assert run("eval", "--checkpoint", ckpt, "--data", data_dir, "--split", "test",
                       "--seed", seed) == 0
            doc = json.loads(capsys.readouterr().out)
            metrics.append({k: v for k, v in doc.items() if k != "wall_seconds"})
        assert metrics[1:] == metrics[:1] * 3

    @pytest.mark.parametrize("epochs, eval_every, rankings", [(3, 1, 3), (3, 2, 2), (3, 0, 1)])
    def test_train_ranks_valid_once(self, epochs, eval_every, rankings, planted_dir, tmp_path,
                                    capsys, monkeypatch):
        # the last epoch's check is reused for final_valid_mrr; one filter index serves all
        calls = {"query_ranks": 0, "build_filter_index": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(evaluation, "query_ranks", counted(evaluation, "query_ranks"))
        index_builder = counted(data, "build_filter_index")
        for module in (cli, training, evaluation):
            monkeypatch.setattr(module, "build_filter_index", index_builder)
        ckpt = tmp_path / "ckpt"
        assert run("train", "--data", planted_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", epochs, "--batch-size", 32,
                   "--eval-every", eval_every, "--seed", 0) == 0
        assert calls == {"query_ranks": rankings, "build_filter_index": 1}
        monkeypatch.undo()
        meta = json.loads((ckpt / "meta.json").read_text())
        embeddings, architecture, _ = load_checkpoint(ckpt)
        dataset = load_dataset_dir(planted_dir, strict_vocabulary=False)
        assert meta["final_valid_mrr"] == evaluate(embeddings, architecture, dataset, "valid").mrr

    def test_missing_arity_fails_before_training(self, planted_dir, tmp_path, capsys):
        # architecture only covers arity 2; feed it 3-ary data
        tri = tmp_path / "tri"
        lines = [f"r0\te{i}\te{(i+1) % 6}\te{(i+2) % 6}" for i in range(12)]
        write_facts(tmp_path / "tri.tsv", lines)
        assert run("ingest", "--train", tmp_path / "tri.tsv", "--out", tri,
                   "--holdout-fraction", 0.0) == 0
        arch_file = tmp_path / "arch2.json"
        assert run("train", "--data", planted_dir, "--out", tmp_path / "c0",
                   "--preset", "cp", "--dim", 8, "--segments", 2, "--epochs", 1,
                   "--batch-size", 32) == 0
        os.link(tmp_path / "c0" / "architecture.json", arch_file)
        rc = run("train", "--data", tri, "--out", tmp_path / "c1",
                 "--arch", arch_file, "--dim", 8, "--segments", 2, "--epochs", 1)
        assert rc == 3
        assert "arities" in capsys.readouterr().err

    def test_unknown_split_usage_error(self, planted_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("eval", "--checkpoint", tmp_path, "--data", planted_dir, "--split", "dev")
        assert exc.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1  # no usage block

    @pytest.mark.parametrize("argv", [["train", "--data", "d", "--out", "q", "--lr", "x"], []])
    def test_usage_error_prints_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("narytd") and ": error: " in err and err.count("\n") == 1

    def test_needs_arch_or_preset(self, planted_dir, tmp_path, capsys):
        rc = run("train", "--data", planted_dir, "--out", tmp_path / "c",
                 "--dim", 8, "--segments", 2, "--epochs", 1)
        assert rc == 3


class TestDirectoryWithoutValid:
    """Only ingest carves a holdout: search, train and eval read a directory as
    it is, so one without valid.tsv has no validation split."""

    @pytest.fixture
    def data_dir(self, tmp_path):
        out = tmp_path / "data"
        assert run(*synth_args(out, entities=60)) == 0
        (out / "valid.tsv").unlink()
        return out

    def assert_one_line(self, capsys, *words):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and all(word in err for word in words)

    def test_search_exits_3_naming_valid_tsv(self, data_dir, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "s"
        assert run("search", "--data", data_dir, "--out", out, "--dim", 8, "--seed", 1) == 3
        self.assert_one_line(capsys, "error: ", "valid.tsv", "narytd ingest")
        assert not out.exists()

    def test_train_has_no_valid_mrr_and_eval_no_valid_split(self, data_dir, tmp_path, capsys):
        # the parent carved a fresh 10% under each command's --seed, so eval --split
        # valid could score facts the checkpoint was trained on
        ckpt = tmp_path / "ckpt"
        assert run("train", "--data", data_dir, "--out", ckpt, "--preset", "cp", "--dim", 8,
                   "--segments", 2, "--epochs", 2, "--batch-size", 32, "--seed", 1) == 0
        assert "final_valid_mrr" not in json.loads((ckpt / "meta.json").read_text())
        assert json.loads((ckpt / "loss_history.json").read_text())["valid_mrr"] == []
        capsys.readouterr()
        assert run("eval", "--checkpoint", ckpt, "--data", data_dir, "--split", "valid") == 3
        self.assert_one_line(capsys, "error: ", "'valid' is empty")

    @pytest.mark.parametrize("command", ["search", "train", "eval"])
    def test_holdout_fraction_is_a_usage_error(self, command, tmp_path, capsys):
        target = ["--checkpoint" if command == "eval" else "--out", tmp_path / "o"]
        with pytest.raises(SystemExit) as exc:
            run(command, "--data", tmp_path, *target, "--holdout-fraction", 0.1)
        assert exc.value.code == 2
        self.assert_one_line(capsys, "narytd: error: unrecognized arguments: --holdout-fraction")


class TestArchTools:
    def make_arch(self, planted_dir, tmp_path, name, seed):
        out = tmp_path / name
        assert run("search", "--data", planted_dir, "--out", out, "--dim", 8,
                   "--segments", 2, "--search-epochs", 1, "--batch-size", 32,
                   "--seed", seed) == 0
        return out / "architecture.json"

    def test_diff_arch_counts_blocks(self, planted_dir, tmp_path, capsys):
        a = self.make_arch(planted_dir, tmp_path, "sa", 1)
        b = self.make_arch(planted_dir, tmp_path, "sb", 2)
        capsys.readouterr()
        assert run("diff-arch", a, b) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["blocks_total"] == 8
        assert 0 <= doc["blocks_matched"] <= 8
        assert doc["arities"]["2"]["blocks"] == 8
        assert run("diff-arch", a, a) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["blocks_matched"] == 8 and doc["match_fraction"] == 1.0

    def test_inspect_arch(self, planted_dir, tmp_path, capsys):
        a = self.make_arch(planted_dir, tmp_path, "si", 1)
        capsys.readouterr()
        assert run("inspect-arch", a, "--blocks") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["segment_count"] == 2 and "2" in doc["arities"]
        ops = doc["arities"]["2"]["ops"]
        assert sum(ops.values()) == 8


class TestMalformedArtifacts:
    """Each malformed artifact kind ends in exit 3 and a one-line error."""

    def assert_data_error(self, rc, capsys, name):
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_architecture_json(self, tmp_path, capsys):
        bad = tmp_path / "bad_arch.json"
        bad.write_text('{"segment_count": 2,')
        self.assert_data_error(run("inspect-arch", bad), capsys, "bad_arch.json")

    @pytest.mark.parametrize(
        "field, value",
        [("code", 0.5), ("code", 300), ("code", "x"), ("code", True),
         ("segment_count", "two"), ("max_arity", 2.5)],
    )
    def test_malformed_architecture_field(self, field, value, tmp_path, capsys):
        # JSON integers only: no truncation, no overflow, no bool taken as 1
        doc = {"segment_count": 2, "max_arity": 2, "2": [0] * 8}
        if field == "code":
            doc["2"][3] = value
        else:
            doc[field] = value
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))
        rc = run("inspect-arch", path)
        self.assert_data_error(rc, capsys, "block 3" if field == "code" else repr(field))

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad_cfg.json"
        bad.write_text("entities = 30\n")
        rc = run("synth", "--out", tmp_path / "s", "--config", bad)
        self.assert_data_error(rc, capsys, "bad_cfg.json")

    def test_config_value_of_wrong_type_for_train(self, planted_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dimension": "8"}))
        rc = run("train", "--data", planted_dir, "--out", tmp_path / "c", "--preset", "cp",
                 "--config", cfg)
        self.assert_data_error(rc, capsys, "'dimension'")

    def test_config_value_of_wrong_type_for_search(self, planted_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 2.5}))
        rc = run("search", "--data", planted_dir, "--out", tmp_path / "s", "--config", cfg)
        self.assert_data_error(rc, capsys, "'lam'")

    @pytest.mark.parametrize("key", ["tie_policy", "preset"])
    def test_config_value_outside_choices(self, key, planted_dir, tmp_path, capsys, monkeypatch):
        # rejected while the settings are read, before any training
        monkeypatch.setattr(cli, "train_fixed", lambda *a, **k: pytest.fail("trained"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "cp", "eval_every": 0, key: "bogus"}))
        out = tmp_path / "c"
        rc = run("train", "--data", planted_dir, "--out", out, "--epochs", 3, "--config", cfg)
        self.assert_data_error(rc, capsys, f"{key!r}")
        assert not out.exists()

    def test_meta_without_entity_count(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        meta = {"n_r": 2, "dimension": 8, "segment_count": 2}
        (ckpt / "meta.json").write_text(json.dumps(meta))
        rc = run("eval", "--checkpoint", ckpt, "--data", tmp_path)
        self.assert_data_error(rc, capsys, "n_e")

    @pytest.mark.parametrize(
        "field, value, name",
        [("n_e", 500.0, "'n_e'"), ("segment_count", "4", "'segment_count'"),
         ("dimension", True, "'dimension'"), ("n_r", None, "'n_r'"),
         ("segment_count", 0, "segment count 0")],
    )
    def test_malformed_meta_field(self, field, value, name, planted_dir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert run("train", "--data", planted_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 1, "--eval-every", 0) == 0
        capsys.readouterr()
        meta = json.loads((ckpt / "meta.json").read_text())
        meta[field] = value
        (ckpt / "meta.json").write_text(json.dumps(meta))
        rc = run("eval", "--checkpoint", ckpt, "--data", planted_dir)
        self.assert_data_error(rc, capsys, name)

    def test_architecture_file_key_does_not_leave_the_checkpoint(self, planted_dir, tmp_path,
                                                                   capsys):
        # meta.json's architecture_file once named the file eval read, so a
        # path out of the checkpoint scored with another run's architecture
        for name, preset in (("cp", "cp"), ("other", "complex")):
            assert run("train", "--data", planted_dir, "--out", tmp_path / name, "--preset",
                       preset, "--dim", 8, "--segments", 2, "--epochs", 1, "--eval-every", 0) == 0
        capsys.readouterr()
        assert run("eval", "--checkpoint", tmp_path / "cp", "--data", planted_dir) == 0
        want = json.loads(capsys.readouterr().out)
        meta = json.loads((tmp_path / "cp" / "meta.json").read_text())
        written = "architecture_file" in meta
        meta["architecture_file"] = "../other/architecture.json"
        (tmp_path / "cp" / "meta.json").write_text(json.dumps(meta))
        assert run("eval", "--checkpoint", tmp_path / "cp", "--data", planted_dir) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["mrr"] == want["mrr"] and got["hits1"] == want["hits1"]
        assert not written

    @pytest.mark.parametrize("case, name", [("negative", "'n_e'"), ("zero", "'dimension'")])
    def test_meta_size_below_1(self, case, name, planted_dir, tmp_path, capsys):
        # sizes whose products match the files passed the size check: negated
        # sizes ended in a reshape ValueError, dimension 0 in a ZeroDivisionError
        ckpt = tmp_path / "ckpt"
        assert run("train", "--data", planted_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 1, "--eval-every", 0) == 0
        capsys.readouterr()
        meta = json.loads((ckpt / "meta.json").read_text())
        if case == "negative":
            meta.update(n_e=-meta["n_e"], n_r=-meta["n_r"], dimension=-8)
        else:
            meta["dimension"] = 0
            for matrix in ("entities.bin", "relations.bin"):
                (ckpt / matrix).write_bytes(b"")
        (ckpt / "meta.json").write_text(json.dumps(meta))
        rc = run("eval", "--checkpoint", ckpt, "--data", planted_dir)
        self.assert_data_error(rc, capsys, name)

    def test_architecture_segment_count_differs_from_meta(self, planted_dir, tmp_path, capsys):
        # an M=1 architecture in an M=2 checkpoint used to end in a reshape ValueError
        ckpt = tmp_path / "ckpt"
        assert run("train", "--data", planted_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 1, "--eval-every", 0) == 0
        capsys.readouterr()
        max_arity = load_architecture(ckpt / "architecture.json").max_arity
        save_architecture(ckpt / "architecture.json", preset_set("cp", max_arity, 1))
        rc = run("eval", "--checkpoint", ckpt, "--data", planted_dir)
        self.assert_data_error(rc, capsys, "segment count 1")

    def test_checkpoint_without_matrices(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        meta = {"n_e": 4, "n_r": 2, "dimension": 8, "segment_count": 2}
        (ckpt / "meta.json").write_text(json.dumps(meta))
        rc = run("eval", "--checkpoint", ckpt, "--data", tmp_path)
        self.assert_data_error(rc, capsys, "entities.bin")

    @pytest.mark.parametrize("trained, evaluated", [(30, 60), (60, 30)])
    def test_checkpoint_vocabulary_differs_from_dataset(self, trained, evaluated, tmp_path, capsys):
        # a smaller checkpoint used to index past its rows, a larger one
        # to rank the dataset's queries among foreign entities
        for n_e in {trained, evaluated}:
            assert run(*synth_args(tmp_path / f"s{n_e}", entities=n_e)) == 0
        assert run("train", "--data", tmp_path / f"s{trained}", "--out", tmp_path / "c",
                   "--preset", "cp", "--dim", 8, "--segments", 2, "--epochs", 1) == 0
        capsys.readouterr()
        rc = run("eval", "--checkpoint", tmp_path / "c", "--data", tmp_path / f"s{evaluated}")
        self.assert_data_error(rc, capsys, "the dataset vocabulary")

    def test_directory_as_json_file(self, tmp_path, capsys):
        folder = tmp_path / "arch_dir.json"
        folder.mkdir()
        self.assert_data_error(run("inspect-arch", folder), capsys, "arch_dir.json")

    def test_directory_as_fact_file(self, tmp_path, capsys):
        folder = tmp_path / "facts_dir"
        folder.mkdir()
        rc = run("ingest", "--train", folder, "--out", tmp_path / "o")
        self.assert_data_error(rc, capsys, "facts_dir")

    def test_directory_as_train_split(self, tmp_path, capsys):
        (tmp_path / "ds" / "train.tsv").mkdir(parents=True)
        rc = run("train", "--data", tmp_path / "ds", "--out", tmp_path / "c",
                 "--preset", "cp")
        self.assert_data_error(rc, capsys, "train.tsv")


class TestFixedArityMode:
    @pytest.fixture
    def mixed_dir(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = []
        seen = set()
        while len(lines) < 60:
            n = int(rng.choice([2, 3]))
            fact = (f"r{rng.integers(2)}",) + tuple(f"e{i}" for i in rng.integers(10, size=n))
            if fact not in seen:
                seen.add(fact)
                lines.append("\t".join(fact))
        raw = tmp_path / "mixed.tsv"
        write_facts(raw, lines)
        out = tmp_path / "mixed_ds"
        assert run("ingest", "--train", raw, "--out", out, "--holdout-fraction", 0.15) == 0
        return out

    def test_fixed_arity_filters_facts(self, mixed_dir, tmp_path, capsys):
        ckpt = tmp_path / "c3"
        assert run("train", "--data", mixed_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 1, "--batch-size", 16,
                   "--arity", 3) == 0
        meta = json.loads((ckpt / "meta.json").read_text())
        assert meta["max_arity"] == 3
        arch = load_architecture(ckpt / "architecture.json")
        assert arch.max_arity == 3
        dataset = load_dataset_dir(mixed_dir, strict_vocabulary=False)
        arity3 = sum(f.arity == 3 for f in dataset.train)
        assert 0 < arity3 < len(dataset.train)
        history = json.loads((ckpt / "loss_history.json").read_text())
        assert [e["facts"] for e in history["epochs"]] == [arity3]

    def test_eval_scores_the_trained_arity(self, mixed_dir, tmp_path, capsys):
        # eval restricts the split to the arity in the checkpoint's config, as
        # train did; it used to exit 3 with "no block assignment for arity 3"
        ckpt = tmp_path / "c2"
        assert run("train", "--data", mixed_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 1, "--batch-size", 16,
                   "--arity", 2) == 0
        capsys.readouterr()
        assert run("eval", "--checkpoint", ckpt, "--data", mixed_dir, "--split", "valid") == 0
        doc = json.loads(capsys.readouterr().out)
        dataset = load_dataset_dir(mixed_dir, strict_vocabulary=False)
        arity2 = [f for f in dataset.valid if f.arity == 2]
        assert 0 < len(arity2) < len(dataset.valid)
        embeddings, architecture, meta = load_checkpoint(ckpt)
        restricted = data.Dataset(dataset.vocabulary, [f for f in dataset.train if f.arity == 2],
                                  arity2, [])
        expected = evaluate(embeddings, architecture, restricted, "valid").to_doc(split="valid")
        assert {k: v for k, v in doc.items() if k != "wall_seconds"} == expected
        assert meta["final_valid_mrr"] == pytest.approx(doc["mrr"], abs=1e-9)

    @pytest.mark.parametrize("config, name", [([], "'config'"), ({"arity": "2"}, "'arity'")])
    def test_malformed_trained_config_exits_3(self, config, name, mixed_dir, tmp_path, capsys):
        ckpt = tmp_path / "c2"
        assert run("train", "--data", mixed_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 1, "--arity", 2) == 0
        capsys.readouterr()
        meta = json.loads((ckpt / "meta.json").read_text())
        meta["config"] = config
        (ckpt / "meta.json").write_text(json.dumps(meta))
        assert run("eval", "--checkpoint", ckpt, "--data", mixed_dir, "--split", "valid") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err


class TestMetricsArtifact:
    def test_metrics_document_reloads(self, planted_dir, tmp_path, capsys):
        ckpt = tmp_path / "cm"
        assert run("train", "--data", planted_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 2, "--batch-size", 32) == 0
        metrics_path = tmp_path / "metrics.json"
        assert run("eval", "--checkpoint", ckpt, "--data", planted_dir,
                   "--split", "test", "--out", metrics_path) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        stored = json.loads(metrics_path.read_text())
        assert stored == printed
        assert stored["split"] == "test"

    def test_failed_write_keeps_the_old_document(self, planted_dir, tmp_path, capsys,
                                                 monkeypatch):
        ckpt = tmp_path / "cm"
        assert run("train", "--data", planted_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 1, "--eval-every", 0) == 0
        metrics_path = tmp_path / "out" / "metrics.json"
        metrics_path.parent.mkdir()
        metrics_path.write_bytes(b"old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        capsys.readouterr()
        assert run("eval", "--checkpoint", ckpt, "--data", planted_dir, "--out", metrics_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "disk full" in err
        assert metrics_path.read_bytes() == b"old\n"
        assert os.listdir(metrics_path.parent) == ["metrics.json"]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_checkpoint_exits_4(self, value, planted_dir, tmp_path, capsys):
        # NaN scores compare false, so every truth used to rank first: mrr 1.0, exit 0
        ckpt = tmp_path / "cm"
        assert run("train", "--data", planted_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--segments", 2, "--epochs", 1, "--eval-every", 0) == 0
        capsys.readouterr()
        entities = ckpt / "entities.bin"
        entities.write_bytes(np.full(entities.stat().st_size // 4, value, "<f4").tobytes())
        metrics_path = tmp_path / "metrics.json"
        assert run("eval", "--checkpoint", ckpt, "--data", planted_dir,
                   "--out", metrics_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert not metrics_path.exists()

    def test_eval_document_keys(self, tmp_path, capsys):
        # a memorization model of the one fact ranks it first at both holes
        data = tmp_path / "d"
        data.mkdir()
        write_facts(data / "train.tsv", ["r\ta\tb"])
        write_facts(data / "valid.tsv", [])
        write_facts(data / "test.tsv", ["r\ta\tb"])
        dataset = load_dataset_dir(data, strict_vocabulary=False)
        save_checkpoint(tmp_path / "ckpt", *memorization_model(dataset.train, dataset.vocabulary))
        assert run("eval", "--checkpoint", tmp_path / "ckpt", "--data", data,
                   "--split", "test") == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"split", "mrr", "hits1", "hits3", "hits10", "queries", "wall_seconds"}
        assert doc["split"] == "test" and doc["mrr"] == 1.0 and doc["queries"] == 2


JF17K4_DIR = os.environ.get("NARYTD_JF17K4_DIR", "")


@pytest.mark.skipif(
    not (JF17K4_DIR and os.path.isdir(JF17K4_DIR)),
    reason="set NARYTD_JF17K4_DIR to check published split statistics",
)
def test_ingest_benchmark_split_statistics(tmp_path, capsys):
    out = tmp_path / "jf17k4"
    assert run("ingest", "--train", os.path.join(JF17K4_DIR, "train.tsv"),
               "--test", os.path.join(JF17K4_DIR, "test.tsv"),
               "--out", out, "--holdout-fraction", 0.0, "--no-strict") == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entities"] == 6536
    assert stats["relations"] == 23
    assert stats["splits"]["train"]["facts"] == 7607
    assert stats["splits"]["test"]["facts"] == 951


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"entities": 30, "relations": 3, "sigma": 0.8,
                                   "facts_per_arity": 60, "margin": 1.0, "seed": 3}))
        out = tmp_path / "s"
        assert run("synth", "--out", out, "--config", cfg, "--entities", 20,
                   "--arities", "2", "--dim", 8, "--segments", 2) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["entities"] == 20  # flag wins
        assert echoed["relations"] == 3  # config file wins over default
        assert echoed["facts_per_arity"] == 60
        stats = json.loads(capsys.readouterr().out)
        assert stats["entities"] <= 20

    def test_search_and_train_echo_their_keys(self, planted_dir, tmp_path, capsys):
        shared = {"dimension", "segments", "seed", "learning_rate", "decay_rate",
                  "batch_size", "tie_policy", "arity"}
        search, ckpt = tmp_path / "search", tmp_path / "ckpt"
        assert run("search", "--data", planted_dir, "--out", search, "--dim", 8,
                   "--search-epochs", 0) == 0
        assert run("train", "--data", planted_dir, "--out", ckpt, "--preset", "cp",
                   "--dim", 8, "--epochs", 0) == 0
        echoed = json.loads((search / "config.json").read_text())
        assert set(echoed) == shared | {"lam", "search_epochs", "theta_lr", "val_batch_size"}
        echoed = json.loads((ckpt / "config.json").read_text())
        assert set(echoed) == shared | {"max_epochs", "patience", "eval_every", "preset",
                                        "arch"}
        assert echoed["segments"] == 2 and echoed["arity"] is None
