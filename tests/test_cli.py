"""End-to-end CLI runs over synthetic file fixtures."""

import ast
import csv
import dataclasses
import errno
import functools
import json
import math
import os
import shutil
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from metaseq import cli, embedding_io, space_analysis, tagger_model, train_eval
from metaseq import tensor_core as tc
from metaseq.cli import main, parse_config_file
from metaseq.embedding_io import (
    CONTEXTUAL_MAGIC,
    CONTEXTUAL_VERSION,
    ChannelProvider,
    load_contextual,
)
from metaseq.errors import MetaseqError, ParameterError, ParseError
from metaseq.linguistic_features import cosine
from metaseq.tagger_model import (
    Checkpoint,
    MetaphorTagger,
    ModelConfig,
    _param_shapes,
    load_checkpoint,
    save_checkpoint,
)
from metaseq.train_eval import parse_dataset
from conftest import (
    DATA_DIR,
    build_separable_corpus,
    layer_records,
    write_contextual,
    write_corpus_files,
)


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    corpus = build_separable_corpus(base, n_sentences=8, seed=21)
    paths = write_corpus_files(corpus, base)
    config_path = base / "model.cfg"
    config_path.write_text(
        "unified_dim=16\n"
        "static_dim=8\n"
        "kernels_per_window=4\n"
        "hidden_size=8\n"
        "input_dropout=0.0\n"
        "hidden_dropout=0.0\n"
        "learning_rate=0.2\n"
        "epochs=3\n"
        "window_sizes=2,3,4,5\n"
        "channel_order=G,E,B\n")
    paths["config"] = config_path
    return corpus, paths


def _config_with(paths, *lines: str) -> str:
    """The fixture config with each of ``lines`` in place of the line setting its key."""
    keys = {line.split("=", 1)[0] for line in lines}
    kept = [other for other in paths["config"].read_text().splitlines()
            if other.split("=", 1)[0] not in keys]
    return "\n".join([*kept, *lines]) + "\n"


def _train_args(paths, out_dir, seed="9"):
    return ["train", "--data", str(paths["data"]), "--glove", str(paths["glove"]),
            "--layers", str(paths["E"]), str(paths["B"]),
            "--config", str(paths["config"]), "--seed", seed,
            "--out", str(out_dir)]


class TestTrainCommand:
    def test_smoke_run_writes_artifacts(self, corpus_files, tmp_path):
        _, paths = corpus_files
        out = tmp_path / "run"
        assert main(_train_args(paths, out)) == 0
        assert (out / "checkpoint.mseq").exists()
        curve = (out / "training_curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,train_loss,dev_f1"
        assert len(curve) == 4  # header + 3 epochs
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert str(paths["data"]) in manifest["inputs"]

    @pytest.mark.parametrize("case", ["layers-count", "glove", "abst-lexicon",
                                      "abstractness-without-G", "pos-without-G",
                                      "l2-one-file"])
    def test_missing_glove_is_usage_error(self, corpus_files, tmp_path, capsys, monkeypatch,
                                          case):
        # every usage error a command finds itself takes the one error path
        _, paths = corpus_files
        out = tmp_path / "x"
        args = _train_args(paths, out)
        cfg = tmp_path / "model.cfg"
        if case == "layers-count":
            del args[args.index("--layers") + 2]
            message = "expected 2 --layers files for channels ['E', 'B'], got 1"
        elif case == "glove":
            del args[args.index("--glove"):args.index("--glove") + 2]
            message = "channel G is configured but --glove is missing"
        elif case == "abst-lexicon":
            cfg.write_text(_config_with(paths, "use_abstractness=true"))
            args[args.index("--config") + 1] = str(cfg)
            message = "use_abstractness is configured but --abst-lexicon is missing"
        elif case.endswith("-without-G"):   # a config rule: raised before --data is read
            feature = "use_pos" if case == "pos-without-G" else "use_abstractness"
            cfg.write_text(_config_with(paths, f"{feature}=true", "pos_tags=NOUN,VERB",
                                        "channel_order=E,B"))
            args[args.index("--config") + 1] = str(cfg)
            args += ["--abst-lexicon", str(DATA_DIR / "abstractness_small.tsv")]
            message = f"{feature} requires the static channel G"

            def unread(path):
                raise AssertionError(f"{path} was read")

            monkeypatch.setattr(train_eval, "parse_dataset", unread)
        else:
            args = ["probe", "--data", str(paths["data"]), "--layer-files", str(paths["E"]),
                    "--mode", "l2", "--out", str(out)]
            message = "mode=l2 needs a reference file plus at least one layer file"
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_layers_count_is_checked_before_the_vectors_are_read(
            self, corpus_files, tmp_path, capsys, monkeypatch, command):
        """A short ``--layers`` is a usage error before the lexicon or the
        vector file is opened, on a config that needs both."""
        _, paths = corpus_files
        cfg = tmp_path / "model.cfg"
        cfg.write_text(_config_with(paths, "use_abstractness=true"))
        out = tmp_path / "x"
        if command == "train":
            args = _train_args(paths, out)
            args[args.index("--config") + 1] = str(cfg)
        else:
            config = ModelConfig(**parse_config_file(cfg))
            ckpt = tmp_path / "abstractness.mseq"
            save_checkpoint(Checkpoint(config, {name: np.zeros(shape) for name, shape
                                                in _param_shapes(config).items()}, 1, 0.0), ckpt)
            args = ["eval", "--checkpoint", str(ckpt), "--data", str(paths["data"]),
                    "--glove", str(paths["glove"]), "--layers", str(paths["E"]), str(paths["B"]),
                    "--out", str(out)]
        args += ["--abst-lexicon", str(DATA_DIR / "abstractness_small.tsv")]
        del args[args.index("--layers") + 2]

        def unread(path, *rest):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "load_static_text", unread)
        monkeypatch.setattr(cli, "load_abstractness_lexicon", unread)
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: expected 2 --layers files for channels ['E', 'B'], got 1\n")
        assert not out.exists()

    def test_epochs_flag_is_usage_error(self, corpus_files, tmp_path, capsys):
        # the epoch count comes from the config's `epochs` only
        _, paths = corpus_files
        out = tmp_path / "x"
        assert main(_train_args(paths, out) + ["--epochs", "3"]) == 2
        assert "unrecognized arguments: --epochs 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_threads_flag_is_probe_only(self, corpus_files, tmp_path, capsys, command):
        _, paths = corpus_files
        args = [command, "--data", str(paths["data"]), "--out", str(tmp_path / "x"),
                "--threads", "2"]
        if command == "eval":
            args += ["--checkpoint", "x.mseq"]
        assert main(args) == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, corpus_files, tmp_path):
        _, paths = corpus_files
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(_train_args(paths, out_a)) == 0
        assert main(_train_args(paths, out_b)) == 0
        assert ((out_a / "training_curve.csv").read_bytes()
                == (out_b / "training_curve.csv").read_bytes())
        assert ((out_a / "checkpoint.mseq").read_bytes()
                == (out_b / "checkpoint.mseq").read_bytes())

    def test_identical_invocation_gives_identical_manifest(self, corpus_files, tmp_path):
        _, paths = corpus_files
        out = tmp_path / "same"
        args = _train_args(paths, out)
        assert main(args) == 0
        first = (out / "manifest.json").read_bytes()
        assert main(args) == 0
        assert (out / "manifest.json").read_bytes() == first

    def test_manifest_records_the_numeric_build(self, corpus_files, tmp_path, monkeypatch):
        """numpy's version, its OpenBLAS build and the BLAS thread counts in
        effect, an unset one as null."""
        _, paths = corpus_files
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        assert main(_train_args(paths, out)) == 0
        build = json.loads((out / "manifest.json").read_text())["build"]
        assert build == cli.numeric_build()
        assert build["numpy"] == np.__version__
        assert sorted(build["blas_threads"]) == sorted(tc.BLAS_THREAD_VARS)
        assert build["blas_threads"]["OMP_NUM_THREADS"] == "1"
        assert build["blas_threads"]["MKL_NUM_THREADS"] is None

    def test_unparseable_data_is_exit_3(self, corpus_files, tmp_path):
        _, paths = corpus_files
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\tthree\tcolumns\n")
        args = _train_args(paths, tmp_path / "out")
        args[args.index("--data") + 1] = str(bad)
        assert main(args) == 3

    def test_bad_layer_file_is_exit_3_and_leaves_no_out(self, corpus_files, tmp_path,
                                                        capsys):
        _, paths = corpus_files
        bad = tmp_path / "bad.cemb"
        bad.write_bytes(b"XXXX" + bytes(16))
        out = tmp_path / "run"
        args = _train_args(paths, out)
        args[args.index("--layers") + 1] = str(bad)
        assert main(args) == 3
        assert capsys.readouterr().err == (
            f"error: {bad}: bad magic b'XXXX', expected b'CEMB'\n")
        assert not out.exists()

    def test_layer_file_beyond_the_training_data_is_exit_3(self, corpus_files, tmp_path,
                                                           capsys):
        corpus, paths = corpus_files
        layer = load_contextual(paths["B"], corpus.sentences)
        extra = tmp_path / "extra.cemb"
        write_contextual(extra, layer.layer_index, layer.dimension,
                         {**layer_records(layer), 8: layer.rows(0)})
        out = tmp_path / "run"
        args = _train_args(paths, out)
        args[args.index("--layers") + 2] = str(extra)
        assert main(args) == 3
        n = len(corpus.sentences[0].tokens)
        assert capsys.readouterr().err == (
            f"error: {extra}: sentence 8: {n} rows, but the dataset has 8 sentences\n")
        assert not out.exists()

    def test_dimension_clash_is_exit_3(self, corpus_files, tmp_path, capsys):
        corpus, paths = corpus_files
        wrong = tmp_path / "wrong.cemb"   # aligned rows, so the dimension is the one fault
        write_contextual(wrong, 9, 7, {i: np.zeros((len(s.tokens), 7), dtype=np.float32)
                                       for i, s in enumerate(corpus.sentences)})
        args = _train_args(paths, tmp_path / "out")
        args[args.index("--layers") + 1] = str(wrong)
        assert main(args) == 3
        assert capsys.readouterr().err == (f"error: {wrong}: layer dimension 7 != "
                                           f"configured unified dimension 16\n")

    def test_dimension_is_reported_before_misaligned_rows(self, corpus_files, tmp_path,
                                                          capsys):
        corpus, paths = corpus_files
        wrong = tmp_path / "wrong.cemb"   # wrong dimension and a foreign row count
        write_contextual(wrong, 9, 7, {0: np.zeros((len(corpus.sentences[0].tokens) + 1, 7),
                                                   dtype=np.float32)})
        args = _train_args(paths, tmp_path / "out")
        args[args.index("--layers") + 1] = str(wrong)
        assert main(args) == 3
        assert capsys.readouterr().err == (f"error: {wrong}: layer dimension 7 != "
                                           f"configured unified dimension 16\n")
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def seed_1_run(corpus_files, tmp_path_factory):
    """A finished seed-1 ``train`` run's ``--out``."""
    out = tmp_path_factory.mktemp("seed1") / "run"
    assert main(_train_args(corpus_files[1], out, seed="1")) == 0
    return out


_ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestRunDirectory:
    """A rerun into a finished run's ``--out`` that stops, here at seed 2,
    leaves each file it did not finish with the previous run's bytes, no
    ``.partial`` file, and no manifest: the old one named other bytes."""

    @staticmethod
    def _rerun(corpus_files, seed_1_run, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(seed_1_run, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        return out, before, _train_args(corpus_files[1], out, seed="2")

    def test_a_rerun_stopped_at_its_manifest_leaves_no_manifest(
            self, corpus_files, seed_1_run, tmp_path, capsys, monkeypatch):
        out, before, args = self._rerun(corpus_files, seed_1_run, tmp_path)

        def full(*args, **kwargs):
            raise _ENOSPC

        monkeypatch.setattr(cli, "_write_manifest", full)
        assert main(args) == 3
        assert capsys.readouterr() == ("", f"error: {_ENOSPC}\n")
        assert sorted(path.name for path in out.iterdir()) == [
            "checkpoint.mseq", "training_curve.csv"]
        assert (out / "checkpoint.mseq").read_bytes() != before["checkpoint.mseq"]

    @pytest.mark.parametrize("stage,name", [
        ("rename", "checkpoint.mseq"), ("rename", "training_curve.csv"),
        ("write", "checkpoint.mseq")])
    def test_a_failed_output_keeps_the_previous_file(
            self, corpus_files, seed_1_run, tmp_path, capsys, monkeypatch, stage, name):
        out, before, args = self._rerun(corpus_files, seed_1_run, tmp_path)
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == name:
                raise _ENOSPC
            replace(src, dst)

        def failing_save(checkpoint, path):
            Path(path).write_bytes(before[name][:100])
            raise _ENOSPC

        if stage == "rename":
            monkeypatch.setattr(os, "replace", failing_replace)
        else:
            monkeypatch.setattr(tagger_model, "save_checkpoint", failing_save)
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {_ENOSPC}\n"
        assert (out / name).read_bytes() == before[name]
        assert not (out / "manifest.json").exists()
        assert not [path for path in out.iterdir() if path.name.endswith(".partial")]

    @staticmethod
    def _pca(corpus_files, out, *layers) -> list[str]:
        paths = corpus_files[1]
        return ["probe", "--data", str(paths["data"]), "--mode", "pca", "--out", str(out),
                "--layer-files", *(str(paths[name]) for name in layers)]

    def test_a_rerun_removes_the_outputs_it_does_not_write(self, corpus_files, tmp_path):
        """pca over layers 1 and 2, then over layer 2 alone: the earlier
        run's ``pca_layer1.csv`` goes, and a file no manifest named stays."""
        out = tmp_path / "run"
        assert main(self._pca(corpus_files, out, "E", "B")) == 0
        assert (out / "pca_layer1.csv").exists()
        (out / "notes.txt").write_text("mine\n")
        assert main(self._pca(corpus_files, out, "B")) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs == [str(out / "pca_layer2.csv")]
        assert sorted(path.name for path in out.iterdir()) == [
            "manifest.json", "notes.txt", "pca_layer2.csv"]

    def test_a_rerun_from_another_directory_removes_them_too(self, corpus_files, tmp_path,
                                                             monkeypatch):
        """The manifest lists ``run/pca_layer1.csv``, relative to the first
        run's working directory; the second names ``--out`` as ``../run``."""
        monkeypatch.chdir(tmp_path)
        assert main(self._pca(corpus_files, "run", "E", "B")) == 0
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        assert main(self._pca(corpus_files, "../run", "B")) == 0
        assert sorted(path.name for path in (tmp_path / "run").iterdir()) == [
            "manifest.json", "pca_layer2.csv"]

    def test_a_listed_path_outside_out_is_never_removed(self, corpus_files, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "run"
        assert main(self._pca(corpus_files, out, "E", "B")) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        outside = [tmp_path / "x", elsewhere / "pca_layer1.csv", elsewhere / "y"]
        for path in outside:
            path.write_text("not an output\n")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"] += [str(out / "../x"), str(outside[1]), "elsewhere/y",
                                str(out / "sub" / ".."), str(out), f"{out}/./pca_layer1.csv"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(self._pca(corpus_files, out, "B")) == 0
        assert all(path.read_text() == "not an output\n" for path in outside)
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "pca_layer2.csv"]

    def test_a_rerun_keeps_the_outputs_it_reads(self, corpus_files, tmp_path):
        out = tmp_path / "run"
        assert main(self._pca(corpus_files, out, "E", "B")) == 0
        layer = out / "layer.cemb"
        shutil.copyfile(corpus_files[1]["B"], layer)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"].append(str(layer))
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main([*self._pca(corpus_files, out), str(layer)]) == 0
        assert layer.read_bytes() == corpus_files[1]["B"].read_bytes()
        assert sorted(path.name for path in out.iterdir()) == [
            "layer.cemb", "manifest.json", "pca_layer2.csv"]

    def test_another_commands_outputs_are_kept(self, corpus_files, tmp_path):
        """``eval`` of a trained checkpoint into its ``train`` run's
        ``--out`` reads the checkpoint and keeps the curve beside it."""
        out = tmp_path / "run"
        assert main(_train_args(corpus_files[1], out, seed="1")) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        checkpoint = out / "checkpoint.mseq"
        args = TestEvalCommand()._eval_args(corpus_files[1], checkpoint, out)
        assert main(args) == 0
        assert checkpoint.read_bytes() == before["checkpoint.mseq"]
        assert (out / "training_curve.csv").read_bytes() == before["training_curve.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"][0] == "eval"
        assert str(checkpoint) in manifest["inputs"]

    @pytest.mark.parametrize("previous", [
        b"{not json", b"\xff\xfe", b"[1]", b'{"command": []}',
        b'{"outputs": ["pca_layer1.csv"]}', b'{"command": "probe", "outputs": ["pca_layer1.csv"]}',
        b'{"command": ["probe"], "outputs": "pca_layer1.csv"}',
        b'{"command": ["probe"], "outputs": [5, "pca_layer1.csv"]}'])
    def test_a_malformed_previous_manifest_removes_nothing_else(
            self, corpus_files, tmp_path, previous):
        out = tmp_path / "run"
        assert main(self._pca(corpus_files, out, "E", "B")) == 0
        (out / "manifest.json").write_bytes(previous)
        assert main(self._pca(corpus_files, out, "B")) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "manifest.json", "pca_layer1.csv", "pca_layer2.csv"]
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [
            str(out / "pca_layer2.csv")]


_WRITE_CALLS = {"mkdir", "write_text", "write_bytes", "save_checkpoint", "unlink"}


def _writes(node) -> bool:
    """Whether ``node`` calls a directory maker, a path writer, ``os.replace``,
    ``save_checkpoint``, ``unlink`` or ``open`` in a mode other than reading."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "replace":   # os.replace, not str.replace
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
    if name == "open":
        at = 0 if isinstance(func, ast.Attribute) else 1   # Path.open(mode), open(path, mode)
        modes = [*node.args[at:at + 1], *(k.value for k in node.keywords if k.arg == "mode")]
        return any(not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
                   for mode in modes)
    return name in _WRITE_CALLS


def test_only_the_run_writer_writes_to_out():
    """Each command writes ``--out`` through ``cli._write_run`` alone, so
    its outputs are renamed into place and its manifest goes last."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    writers = {getattr(node, "name", "<module>") for node in tree.body
               if any(_writes(inner) for inner in ast.walk(node))}
    assert writers == {"_write_run", "_write_manifest"}


@pytest.fixture(scope="module")
def readme_demo(tmp_path_factory):
    """The README demo inputs (``build_separable_corpus`` defaults, README model.cfg),
    trained for one epoch."""
    base = tmp_path_factory.mktemp("demo")
    paths = write_corpus_files(build_separable_corpus(base), base)
    paths["config"] = base / "model.cfg"
    paths["config"].write_text(
        "unified_dim=16\nstatic_dim=8\nkernels_per_window=4\nhidden_size=8\n"
        "input_dropout=0.0\nhidden_dropout=0.0\nepochs=1\n")
    return paths


class TestDevSplit:
    """Dev sentence i is scored on the contextual rows of training sentence i,
    so it must have that sentence's tokens."""

    def _run(self, paths, tmp_path, blocks):
        dev = tmp_path / "dev.tsv"
        dev.write_text("".join(blocks))
        args = _train_args(paths, tmp_path / "run") + ["--dev", str(dev)]
        return main(args), dev

    @staticmethod
    def _blocks(paths):
        return [b + "\n\n" for b in paths["data"].read_text().split("\n\n") if b.strip()]

    def test_prefix_of_training_file_is_accepted(self, readme_demo, tmp_path):
        code, _ = self._run(readme_demo, tmp_path, self._blocks(readme_demo)[:5])
        assert code == 0

    def test_other_sentence_at_a_position_is_data_error(self, readme_demo, tmp_path, capsys):
        blocks = self._blocks(readme_demo)
        code, dev = self._run(readme_demo, tmp_path, [blocks[0], blocks[2], blocks[1]])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dev}: dev sentence s2 (#1) ")
        assert "training sentence s1" in err

    def test_same_length_other_tokens_is_data_error(self, readme_demo, tmp_path, capsys):
        blocks = self._blocks(readme_demo)
        renamed = blocks[1].replace("\tw1_0\t", "\tother\t")
        code, dev = self._run(readme_demo, tmp_path, [blocks[0], renamed])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {dev}: dev sentence s1 (#1) ")

    def test_more_dev_than_training_sentences_is_data_error(self, readme_demo, tmp_path,
                                                            capsys):
        blocks = self._blocks(readme_demo)
        code, _ = self._run(readme_demo, tmp_path, blocks + blocks[:1])
        assert code == 3
        assert f"dev sentence s0 (#{len(blocks)}) " in capsys.readouterr().err

@pytest.fixture(scope="module")
def trained(corpus_files, tmp_path_factory):
    _, paths = corpus_files
    out = tmp_path_factory.mktemp("train-out")
    assert main(_train_args(paths, out)) == 0
    return out / "checkpoint.mseq"


class TestEvalCommand:
    def _eval_args(self, paths, checkpoint, out, breakdown=None):
        args = ["eval", "--checkpoint", str(checkpoint), "--data", str(paths["data"]),
                "--glove", str(paths["glove"]),
                "--layers", str(paths["E"]), str(paths["B"]),
                "--out", str(out)]
        if breakdown:
            args += ["--breakdown", breakdown]
        return args

    def test_overall_report_schema(self, corpus_files, trained, tmp_path):
        _, paths = corpus_files
        out = tmp_path / "eval"
        assert main(self._eval_args(paths, trained, out)) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "split,class,P,R,F1,Acc,TP,FP,FN,TN"
        assert lines[1].startswith("overall,ALL,")

    def test_perfect_model_reports_ones(self, corpus_files, trained, tmp_path):
        # the separable fixture trains to a perfect fit within 3 epochs
        _, paths = corpus_files
        out = tmp_path / "eval"
        assert main(self._eval_args(paths, trained, out)) == 0
        row = (out / "metrics.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "1.000000" and row[4] == "1.000000"

    def test_pos_breakdown_rows_and_partition(self, corpus_files, trained, tmp_path):
        _, paths = corpus_files
        out = tmp_path / "eval"
        assert main(self._eval_args(paths, trained, out, breakdown="pos")) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        classes = [line.split(",")[1] for line in lines[2:]]
        assert classes == ["VERB", "ADJ", "NOUN", "ADV", "ALL"]
        overall = lines[1].split(",")
        pos_all = [line for line in lines[2:] if line.split(",")[1] == "ALL"][0].split(",")
        assert overall[6:10] == pos_all[6:10]  # same pooled confusion counts

    def test_genre_breakdown_counts_sum_to_overall(self, corpus_files, trained, tmp_path):
        _, paths = corpus_files
        out = tmp_path / "eval"
        assert main(self._eval_args(paths, trained, out, breakdown="genre")) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        overall = lines[1].split(",")
        sums = [0, 0, 0, 0]
        for line in lines[2:]:
            parts = line.split(",")
            for i in range(4):
                sums[i] += int(parts[6 + i])
        assert sums == [int(v) for v in overall[6:10]]

    def test_seed_flag_is_usage_error(self, corpus_files, trained, tmp_path, capsys):
        # eval's seed is the checkpoint's, so there is no --seed to ignore
        _, paths = corpus_files
        out = tmp_path / "eval"
        assert main(self._eval_args(paths, trained, out) + ["--seed", "5"]) == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()

    def test_channels_are_built_right_before_each_sentence_is_scored(
            self, corpus_files, trained, tmp_path, monkeypatch):
        # one sentence's channels alive at a time; the benchmark's eval unit
        # markers also rely on this order
        _, paths = corpus_files
        calls = []
        channels = ChannelProvider.channels
        predict = MetaphorTagger.predict_probs

        def channels_hook(self, sent, index):
            calls.append(("channels", index))
            return channels(self, sent, index)

        def predict_hook(self, chans):
            calls.append(("predict", len(calls) // 2))
            return predict(self, chans)

        monkeypatch.setattr(ChannelProvider, "channels", channels_hook)
        monkeypatch.setattr(MetaphorTagger, "predict_probs", predict_hook)
        assert main(self._eval_args(paths, trained, tmp_path / "eval")) == 0
        assert calls == [(step, i) for i in range(8) for step in ("channels", "predict")]

    def test_eval_scores_without_the_projected_stack(self, corpus_files, tmp_path, monkeypatch):
        # eval scores through the folded kernels; its report is the one the
        # unfolded model gives. Random parameters, the projection bias
        # included, so that the labels are mixed.
        _, paths = corpus_files
        config = ModelConfig(**parse_config_file(paths["config"]))
        rng = np.random.default_rng(5)
        params = {name: rng.normal(scale=0.5, size=shape)
                  for name, shape in _param_shapes(config).items()}
        ckpt = tmp_path / "random.mseq"
        save_checkpoint(Checkpoint(config, params, 1, 0.0), ckpt)

        def unfolded(self, chans):
            return self.forward(self.build_stack(chans), None, training=False).data.copy()

        with monkeypatch.context() as patch:
            patch.setattr(MetaphorTagger, "predict_probs", unfolded)
            assert main(self._eval_args(paths, ckpt, tmp_path / "unfolded", "pos")) == 0
        want = (tmp_path / "unfolded" / "metrics.csv").read_bytes()
        tp, fp = want.decode().splitlines()[1].split(",")[6:8]
        assert int(tp) > 0 and int(fp) > 0    # both labels predicted

        def no_stack(self, chans):
            raise AssertionError("eval built the projected stack")

        monkeypatch.setattr(MetaphorTagger, "build_stack", no_stack)
        assert main(self._eval_args(paths, ckpt, tmp_path / "folded", "pos")) == 0
        assert (tmp_path / "folded" / "metrics.csv").read_bytes() == want

    def test_layer_file_changed_before_scoring_is_exit_3(self, corpus_files, trained, tmp_path,
                                                          capsys, monkeypatch):
        _, paths = corpus_files
        layer = tmp_path / "E.cemb"
        layer.write_bytes(paths["E"].read_bytes())
        channels = ChannelProvider.channels

        def channels_after_a_change(self, sent, index):
            with open(layer, "ab") as fh:     # the file grows after load_contextual checked it
                fh.write(b"\0")
            return channels(self, sent, index)

        monkeypatch.setattr(ChannelProvider, "channels", channels_after_a_change)
        out = tmp_path / "eval"
        args = self._eval_args(paths, trained, out)
        args[args.index("--layers") + 1] = str(layer)
        assert main(args) == 3
        assert capsys.readouterr().err == (
            f"error: {layer}: sentence 0: file changed since it was checked\n")
        assert not out.exists()

    def test_layer_dimension_mismatch_is_exit_3(self, corpus_files, trained, tmp_path,
                                                capsys):
        corpus, paths = corpus_files
        wrong = tmp_path / "wrong.cemb"   # aligned rows, so the dimension is the one fault
        write_contextual(wrong, 9, 7, {i: np.zeros((len(s.tokens), 7), dtype=np.float32)
                                       for i, s in enumerate(corpus.sentences)})
        args = self._eval_args(paths, trained, tmp_path / "eval")
        args[args.index("--layers") + 2] = str(wrong)
        assert main(args) == 3
        assert capsys.readouterr().err == (f"error: {wrong}: layer dimension 7 != "
                                           f"configured unified dimension 16\n")

    def test_layer_row_count_mismatch_is_exit_3_and_leaves_no_out(
            self, corpus_files, trained, tmp_path, capsys):
        corpus, paths = corpus_files
        layer = load_contextual(paths["B"], corpus.sentences)
        sentences = layer_records(layer)
        sentences[3] = sentences[3][:-1]
        short = tmp_path / "short.cemb"
        write_contextual(short, layer.layer_index, layer.dimension, sentences)
        out = tmp_path / "eval"
        args = self._eval_args(paths, trained, out)
        args[args.index("--layers") + 2] = str(short)
        assert main(args) == 3
        n = len(corpus.sentences[3].tokens)
        assert capsys.readouterr().err == (
            f"error: {short}: sentence 3 (s3): {n - 1} rows for {n} tokens\n")
        assert not out.exists()


    def test_layer_file_with_more_sentences_than_data_is_exit_3(
            self, corpus_files, trained, tmp_path, capsys):
        corpus, paths = corpus_files
        data = tmp_path / "first7.tsv"
        blocks = paths["data"].read_text().split("\n\n")
        data.write_text("\n\n".join(blocks[:7]) + "\n\n")
        out = tmp_path / "eval"
        args = self._eval_args(paths, trained, out)
        args[args.index("--data") + 1] = str(data)
        assert main(args) == 3
        n = len(corpus.sentences[7].tokens)
        assert capsys.readouterr().err == (
            f"error: {paths['E']}: sentence 7: {n} rows, but the dataset has 7 sentences\n")
        assert not out.exists()

    def test_non_utf8_parameter_name_is_exit_3(self, corpus_files, trained, tmp_path, capsys):
        _, paths = corpus_files
        ckpt = tmp_path / "bad.mseq"
        ckpt.write_bytes(trained.read_bytes() + struct.pack("<I", 1) + b"\xff"
                         + struct.pack("<II", 1, 1) + bytes(8))
        out = tmp_path / "eval"
        assert main(self._eval_args(paths, ckpt, out)) == 3
        assert capsys.readouterr().err == (
            f"error: {ckpt}: parameter name {bytes([255])!r} is not UTF-8\n")
        assert not out.exists()

    @pytest.mark.parametrize("dim,problem", [
        (0xFFFFFFFF, "file ended while reading parameter w payload: its rank-600 shape"),
        (0, "parameter w: maximum supported dimension"),
    ], ids=["dims-0xffffffff", "dims-0"])
    def test_rank_600_parameter_is_exit_3(self, corpus_files, trained, tmp_path, capsys,
                                          dim, problem):
        _, paths = corpus_files
        ckpt = tmp_path / "bad.mseq"
        ckpt.write_bytes(trained.read_bytes() + struct.pack("<I", 1) + b"w"
                         + struct.pack("<601I", 600, *[dim] * 600) + bytes(8))
        out = tmp_path / "eval"
        assert main(self._eval_args(paths, ckpt, out)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: {problem}")
        assert "Traceback" not in err and len(err) < 300
        assert not out.exists()

    def test_rank_100000_parameter_is_exit_3_without_multiplying_every_dim(
            self, corpus_files, trained, tmp_path, capsys):
        _, paths = corpus_files
        ckpt = tmp_path / "bad.mseq"
        ckpt.write_bytes(trained.read_bytes() + struct.pack("<I", 1) + b"w"
                         + struct.pack("<100001I", 100_000, *[0xFFFFFFFF] * 100_000) + bytes(8))
        out = tmp_path / "eval"
        began = time.perf_counter()
        assert main(self._eval_args(paths, ckpt, out)) == 3
        assert time.perf_counter() - began < 2.0
        assert capsys.readouterr().err == (
            f"error: {ckpt}: file ended while reading parameter w payload: its rank-100000 "
            "shape declares more than the 8 bytes left\n")
        assert not out.exists()


def _meta(**config_changes) -> dict:
    config = dict(dataclasses.asdict(ModelConfig(unified_dim=16, static_dim=8)),
                  **config_changes)
    return {"config": config, "epoch": 1, "dev_f1": 0.5}


def _json(meta) -> bytes:
    return json.dumps(meta).encode("utf-8")


class TestMalformedCheckpointConfig:
    """Every flaw in a checkpoint's JSON blob is a data error naming it."""

    @pytest.mark.parametrize("blob,problem", [
        pytest.param(_json(_meta(bogus=1)), "unknown key 'bogus'", id="unknown-key"),
        pytest.param(_json(_meta(unified_dim="16")), "unified_dim: expected int, got '16'",
                     id="string-unified-dim"),
        pytest.param(_json(_meta(window_sizes=3)), "window_sizes: expected a list, got 3",
                     id="int-window-sizes"),
        pytest.param(_json(_meta(hidden_size=10.0)), "hidden_size: expected int, got 10.0",
                     id="float-hidden-size"),
        pytest.param(_json(_meta(use_pos=1)), "use_pos: expected bool, got 1",
                     id="int-use-pos"),
        pytest.param(_json(_meta(channel_order=["E", "B"], use_pos=True, pos_tags=["NOUN"])),
                     "use_pos requires the static channel G", id="pos-without-G"),
        pytest.param(_json(_meta(learning_rate=10 ** 400)), "learning_rate: expected float",
                     id="int-beyond-float"),
        pytest.param(_json(_meta(window_sizes=[])), "bad window sizes", id="no-windows"),
        pytest.param(_json(_meta(learning_rate=-0.1)),
                     "learning rate must be finite and positive", id="negative-rate"),
        pytest.param(_json(_meta(class_weights=[float("nan"), 1.0])),
                     "class weights must be finite and positive", id="nan-class-weight"),
        pytest.param(_json({"config": _meta()["config"], "dev_f1": 0.5}),
                     "expected an object of config, dev_f1, epoch",
                     id="missing-epoch"),
        pytest.param(_json(dict(_meta(), epoch="1")), "epoch: expected int, got '1'",
                     id="string-epoch"),
        pytest.param(_json(dict(_meta(), dev_f1=None)), "dev_f1: expected float, got None",
                     id="null-dev-f1"),
        pytest.param(_json(dict(_meta(), config=[])), "config: expected an object, got []",
                     id="config-list"),
        pytest.param(b'{"config": ', "Expecting value", id="bad-json"),
        pytest.param(b"\xff\xfe{}", "can't decode byte 0xff", id="bad-utf8"),
        pytest.param(b"[1, 2]", "expected an object of config", id="json-list"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "recursion", id="deep-nesting"),
    ])
    def test_eval_exits_3_naming_the_problem(self, tmp_path, capsys, blob, problem):
        ckpt = tmp_path / "bad.mseq"
        ckpt.write_bytes(b"MSEQ" + struct.pack("<II", 1, len(blob)) + blob)
        args = ["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "unread.tsv"),
                "--out", str(tmp_path / "eval")]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: config blob: ")
        assert problem in err


class TestProbeCommand:
    @staticmethod
    def _rows(path, data) -> dict:
        """The rows of layer file ``path`` read against ``data``, by sentence index."""
        return layer_records(load_contextual(path, parse_dataset(data)))

    def _layer_paths(self, tmp_path, sentences_count, thetas):
        """One file per angle; pairs rotate apart by theta within each file."""
        rng = np.random.default_rng(5)
        paths = []
        dim = 6
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        v = rng.normal(size=dim)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        for layer_idx, theta in enumerate(thetas, start=1):
            sents = {}
            for i in range(sentences_count):
                if i % 2 == 0:
                    sents[i] = np.asarray([u], dtype=np.float32)
                else:
                    rotated = np.cos(theta) * u + np.sin(theta) * v
                    sents[i] = np.asarray([rotated], dtype=np.float32)
            p = tmp_path / f"layer{layer_idx}.cemb"
            write_contextual(p, layer_idx, dim, sents)
            paths.append(p)
        return paths

    def _paired_dataset(self, tmp_path, n_pairs=3):
        p = tmp_path / "pairs.tsv"
        rows = []
        for i in range(2 * n_pairs):
            word = f"w{i // 2}"
            label = i % 2
            rows.append(f"s{i}\tnews\t0\t{word}\tVERB\t{label}\t1\n\n")
        p.write_text("".join(rows))
        return p

    def test_cosine_mode_ordered_rows(self, tmp_path):
        data = self._paired_dataset(tmp_path)
        layers = self._layer_paths(tmp_path, 6, [0.3, 0.9])
        out = tmp_path / "probe"
        args = ["probe", "--data", str(data), "--layer-files",
                str(layers[1]), str(layers[0]), "--mode", "cosine",
                "--out", str(out), "--seed", "0"]
        assert main(args) == 0
        lines = (out / "probe_cosine.csv").read_text().splitlines()
        assert lines[0] == "layer,avg_cosine,n_pairs"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
        assert float(lines[1].split(",")[1]) == pytest.approx(np.cos(0.3), abs=1e-6)
        assert float(lines[2].split(",")[1]) == pytest.approx(np.cos(0.9), abs=1e-6)

    def test_l2_identity_row(self, tmp_path):
        data = self._paired_dataset(tmp_path)
        layers = self._layer_paths(tmp_path, 6, [0.4])
        out = tmp_path / "probe"
        args = ["probe", "--data", str(data), "--layer-files",
                str(layers[0]), str(layers[0]), "--mode", "l2",
                "--out", str(out)]
        assert main(args) == 0
        lines = (out / "probe_l2.csv").read_text().splitlines()
        assert lines[0] == "layer,avg_l2,pearson_vs_f1"
        assert lines[1].split(",")[1] == "0.000000"

    def test_pca_mode_collinear_variance(self, tmp_path, capsys):
        p = tmp_path / "three.tsv"
        p.write_text("".join(
            f"s{i}\tnews\t0\tw{i}\tNOUN\t0\t1\n\n" for i in range(3)))
        sents = {i: np.asarray([[float(i + 1), 2.0 * (i + 1), 0.0, 0.0]],
                               dtype=np.float32) for i in range(3)}
        layer = tmp_path / "lin.cemb"
        write_contextual(layer, 4, 4, sents)
        out = tmp_path / "probe"
        args = ["probe", "--data", str(p), "--layer-files", str(layer),
                "--mode", "pca", "--out", str(out)]
        assert main(args) == 0
        csv_lines = (out / "pca_layer4.csv").read_text().splitlines()
        assert csv_lines[0] == "token,pos,x,y"
        assert len(csv_lines) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["explained_variance"]["4"] == ["1.000000", "0.000000"]

    def test_pca_quotes_a_field_holding_a_comma(self, tmp_path):
        """The rows read back by ``csv.reader``; a row with nothing to quote
        keeps its plain bytes."""
        words = ["a,b", 'say"so', "w2", "w3"]
        p = tmp_path / "comma.tsv"
        p.write_text("".join(f"s{i}\tnews\t0\t{w}\tNOUN\t0\t1\n\n"
                             for i, w in enumerate(words)))
        rng = np.random.default_rng(5)
        layer = tmp_path / "comma.cemb"
        write_contextual(layer, 3, 4, {i: rng.normal(size=(1, 4)).astype(np.float32)
                                       for i in range(len(words))})
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(p), "--layer-files", str(layer),
                     "--mode", "pca", "--out", str(out)]) == 0
        text = (out / "pca_layer3.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["token", "pos", "x", "y"]
        assert [row[:2] for row in rows[1:]] == [[w, "NOUN"] for w in words]
        assert {len(row) for row in rows} == {4}
        lines = text.splitlines()
        assert lines[1].startswith('"a,b",NOUN,') and lines[2].startswith('"say""so",NOUN,')
        assert lines[3] == ",".join(rows[3]) and lines[4] == ",".join(rows[4])

    def test_misaligned_layer_is_exit_3(self, tmp_path):
        data = self._paired_dataset(tmp_path)
        layers = self._layer_paths(tmp_path, 2, [0.4])  # fewer sentences than data
        out = tmp_path / "probe"
        args = ["probe", "--data", str(data), "--layer-files", str(layers[0]),
                "--mode", "cosine", "--out", str(out)]
        assert main(args) == 3

    @pytest.mark.parametrize("mode,rows,bad,message", [
        pytest.param("l2", [{0: 2, 1: 1}, {5: 2, 9: 1}], 1,
                     "sentence 5: 2 rows, but the dataset has 2 sentences",
                     id="l2-foreign-indices"),
        pytest.param("l2", [{5: 2, 9: 1}, {0: 2, 1: 1}], 0,
                     "sentence 5: 2 rows, but the dataset has 2 sentences",
                     id="l2-foreign-reference"),
        pytest.param("l2", [{0: 2, 1: 1}, {0: 2}], 1,
                     "sentence 1 (s1): no rows for 1 tokens", id="l2-missing-sentence"),
        pytest.param("l2", [{0: 2, 1: 1}, {0: 1, 1: 2}], 1,
                     "sentence 0 (s0): 1 rows for 2 tokens", id="l2-same-total-split-differently"),
        pytest.param("cosine", [{0: 7, 1: 1}], 0,
                     "sentence 0 (s0): 7 rows for 2 tokens", id="cosine-extra-rows"),
        pytest.param("cosine", [{0: 2, 1: 1, 2: 3}], 0,
                     "sentence 2: 3 rows, but the dataset has 2 sentences",
                     id="cosine-extra-sentence"),
        pytest.param("pca", [{0: 2, 1: 3}], 0,
                     "sentence 1 (s1): 3 rows for 1 tokens", id="pca-extra-rows"),
    ])
    def test_misaligned_layer_file_is_exit_3_before_out(self, tmp_path, capsys, mode, rows,
                                                        bad, message):
        data = tmp_path / "two.tsv"   # s0 = `w x` with w literal, s1 = `w` metaphoric
        data.write_text("s0\tnews\t0\tw\tVERB\t0\t1\ns0\tnews\t1\tx\tNOUN\t0\t0\n\n"
                        "s1\tnews\t0\tw\tVERB\t1\t1\n\n")
        rng = np.random.default_rng(8)
        layers = []
        for k, counts in enumerate(rows):
            layers.append(tmp_path / f"layer{k}.cemb")
            write_contextual(layers[-1], k, 4, {i: rng.normal(size=(n, 4)).astype(np.float32)
                                                for i, n in counts.items()})
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", *map(str, layers),
                     "--mode", mode, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {layers[bad]}: {message}\n"
        assert not out.exists()

    def test_cosine_without_a_word_pair_is_data_error(self, tmp_path, capsys):
        # `w` is only literal and `v` only metaphoric, so no pair can be drawn
        data = tmp_path / "unpaired.tsv"
        data.write_text("s0\tnews\t0\tw\tVERB\t0\t1\n\ns1\tnews\t0\tv\tVERB\t1\t1\n\n")
        layers = self._layer_paths(tmp_path, 2, [0.4])
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", str(layers[0]),
                     "--mode", "cosine", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {data}: no word has both a metaphoric and a literal target token, "
            f"cosine needs at least one such pair\n")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        data = self._paired_dataset(tmp_path)
        layers = self._layer_paths(tmp_path, 6, [0.4])
        args = ["probe", "--data", str(data), "--layer-files", str(layers[0]),
                "--mode", "cosine", "--threads", threads,
                "--out", str(tmp_path / "probe")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--threads" in err and ">= 1" in err

    @pytest.mark.parametrize("line", ["x,0.5", "1,abc", "1.5,0.5", "1,nan", "1,-inf"])
    def test_malformed_scores_row_is_parse_error(self, tmp_path, capsys, line):
        data = self._paired_dataset(tmp_path)
        layers = self._layer_paths(tmp_path, 6, [0.4])
        scores = tmp_path / "f1.csv"
        scores.write_text(f"layer,score\n1,0.7\n{line}\n")
        args = ["probe", "--data", str(data), "--layer-files",
                str(layers[0]), str(layers[0]), "--mode", "l2",
                "--scores", str(scores), "--out", str(tmp_path / "probe")]
        assert main(args) == 3
        assert capsys.readouterr().err.startswith(f"error: {scores}: line 3: ")

    def test_duplicate_layer_score_is_parse_error(self, tmp_path, capsys):
        data = self._paired_dataset(tmp_path)
        layers = self._layer_paths(tmp_path, 6, [0.4])
        scores = tmp_path / "f1.csv"
        scores.write_text("layer,score\n1,0.2\n1,0.9\n")
        args = ["probe", "--data", str(data), "--layer-files",
                str(layers[0]), str(layers[0]), "--mode", "l2",
                "--scores", str(scores), "--out", str(tmp_path / "probe")]
        assert main(args) == 3
        assert capsys.readouterr().err == (
            f"error: {scores}: line 3: layer 1 already scored on line 2\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_layer_value_is_exit_3(self, tmp_path, capsys, bad):
        data = self._paired_dataset(tmp_path)
        layers = self._layer_paths(tmp_path, 6, [0.3, 0.9])
        sentences = self._rows(layers[1], data)
        sentences[3] = np.where(np.arange(6) == 2, bad, sentences[3]).astype(np.float32)
        write_contextual(layers[1], 2, 6, sentences)
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", *map(str, layers),
                     "--mode", "cosine", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {layers[1]}: sentence 3: non-finite value\n"
        assert not (out / "probe_cosine.csv").exists()

    def test_threads_do_not_change_results(self, tmp_path):
        data = self._paired_dataset(tmp_path)
        layers = self._layer_paths(tmp_path, 6, [0.2, 0.5, 0.8, 1.1])
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"probe{threads}"
            args = ["probe", "--data", str(data), "--mode", "cosine",
                    "--layer-files", *[str(p) for p in layers],
                    "--threads", threads, "--out", str(out), "--seed", "3"]
            assert main(args) == 0
            outs.append((out / "probe_cosine.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["cosine", "l2", "pca"])
    def test_repeated_layer_index_is_data_error(self, tmp_path, capsys, mode):
        data = self._paired_dataset(tmp_path)
        layers = self._layer_paths(tmp_path, 6, [0.3, 0.9, 0.5])
        write_contextual(layers[2], 2, 6, self._rows(layers[2], data))
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", *map(str, layers),
                     "--mode", mode, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {layers[2]}: layer index 2 already given by {layers[1]}\n")
        assert not out.exists()

    def test_l2_reference_may_share_the_index_of_a_probed_file(self, tmp_path):
        data = self._paired_dataset(tmp_path)
        layers = self._layer_paths(tmp_path, 6, [0.3, 0.9])
        write_contextual(layers[0], 2, 6, self._rows(layers[0], data))
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", *map(str, layers),
                     "--mode", "l2", "--out", str(out)]) == 0
        assert (out / "probe_l2.csv").read_text().splitlines()[1].startswith("2,")

    def test_l2_with_one_file_is_usage_error_before_any_output(self, tmp_path, capsys):
        data = self._paired_dataset(tmp_path)
        out = tmp_path / "probe"
        missing = tmp_path / "never_read.cemb"
        assert main(["probe", "--data", str(data), "--layer-files", str(missing),
                     "--mode", "l2", "--out", str(out)]) == 2
        assert "needs a reference file plus at least one layer file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["rotated", "raw"])
    def test_l2_file_of_another_dimension_is_data_error_before_out(self, tmp_path, capsys,
                                                                  variant):
        data = self._one_token_corpus(tmp_path, 4)
        a, b = tmp_path / "a.cemb", tmp_path / "b.cemb"
        for path, index, dim in ((a, 1, 4), (b, 2, 5)):
            write_contextual(path, index, dim, {i: np.full((1, dim), i + 1.0, dtype=np.float32)
                                                for i in range(4)})
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", str(a), str(b),
                     "--mode", "l2", "--l2-variant", variant, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {b}: dimension 5, but the reference {a} has dimension 4\n")
        assert not out.exists()

    def test_l2_too_wide_for_memory_is_data_error_before_any_read(self, tmp_path, capsys,
                                                                 monkeypatch):
        # 4 tokens at width 200,000: 3.2 MB files whose d x d matrices are TBs
        dim = 200_000
        data = self._one_token_corpus(tmp_path, 4)
        a, b = tmp_path / "a.cemb", tmp_path / "b.cemb"
        for path, index in ((a, 1), (b, 2)):
            write_contextual(path, index, dim, {i: np.full((1, dim), i + index, dtype=np.float32)
                                                for i in range(4)})

        def never(*args):
            raise AssertionError("the rotated probe started")

        monkeypatch.setattr(space_analysis, "procrustes_align", never)
        monkeypatch.setattr(embedding_io.ContextualLayerFile, "all_rows", never)
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", str(a), str(b),
                     "--mode", "l2", "--out", str(out)]) == 3
        rows = 8 * dim * 4 * 2          # the reference's rows and one layer's, 4 tokens each
        needed = space_analysis.PROCRUSTES_SQUARES * 8 * dim ** 2 + rows
        bound, source = tc.usable_memory()
        assert capsys.readouterr().err == (
            f"error: {a}: dimension {dim}: the rotated l2 probe needs {needed} bytes on "
            f"1 thread(s), {rows} of them for the rows of 4 tokens (the reference's and "
            f"each thread's layer's), more than the {bound} bytes of {source}\n")
        assert not out.exists()

    def test_l2_memory_check_counts_the_procrustes_peak(self, tmp_path, capsys, monkeypatch):
        # physical memory of 8 d x d float64 arrays: above the 6 that
        # procrustes_align's own arrays take, below its measured peak
        dim = 64
        data = self._one_token_corpus(tmp_path, 4)
        a, b = tmp_path / "a.cemb", tmp_path / "b.cemb"
        for path, index in ((a, 1), (b, 2)):
            write_contextual(path, index, dim, {i: np.full((1, dim), i + index, dtype=np.float32)
                                                for i in range(4)})
        bound = 8 * 8 * dim ** 2
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": bound}.get)
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", str(a), str(b),
                     "--mode", "l2", "--out", str(out)]) == 3
        rows = 8 * dim * 4 * 2
        needed = space_analysis.PROCRUSTES_SQUARES * 8 * dim ** 2 + rows
        assert needed - rows > bound
        assert capsys.readouterr().err == (
            f"error: {a}: dimension {dim}: the rotated l2 probe needs {needed} bytes on "
            f"1 thread(s), {rows} of them for the rows of 4 tokens (the reference's and "
            f"each thread's layer's), more than the {bound} bytes of physical memory\n")
        assert not out.exists()

    def test_l2_memory_check_reads_the_cgroup_limit(self, tmp_path, capsys, monkeypatch):
        # a v1 memory limit on the process's cgroup's parent, below both the
        # probe's d x d arrays and the machine's physical memory
        dim = 64
        data = self._one_token_corpus(tmp_path, 4)
        a, b = tmp_path / "a.cemb", tmp_path / "b.cemb"
        for path, index in ((a, 1), (b, 2)):
            write_contextual(path, index, dim, {i: np.full((1, dim), i + index, dtype=np.float32)
                                                for i in range(4)})
        limit = 8 * dim ** 2
        (tmp_path / "cgroup" / "memory" / "job" / "run").mkdir(parents=True)
        (tmp_path / "cgroup" / "memory" / "job" / "memory.limit_in_bytes").write_text(
            f"{limit}\n")
        cgroups = tmp_path / "self_cgroup"
        cgroups.write_text("5:cpu,cpuacct:/job/run\n4:memory:/job/run\n")
        monkeypatch.setattr(tc, "usable_memory", functools.partial(
            tc.usable_memory, str(tmp_path / "cgroup"), str(cgroups)), raising=False)
        assert limit < os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", str(a), str(b),
                     "--mode", "l2", "--out", str(out)]) == 3
        rows = 8 * dim * 4 * 2
        needed = space_analysis.PROCRUSTES_SQUARES * 8 * dim ** 2 + rows
        limit_file = tmp_path / "cgroup" / "memory" / "job" / "memory.limit_in_bytes"
        assert capsys.readouterr().err == (
            f"error: {a}: dimension {dim}: the rotated l2 probe needs {needed} bytes on "
            f"1 thread(s), {rows} of them for the rows of 4 tokens (the reference's and "
            f"each thread's layer's), more than the {limit} bytes of the memory limit in "
            f"{limit_file}\n")
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["rotated", "raw"])
    def test_l2_memory_check_counts_the_rows(self, tmp_path, capsys, monkeypatch, variant):
        # room for the d x d matrices the check counted before, not for the
        # rows: 6 tokens on 2 threads hold the reference's rows and two
        # layers' at once
        dim, tokens = 64, 6
        data = self._one_token_corpus(tmp_path, tokens)
        paths = [tmp_path / f"{name}.cemb" for name in "abc"]
        for index, path in enumerate(paths, 1):
            write_contextual(path, index, dim, {i: np.full((1, dim), i + index, dtype=np.float32)
                                                for i in range(tokens)})
        rows = 8 * dim * tokens * 3
        squares = space_analysis.PROCRUSTES_SQUARES * 8 * dim ** 2 * 2
        if variant == "raw":
            squares = 0
        bound = squares + rows - 1      # the old count, the squares alone, fits
        monkeypatch.setattr(tc, "usable_memory", lambda: (bound, "physical memory"),
                            raising=False)

        def never(*args):
            raise AssertionError("a layer's rows were read")

        monkeypatch.setattr(embedding_io.ContextualLayerFile, "all_rows", never)
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", *map(str, paths),
                     "--mode", "l2", "--l2-variant", variant, "--threads", "2",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {paths[0]}: dimension {dim}: the {variant} l2 probe needs "
            f"{squares + rows} bytes on 2 thread(s), {rows} of them for the rows of "
            f"{tokens} tokens (the reference's and each thread's layer's), more than the "
            f"{bound} bytes of physical memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("scale", [(1.0, 2.0), (3.0, -5.0, 0.0)])
    def test_pca_rank_one_prints_no_negative_zero(self, tmp_path, scale):
        n = 8
        p = tmp_path / "line.tsv"
        p.write_text("".join(f"s{i}\tnews\t0\tw{i}\tNOUN\t0\t1\n\n" for i in range(n)))
        t = np.random.default_rng(len(scale)).integers(-20, 20, size=n)
        sents = {i: np.asarray([t[i] * np.asarray(scale)], dtype=np.float32)
                 for i in range(n)}
        layer = tmp_path / "line.cemb"
        write_contextual(layer, 1, len(scale), sents)
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(p), "--layer-files", str(layer),
                     "--mode", "pca", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["explained_variance"]["1"] == ["1.000000", "0.000000"]
        for path in out.iterdir():
            assert "-0.000000" not in path.read_text()

    def _one_token_corpus(self, tmp_path, n):
        p = tmp_path / "nouns.tsv"
        p.write_text("".join(f"s{i}\tnews\t0\tw{i}\tNOUN\t0\t1\n\n" for i in range(n)))
        return p

    def test_pca_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        # 16-d rows with two planted axes: the certified subspace iteration
        # gives the axes, so the full eigh must not run.
        n, dim = 60, 16
        data = self._one_token_corpus(tmp_path, n)
        rng = np.random.default_rng(22)
        layers = []
        for k in range(3):
            axes = np.linalg.qr(rng.normal(size=(dim, 2)))[0].T
            rows = (rng.normal(0.0, 0.3, (n, dim)) + np.outer(rng.normal(0.0, 6.0, n), axes[0])
                    + np.outer(rng.normal(0.0, 4.0, n), axes[1]))
            layers.append(tmp_path / f"planted{k}.cemb")
            write_contextual(layers[-1], k, dim,
                             {i: rows[i:i + 1].astype(np.float32) for i in range(n)})

        def no_eigh(symmetric):
            raise AssertionError("the full eigh ran where the iteration must certify")
        monkeypatch.setattr(cli.space_analysis, "_eigh", no_eigh)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"pca{threads}"
            assert main(["probe", "--data", str(data), "--layer-files", *map(str, layers),
                         "--mode", "pca", "--threads", threads, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            outputs.append(([(out / f"pca_layer{k}.csv").read_bytes() for k in range(3)],
                            manifest["explained_variance"]))
        assert outputs[0] == outputs[1]

    @staticmethod
    def _count_reads(monkeypatch) -> list:
        """The (path, sentence) of every layer record read from now on."""
        reads = []
        rows = embedding_io.ContextualLayerFile.rows

        def counted(self, index):
            reads.append((str(self.path), index))
            return rows(self, index)

        monkeypatch.setattr(embedding_io.ContextualLayerFile, "rows", counted)
        return reads

    def test_pca_reads_each_target_sentence_once_per_layer(self, tmp_path, monkeypatch):
        # (pos, target) per token; sentences 1, 2 and 5 hold no open-class target
        spec = [[("NOUN", 1), ("DET", 0), ("VERB", 1)], [("DET", 1), ("NOUN", 0)],
                [("ADP", 0)], [("ADJ", 0), ("NOUN", 1), ("ADV", 1)], [("VERB", 1)],
                [("DET", 1), ("VERB", 0)]]
        data = tmp_path / "mixed.tsv"
        data.write_text("".join(
            "".join(f"s{s}\tnews\t{t}\tw{s}_{t}\t{pos}\t0\t{target}\n"
                    for t, (pos, target) in enumerate(tokens)) + "\n"
            for s, tokens in enumerate(spec)))
        rng = np.random.default_rng(3)
        layers = []
        for k in range(2):
            layers.append(tmp_path / f"layer{k}.cemb")
            write_contextual(layers[-1], k, 4, {
                s: rng.normal(size=(len(tokens), 4)).astype(np.float32)
                for s, tokens in enumerate(spec)})
        reads = self._count_reads(monkeypatch)
        out = tmp_path / "pca"
        assert main(["probe", "--data", str(data), "--layer-files", *map(str, layers),
                     "--mode", "pca", "--threads", "2", "--out", str(out)]) == 0
        assert sorted(reads) == [(str(p), s) for p in layers for s in (0, 3, 4)]
        for k in range(2):
            lines = (out / f"pca_layer{k}.csv").read_text().splitlines()[1:]
            assert [line.split(",")[0] for line in lines] == [
                "w0_0", "w0_2", "w3_1", "w3_2", "w4_0"]

    def test_cosine_reads_each_pair_sentence_once_per_layer(self, tmp_path, monkeypatch):
        # s0 holds the metaphoric "run" and the literal "walk"; s3 holds no pair
        spec = [[("run", 1), ("walk", 0)], [("run", 0)], [("walk", 1)], [("jog", 1)]]
        data = tmp_path / "shared.tsv"
        data.write_text("".join(
            "".join(f"s{s}\tnews\t{t}\t{word}\tVERB\t{label}\t1\n"
                    for t, (word, label) in enumerate(tokens)) + "\n"
            for s, tokens in enumerate(spec)))
        rng = np.random.default_rng(4)
        layers, records = [], []
        for k in range(2):
            records.append({s: rng.normal(size=(len(tokens), 3)).astype(np.float32)
                            for s, tokens in enumerate(spec)})
            layers.append(tmp_path / f"layer{k}.cemb")
            write_contextual(layers[-1], k, 3, records[-1])
        reads = self._count_reads(monkeypatch)
        out = tmp_path / "cosine"
        assert main(["probe", "--data", str(data), "--layer-files", *map(str, layers),
                     "--mode", "cosine", "--threads", "2", "--out", str(out)]) == 0
        assert sorted(reads) == [(str(p), s) for p in layers for s in (0, 1, 2)]
        lines = (out / "probe_cosine.csv").read_text().splitlines()[1:]
        for k, line in enumerate(lines):
            rec = records[k]
            expected = (cosine(rec[0][0], rec[1][0]) + cosine(rec[2][0], rec[0][1])) / 2
            assert line == f"{k},{cli._fmt(expected)},2"

    def test_pca_with_two_open_class_tokens_is_data_error(self, tmp_path, capsys):
        data = self._one_token_corpus(tmp_path, 2)
        layer = tmp_path / "two.cemb"
        write_contextual(layer, 1, 4, {i: np.full((1, 4), i, dtype=np.float32)
                                       for i in range(2)})
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", str(layer),
                     "--mode", "pca", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {layer}: 2 open-class target tokens in {data}, pca needs at least 3\n")
        assert not out.exists()

    def test_pca_of_one_dimensional_layer_is_data_error(self, tmp_path, capsys):
        data = self._one_token_corpus(tmp_path, 5)
        layer = tmp_path / "flat.cemb"
        write_contextual(layer, 1, 1, {i: np.full((1, 1), i, dtype=np.float32)
                                       for i in range(5)})
        out = tmp_path / "probe"
        assert main(["probe", "--data", str(data), "--layer-files", str(layer),
                     "--mode", "pca", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {layer}: dimension 1, pca needs at least 2\n")
        assert not out.exists()


# A desk-size layer file: three sentences of 2, 1 and 3 tokens, 4 values each.
FUZZ_TOKENS = (2, 1, 3)
FUZZ_DIM = 4


def _fuzz_layer() -> tuple[bytes, list[int], list[int]]:
    """The file's bytes, the offsets of its 32-bit header and record-header
    fields, and the offsets of its float32 values."""
    rows = np.random.default_rng(0).normal(size=(sum(FUZZ_TOKENS), FUZZ_DIM))
    parts = [CONTEXTUAL_MAGIC,
             struct.pack("<IIII", CONTEXTUAL_VERSION, 1, FUZZ_DIM, len(FUZZ_TOKENS))]
    fields, values, offset, row = [4, 8, 12, 16], [], 20, 0
    for idx, tokens in enumerate(FUZZ_TOKENS):
        parts.append(struct.pack("<II", idx, tokens))
        fields += [offset, offset + 4]
        offset += 8
        parts.append(rows[row:row + tokens].astype("<f4").tobytes())
        values += range(offset, offset + 4 * tokens * FUZZ_DIM, 4)
        offset += 4 * tokens * FUZZ_DIM
        row += tokens
    return b"".join(parts), fields, values


_U32 = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 255, 2**31 - 1, 2**31, 2**32 - 1]),
                 st.integers(0, 2**32 - 1))
_F32 = st.sampled_from([np.nan, np.inf, -np.inf, 3.4e38, -3.4e38, 1e-45, -0.0])
_EDIT = st.one_of(
    st.tuples(st.just("field"), st.integers(0, 99), _U32),      # a header or record-header field
    st.tuples(st.just("value"), st.integers(0, 99), _F32),      # a payload value
    st.tuples(st.just("byte"), st.integers(0, 999), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, 999), st.integers(1, 40)),
    st.tuples(st.just("insert"), st.integers(0, 999), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("truncate"), st.integers(0, 999), st.none()),
    st.tuples(st.just("trailing"), st.none(), st.binary(min_size=1, max_size=12)),
)


@st.composite
def mutated_layer(draw) -> bytes:
    """The desk-size layer file after one to three edits: a header field or
    a record's sentence index or token count set to another 32-bit value, a
    payload value made non-finite or extreme, a byte overwritten, bytes cut
    out or put in, the file cut short, or bytes appended."""
    data, fields, values = _fuzz_layer()
    data = bytearray(data)
    for edit, at, arg in draw(st.lists(_EDIT, min_size=1, max_size=3)):
        if edit == "field":
            at = fields[at % len(fields)]
            data[at:at + 4] = struct.pack("<I", arg)
        elif edit == "value":
            at = values[at % len(values)]
            data[at:at + 4] = np.float32(arg).astype("<f4").tobytes()
        elif edit == "byte" and data:
            data[at % len(data)] = arg
        elif edit == "cut":
            at %= len(data) + 1
            del data[at:at + arg]
        elif edit == "insert":
            at %= len(data) + 1
            data[at:at] = arg
        elif edit == "truncate":
            del data[at % (len(data) + 1):]
        elif edit == "trailing":
            data += arg
    return bytes(data)


class TestMutatedLayerFile:
    """A mutated layer file ends ``probe --mode l2`` with 0 or a named error
    (exit 3 or 4), never a traceback; when the loader rejects the file, the
    command exits with that error's code and message."""

    # No shrinking: a failing case is reported as found, within the time budget.
    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=mutated_layer(), as_reference=st.booleans())
    def test_probe_l2_ends_in_a_named_error(self, tmp_path, capsys, data, as_reference):
        dataset = tmp_path / "fuzz.tsv"
        dataset.write_text("".join(
            "".join(f"s{s}\tnews\t{t}\tw{t}\tVERB\t{t % 2}\t1\n" for t in range(tokens)) + "\n"
            for s, tokens in enumerate(FUZZ_TOKENS)))
        valid = tmp_path / "valid.cemb"
        valid.write_bytes(_fuzz_layer()[0])
        mutated = tmp_path / "mutated.cemb"
        mutated.write_bytes(data)
        try:
            load_contextual(mutated, parse_dataset(dataset))
        except MetaseqError as exc:
            loaded = exc
        else:
            loaded = None
        files = [mutated, valid] if as_reference else [valid, mutated]
        capsys.readouterr()
        code = main(["probe", "--data", str(dataset), "--layer-files", *map(str, files),
                     "--mode", "l2", "--out", str(tmp_path / "probe")])
        err = capsys.readouterr().err
        if loaded is None:
            assert code in (0, 3, 4), err
        else:
            assert (code, err) == (loaded.exit_code, f"error: {loaded}\n")



@pytest.fixture(scope="module")
def desk_eval(tmp_path_factory):
    """Inputs of a two-sentence ``eval`` and the path of an untrained desk
    checkpoint that scores them. A failing property test's report shows
    its fixtures, so this one holds no large value."""
    base = tmp_path_factory.mktemp("desk")
    corpus = build_separable_corpus(base, n_sentences=2, seed=5)
    paths = write_corpus_files(corpus, base)
    model = MetaphorTagger(corpus.config)
    ckpt = paths["data"].parent / "desk.mseq"
    save_checkpoint(Checkpoint(model.config, model.export_params(), 1, 0.5), ckpt)
    return paths, ckpt


def _checkpoint_layout(data: bytes) -> tuple[list[int], list[int]]:
    """The offsets of a well-formed checkpoint's 32-bit fields (version,
    blob length, and each parameter's name length, rank and dims) and of
    its float64 payload values."""
    (blob_len,) = struct.unpack_from("<I", data, 8)
    fields, values, at = [4, 8], [], 12 + blob_len
    while at < len(data):
        (name_len,) = struct.unpack_from("<I", data, at)
        fields.append(at)
        at += 4 + name_len
        (rank,) = struct.unpack_from("<I", data, at)
        fields += range(at, at + 4 + 4 * rank, 4)
        shape = struct.unpack_from(f"<{rank}I", data, at + 4)
        at += 4 + 4 * rank
        values += range(at, at + 8 * math.prod(shape), 8)
        at += 8 * math.prod(shape)
    return fields, values


_CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(ModelConfig))
_JSON = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(0, 40), st.floats(0.0, 1.0),
    st.sampled_from([0, 1, -1, 2, 16, 17, 2**31, 2**64, 10**400, 0.5, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.one_of(st.integers(-1, 6), st.sampled_from(["G", "E", "B", "VERB"])),
             max_size=4))
_F64 = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -0.0, 1e3])
_CKPT_EDIT = st.one_of(
    st.tuples(st.just("magic"), st.integers(0, 3), st.integers(0, 255)),
    st.tuples(st.just("field"), st.integers(0, 999), _U32),     # version, blob length, names, ranks, dims
    st.tuples(st.just("blob"), st.integers(0, 9999), st.sampled_from(b'{}[]",:0123456789.-eE tfnNI')),
    st.tuples(st.just("value"), st.integers(0, 99999), _F64),   # a payload value
    st.tuples(st.just("byte"), st.integers(0, 99999), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, 99999), st.integers(1, 40)),
    st.tuples(st.just("insert"), st.integers(0, 99999), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("truncate"), st.integers(0, 99999), st.none()),
    st.tuples(st.just("trailing"), st.none(), st.binary(min_size=1, max_size=12)),
)


@st.composite
def mutated_checkpoint(draw, valid: bytes) -> bytes:
    """The desk checkpoint after an optional change to one key of its JSON
    blob (a config field, the epoch, the dev F1 or an unknown key; the blob
    length follows it), then up to three edits: a magic byte, a 32-bit
    field set to another value, a blob byte set to a JSON character, a
    payload value made non-finite or extreme, a byte overwritten, bytes cut
    out or put in, the file cut short, or bytes appended."""
    data = valid
    change = draw(st.none() | st.tuples(
        st.sampled_from(_CONFIG_KEYS + ["epoch", "dev_f1", "bogus"]), _JSON))
    if change is not None:
        (blob_len,) = struct.unpack_from("<I", data, 8)
        meta = json.loads(data[12:12 + blob_len])
        key, value = change
        (meta["config"] if key in _CONFIG_KEYS else meta)[key] = value
        blob = json.dumps(meta).encode("utf-8")
        data = data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + blob_len:]
    fields, values = _checkpoint_layout(data)
    (blob_len,) = struct.unpack_from("<I", data, 8)
    data = bytearray(data)
    for edit, at, arg in draw(st.lists(_CKPT_EDIT, min_size=0 if change else 1, max_size=3)):
        if edit == "magic":
            data[at] = arg
        elif edit == "field":
            at = fields[at % len(fields)]
            data[at:at + 4] = struct.pack("<I", arg)
        elif edit == "blob":
            data[12 + at % blob_len] = arg
        elif edit == "value":
            at = values[at % len(values)]
            data[at:at + 8] = struct.pack("<d", arg)
        elif edit == "byte":
            data[at % len(data)] = arg
        elif edit == "cut":
            at %= len(data) + 1
            del data[at:at + arg]
        elif edit == "insert":
            at %= len(data) + 1
            data[at:at] = arg
        elif edit == "truncate":
            del data[at % (len(data) + 1):]
        elif edit == "trailing":
            data += arg
    return bytes(data)


class TestMutatedCheckpoint:
    """A mutated checkpoint ends ``eval`` with 0 or a named error (exit 2,
    3 or 4), never a traceback; when ``load_checkpoint`` rejects the file,
    the command exits with that error's code and message."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_eval_ends_in_a_named_error(self, tmp_path, capsys, desk_eval, data):
        paths, desk = desk_eval
        valid = desk.read_bytes()
        ckpt = tmp_path / "mutated.mseq"
        ckpt.write_bytes(data.draw(mutated_checkpoint(valid)))
        try:
            load_checkpoint(ckpt)
        except MetaseqError as exc:
            loaded = exc
        else:
            loaded = None
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(paths["data"]),
                     "--glove", str(paths["glove"]),
                     "--layers", str(paths["E"]), str(paths["B"]),
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        if loaded is None:
            assert code in (0, 2, 3, 4), err
        else:
            assert (code, err) == (loaded.exit_code, f"error: {loaded}\n")

_DESK_CONFIG = (b"# desk model\nunified_dim=16\nstatic_dim=8\nwindow_sizes=2,3\n"
                b"kernels_per_window=2\nhidden_size=4\ninput_dropout=0.1\nhidden_dropout=0.0\n"
                b"learning_rate=0.2\nclass_weights=1.0,2.0\nchannel_order=G,E,B\nepochs=1\n"
                b"seed=3\nuse_pos=true\npos_tags=VERB,NOUN\nuse_abstractness=false\n"
                b"lowercase_lexicon=true\n")
# No digits among the inserted bytes, and only small numbers among the
# values, so that no mutation asks for a long run.
_TEXT_BYTE = st.sampled_from(list(b"=,#.-eEx \t\r\n") + [0, 0xc3, 0xff])
_CONFIG_VALUE = st.sampled_from([
    "", "0", "-1", "1", "2", "3", "0.5", "1e-300", "1e3", "1e400", "nan", "-inf", "-0",
    "0x1", "1_0", "2,2", "3,2,", ",", "true", "FALSE", "yes", "G", "E,B", "B,G", "G,E,B,G",
    "X", "VERB", "VERB,VERB", "1.0", "1.0,0", "1.0,2.0,3.0", " 2 , 3 ", "\u0663"])
_TEXT_EDIT = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 999), _TEXT_BYTE),
    st.tuples(st.just("cut"), st.integers(0, 999), st.integers(1, 40)),
    st.tuples(st.just("insert"), st.integers(0, 999),
              st.lists(_TEXT_BYTE, min_size=1, max_size=4).map(bytes)),
    st.tuples(st.just("truncate"), st.integers(0, 999), st.none()),
)


def _edit_text(data: bytearray, edit: str, at: int, arg) -> None:
    """One byte-level edit of a text input, in place."""
    if edit == "byte" and data:
        data[at % len(data)] = arg
    elif edit == "cut":
        at %= len(data) + 1
        del data[at:at + arg]
    elif edit == "insert":
        at %= len(data) + 1
        data[at:at] = arg
    elif edit == "truncate":
        del data[at % (len(data) + 1):]


@st.composite
def mutated_config(draw) -> bytes:
    """The desk config after one to three edits: a line's key set to another
    key, a line's value set to an edge value, a byte overwritten, bytes cut
    out or put in, or the file cut short."""
    data = bytearray(_DESK_CONFIG)
    edits = st.one_of(st.tuples(st.just("key"), st.integers(0, 99),
                                st.sampled_from([*_CONFIG_KEYS, "bogus", ""])),
                      st.tuples(st.just("value"), st.integers(0, 99), _CONFIG_VALUE),
                      _TEXT_EDIT)
    for edit, at, arg in draw(st.lists(edits, min_size=1, max_size=3)):
        if edit in ("key", "value"):
            lines = bytes(data).split(b"\n")
            key, _, value = lines[at % len(lines)].partition(b"=")
            key, value = (arg.encode(), value) if edit == "key" else (key, arg.encode())
            lines[at % len(lines)] = key + b"=" + value
            data = bytearray(b"\n".join(lines))
        else:
            _edit_text(data, edit, at, arg)
    return bytes(data)


class TestMutatedConfig:
    """A mutated ``--config`` ends ``train`` with 0 or a one-line named
    error (exit 2, 3 or 4), never a traceback."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=mutated_config())
    def test_train_ends_in_a_named_error(self, tmp_path, capsys, desk_eval, data):
        paths, _ = desk_eval
        config = tmp_path / "mutated.cfg"
        config.write_bytes(data)
        capsys.readouterr()
        code = main(["train", "--data", str(paths["data"]), "--glove", str(paths["glove"]),
                     "--layers", str(paths["E"]), str(paths["B"]),
                     "--abst-lexicon", str(DATA_DIR / "abstractness_small.tsv"),
                     "--config", str(config), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert (code, err.count("\n")) in ((0, 0), (2, 1), (3, 1), (4, 1)), err


@st.composite
def mutated_scores(draw) -> bytes:
    """A two-layer ``layer,score`` CSV after one to three edits: a row's
    score set to an edge value, a row repeated, a byte overwritten, bytes
    cut out or put in, or the file cut short."""
    data = bytearray(b"layer,score\n1,0.25\n2,0.75\n")
    edits = st.one_of(st.tuples(st.just("value"), st.integers(0, 99), _CONFIG_VALUE),
                      st.tuples(st.just("repeat"), st.integers(0, 99), st.none()),
                      _TEXT_EDIT)
    for edit, at, arg in draw(st.lists(edits, min_size=1, max_size=3)):
        lines = bytes(data).split(b"\n")
        if edit == "value":
            layer, _, _ = lines[at % len(lines)].partition(b",")
            lines[at % len(lines)] = layer + b"," + arg.encode()
            data = bytearray(b"\n".join(lines))
        elif edit == "repeat":
            lines.insert(at % len(lines), lines[at % len(lines)])
            data = bytearray(b"\n".join(lines))
        else:
            _edit_text(data, edit, at, arg)
    return bytes(data)


class TestMutatedScores:
    """A mutated ``--scores`` CSV ends ``probe --mode l2`` with 0 or a
    one-line named error, never a traceback."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=mutated_scores())
    def test_probe_l2_ends_in_a_named_error(self, tmp_path, capsys, desk_eval, data):
        paths, _ = desk_eval
        scores = tmp_path / "scores.csv"
        scores.write_bytes(data)
        capsys.readouterr()
        code = main(["probe", "--data", str(paths["data"]),
                     "--layer-files", str(paths["E"]), str(paths["E"]), str(paths["B"]),
                     "--mode", "l2", "--scores", str(scores), "--out", str(tmp_path / "probe")])
        err = capsys.readouterr().err
        assert (code, err.count("\n")) in ((0, 0), (2, 1), (3, 1), (4, 1)), err


_TSV_VALUE = st.sampled_from([
    "", " ", "0", "1", "2", "-1", "01", "1.0", "s0", "s1", "news", "NEWS", "poetry", "NOUN",
    "VERB", "x", "\u00e9", "\ufeff", "\x00"])


@st.composite
def mutated_tsv(draw, valid: bytes) -> bytes:
    """A well-formed dataset TSV after one or two edits: a row's column set
    to an edge value, a row repeated or dropped, a byte overwritten, bytes
    cut out or put in, or the file cut short."""
    data = bytearray(valid)
    edits = st.one_of(st.tuples(st.just("column"), st.integers(0, 99),
                                st.tuples(st.sampled_from(range(7)), _TSV_VALUE)),
                      st.tuples(st.sampled_from(["repeat", "drop"]), st.integers(0, 99),
                                st.none()),
                      _TEXT_EDIT)
    for edit, at, arg in draw(st.lists(edits, min_size=1, max_size=2)):
        lines = bytes(data).split(b"\n")
        at %= len(lines)
        if edit == "column":
            cols = lines[at].split(b"\t")
            cols[arg[0] % len(cols)] = arg[1].encode()
            lines[at] = b"\t".join(cols)
        elif edit == "repeat":
            lines.insert(at, lines[at])
        elif edit == "drop":
            del lines[at]
        else:
            _edit_text(data, edit, at, arg)
            continue
        data = bytearray(b"\n".join(lines))
    return bytes(data)


_LEXICON_SCORE = st.sampled_from([
    "", "0", "1", "0.5", "-0", "-0.0", "1.0000001", "-1e-300", "1e-300", "nan", "inf", "-inf",
    "0x1", "1_0", ".5", "5.", "1e0", " 0.5", "0.5 ", "\u0660"])


@st.composite
def mutated_lexicon(draw) -> bytes:
    """The small abstractness lexicon after one to three edits: a line's
    score set to an edge value, a line repeated, a word set to another
    line's word or its capitalised form, a byte overwritten, bytes cut out
    or put in, or the file cut short."""
    data = bytearray((DATA_DIR / "abstractness_small.tsv").read_bytes())
    edits = st.one_of(st.tuples(st.just("score"), st.integers(0, 99), _LEXICON_SCORE),
                      st.tuples(st.sampled_from(["repeat", "word", "title"]),
                                st.integers(0, 99), st.integers(0, 99)),
                      _TEXT_EDIT)
    for edit, at, arg in draw(st.lists(edits, min_size=1, max_size=3)):
        lines = bytes(data).split(b"\n")
        at %= len(lines)
        word, tab, score = lines[at].partition(b"\t")
        if edit == "score":
            lines[at] = word + b"\t" + arg.encode()
        elif edit == "repeat":
            lines.insert(at, lines[at])
        elif edit == "word":
            lines[at] = lines[arg % len(lines)].partition(b"\t")[0] + tab + score
        elif edit == "title":
            lines[at] = word.title() + tab + score
        else:
            _edit_text(data, edit, at, arg)
            continue
        data = bytearray(b"\n".join(lines))
    return bytes(data)


class TestMutatedTsv:
    """A mutated ``--data`` TSV ends ``train`` with 0 or a one-line named
    error, never a traceback: on the static channel alone, where what
    parses is trained on, and with two layer files it must line up with."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), layers=st.booleans())
    def test_train_ends_in_a_named_error(self, tmp_path, capsys, desk_eval, data, layers):
        paths, _ = desk_eval
        tsv = tmp_path / "mutated.tsv"
        tsv.write_bytes(data.draw(mutated_tsv(paths["data"].read_bytes())))
        config = tmp_path / "model.cfg"
        config.write_text("unified_dim=16\nstatic_dim=8\nkernels_per_window=1\nhidden_size=2\n"
                          "window_sizes=2\nepochs=1\n"
                          f"channel_order={'G,E,B' if layers else 'G'}\n")
        args = ["train", "--data", str(tsv), "--glove", str(paths["glove"]),
                "--config", str(config), "--out", str(tmp_path / "run")]
        if layers:
            args[-2:-2] = ["--layers", str(paths["E"]), str(paths["B"])]
        capsys.readouterr()
        code = main(args)
        err = capsys.readouterr().err
        assert (code, err.count("\n")) in ((0, 0), (2, 1), (3, 1), (4, 1)), err


class TestMutatedLexicon:
    """A mutated ``--abst-lexicon`` ends ``train`` with ``use_abstractness``
    set with 0 or a one-line named error, never a traceback."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=mutated_lexicon())
    def test_train_ends_in_a_named_error(self, tmp_path, capsys, desk_eval, data):
        paths, _ = desk_eval
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_bytes(data)
        config = tmp_path / "model.cfg"
        config.write_text("unified_dim=4\nstatic_dim=8\nkernels_per_window=1\nhidden_size=2\n"
                          "window_sizes=2\nepochs=1\nchannel_order=G\nuse_abstractness=true\n")
        capsys.readouterr()
        code = main(["train", "--data", str(paths["data"]), "--glove", str(paths["glove"]),
                     "--abst-lexicon", str(lexicon), "--config", str(config),
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert (code, err.count("\n")) in ((0, 0), (2, 1), (3, 1), (4, 1)), err


class TestCsvPrecision:
    def test_six_decimal_round_trip(self, corpus_files, trained, tmp_path):
        _, paths = corpus_files
        out = tmp_path / "eval"
        args = ["eval", "--checkpoint", str(trained), "--data", str(paths["data"]),
                "--glove", str(paths["glove"]),
                "--layers", str(paths["E"]), str(paths["B"]), "--out", str(out)]
        assert main(args) == 0
        for line in (out / "metrics.csv").read_text().splitlines()[1:]:
            for field in line.split(",")[2:6]:
                assert f"{float(field):.6f}" == field  # lossless at 6 decimals


class TestConfigFile:
    def test_round_trip_types(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text("unified_dim=32\nwindow_sizes=2,3\nuse_pos=true\n"
                     "learning_rate=0.05\nchannel_order=E,B\n# comment\n")
        values = parse_config_file(p)
        assert values == {"unified_dim": 32, "window_sizes": (2, 3),
                          "use_pos": True, "learning_rate": 0.05,
                          "channel_order": ("E", "B")}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text("bogus=1\n")
        with pytest.raises(ParameterError):
            parse_config_file(p)

    @pytest.mark.parametrize("line,code,message", [
        ("bogus=1", 2, "unknown key 'bogus'"),
        ("hidden_size=8.5", 3, "hidden_size: expected int, got '8.5'"),
        ("use_pos=yes", 3, "use_pos: expected bool, got 'yes'"),
        ("window_sizes=2,x", 3, "window_sizes: expected int, got 'x'"),
        ("learning_rate=fast", 3, "learning_rate: expected float, got 'fast'"),
    ])
    def test_config_errors_name_file_and_line(self, corpus_files, tmp_path, capsys,
                                              line, code, message):
        _, paths = corpus_files
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_config_with(paths, line))
        lineno = len(cfg.read_text().splitlines())
        args = _train_args(paths, tmp_path / "run")
        args[args.index("--config") + 1] = str(cfg)
        assert main(args) == code
        assert capsys.readouterr().err == f"error: {cfg}: line {lineno}: {message}\n"

    def test_repeated_key_names_both_lines(self, corpus_files, tmp_path, capsys):
        _, paths = corpus_files
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("epochs=1\n# comment\nhidden_size=8\nepochs=3\n")
        with pytest.raises(ParseError) as info:
            parse_config_file(cfg)
        assert str(info.value) == f"{cfg}: line 4: epochs already set on line 1"
        out = tmp_path / "run"
        args = _train_args(paths, out)
        args[args.index("--config") + 1] = str(cfg)
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not out.exists()

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text("unified_dim 32\n")
        with pytest.raises(ParseError):
            parse_config_file(p)

    @pytest.mark.parametrize("line,message", [
        ("class_weights=1", "2 class weights"),
        ("class_weights=1,2,3", "2 class weights"),
        ("window_sizes=2,2", "repeated window size"),
        ("channel_order=G,E,E", "repeated channel"),
        ("pos_tags=VERB,NOUN,VERB", "repeated tag in pos_tags"),
        ("learning_rate=-0.2", "learning rate must be finite and positive"),
        ("learning_rate=0", "learning rate must be finite and positive"),
        ("learning_rate=nan", "learning rate must be finite and positive"),
        ("learning_rate=inf", "learning rate must be finite and positive"),
        ("class_weights=nan,1", "class weights must be finite and positive"),
        ("class_weights=1,inf", "class weights must be finite and positive"),
    ])
    def test_invalid_model_config_is_usage_error(self, corpus_files, tmp_path, capsys,
                                                 line, message):
        _, paths = corpus_files
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_config_with(paths, line))
        args = _train_args(paths, tmp_path / "run")
        args[args.index("--config") + 1] = str(cfg)
        args[args.index("--data") + 1] = str(tmp_path / "unread.tsv")  # no data is read
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.mseq").exists()

    # The fixture config on channel G alone: static_dim 8, four kernels in
    # each of windows 2-5 (56 per unit of d), hidden size 8 (d = 16). Every
    # shape that fails holds more than 2**57 bytes of float64, so no
    # allocation succeeds under any overcommit setting.
    @pytest.mark.parametrize("line,count", [
        ("unified_dim=36028797018963968", 65 * 2**55 + 1634),     # proj_w alone: 2**61 B
        ("hidden_size=1000000000000000000000",                   # past numpy's largest dim
         8 * 10**42 + 140 * 10**21 + 1042),
        (f"hidden_size={10**2000}", "over 10**300"),             # past a float, too
    ], ids=["unified_dim", "hidden_size", "hidden_size-2001-digits"])
    def test_a_model_too_large_to_allocate_is_usage_error(self, corpus_files, tmp_path, capsys,
                                                          line, count):
        _, paths = corpus_files
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(_config_with(paths, "channel_order=G", "epochs=1", line))
        out = tmp_path / "run"
        args = ["train", "--data", str(paths["data"]), "--glove", str(paths["glove"]),
                "--config", str(cfg), "--out", str(out)]
        assert main(args) == 2
        bound, source = tc.usable_memory()
        assert capsys.readouterr().err == (
            f"error: the configured model has {count} float64 parameters, "
            f"more than can be allocated in the {bound} bytes of {source}\n")
        assert not out.exists()

    def test_a_model_too_large_to_allocate_is_reported_before_any_input_is_read(
            self, corpus_files, tmp_path, capsys):
        # the parameter count follows from the config alone: a --glove that
        # does not exist would be exit 3 if it were opened first
        _, paths = corpus_files
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(_config_with(paths, "channel_order=G", "epochs=1",
                                    "hidden_size=1000000000000000000000"))
        out = tmp_path / "run"
        args = ["train", "--data", str(paths["data"]), "--glove", str(tmp_path / "absent.txt"),
                "--config", str(cfg), "--out", str(out)]
        assert main(args) == 2
        bound, source = tc.usable_memory()
        assert capsys.readouterr().err == (
            f"error: the configured model has {8 * 10**42 + 140 * 10**21 + 1042} float64 "
            f"parameters, more than can be allocated in the {bound} bytes of {source}\n")
        assert not out.exists()

    def test_every_copy_of_the_parameters_is_counted_before_any_input_is_read(
            self, corpus_files, tmp_path, capsys, monkeypatch):
        # each parameter array fits in the bound, and so does any one copy
        # of them all, but not the copies that train holds at once
        _, paths = corpus_files
        cfg = tmp_path / "model.cfg"
        cfg.write_text(_config_with(paths, "channel_order=G", "epochs=1"))
        shapes = _param_shapes(ModelConfig(unified_dim=16, static_dim=8, kernels_per_window=4,
                                           hidden_size=8, channel_order=("G",)))
        largest = 8 * max(math.prod(shape) for shape in shapes.values())
        count = sum(math.prod(shape) for shape in shapes.values())
        bound = (largest + 8 * count) // 2
        assert largest < bound < 8 * count
        monkeypatch.setattr(tc, "usable_memory", lambda: (bound, "physical memory"),
                            raising=False)
        out = tmp_path / "run"
        args = ["train", "--data", str(paths["data"]), "--glove", str(tmp_path / "absent.txt"),
                "--config", str(cfg), "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: the configured model has {count} float64 parameters, "
            f"more than can be allocated in the {bound} bytes of physical memory\n")
        assert not out.exists()

    def test_usage_exit_code_for_missing_required(self):
        assert main(["train", "--out", "x"]) == 2

    def test_env_seed_default(self, corpus_files, tmp_path, monkeypatch):
        _, paths = corpus_files
        monkeypatch.setenv("METASEQ_SEED", "77")
        out = tmp_path / "env-run"
        args = _train_args(paths, out)
        idx = args.index("--seed")
        del args[idx:idx + 2]
        assert main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 77


class TestEmptyDataset:
    """A dataset file with no sentence is a data error naming the file, in
    every command and before any output."""

    @pytest.mark.parametrize("command,flag", [
        ("train", "--data"), ("train", "--dev"), ("eval", "--data"), ("probe", "--data")])
    def test_empty_dataset_is_data_error(self, corpus_files, trained, tmp_path, capsys,
                                         command, flag):
        _, paths = corpus_files
        empty = tmp_path / "empty.tsv"
        empty.write_text("\n\n")
        out = tmp_path / "run"
        if command == "train":
            args = _train_args(paths, out) + ["--dev", str(paths["data"])]
        elif command == "eval":
            args = ["eval", "--checkpoint", str(trained), "--data", str(paths["data"]),
                    "--glove", str(paths["glove"]), "--layers", str(paths["E"]), str(paths["B"]),
                    "--out", str(out)]
        else:
            args = ["probe", "--data", str(paths["data"]), "--layer-files", str(paths["E"]),
                    "--mode", "cosine", "--out", str(out)]
        args[args.index(flag) + 1] = str(empty)
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {empty}: no sentences\n"
        assert not out.exists()


class TestInvalidUtf8:
    """A text input that is not UTF-8 is a data error naming the file."""

    BAD_LINES = {"glove": b"\xff\xfe 0.3 0.4\n", "data": b"s9\tnews\t0\t\xff\tNOUN\t0\t1\n",
                 "lexicon": b"\xff\t0.5\n", "config": b"# \xff\n", "scores": b"2,\xff\n"}

    @pytest.mark.parametrize("reader", sorted(BAD_LINES))
    def test_invalid_utf8_is_parse_error(self, corpus_files, tmp_path, capsys, reader):
        _, paths = corpus_files
        files = {"glove": paths["glove"], "data": paths["data"],
                 "lexicon": tmp_path / "lex.tsv", "config": tmp_path / "model.cfg",
                 "scores": tmp_path / "f1.csv"}
        files["lexicon"].write_text("w0_0\t0.5\n")
        files["config"].write_text(paths["config"].read_text() + "use_abstractness=true\n")
        files["scores"].write_text("layer,score\n1,0.5\n")
        bad = tmp_path / f"bad_{files[reader].name}"
        bad.write_bytes(files[reader].read_bytes() + self.BAD_LINES[reader])
        files[reader] = bad
        if reader == "scores":
            layer = tmp_path / "layer.cemb"
            write_contextual(layer, 1, 2, {0: np.ones((1, 2), dtype=np.float32)})
            data = tmp_path / "one.tsv"
            data.write_text("s0\tnews\t0\tw\tVERB\t0\t1\n")
            args = ["probe", "--data", str(data), "--layer-files", str(layer), str(layer),
                    "--mode", "l2", "--scores", str(bad), "--out", str(tmp_path / "probe")]
        else:
            args = ["train", "--data", str(files["data"]), "--glove", str(files["glove"]),
                    "--layers", str(paths["E"]), str(paths["B"]),
                    "--abst-lexicon", str(files["lexicon"]), "--config", str(files["config"]),
                    "--out", str(tmp_path / "run")]
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8\n"


class TestStaticRowsKept:
    """The vector file is read for the rows a run can use: every token of
    the training and dev data as written, lowercased for the lexicon, and
    the lexicon words."""

    CONFIG = ("unified_dim=4\nstatic_dim=2\nkernels_per_window=1\nhidden_size=2\n"
              "window_sizes=2\nchannel_order=G\nepochs=1\n")

    def _train(self, monkeypatch, tmp_path, data_rows, dev_rows, glove, config,
               lexicon=None):
        """Run `train` and return the ChannelProvider it trained with."""
        seen = []
        real_train = cli.tagger_model.train

        def spy(sentences, provider, *args, **kwargs):
            seen.append(provider)
            return real_train(sentences, provider, *args, **kwargs)

        monkeypatch.setattr(cli.tagger_model, "train", spy)
        files = {"data": data_rows, "dev": dev_rows, "glove": glove,
                 "config": config, "abst-lexicon": lexicon}
        args = ["train", "--out", str(tmp_path / "run")]
        for flag, text in files.items():
            if text is not None:
                (tmp_path / flag).write_text(text)
                args += [f"--{flag}", str(tmp_path / flag)]
        assert main(args) == 0
        return seen[0]

    @staticmethod
    def _tsv(sentence_id, words):
        return "".join(f"{sentence_id}\tnews\t{i}\t{w}\tNOUN\t{i % 2}\t1\n"
                       for i, w in enumerate(words)) + "\n"

    def test_dev_only_word_gets_its_vector(self, monkeypatch, tmp_path):
        glove = "unused 9.0 9.0\nalpha 1.0 0.0\nbeta 0.0 1.0\nheldout 0.25 -0.5\n"
        dev = self._tsv("d0", ["heldout", "alpha"])
        provider = self._train(monkeypatch, tmp_path, self._tsv("s0", ["alpha", "beta"]),
                               dev, glove, self.CONFIG)
        sentence = cli.train_eval.parse_dataset(tmp_path / "dev")[0]
        np.testing.assert_array_equal(provider.channels(sentence, 0)["G"][0], [0.25, -0.5])
        assert "unused" not in provider.static_table

    def test_capitalised_word_keeps_its_row_and_scores_lowercased(self, monkeypatch,
                                                                  tmp_path):
        glove = ("Stone 0.0 1.0\nstone 1.0 0.0\nrock 0.9 0.1\nidea 0.1 0.9\n"
                 "falls 0.5 0.5\n")
        lexicon = "rock\t0.1\nidea\t0.9\n"
        config = self.CONFIG + "use_abstractness=true\n"
        provider = self._train(monkeypatch, tmp_path, self._tsv("s0", ["Stone", "falls"]),
                               None, glove, config, lexicon)
        sentence = cli.train_eval.parse_dataset(tmp_path / "data")[0]
        row = provider.channels(sentence, 0)["G"][0]
        # the G vector is "Stone"'s; the score is that of "stone"'s nearest
        # lexicon word, "rock", where "Stone"'s own would be "idea"
        np.testing.assert_array_equal(row, [0.0, 1.0, 0.1])


class TestNegativeSeed:
    """A negative seed from any source is a usage error, before any input is read."""

    @pytest.mark.parametrize("command,source", [
        ("train", "flag"), ("train", "config"), ("train", "env"),
        ("probe", "flag"), ("probe", "env"),
    ])
    def test_negative_seed_is_usage_error(self, corpus_files, tmp_path, monkeypatch, capsys,
                                          command, source):
        _, paths = corpus_files
        if command == "train":
            args = _train_args(paths, tmp_path / "run")
            del args[args.index("--seed"):args.index("--seed") + 2]
        else:
            args = ["probe", "--data", str(paths["data"]), "--layer-files", str(paths["E"]),
                    "--mode", "cosine", "--out", str(tmp_path / "run")]
        if source == "flag":
            args += ["--seed", "-1"]
        elif source == "config":
            cfg = tmp_path / "seed.cfg"
            cfg.write_text(paths["config"].read_text() + "seed=-1\n")
            args[args.index("--config") + 1] = str(cfg)
        else:
            monkeypatch.setenv("METASEQ_SEED", "-4")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seeds must be >= 0" in err
        assert not (tmp_path / "run").exists()


def _error_classes(cls=MetaseqError) -> list:
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


class TestExitCodes:
    def _probe_raising(self, monkeypatch, tmp_path, exc) -> int:
        def failing(args, argv):
            raise exc

        monkeypatch.setattr(cli, "cmd_probe", failing)
        return main(["probe", "--data", "d.tsv", "--layer-files", "l.cemb",
                     "--mode", "cosine", "--out", str(tmp_path)])

    @pytest.mark.parametrize("error", _error_classes(), ids=lambda c: c.__name__)
    def test_every_error_class_maps_to_its_exit_code(self, monkeypatch, tmp_path,
                                                     capsys, error):
        assert error.exit_code in (2, 3, 4)
        assert self._probe_raising(monkeypatch, tmp_path, error("boom")) == error.exit_code
        prefix = "numeric error" if error.exit_code == 4 else "error"
        assert capsys.readouterr().err == f"{prefix}: boom\n"

    def test_os_error_is_exit_3(self, monkeypatch, tmp_path):
        assert self._probe_raising(monkeypatch, tmp_path, FileNotFoundError("gone")) == 3


class TestOutOfMemory:
    """A MemoryError in a command's main stage ends in one line and exit 3,
    before ``--out`` exists."""

    @staticmethod
    def _pca_args(tmp_path) -> list[str]:
        data = tmp_path / "nouns.tsv"
        data.write_text("".join(f"s{i}\tnews\t0\tw{i}\tNOUN\t0\t1\n\n" for i in range(4)))
        layer = tmp_path / "layer.cemb"
        write_contextual(layer, 1, 3, {i: np.full((1, 3), i, dtype=np.float32)
                                       for i in range(4)})
        return ["probe", "--data", str(data), "--layer-files", str(layer), "--mode", "pca"]

    @pytest.mark.parametrize("command,owner,stage", [
        ("train", tc, "conv_bank"),
        ("eval", tc, "conv_maps"),
        ("probe", space_analysis, "pca_2d"),
    ])
    def test_is_one_line_and_exit_3(self, corpus_files, trained, tmp_path, capsys,
                                    monkeypatch, command, owner, stage):
        _, paths = corpus_files
        out = tmp_path / "out"
        args = {"train": lambda: _train_args(paths, out),
                "eval": lambda: TestEvalCommand()._eval_args(paths, trained, out),
                "probe": lambda: self._pca_args(tmp_path) + ["--out", str(out)]}[command]()

        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(owner, stage, exhausted)
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: out of memory in {command}\n"
        assert captured.out == ""
        assert not out.exists()


class TestSentenceMemory:
    """The activations of the longest sentence that ``train`` or ``eval``
    reads (``tagger_model.activation_bytes``) must fit in the memory the
    process may use; else a data error naming the file, the sentence, the
    bytes and the bound, before ``--out`` exists or any channel is built."""

    LENGTH = 400

    @staticmethod
    def _bounded(monkeypatch, bound: int, source: str) -> None:
        monkeypatch.setattr(tc, "usable_memory", lambda: (bound, source), raising=False)

        def never(*args, **kwargs):
            raise AssertionError("channels were wired before the length check")

        monkeypatch.setattr(cli, "_make_provider", never)

    @staticmethod
    def _long_tsv(path: Path, length: int) -> Path:
        path.write_text("short\tnews\t0\tword\tNOUN\t0\t1\n\n" + "".join(
            f"long\tnews\t{i}\tw{i}\tNOUN\t{i % 2}\t1\n" for i in range(length)) + "\n")
        return path

    @pytest.mark.parametrize("command,flag,source", [
        ("train", "--data", "physical memory"),
        ("train", "--dev", "physical memory"),
        ("eval", "--data", "the memory limit in /sys/fs/cgroup/job/memory.max"),
    ])
    def test_a_sentence_too_long_for_memory_is_data_error(
            self, corpus_files, trained, tmp_path, capsys, monkeypatch, command, flag, source):
        _, paths = corpus_files
        long = self._long_tsv(tmp_path / "long.tsv", self.LENGTH)
        out = tmp_path / "out"
        if command == "train":
            args = _train_args(paths, out)
            config = ModelConfig(**parse_config_file(paths["config"]))
        else:
            args = TestEvalCommand()._eval_args(paths, trained, out)
            config = load_checkpoint(trained).config
        if flag in args:
            args[args.index(flag) + 1] = str(long)
        else:
            args += [flag, str(long)]
        training = flag == "--data" and command == "train"
        needed = tagger_model.activation_bytes(config, self.LENGTH, training)
        bound = needed - 1
        # the parameters, and training on the fixture's own sentences, fit
        assert 8 * 3 * sum(math.prod(shape) for shape in _param_shapes(config).values()) <= bound
        longest = max(len(s.tokens) for s in parse_dataset(paths["data"]))
        assert tagger_model.activation_bytes(config, longest, True) <= bound
        self._bounded(monkeypatch, bound, source)
        assert main(args) == 3
        verb = "training on" if training else "scoring"
        assert capsys.readouterr().err == (
            f"error: {long}: sentence long: {verb} its {self.LENGTH} tokens needs {needed} "
            f"bytes of activations, more than the {bound} bytes of {source}\n")
        assert not out.exists()

    def test_a_sentence_that_fits_is_trained_on(self, corpus_files, tmp_path, monkeypatch):
        _, paths = corpus_files
        config = ModelConfig(**parse_config_file(paths["config"]))
        longest = max(len(s.tokens) for s in parse_dataset(paths["data"]))
        params = sum(math.prod(shape) for shape in _param_shapes(config).values())
        bound = max(tagger_model.activation_bytes(config, longest, True), 8 * 3 * params)
        monkeypatch.setattr(tc, "usable_memory", lambda: (bound, "physical memory"),
                            raising=False)
        assert main(_train_args(paths, tmp_path / "run")) == 0

    def test_a_20000_token_sentence_at_paper_config_is_data_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the paper's model, and inputs that are never opened
        long = self._long_tsv(tmp_path / "long.tsv", 20000)
        config = tmp_path / "paper.cfg"
        config.write_text("# the paper's model\n")
        absent = str(tmp_path / "absent")
        bound = 3 << 30
        self._bounded(monkeypatch, bound, "physical memory")
        out = tmp_path / "run"
        assert main(["train", "--data", str(long), "--glove", absent, "--layers", absent, absent,
                     "--config", str(config), "--out", str(out)]) == 3
        needed = tagger_model.activation_bytes(ModelConfig(), 20000, True)
        # the conv's input and joined rows, and four input-gradient blocks and their sum
        assert needed > 20000 * 7 * 3 * 1024 * 8 > bound
        assert capsys.readouterr().err == (
            f"error: {long}: sentence long: training on its 20000 tokens needs {needed} "
            f"bytes of activations, more than the {bound} bytes of physical memory\n")
        assert not out.exists()
