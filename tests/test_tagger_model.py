"""Model configuration, forward contract, training behavior, checkpoints."""

import dataclasses
import itertools
import json
import math
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metaseq import tensor_core as tc
from metaseq.cli import parse_config_file
from metaseq.errors import (
    CompatibilityError,
    DimensionError,
    FormatError,
    InputError,
    NumericError,
    ParameterError,
    ParseError,
    TruncatedError,
    WindowError,
)
from metaseq.tagger_model import (
    Checkpoint,
    MetaphorTagger,
    ModelConfig,
    _param_shapes,
    activation_bytes,
    label_sentences,
    load_checkpoint,
    save_checkpoint,
    train,
)
from conftest import build_separable_corpus
from helpers import (
    batch_loss_value,
    micro_gradcheck,
    micro_model_and_batch,
    op_pool,
    peak_bytes,
    reference_sgd,
    sum_all,
    zero_grads,
)


class TestModelConfig:
    def test_defaults_mirror_reference_setup(self):
        cfg = ModelConfig()
        assert cfg.unified_dim == 1024
        assert cfg.window_sizes == (2, 3, 4, 5)
        assert cfg.kernels_per_window == 100
        assert cfg.hidden_size == 256
        assert cfg.learning_rate == 0.2
        assert cfg.input_dropout == 0.5 and cfg.hidden_dropout == 0.1
        assert cfg.class_weights == (1.0, 2.0)
        assert cfg.feature_width == 400

    def test_invalid_values_rejected(self):
        with pytest.raises(ParameterError):
            ModelConfig(hidden_size=0)
        with pytest.raises(ParameterError):
            ModelConfig(input_dropout=1.0)
        with pytest.raises(ParameterError):
            ModelConfig(class_weights=(0.0, 2.0))
        with pytest.raises(ParameterError):
            ModelConfig(window_sizes=())
        with pytest.raises(ParameterError, match="2 class weights"):
            ModelConfig(class_weights=(1.0,))
        with pytest.raises(ParameterError, match="repeated window size"):
            ModelConfig(window_sizes=(2, 2))
        with pytest.raises(ParameterError, match="repeated channel"):
            ModelConfig(channel_order=("G", "E", "E"))
        for rate in (-0.2, 0.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="learning rate must be finite"):
                ModelConfig(learning_rate=rate)
        for weights in ((float("nan"), 1.0), (1.0, float("inf")), (-1.0, 2.0)):
            with pytest.raises(ParameterError, match="class weights must be finite"):
                ModelConfig(class_weights=weights)
        for feature in ("use_pos", "use_abstractness"):   # both ride on channel G
            with pytest.raises(ParameterError, match=f"^{feature} requires the static channel G$"):
                ModelConfig(channel_order=("E",), pos_tags=("NOUN",), **{feature: True})
            ModelConfig(channel_order=("E", "G"), pos_tags=("NOUN",), **{feature: True})

    def test_static_input_dim_with_features(self):
        cfg = ModelConfig(use_pos=True, use_abstractness=True,
                          pos_tags=tuple(f"T{i}" for i in range(17)))
        assert cfg.static_input_dim == 300 + 18 + 1

    def test_dict_round_trip(self):
        cfg = ModelConfig(unified_dim=16, static_dim=4, epochs=7,
                          channel_order=("E", "B"))
        assert ModelConfig.from_dict(dataclasses.asdict(cfg)) == cfg

    # a value other than the default for every field, valid together
    NON_DEFAULT = dict(
        unified_dim=8, static_dim=4, window_sizes=(1, 3), kernels_per_window=2,
        hidden_size=3, input_dropout=0.25, hidden_dropout=0.0, learning_rate=0.05,
        class_weights=(1.5, 3.0), channel_order=("E", "G"), epochs=2, seed=9,
        use_pos=True, use_abstractness=True, pos_tags=("NOUN", "VERB"),
        lowercase_lexicon=False)

    def test_every_field_round_trips_through_text_and_checkpoint(self, tmp_path):
        fields = dataclasses.fields(ModelConfig)
        assert [f.name for f in fields] == list(self.NON_DEFAULT)
        cfg = ModelConfig(**self.NON_DEFAULT)

        def text(value):
            if isinstance(value, tuple):
                return ",".join(str(v) for v in value)
            return str(value).lower() if isinstance(value, bool) else str(value)

        cfg_path = tmp_path / "m.cfg"
        cfg_path.write_text("".join(f"{f.name}={text(getattr(cfg, f.name))}\n"
                                    for f in fields))
        from_text = ModelConfig(**parse_config_file(cfg_path))
        ckpt = tmp_path / "m.mseq"
        save_checkpoint(Checkpoint(cfg, MetaphorTagger(cfg).export_params(), 1, 0.5), ckpt)
        from_checkpoint = load_checkpoint(ckpt).config
        for f in fields:
            value = getattr(cfg, f.name)
            assert value != f.default, f.name
            assert getattr(from_text, f.name) == value, f.name
            assert getattr(from_checkpoint, f.name) == value, f.name
            assert type(getattr(from_checkpoint, f.name)) is type(value), f.name

    @pytest.mark.parametrize("key,value,expected", [
        ("learning_rate", 1, 1.0),              # an int passes as a float
        ("window_sizes", [2, 3], (2, 3)),       # a JSON array becomes the tuple
        ("class_weights", [1, 2.5], (1.0, 2.5)),
        ("use_pos", False, False),
        ("channel_order", ("E",), ("E",)),
    ])
    def test_field_value_takes_values_of_the_field_type(self, key, value, expected):
        got = ModelConfig.field_value(key, value)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("key,value", [
        ("hidden_size", 10.0), ("hidden_size", True), ("unified_dim", "16"),
        ("learning_rate", "0.1"), ("learning_rate", False), ("use_pos", 1),
        ("window_sizes", 3), ("channel_order", "G,E"), ("class_weights", [1, "2"]),
        ("pos_tags", [1]), ("seed", None),
    ])
    def test_field_value_rejects_other_types(self, key, value):
        with pytest.raises(ParseError, match=f"^{key}: expected "):
            ModelConfig.field_value(key, value)

    @pytest.mark.parametrize("key,text,expected", [
        ("use_pos", "TRUE", True), ("use_pos", "0", False), ("hidden_size", "12", 12),
        ("window_sizes", " 2, 3, ", (2, 3)), ("input_dropout", "1e-1", 0.1),
        ("pos_tags", "NOUN,VERB", ("NOUN", "VERB")),
    ])
    def test_field_value_parses_config_text(self, key, text, expected):
        assert ModelConfig.field_value(key, text, text=True) == expected

    def test_unknown_key_is_parameter_error(self):
        with pytest.raises(ParameterError, match="unknown key 'bogus'"):
            ModelConfig.field_value("bogus", 1)
        with pytest.raises(ParameterError, match="unknown key 'bogus'"):
            ModelConfig.from_dict({"bogus": 1})


class TestForward:
    def test_default_shape_chain_n7(self):
        """400 concatenated feature maps, 512 BiLSTM features, 2 classes."""
        rng = np.random.default_rng(0)
        model = MetaphorTagger(ModelConfig(seed=1))
        channels = {"G": rng.normal(size=(7, 300)),
                    "E": rng.normal(size=(7, 1024)),
                    "B": rng.normal(size=(7, 1024))}
        stack = model.build_stack(channels)
        maps = tc.conv_bank(stack, [model.params[f"conv_w{w}"] for w in (2, 3, 4, 5)])
        feats = tc.tanh_act(maps)
        assert feats.shape == (7, 400)
        directions = [(model.params[f"{prefix}_wx"], model.params[f"{prefix}_wh"],
                       model.params[f"{prefix}_b"], reverse)
                      for prefix, reverse in (("lstm_f", False), ("lstm_b", True))]
        fwd, bwd = (tc.lstm(feats, [direction]) for direction in directions)
        assert fwd.shape == bwd.shape == (7, 256)
        hidden = tc.lstm(feats, directions)
        assert hidden.shape == (7, 512)
        assert hidden.data.tobytes() == np.concatenate([fwd.data, bwd.data], axis=1).tobytes()
        probs = model.forward(stack, tc.RngStream(0), training=False)
        assert probs.shape == (7, 2)

    def test_rows_sum_to_one(self):
        model, batch = micro_model_and_batch()
        stack = model.build_stack(batch[0][0])
        probs = model.forward(stack, tc.RngStream(0), training=False)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)

    def test_inference_deterministic(self):
        model, batch = micro_model_and_batch()
        a = model.predict_probs(batch[0][0])
        b = model.predict_probs(batch[0][0])
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        model, batch = micro_model_and_batch()
        bad = dict(batch[0][0])
        bad["E"] = np.zeros((5, 9))
        with pytest.raises(DimensionError):
            model.build_stack(bad)

    def test_training_dropout_changes_activations(self):
        model, batch = micro_model_and_batch()
        cfg = dataclasses.replace(model.config, input_dropout=0.5)
        model = MetaphorTagger(cfg, params=model.export_params())
        stack = model.build_stack(batch[0][0])
        a = model.forward(stack, tc.RngStream(1, 0), training=True).data
        b = model.forward(stack, tc.RngStream(2, 0), training=True).data
        assert not np.array_equal(a, b)


def _per_timestep_lstm(act, directions):
    """The directions of ``tc.lstm`` each composed from per-timestep tape
    ops, one after another, and joined by ``concat_cols``: the oracle for
    the fused op."""
    return tc.concat_cols([_per_timestep_direction(act, *direction)
                           for direction in directions])


def _per_timestep_direction(act, wx, wh, bias, reverse):
    """One LSTM direction composed from per-timestep tape ops."""
    hidden = wh.shape[0]
    n = act.shape[0]
    h = tc.Tensor(np.zeros((1, hidden)))
    c = tc.Tensor(np.zeros((1, hidden)))
    outs = [None] * n
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        z = tc.add_bias(tc.add(tc.matmul(tc.row(act, t), wx), tc.matmul(h, wh)), bias)
        gate_in = tc.sigmoid(tc.slice_cols(z, 0, hidden))
        gate_forget = tc.sigmoid(tc.slice_cols(z, hidden, 2 * hidden))
        candidate = tc.tanh_act(tc.slice_cols(z, 2 * hidden, 3 * hidden))
        gate_out = tc.sigmoid(tc.slice_cols(z, 3 * hidden, 4 * hidden))
        c = tc.add(tc.mul(gate_forget, c), tc.mul(gate_in, candidate))
        h = tc.mul(gate_out, tc.tanh_act(c))
        outs[t] = h
    return tc.stack_rows(outs)


def _probs_and_grads(model, channels, labels):
    params = model.parameters()
    zero_grads(params.values())
    with tc.Tape() as tape:
        probs = model.forward(model.build_stack(channels), tc.RngStream(4, 3), training=True)
        loss = tc.weighted_cross_entropy(probs, labels, model.config.class_weights)
    tc.backward(loss, tape, params.values())
    grads = {name: p.grad.copy() for name, p in params.items()}
    zero_grads(params.values())
    return probs.data.copy(), grads


class TestFusedLstm:
    def test_matches_per_timestep_composition_at_desk_config(self, monkeypatch, tmp_path):
        corpus = build_separable_corpus(tmp_path, n_sentences=3, seed=21)
        cfg = dataclasses.replace(corpus.config, input_dropout=0.5, hidden_dropout=0.1)
        model = MetaphorTagger(cfg)
        for i, sent in enumerate(corpus.sentences):
            channels = corpus.provider.channels(sent, i)
            fused_probs, fused_grads = _probs_and_grads(model, channels, sent.labels())
            with monkeypatch.context() as m:
                m.setattr(tc, "lstm", _per_timestep_lstm)
                ref_probs, ref_grads = _probs_and_grads(model, channels, sent.labels())
            np.testing.assert_allclose(fused_probs, ref_probs, rtol=0, atol=1e-12)
            assert set(fused_grads) == set(ref_grads)
            for name, grad in ref_grads.items():
                assert np.abs(grad).max() > 0, name
                np.testing.assert_allclose(fused_grads[name], grad, rtol=0, atol=1e-12,
                                           err_msg=name)

    def test_training_forward_tape_length(self):
        model = MetaphorTagger(ModelConfig(unified_dim=8, static_dim=5, kernels_per_window=2,
                                           hidden_size=4))
        rng = np.random.default_rng(3)
        channels = {"G": rng.normal(size=(20, 5)),
                    "E": rng.normal(size=(20, 8)),
                    "B": rng.normal(size=(20, 8))}
        with tc.Tape() as tape:
            model.sentence_loss(model.build_stack(channels), rng.integers(0, 2, size=20),
                                tc.RngStream(0), training=True)
        assert len(tape.nodes) <= 25


# One desk-size SGD step under the benchmark's traced hooks, in a fresh
# interpreter, since the hooks replace module attributes for good.
TRACED_STEP = """
import json, sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import hooks
from metaseq import tensor_core as tc
from metaseq.tagger_model import MetaphorTagger, ModelConfig

rec = hooks.Recorder(True)
hooks.install(rec)
rec.command = hooks.Command("train", hooks.now())
model = MetaphorTagger(ModelConfig(unified_dim=16, static_dim=8, kernels_per_window=4,
                                   hidden_size=8))
rng = np.random.default_rng(4)
channels = {"G": rng.normal(size=(9, 8)), "E": rng.normal(size=(9, 16)),
            "B": rng.normal(size=(9, 16))}
params = model.parameters()
with tc.Tape() as tape:
    loss = model.sentence_loss(model.build_stack(channels), rng.integers(0, 2, size=9),
                               tc.RngStream(0), training=True)
tc.backward(loss, tape, params.values())
tc.sgd_step(params, model.config.learning_rate)
print(json.dumps({"nodes": [node.op for node in tape.nodes],
                  "total": rec.trace.summary()["total"]}))
"""


class TestTracedStages:
    def test_lstm_node_is_timed_in_the_bilstm_stage(self):
        """The hooks stage ``_lstm_direction``: the one ``lstm`` node must be
        appended inside it, so that its backward is the bilstm stage's."""
        root = Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", TRACED_STEP, str(root / "src"), str(root / "bench")],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        traced = json.loads(result.stdout.strip().splitlines()[-1])
        total = traced["total"]
        assert traced["nodes"].count("lstm") == 1
        assert total["stage.bilstm.fwd"] > 0
        assert total.get("stage.bilstm.bwd") == total["op.lstm.bwd"] > 0


class TestGradients:
    def test_micro_model_matches_finite_differences_subset(self):
        err = micro_gradcheck(param_names=["cls_w", "cls_b", "conv_w2", "proj_b"])
        assert err < 1e-4

    def test_loss_strictly_decreases_under_sgd(self, tmp_path):
        corpus = build_separable_corpus(tmp_path, n_sentences=6, seed=3)
        model = MetaphorTagger(corpus.config)
        batch = [(corpus.provider.channels(s, i), s.labels())
                 for i, s in enumerate(corpus.sentences)]
        losses = [batch_loss_value(model, batch)]
        params = model.parameters()
        for _ in range(5):
            zero_grads(params.values())
            rng = tc.RngStream(0)
            with tc.Tape() as tape:
                parts = [model.sentence_loss(model.build_stack(ch), labels, rng,
                                             training=False)
                         for ch, labels in batch]
                total = parts[0]
                for part in parts[1:]:
                    total = tc.add(total, part)
            tc.backward(total, tape, params.values())
            tc.sgd_step(params, lr=0.01)
            losses.append(batch_loss_value(model, batch))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_doubling_metaphor_weight_doubles_metaphor_terms(self):
        rng = np.random.default_rng(8)
        probs = tc.Tensor(tc.softmax(tc.Tensor(rng.normal(size=(10, 2)))).data)
        labels = rng.integers(0, 2, size=10)
        base = tc.weighted_cross_entropy(probs, labels, (1.0, 2.0)).data
        doubled = tc.weighted_cross_entropy(probs, labels, (1.0, 4.0)).data
        met_only = tc.weighted_cross_entropy(probs, labels, (0.0, 2.0)).data
        np.testing.assert_allclose(doubled, base + met_only, rtol=1e-12)


def _storage_model_and_steps(seed=0):
    """A 3-channel (G, E, B) tagger with both dropouts on, and 3 sentences."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(unified_dim=8, static_dim=5, kernels_per_window=2, hidden_size=4,
                         input_dropout=0.5, hidden_dropout=0.1, seed=seed)
    steps = []
    for n in (5, 7, 6):
        channels = {"G": rng.normal(size=(n, 5)),
                    "E": rng.normal(size=(n, 8)),
                    "B": rng.normal(size=(n, 8))}
        steps.append((channels, rng.integers(0, 2, size=n)))
    return config, steps


def _sentence_grads(model, channels, labels):
    """Gradients of one sentence's loss, copied out of the parameters."""
    params = model.parameters()
    with tc.Tape() as tape:
        loss = model.sentence_loss(model.build_stack(channels), labels, tc.RngStream(2, 3))
    tc.backward(loss, tape, params.values())
    return {name: p.grad.copy() for name, p in params.items()}


class TestGradientStorage:
    """Gradients land in storage each parameter keeps across steps; the
    results must be those of fresh gradient arrays on every step."""

    def test_sgd_matches_fresh_gradient_reference(self):
        config, sentences = _storage_model_and_steps()
        steps = sentences * 3
        model = MetaphorTagger(config)
        params = model.parameters()
        rng = tc.RngStream(config.seed, 3)
        for channels, labels in steps:
            with tc.Tape() as tape:
                loss = model.sentence_loss(model.build_stack(channels), labels, rng)
            tc.backward(loss, tape, params.values())
            tc.sgd_step(params, config.learning_rate)
        reference = MetaphorTagger(config)
        reference_sgd(reference, steps, config.learning_rate, tc.RngStream(config.seed, 3))
        got, want = model.export_params(), reference.export_params()
        assert set(got) == set(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        initial = MetaphorTagger(config).export_params()
        assert any(not np.array_equal(got[name], initial[name]) for name in got)

    def test_zeroed_gradients_keep_nothing_from_the_previous_sentence(self):
        config, ((chan_a, labels_a), (chan_b, labels_b), _) = _storage_model_and_steps(1)
        model = MetaphorTagger(config)
        _sentence_grads(model, chan_a, labels_a)
        zero_grads(model.parameters().values())
        got = _sentence_grads(model, chan_b, labels_b)
        want = _sentence_grads(MetaphorTagger(config), chan_b, labels_b)
        for name in want:
            assert np.abs(want[name]).max() > 0, name
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_parameter_unused_in_second_step_gets_exact_zeros(self):
        config, ((channels, labels), _, _) = _storage_model_and_steps(2)
        model = MetaphorTagger(config)
        params = model.parameters()
        used_first = _sentence_grads(model, channels, labels)
        tc.sgd_step(params, config.learning_rate)
        with tc.Tape() as tape:      # the projection alone: every other parameter unused
            loss = sum_all(model.build_stack(channels))
        tc.backward(loss, tape, params.values())
        unused = [name for name in params if not name.startswith("proj_")]
        assert len(unused) == len(params) - 2
        for name in unused:
            assert np.abs(used_first[name]).max() > 0, name
            assert params[name].grad.tobytes() == np.zeros(params[name].shape).tobytes(), name


class TestOpPoolWidth:
    """Training and inference give the same bytes whatever the width of the
    op pool that runs the conv windows and the update."""

    @staticmethod
    def _run(directory, width):
        corpus = build_separable_corpus(directory, n_sentences=8, seed=5)
        config = dataclasses.replace(corpus.config, epochs=2, input_dropout=0.5,
                                     hidden_dropout=0.1)
        curve = []
        with op_pool(width):
            best = train(corpus.sentences, corpus.provider, config,
                         on_epoch=lambda *row: curve.append(row))
            model = MetaphorTagger.from_checkpoint(best)
            probs = [model.predict_probs(corpus.provider.channels(s, i)).tobytes()
                     for i, s in enumerate(corpus.sentences)]
            started = tc._pool is not None
        params = {name: arr.tobytes() for name, arr in best.params.items()}
        return started, params, curve, probs

    def test_widths_one_and_two_are_bit_equal(self, tmp_path):
        started_1, *one = self._run(tmp_path / "1", 1)
        started_2, *two = self._run(tmp_path / "2", 2)
        assert (started_1, started_2) == (False, True)
        assert one == two


class TestTraining:
    def test_empty_dataset_rejected(self, separable_corpus):
        with pytest.raises(InputError):
            train([], separable_corpus.provider, separable_corpus.config)

    def test_identical_seed_identical_checkpoint_bytes(self, tmp_path):
        corpus = build_separable_corpus(tmp_path, n_sentences=5, seed=11)
        cfg = dataclasses.replace(corpus.config, epochs=2,
                                  input_dropout=0.2, hidden_dropout=0.1)

        def run(path):
            cp = train(corpus.sentences, corpus.provider, cfg)
            save_checkpoint(cp, path)
            return path.read_bytes()

        assert run(tmp_path / "a.mseq") == run(tmp_path / "b.mseq")

    def test_best_epoch_snapshot_returned(self, tmp_path):
        corpus = build_separable_corpus(tmp_path, n_sentences=8, seed=13)
        cfg = dataclasses.replace(corpus.config, epochs=5)
        history = []
        cp = train(corpus.sentences, corpus.provider, cfg,
                   on_epoch=lambda e, loss, f1: history.append((e, f1)))
        assert len(history) == 5 or history[-1][1] >= cp.dev_f1
        best_f1 = max(f1 for _, f1 in history)
        assert cp.dev_f1 == best_f1
        assert cp.epoch == min(e for e, f1 in history if f1 == best_f1)

    def test_every_token_trains_on_its_label(self, tmp_path, monkeypatch):
        """A non-target token's file label is its training label; ``target``
        only selects the tokens that are scored."""
        corpus = build_separable_corpus(tmp_path, n_sentences=4, seed=29)
        cfg = dataclasses.replace(corpus.config, epochs=1)
        first = corpus.sentences[0]
        trained_on, losses = [], []
        loss = MetaphorTagger.sentence_loss

        def spy(self, stack, labels, *args, **kwargs):
            trained_on.append(labels.tolist())
            return loss(self, stack, labels, *args, **kwargs)

        monkeypatch.setattr(MetaphorTagger, "sentence_loss", spy)
        for label in (0, 1):
            token = dataclasses.replace(first.tokens[0], label=label, target=False)
            sentences = [dataclasses.replace(first, tokens=[token, *first.tokens[1:]]),
                         *corpus.sentences[1:]]
            trained_on.clear()
            train(sentences, corpus.provider, cfg,
                  on_epoch=lambda epoch, epoch_loss, f1: losses.append(epoch_loss))
            assert sorted(trained_on) == sorted(s.labels().tolist() for s in sentences)
        assert losses[0] != losses[1]

    def test_dev_pass_holds_no_gradient_storage(self, tmp_path, monkeypatch):
        corpus = build_separable_corpus(tmp_path, n_sentences=6, seed=17)
        cfg = dataclasses.replace(corpus.config, epochs=2)
        dev = [dataclasses.replace(s) for s in corpus.sentences[:2]]   # same rows, own identity
        models = []
        init = MetaphorTagger.__init__

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            models.append(self)

        seen = {"train": [], "dev": []}

        class SpyProvider:
            def channels(self, sentence, index):
                held = [name for name, p in models[0].params.items()
                        if p.grad is not None or p._grad_store is not None]
                seen["dev" if any(sentence is d for d in dev) else "train"].append(held)
                return corpus.provider.channels(sentence, index)

        monkeypatch.setattr(MetaphorTagger, "__init__", spy_init)
        with_release = train(corpus.sentences, SpyProvider(), cfg, dev_sentences=dev)
        assert len(seen["dev"]) == cfg.epochs * len(dev)
        assert seen["dev"] == [[]] * len(seen["dev"])
        assert sorted(seen["train"][1]) == sorted(models[0].params)   # storage after a step
        monkeypatch.setattr(tc, "release_gradients", lambda params: None)
        kept = train(corpus.sentences, corpus.provider, cfg, dev_sentences=dev)
        for name, arr in kept.params.items():
            assert with_release.params[name].tobytes() == arr.tobytes(), name


class TestActivationBytes:
    def test_paper_config_counts_the_joined_rows_and_no_window_matrix_per_token(self):
        cfg = ModelConfig()
        lstm_and_maps = 14 * 256 + 2 * 400
        rows = 3 * 1024                     # channels x dim: the input, x or one block
        windows = 3 * 14 * 1024 * 8         # channels x window offsets x dim x 8 bytes
        # the input, x, four input-gradient blocks and their sum
        assert activation_bytes(cfg, 1, True) == 8 * (lstm_and_maps + 7 * rows)
        assert windows > activation_bytes(cfg, 1, True) > activation_bytes(cfg, 1, False)
        # no static channel: the input, x and the last window's shifted map gradient
        layers = ModelConfig(channel_order=("E", "B"))
        assert activation_bytes(layers, 1, True) == 8 * (lstm_and_maps + 2 * 2048 + 2 * 100)
        for config, training in itertools.product((cfg, layers), (True, False)):
            assert activation_bytes(config, 20000, training) == 20000 * activation_bytes(
                config, 1, training)

    @pytest.mark.parametrize("order", [("G", "E", "B"), ("E", "B")])
    def test_is_a_lower_bound_on_a_traced_step_and_score(self, order):
        cfg = ModelConfig(unified_dim=64, static_dim=24, kernels_per_window=8,
                          hidden_size=16, channel_order=order, seed=3)
        model, n = MetaphorTagger(cfg), 60
        params = model.parameters()
        rng = np.random.default_rng(0)

        def channels():
            return {name: rng.normal(size=(n, cfg.static_input_dim if name == "G" else 64))
                    for name in order}

        def step():
            with tc.Tape() as tape:
                loss = model.sentence_loss(model.build_stack(channels()), [0, 1] * (n // 2),
                                           tc.RngStream(0, 3), training=True)
            tc.backward(loss, tape, params.values())
            tc.sgd_step(params, cfg.learning_rate)

        step()                               # the gradient storage exists from here on
        assert peak_bytes(step) >= activation_bytes(cfg, n, True)
        scorer = model.scorer()
        assert peak_bytes(lambda: scorer.predict_probs(channels())) >= activation_bytes(
            cfg, n, False)


class TestPredict:
    def test_argmax_and_length(self, tmp_path):
        corpus = build_separable_corpus(tmp_path, n_sentences=4, seed=17)
        cfg = dataclasses.replace(corpus.config, epochs=1)
        cp = train(corpus.sentences, corpus.provider, cfg)
        channels = corpus.provider.channels(corpus.sentences[0], 0)
        probs = MetaphorTagger.from_checkpoint(cp).predict_probs(channels)
        labels = np.argmax(probs, axis=1)
        assert labels.shape == (len(corpus.sentences[0].tokens),)
        np.testing.assert_array_equal(labels, np.argmax(probs, axis=1))

    def test_reloaded_checkpoint_predicts_identically(self, tmp_path):
        corpus = build_separable_corpus(tmp_path, n_sentences=4, seed=19)
        cfg = dataclasses.replace(corpus.config, epochs=1)
        cp = train(corpus.sentences, corpus.provider, cfg)
        channels = corpus.provider.channels(corpus.sentences[1], 1)
        before = MetaphorTagger.from_checkpoint(cp).predict_probs(channels)
        path = tmp_path / "model.mseq"
        save_checkpoint(cp, path)
        after = MetaphorTagger.from_checkpoint(load_checkpoint(path)).predict_probs(channels)
        np.testing.assert_array_equal(before, after)


def _with_features(order):
    """``(order, use_pos, use_abstractness)``; the features ride on the
    static rows, so they are drawn only when ``order`` holds G."""
    flag = st.booleans() if "G" in order else st.just(False)
    return st.tuples(st.just(order), flag, flag)


class TestFoldedInference:
    """``predict_probs`` scores the unprojected channels through conv kernels
    with the static projection folded in. It must compute the model: the
    unfolded ``forward`` of ``build_stack``, to rounding."""

    @staticmethod
    def _model(config, rng):
        """``config``'s model with every parameter drawn at random, the
        biases included, so that the projection bias is not zero."""
        return MetaphorTagger(config, params={name: rng.normal(scale=0.5, size=shape)
                                              for name, shape in _param_shapes(config).items()})

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(channels=st.sampled_from([("G", "E", "B"), ("E", "G", "B"), ("E", "B"), ("G",),
                                     ("B", "G")]).flatmap(_with_features),
           windows=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
           n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @example(channels=(("E", "G", "B"), True, True), windows=[6, 1], n=1, seed=0)
    @example(channels=(("G", "E", "B"), False, False), windows=[2, 5], n=3, seed=1)
    @example(channels=(("E", "B"), False, False), windows=[4], n=1, seed=2)
    def test_matches_the_unfolded_forward(self, channels, windows, n, seed):
        order, use_pos, use_abstractness = channels
        config = ModelConfig(unified_dim=6, static_dim=4, window_sizes=tuple(windows),
                             kernels_per_window=3, hidden_size=3, channel_order=order,
                             use_pos=use_pos, use_abstractness=use_abstractness,
                             pos_tags=("VERB", "NOUN") if use_pos else (),
                             input_dropout=0.5, hidden_dropout=0.1, seed=seed)
        rng = np.random.default_rng(seed)
        model = self._model(config, rng)
        channels = {name: rng.normal(size=(n, config.static_input_dim if name == "G" else 6))
                    for name in order}
        want = model.forward(model.build_stack(channels), None, training=False).data
        np.testing.assert_allclose(model.predict_probs(channels), want, rtol=0, atol=1e-12)

    def test_a_parameter_update_between_passes_is_seen(self, tmp_path, monkeypatch):
        corpus = build_separable_corpus(tmp_path, n_sentences=4, seed=23)
        model = self._model(corpus.config, np.random.default_rng(3))
        folds, scored = [], []
        fold, predict = MetaphorTagger._folded_kernels, MetaphorTagger.predict_probs

        def counted_fold(self):
            folds.append(len(scored))
            return fold(self)

        def recorded(self, chans):
            scored.append(predict(self, chans))
            return scored[-1]

        monkeypatch.setattr(MetaphorTagger, "_folded_kernels", counted_fold)
        monkeypatch.setattr(MetaphorTagger, "predict_probs", recorded)
        label_sentences(model, corpus.sentences, corpus.provider)
        assert model._fold is None
        first = scored[:]
        channels = corpus.provider.channels(corpus.sentences[0], 0)
        with tc.Tape() as tape:
            loss = model.sentence_loss(model.build_stack(channels),
                                       corpus.sentences[0].labels(), tc.RngStream(0))
        tc.backward(loss, tape, model.parameters().values())
        tc.sgd_step(model.parameters(), 0.5)
        label_sentences(model, corpus.sentences, corpus.provider)
        assert folds == [0, 4]          # once per pass, on its first sentence
        for i, (sent, probs) in enumerate(zip(corpus.sentences, scored[4:])):
            stack = model.build_stack(corpus.provider.channels(sent, i))
            np.testing.assert_allclose(probs, model.forward(stack, None, training=False).data,
                                       rtol=0, atol=1e-12)
        assert max(np.abs(a - b).max() for a, b in zip(first, scored[4:])) > 1e-6

    @pytest.mark.parametrize("fault,error,message", [
        ("missing", DimensionError, "channel B missing from input"),
        ("static-width", DimensionError, "static channel shape (5, 4), expected (n, 5)"),
        ("layer-width", DimensionError, "channel E shape (5, 9), expected (n, 8)"),
        ("length", DimensionError, "channel B: shape (6, 8) does not match (5, 8)"),
        ("non-finite", NumericError, "tensor contains non-finite values"),
    ])
    def test_faults_are_reported_as_by_build_stack(self, fault, error, message):
        model, batch = micro_model_and_batch()
        bad = dict(batch[0][0])         # G (5, 5), E and B (5, 8)
        if fault == "missing":
            del bad["B"]
        else:
            name, value = {"static-width": ("G", np.zeros((5, 4))),
                           "layer-width": ("E", np.zeros((5, 9))),
                           "length": ("B", np.zeros((6, 8))),
                           "non-finite": ("E", np.full((5, 8), np.nan))}[fault]
            bad[name] = value
        for score in (model.build_stack, model.predict_probs):
            with pytest.raises(error) as caught:
                score(bad)
            assert str(caught.value) == message

    def test_an_empty_sentence_is_reported_as_by_forward(self):
        model, _ = micro_model_and_batch()
        empty = {"G": np.zeros((0, 5)), "E": np.zeros((0, 8)), "B": np.zeros((0, 8))}
        for score in (lambda: model.forward(model.build_stack(empty), None, training=False),
                      lambda: model.predict_probs(empty)):
            with pytest.raises(WindowError, match=r"^conv_bank: no window fits a padded "
                                                  r"sequence of length 0$"):
                score()

    def test_a_pass_leaves_no_fold_on_the_model(self, tmp_path):
        corpus = build_separable_corpus(tmp_path, n_sentences=4, seed=23)
        model = self._model(corpus.config, np.random.default_rng(3))
        seen = []

        class Watching:     # the corpus provider, noting the model's fold on every call
            def channels(self, sent, index):
                seen.append(model._fold is None)
                return corpus.provider.channels(sent, index)

        label_sentences(model, corpus.sentences, Watching())
        assert seen == [True] * 4

    def test_a_scorer_scores_as_the_model_bit_for_bit(self):
        model, batch = micro_model_and_batch()
        model = self._model(model.config, np.random.default_rng(8))
        scorer = model.scorer()
        assert scorer.config is model.config and scorer.params is model.params
        for channels, _ in batch:
            assert scorer.predict_probs(channels).tobytes() == \
                model.predict_probs(channels).tobytes()

    def test_a_long_sentence_peaks_below_one_window_matrix(self):
        """Scoring builds no (n, w * sum of d_c) window matrix: one scorer
        call on 400 tokens holds less than the widest window's would take."""
        config = ModelConfig(unified_dim=64, static_dim=64, window_sizes=(2, 3, 4, 5, 6),
                             kernels_per_window=8, hidden_size=8)
        rng = np.random.default_rng(4)
        scorer = self._model(config, rng).scorer()
        n = 400
        channels = {name: rng.normal(size=(n, 64)) for name in config.channel_order}
        widest = n * 6 * (config.static_input_dim + 1 + 2 * 64) * 8
        for width in (1, 2):
            with op_pool(width):
                assert peak_bytes(lambda: scorer.predict_probs(channels)) < widest

    def test_a_call_outside_a_pass_keeps_no_fold(self):
        model, batch = micro_model_and_batch()
        model.predict_probs(batch[0][0])
        assert model._fold is None


class TestParameterLayout:
    """The model stores ``proj_w`` and the conv kernels in the layout their
    products read and converts only at the checkpoint boundary:
    ``params=`` takes the checkpoint layout and ``export_params`` gives it
    back, bit for bit."""

    CONFIGS = [
        ModelConfig(unified_dim=6, static_dim=4, window_sizes=(3, 1), kernels_per_window=2,
                    hidden_size=3, seed=4),
        ModelConfig(unified_dim=6, static_dim=4, window_sizes=(2,), kernels_per_window=3,
                    hidden_size=3, channel_order=("E", "B"), seed=5),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=["GEB", "EB"])
    def test_params_in_are_the_params_exported(self, config):
        rng = np.random.default_rng(6)
        given = {name: rng.normal(size=shape) for name, shape in _param_shapes(config).items()}
        exported = MetaphorTagger(config, params=given).export_params()
        assert list(exported) == list(given)
        for name, arr in given.items():
            assert exported[name].shape == arr.shape, name
            assert exported[name].tobytes() == arr.tobytes(), name
            assert exported[name].flags.c_contiguous, name

    @pytest.mark.parametrize("config", CONFIGS, ids=["GEB", "EB"])
    def test_stored_layouts_are_the_products_operands(self, config):
        model = MetaphorTagger(config)
        exported = model.export_params()
        for name, p in model.params.items():
            assert p.data.flags.c_contiguous, name
            if name == "proj_w":
                assert p.data.tobytes() == exported[name].T.tobytes()
            elif name.startswith("conv_w"):
                assert p.data.tobytes() == exported[name].transpose(1, 3, 2, 0).tobytes()
            else:
                assert p.data.tobytes() == exported[name].tobytes(), name

    def test_a_saved_checkpoint_resaves_to_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        config = self.CONFIGS[0]
        given = {name: rng.normal(size=shape) for name, shape in _param_shapes(config).items()}
        first, second = tmp_path / "a.mseq", tmp_path / "b.mseq"
        save_checkpoint(Checkpoint(config, given, 2, 0.5), first)
        model = MetaphorTagger.from_checkpoint(load_checkpoint(first))
        save_checkpoint(Checkpoint(config, model.export_params(), 2, 0.5), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("config", CONFIGS, ids=["GEB", "EB"])
    def test_a_fresh_model_exports_the_glorot_draws_in_checkpoint_order(self, config):
        rng = tc.RngStream(config.seed, 1)
        hidden = config.hidden_size
        exported = MetaphorTagger(config).export_params()
        for name, shape in _param_shapes(config).items():
            if name.endswith("_b"):
                want = np.zeros(shape)
                if name.startswith("lstm_"):
                    want[hidden:2 * hidden] = 1.0
            else:
                fan_in, fan_out = shape[0], shape[-1]
                if name.startswith("conv_w"):
                    fan_in, fan_out = math.prod(shape[1:]), shape[0]
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                want = rng.uniform(shape, -limit, limit)
            assert exported[name].tobytes() == want.tobytes(), name


class TestCheckpointCodec:
    def _checkpoint(self):
        model, _ = micro_model_and_batch(seed=2)
        return Checkpoint(model.config, model.export_params(), epoch=3, dev_f1=0.75)

    def test_save_load_save_identical_bytes(self, tmp_path):
        cp = self._checkpoint()
        p1, p2 = tmp_path / "a.mseq", tmp_path / "b.mseq"
        save_checkpoint(cp, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_fields(self, tmp_path):
        cp = self._checkpoint()
        path = tmp_path / "m.mseq"
        save_checkpoint(cp, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cp.config
        assert loaded.epoch == 3 and loaded.dev_f1 == 0.75
        for name, arr in cp.params.items():
            np.testing.assert_array_equal(arr, loaded.params[name])

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "m.mseq"
        save_checkpoint(self._checkpoint(), path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(f"{path}: bad magic")):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.mseq"
        save_checkpoint(self._checkpoint(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError,
                           match=re.escape(f"{path}: unsupported checkpoint version 9")):
            load_checkpoint(path)

    @staticmethod
    def _record(name: bytes, values) -> bytes:
        arr = np.asarray(values, dtype="<f8")
        return (struct.pack("<I", len(name)) + name + struct.pack("<II", 1, arr.size)
                + arr.tobytes())

    def test_repeated_parameter_name_is_format_error(self, tmp_path):
        # a second cls_b of the right shape would otherwise replace the first
        path = tmp_path / "m.mseq"
        save_checkpoint(self._checkpoint(), path)
        path.write_bytes(path.read_bytes() + self._record(b"cls_b", [7.0, 9.0]))
        with pytest.raises(FormatError,
                           match=re.escape(f"{path}: parameter cls_b appears twice")):
            load_checkpoint(path)

    def test_non_utf8_parameter_name_is_format_error(self, tmp_path):
        path = tmp_path / "m.mseq"
        save_checkpoint(self._checkpoint(), path)
        path.write_bytes(path.read_bytes() + self._record(b"w\xff", [1.0]))
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: parameter name {b'w' + bytes([255])!r} is not UTF-8")):
            load_checkpoint(path)

    def test_cut_inside_parameter_header_is_truncated(self, tmp_path):
        path = tmp_path / "m.mseq"
        cp = self._checkpoint()
        save_checkpoint(Checkpoint(cp.config, {}, epoch=1, dev_f1=0.0), path)
        path.write_bytes(path.read_bytes() + b"\x01\x00")
        with pytest.raises(TruncatedError, match=re.escape(
                f"{path}: file ended while reading parameter header")):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [
        (0xFFFFFFFF,) * 3,   # int64 product wraps to 12,884,901,887
        (1 << 16,) * 4,      # int64 product wraps to 0
        (1 << 20, 1 << 10),  # 8 GiB claimed by a file of a few hundred bytes
        (0xFFFFFFFF,) * 600,  # a product beyond Python's int-to-str digit limit
    ], ids=lambda dims: f"rank{len(dims)}-{dims[0]:#x}")
    def test_oversized_parameter_claim_is_truncated(self, tmp_path, dims):
        path = tmp_path / "m.mseq"
        cp = self._checkpoint()
        save_checkpoint(Checkpoint(cp.config, {}, epoch=1, dev_f1=0.0), path)
        record = (struct.pack("<I", 1) + b"w" + struct.pack("<I", len(dims))
                  + struct.pack(f"<{len(dims)}I", *dims) + b"\x00" * 8)
        path.write_bytes(path.read_bytes() + record)
        with pytest.raises(TruncatedError, match=re.escape(
                f"{path}: file ended while reading parameter w payload")):
            load_checkpoint(path)

    def test_wrong_shapes_rejected_at_model_build(self):
        cp = self._checkpoint()
        cp.params["cls_w"] = np.zeros((3, 3))
        with pytest.raises(CompatibilityError, match="cls_w"):
            MetaphorTagger.from_checkpoint(cp)
