"""The end-to-end tagger: projection -> channel stack -> multi-window CNN
-> tanh -> BiLSTM -> per-token softmax, trained with class-weighted
cross-entropy under plain SGD.

Training is batch-size-1 over seeded shuffles; after every epoch the dev
split is scored and the best-F1 parameter snapshot is kept. One training
run is bitwise reproducible from its seed, whatever the width of the op
pool that ``tensor_core`` runs the conv windows, the BiLSTM directions and
the update on.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math
import os
import struct
import typing
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import tensor_core as tc
from . import train_eval
from .embedding_io import _read_exact, stack_channels
from .errors import (
    CompatibilityError,
    DimensionError,
    FormatError,
    InputError,
    MetaseqError,
    ParameterError,
    ParseError,
    TruncatedError,
)

CHECKPOINT_MAGIC = b"MSEQ"
CHECKPOINT_VERSION = 1

_INIT_STREAM = 1
_SHUFFLE_STREAM = 2
_DROPOUT_STREAM = 3


@dataclass(frozen=True)
class ModelConfig:
    unified_dim: int = 1024
    static_dim: int = 300
    window_sizes: tuple[int, ...] = (2, 3, 4, 5)
    kernels_per_window: int = 100
    hidden_size: int = 256               # per direction
    input_dropout: float = 0.5
    hidden_dropout: float = 0.1
    learning_rate: float = 0.2
    class_weights: tuple[float, float] = (1.0, 2.0)   # (literal, metaphor)
    channel_order: tuple[str, ...] = ("G", "E", "B")
    epochs: int = 30
    seed: int = 0
    use_pos: bool = False
    use_abstractness: bool = False
    pos_tags: tuple[str, ...] = ()
    lowercase_lexicon: bool = True

    def __post_init__(self):
        if min(self.unified_dim, self.static_dim, self.kernels_per_window,
               self.hidden_size, self.epochs) < 1:
            raise ParameterError("all model sizes and the epoch count must be positive")
        if not self.window_sizes or min(self.window_sizes) < 1:
            raise ParameterError(f"bad window sizes {self.window_sizes}")
        if len(set(self.window_sizes)) != len(self.window_sizes):
            raise ParameterError(f"repeated window size in {self.window_sizes}")
        for rate in (self.input_dropout, self.hidden_dropout):
            if not 0.0 <= rate < 1.0:
                raise ParameterError(f"dropout rate {rate} outside [0, 1)")
        if len(self.class_weights) != 2:
            raise ParameterError(
                f"need 2 class weights (literal, metaphor), got {self.class_weights}")
        if not all(0.0 < w < math.inf for w in self.class_weights):
            raise ParameterError(
                f"class weights must be finite and positive, got {self.class_weights}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ParameterError(
                f"learning rate must be finite and positive, got {self.learning_rate}")
        if not self.channel_order:
            raise ParameterError("channel order must name at least one channel")
        if len(set(self.channel_order)) != len(self.channel_order):
            raise ParameterError(f"repeated channel in channel order {self.channel_order}")
        if self.use_pos and not self.pos_tags:
            raise ParameterError("use_pos requires pos_tags")
        for feature in ("use_pos", "use_abstractness"):   # both ride on the static rows
            if getattr(self, feature) and "G" not in self.channel_order:
                raise ParameterError(f"{feature} requires the static channel G")
        if len(set(self.pos_tags)) != len(self.pos_tags):
            raise ParameterError(f"repeated tag in pos_tags {self.pos_tags}")

    @property
    def feature_width(self) -> int:
        return self.kernels_per_window * len(self.window_sizes)

    @property
    def static_input_dim(self) -> int:
        width = self.static_dim
        if self.use_pos:
            width += len(self.pos_tags) + 1   # +1 for the UNK slot
        if self.use_abstractness:
            width += 1
        return width

    @staticmethod
    def field_value(key: str, value, text: bool = False):
        """``value`` as the type of field ``key``. Config-file ``text`` parses
        (comma lists; true/false/1/0); any other value must already have the
        field's type, where a list passes as a tuple and an int as a float."""
        hint = _FIELD_TYPES.get(key)
        if hint is None:
            raise ParameterError(f"unknown key {key!r}")
        if typing.get_origin(hint) is not tuple:
            return _typed(key, hint, value, text)
        if text:
            value = [v.strip() for v in value.split(",") if v.strip()]
        if not isinstance(value, (list, tuple)):
            raise ParseError(f"{key}: expected a list, got {value!r:.80}")
        return tuple(_typed(key, typing.get_args(hint)[0], v, text) for v in value)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelConfig":
        if not isinstance(data, Mapping):
            raise ParseError(f"config: expected an object, got {data!r:.80}")
        return cls(**{key: cls.field_value(key, value) for key, value in data.items()})


_FIELD_TYPES = typing.get_type_hints(ModelConfig)


def _typed(key: str, kind: type, value, text: bool = False):
    """One scalar of type ``kind``: parsed from text, or checked as is."""
    try:
        if text and kind is bool:
            return {"true": True, "1": True, "false": False, "0": False}[value.lower()]
        if text:
            return kind(value)
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) == (kind is bool) and isinstance(value, accepted):
            return kind(value)
    except (KeyError, ValueError, OverflowError):
        pass
    raise ParseError(f"{key}: expected {kind.__name__}, got {value!r:.80}")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    epoch: int
    dev_f1: float


def _glorot(rng: tc.RngStream, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(shape, -limit, limit)


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter's name and the shape ``cfg`` gives it."""
    c = len(cfg.channel_order)
    d = cfg.unified_dim
    feat = cfg.feature_width
    hidden = cfg.hidden_size
    shapes: dict[str, tuple[int, ...]] = {}
    if "G" in cfg.channel_order:
        shapes["proj_w"] = (d, cfg.static_input_dim)
        shapes["proj_b"] = (d,)
    for w in cfg.window_sizes:
        shapes[f"conv_w{w}"] = (cfg.kernels_per_window, c, w, d)
    for direction in ("f", "b"):
        shapes[f"lstm_{direction}_wx"] = (feat, 4 * hidden)
        shapes[f"lstm_{direction}_wh"] = (hidden, 4 * hidden)
        shapes[f"lstm_{direction}_b"] = (4 * hidden,)
    shapes["cls_w"] = (2 * hidden, 2)
    shapes["cls_b"] = (2,)
    return shapes


def _to_storage(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr``, parameter ``name`` in its checkpoint layout
    (``_param_shapes``), in the layout the model stores and its products
    read: a C-ordered copy where the two differ, else ``arr`` itself.
    ``proj_w`` is stored as its (static_input_dim, unified_dim) transpose,
    the right operand of the projection's product, and each (k, c, w, d)
    ``conv_w{w}`` as (c, d, w, k), whose free reshape to (c * d, w * k) is
    the offset-major kernel of ``tc.conv_bank`` and ``tc.conv_maps``. The
    kernels move as one (k, d) transpose per channel and offset, about 2.5
    times faster at paper config than one 4-D transpose."""
    if name == "proj_w":
        return np.ascontiguousarray(arr.T)
    if not name.startswith("conv_w"):
        return arr
    k, c, w, d = arr.shape
    out = np.empty((c, d, w, k))
    for ch, o in itertools.product(range(c), range(w)):
        out[ch, :, o] = arr[:, ch, o].T
    return out


def _to_checkpoint(name: str, arr: np.ndarray) -> np.ndarray:
    """A C-ordered copy of the stored ``arr`` in the checkpoint layout of
    ``name``: ``_to_storage`` undone."""
    if name == "proj_w":
        return np.ascontiguousarray(arr.T)
    if not name.startswith("conv_w"):
        return arr.copy()
    c, d, w, k = arr.shape
    out = np.empty((k, c, w, d))
    for ch, o in itertools.product(range(c), range(w)):
        out[:, ch, o] = arr[ch, :, o].T
    return out


# The copies of the parameters that ``train`` holds at once: the parameters
# themselves, their gradient storage while it steps and the best snapshot.
# A new best is exported while the old one is still alive, but by then the
# gradient storage has been released for the dev pass.
TRAIN_PARAM_COPIES = 3


def check_allocatable(config: ModelConfig) -> None:
    """Raise a ParameterError if the TRAIN_PARAM_COPIES copies of
    ``config``'s float64 parameters do not fit in the memory this process
    may use (``tensor_core.usable_memory``). ``metaseq train`` runs this
    before it reads any input."""
    count = sum(math.prod(shape) for shape in _param_shapes(config).values())
    bound, source = tc.usable_memory()
    if 8 * TRAIN_PARAM_COPIES * count > bound:
        shown = count if count < 10 ** 300 else "over 10**300"   # str() stops at 4,300 digits
        raise ParameterError(f"the configured model has {shown} float64 parameters, "
                             f"more than can be allocated in the {bound} bytes of {source}")


def activation_bytes(config: ModelConfig, n: int, training: bool) -> int:
    """Bytes of the float64 arrays that one sentence of ``n`` tokens holds
    together at ``config``, a lower bound on its peak. Both paths hold, per
    token, the maps and their tanh, and per LSTM direction its gates, cell
    tanh, states and cells (7 hidden values): scoring while it runs the second
    direction, beside the channel rows; a training step to the end of its
    backward, where it also holds the conv's (c, n, d) input and those rows
    joined (c d values each). As the conv's last window job returns, it also
    holds that job's shifted map gradient (w k values, at least the smallest
    window's) and, when the static channel is trained through, every
    window's input-gradient block (c d values); the blocks' sum is made once
    that map gradient is gone, so the larger of the two counts."""
    c, d, windows = len(config.channel_order), config.unified_dim, config.window_sizes
    static = "G" in config.channel_order
    shifted = min(windows) * config.kernels_per_window
    per_token = 2 * config.feature_width + 14 * config.hidden_size
    if not training:
        per_token += (config.static_input_dim - d if static else 0) + c * d
    elif static:
        per_token += c * d * (2 + len(windows)) + max(c * d, shifted)
    else:
        per_token += 2 * c * d + shifted
    return 8 * n * per_token


def check_sentence_memory(config: ModelConfig, path, sentences: Sequence,
                          training: bool) -> None:
    """Raise an InputError naming ``path`` and its longest sentence if that
    sentence's ``activation_bytes`` do not fit in the memory this process may
    use (``tensor_core.usable_memory``). ``metaseq train`` and ``eval`` run
    this on each file of sentences they read, before any activation is made."""
    longest = max(sentences, key=lambda sentence: len(sentence.tokens))
    needed = activation_bytes(config, len(longest.tokens), training)
    bound, source = tc.usable_memory()
    if needed > bound:
        raise InputError(f"{path}: sentence {longest.sentence_id}: "
                         f"{'training on' if training else 'scoring'} its "
                         f"{len(longest.tokens)} tokens needs {needed} bytes of activations, "
                         f"more than the {bound} bytes of {source}")


class MetaphorTagger:
    """Trainable tagger; parameters live in a flat name -> Tensor map, each
    in the layout its products read (``_to_storage``). ``params=`` takes
    them in the checkpoint layout and ``export_params`` gives them back in
    it, so only those two convert."""

    def __init__(self, config: ModelConfig, params: Mapping[str, np.ndarray] | None = None):
        self.config = config
        self._fold: list[np.ndarray] | None = None   # set on a ``scorer()`` copy only
        if params is not None:
            self._check_param_shapes({name: np.shape(arr) for name, arr in params.items()})
            self.params = {name: tc.Tensor(_to_storage(name, np.asarray(arr)),
                                           requires_grad=True)
                           for name, arr in params.items()}
        else:
            self.params = self._init_params(tc.RngStream(config.seed, _INIT_STREAM))

    def _init_params(self, rng: tc.RngStream) -> dict[str, tc.Tensor]:
        cfg = self.config
        hidden = cfg.hidden_size
        check_allocatable(cfg)
        params: dict[str, tc.Tensor] = {}
        for name, shape in _param_shapes(cfg).items():
            if name.endswith("_b"):
                data = np.zeros(shape)
                if name.startswith("lstm_"):
                    data[hidden:2 * hidden] = 1.0   # forget gate opens at init
            elif name.startswith("conv_w"):
                fan_in = int(np.prod(shape[1:]))
                data = _glorot(rng, shape, fan_in, cfg.kernels_per_window)
            else:
                data = _glorot(rng, shape, shape[0], shape[-1])
            params[name] = tc.Tensor(_to_storage(name, data), requires_grad=True)
        return params

    def _check_param_shapes(self, shapes: Mapping[str, tuple[int, ...]]) -> None:
        """``shapes``, the given parameters' checkpoint shapes, must be the
        ones the configuration implies."""
        expected = _param_shapes(self.config)
        if set(expected) != set(shapes):
            raise CompatibilityError(
                f"parameter names {sorted(shapes)} do not match "
                f"configuration ({sorted(expected)})")
        for name, shape in expected.items():
            if shapes[name] != shape:
                raise CompatibilityError(
                    f"parameter {name}: stored shape {shapes[name]}, "
                    f"configuration implies {shape}")

    def parameters(self) -> dict[str, tc.Tensor]:
        return self.params

    def export_params(self) -> dict[str, np.ndarray]:
        """A copy of every parameter in the checkpoint layout."""
        return {name: _to_checkpoint(name, p.data) for name, p in self.params.items()}

    # -- forward ------------------------------------------------------------

    def _channel_tensors(self, channels: Mapping[str, np.ndarray]) -> list[tc.Tensor]:
        """The channels in config order as checked float64 tensors, all of
        one length: the static one (n, static_input_dim), not projected, and
        the others (n, unified_dim)."""
        cfg = self.config
        tensors = []
        for name in cfg.channel_order:
            if name not in channels:
                raise DimensionError(f"channel {name} missing from input")
            mat = np.asarray(channels[name], dtype=np.float64)
            if name == "G":
                if mat.ndim != 2 or mat.shape[1] != cfg.static_input_dim:
                    raise DimensionError(
                        f"static channel shape {mat.shape}, expected "
                        f"(n, {cfg.static_input_dim})")
            elif mat.ndim != 2 or mat.shape[1] != cfg.unified_dim:
                raise DimensionError(
                    f"channel {name} shape {mat.shape}, expected (n, {cfg.unified_dim})")
            tensors.append(tc.Tensor(mat))
        n, d = tensors[0].shape[0], cfg.unified_dim
        for name, t in zip(cfg.channel_order, tensors):
            if t.shape[0] != n:      # the shapes as stacked, the static channel projected
                raise DimensionError(f"channel {name}: shape {(t.shape[0], d)} "
                                     f"does not match {(n, d)}")
        return tensors

    def build_stack(self, channels: Mapping[str, np.ndarray]) -> tc.Tensor:
        """Project the static channel and stack all channels in config order
        into a (channel, position, dimension) block."""
        order = self.config.channel_order
        mats = self._channel_tensors(channels)
        if "G" in order:
            g = order.index("G")
            mats[g] = tc.add_bias(tc.matmul(mats[g], self.params["proj_w"]), self.params["proj_b"])
        return stack_channels(mats)

    def _lstm_direction(self, feats: tc.Tensor) -> tc.Tensor:
        """The BiLSTM over the (n, feature_width) features: one ``tc.lstm``
        call, forward states then backward states, (n, 2 hidden_size). The
        benchmark's hooks time it by this name as the bilstm stage."""
        return tc.lstm(feats, [(self.params[f"lstm_{name}_wx"], self.params[f"lstm_{name}_wh"],
                                self.params[f"lstm_{name}_b"], name == "b") for name in "fb"])

    def forward(self, stack: tc.Tensor, rng: tc.RngStream | None, training: bool) -> tc.Tensor:
        """Per-token class probabilities, shape (n, 2)."""
        cfg = self.config
        channels, _, dimension = stack.shape
        if dimension != cfg.unified_dim or channels != len(cfg.channel_order):
            raise DimensionError(
                f"stack shape {stack.shape} does not fit "
                f"{len(cfg.channel_order)} channels of dimension {cfg.unified_dim}")
        block = tc.dropout(stack, cfg.input_dropout, rng, training)
        maps = tc.conv_bank(block, [self.params[f"conv_w{w}"] for w in cfg.window_sizes])
        return self._classify_maps(maps, rng, training)

    def _classify_maps(self, maps: tc.Tensor, rng: tc.RngStream | None,
                       training: bool) -> tc.Tensor:
        """Tanh, BiLSTM, hidden dropout and softmax classifier over the
        (n, feature_width) conv maps."""
        feats = tc.tanh_act(maps)
        hidden = tc.dropout(self._lstm_direction(feats), self.config.hidden_dropout, rng, training)
        logits = tc.add_bias(tc.matmul(hidden, self.params["cls_w"]), self.params["cls_b"])
        return tc.softmax(logits)

    def sentence_loss(self, stack: tc.Tensor, labels: Sequence[int],
                      rng: tc.RngStream, training: bool = True) -> tc.Tensor:
        probs = self.forward(stack, rng, training)
        return tc.weighted_cross_entropy(probs, labels, self.config.class_weights)

    def _folded_kernels(self) -> list[np.ndarray]:
        """Each window's offset-major conv kernels over the unprojected
        channels, for ``tc.conv_maps``: the static channel's block takes the
        projection of its rows with a ones column appended, the stored
        ``proj_w`` rows and the ``proj_b`` row times its stored kernel rows.
        A copy of the kernels, with or without a static channel."""
        order = self.config.channel_order
        linear = {}
        if "G" in order:
            linear[order.index("G")] = np.concatenate(
                [self.params["proj_w"].data, self.params["proj_b"].data[None, :]])
        return tc.fold_kernels([self.params[f"conv_w{w}"].data for w in self.config.window_sizes],
                               linear)

    def predict_probs(self, channels: Mapping[str, np.ndarray]) -> np.ndarray:
        """Inference probabilities (n, 2); no tape, no dropout.

        With dropout off nothing separates the static projection from the
        conv, so the channels are scored unprojected through kernels with
        the projection folded in (``_folded_kernels``): the static rows get
        a ones column that carries the bias and, like them, adds nothing
        past the sentence's end. The channels are joined side by side once,
        the ones column in place after the static rows, and each window is
        one product of the joined rows and its shifted offset blocks, with
        no window matrix. A ``scorer()`` scores through the fold it was made
        with; the model itself folds for this call alone.
        """
        cfg = self.config
        mats = [t.data for t in self._channel_tensors(channels)]
        if "G" in cfg.channel_order:
            mats.insert(cfg.channel_order.index("G") + 1, np.ones((len(mats[0]), 1)))
        kernels = self._fold or self._folded_kernels()
        maps = tc.Tensor(tc.conv_maps(np.concatenate(mats, axis=1), kernels, cfg.window_sizes))
        return self._classify_maps(maps, None, training=False).data

    def scorer(self) -> "MetaphorTagger":
        """A shallow copy for one labelling pass: it shares ``config`` and
        the parameter tensors, and holds the kernels folded from them now.
        A parameter update after this leaves it stale, so a pass makes its
        own and drops it when it returns."""
        scorer = copy.copy(self)
        scorer._fold = self._folded_kernels()
        return scorer

    @classmethod
    def from_checkpoint(cls, checkpoint: Checkpoint) -> "MetaphorTagger":
        return cls(checkpoint.config, params=checkpoint.params)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def label_sentences(model: MetaphorTagger, sentences, provider
                    ) -> tuple[list[list[int]], train_eval.MetricsReport]:
    """Argmax labels per sentence and the target-token metrics over all of
    them. Each sentence's channels are built right before it is scored, so
    one sentence's channels are alive at a time. Every sentence is scored
    through one ``model.scorer()``, made right after the first one's
    channels."""
    predictions, gold, masks = [], [], []
    scorer = None
    for index, sent in enumerate(sentences):
        channels = provider.channels(sent, index)
        scorer = scorer or model.scorer()
        probs = scorer.predict_probs(channels)
        predictions.append(np.argmax(probs, axis=1).tolist())
        gold.extend(sent.labels().tolist())
        masks.extend(sent.target_mask().tolist())
    flat = [label for labels in predictions for label in labels]
    return predictions, train_eval.compute_metrics(flat, gold, masks)


def train(train_sentences, provider, config: ModelConfig, dev_sentences=None,
          on_epoch: Callable[[int, float, float], None] | None = None,
          stop_at_f1: float | None = None) -> Checkpoint:
    """Seeded SGD over shuffled sentences; returns the best-dev-F1 snapshot.

    Every token contributes to the loss with its file ``label``, target or
    not; ``target`` only selects the tokens that model selection scores.
    With no dev split the training sentences double as the dev set. A
    sentence's channels are built when it is used: right before its step,
    and again when it is scored.
    """
    train_sentences = list(train_sentences)
    if not train_sentences:
        raise InputError("empty training dataset")
    dev_sentences = train_sentences if dev_sentences is None else list(dev_sentences)

    model = MetaphorTagger(config)
    shuffle_rng = tc.RngStream(config.seed, _SHUFFLE_STREAM)
    dropout_rng = tc.RngStream(config.seed, _DROPOUT_STREAM)
    params = model.parameters()

    best: Checkpoint | None = None
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train_sentences))
        total_loss = 0.0
        for idx in order:
            channels = provider.channels(train_sentences[idx], idx)
            with tc.Tape() as tape:
                stack = model.build_stack(channels)
                loss = model.sentence_loss(stack, train_sentences[idx].labels(),
                                           dropout_rng, training=True)
            tc.backward(loss, tape, params.values())
            tc.sgd_step(params, config.learning_rate)
            total_loss += float(loss.data)
        tc.release_gradients(params.values())   # not needed while the dev split is scored
        dev_f1 = label_sentences(model, dev_sentences, provider)[1].f1
        if on_epoch is not None:
            on_epoch(epoch, total_loss / len(train_sentences), dev_f1)
        if best is None or dev_f1 > best.dev_f1:
            best = Checkpoint(config, model.export_params(), epoch, dev_f1)
        if stop_at_f1 is not None and dev_f1 >= stop_at_f1:
            break
    return best


# ---------------------------------------------------------------------------
# Checkpoint codec
# ---------------------------------------------------------------------------

def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    blob = json.dumps(
        {"config": dataclasses.asdict(checkpoint.config),
         "epoch": checkpoint.epoch,
         "dev_f1": checkpoint.dev_f1},
        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for name in sorted(checkpoint.params):
            arr = np.ascontiguousarray(checkpoint.params[name], dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _read_meta(path, blob: bytes) -> tuple[ModelConfig, int, float]:
    """Config, best epoch and dev F1 from the checkpoint's JSON blob."""
    try:
        meta = json.loads(blob.decode("utf-8"))
        if not isinstance(meta, dict) or sorted(meta) != ["config", "dev_f1", "epoch"]:
            raise ParseError(f"expected an object of config, dev_f1, epoch; got {meta!r:.60}")
        return (ModelConfig.from_dict(meta["config"]), _typed("epoch", int, meta["epoch"]),
                _typed("dev_f1", float, meta["dev_f1"]))
    except (ValueError, RecursionError, MetaseqError) as exc:
        raise FormatError(f"{path}: config blob: {exc}") from None


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version, blob_len = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        config, epoch, dev_f1 = _read_meta(path, _read_exact(fh, blob_len, "config blob"))
        params: dict[str, np.ndarray] = {}
        while fh.peek(1):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "parameter header"))
            raw = _read_exact(fh, name_len, "parameter name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: parameter name {raw!r} is not UTF-8") from None
            if name in params:
                raise FormatError(f"{path}: parameter {name} appears twice")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "parameter rank"))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "parameter dims"))
            # The product of 2**32-sized dims can pass Python's int-to-str
            # digit limit, and takes time quadratic in the rank: it is taken
            # only until it passes the bytes left, and never printed.
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            count = int(0 not in shape)
            for dim in shape:
                count *= dim
                if count > left // 8:
                    raise TruncatedError(f"{path}: file ended while reading parameter {name} "
                                         f"payload: its rank-{rank} shape declares more than "
                                         f"the {left} bytes left")
            payload = _read_exact(fh, 8 * count, f"parameter {name} payload")
            try:
                params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
            except ValueError as exc:   # more dimensions than numpy supports
                raise FormatError(f"{path}: parameter {name}: {exc}") from None
    return Checkpoint(config, params, epoch, dev_f1)
