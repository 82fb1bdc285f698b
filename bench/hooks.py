"""Timing hooks that the benchmark worker installs on the program from
outside, by replacing public module attributes with timed wrappers.

Two levels:

- ``markers`` (always on): two timestamps per unit of work. A unit is one
  SGD step in ``train`` (tape entry to the end of ``sgd_step``), one scored
  sentence in ``eval`` (``ChannelProvider.channels`` to the end of
  ``predict_probs``), and in ``probe`` the first map onto the worker pool
  marks the end of set-up.
- ``Trace`` (``--trace 1`` only): per-op forward time, per-tape-node
  backward time with the op and model stage recorded as each node is
  appended, per-stage forward time from stage transitions, and call
  timers around the loaders, feature scorer, metrics, probes, the probe
  pool and the manifest writer.

The stage of a forward op follows the order of ``MetaphorTagger``:
``build_stack`` is projection, ``stack_channels`` and the input dropout
are stack, ``conv_bank`` is conv, the concatenation of the feature maps
and its tanh are tanh, ``_lstm_direction`` is bilstm, and everything after
it (hidden concat, dropout, classifier, softmax, loss) is classifier. If
the model's structure changes, this mapping must follow it.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from metaseq import (
    cli,
    embedding_io,
    linguistic_features,
    space_analysis,
    tagger_model,
    train_eval,
)
from metaseq import tensor_core as tc

now = time.monotonic

# public op attribute in tensor_core -> op name recorded on the tape
OPS = {
    "conv_bank": "conv_bank", "matmul": "matmul", "add": "add",
    "add_bias": "add_bias", "mul": "mul", "sigmoid": "sigmoid",
    "tanh_act": "tanh", "row": "row", "slice_cols": "slice_cols",
    "stack_rows": "stack_rows", "concat_cols": "concat_cols",
    "stack_mats": "stack_mats", "softmax": "softmax",
    "weighted_cross_entropy": "weighted_cross_entropy", "dropout": "dropout",
    "transpose": "transpose",
}
# model stages, in forward order
STAGES = ("projection", "stack", "conv", "tanh", "bilstm", "classifier")


class Command:
    """Timestamps of one CLI command run inside the worker."""

    def __init__(self, kind: str, start: float):
        self.kind = kind
        self.start = start
        self.setup_end: float | None = None
        self.unit_start: float | None = None
        self.last_unit_end: float | None = None
        self.units: list[float] = []
        self.tokens = 0
        self.end: float | None = None
        self.exit_code: int | None = None

    def summary(self) -> dict:
        return {"kind": self.kind, "start": self.start, "setup_end": self.setup_end,
                "last_unit_end": self.last_unit_end, "end": self.end,
                "units": self.units, "tokens": self.tokens, "exit_code": self.exit_code}


class Trace:
    """Summed call times and counts keyed by metric name; thread-safe."""

    def __init__(self):
        self.lock = threading.Lock()
        self.total = defaultdict(float)
        self.calls = defaultdict(int)
        self.active = False          # inside a unit of work
        self.stage: str | None = None
        self.stage_t0 = 0.0
        self.channel_share: dict[int, float] = {}

    def add(self, key: str, seconds: float) -> None:
        with self.lock:
            self.total[key] += seconds
            self.calls[key] += 1

    def set_stage(self, stage: str | None) -> None:
        if not self.active:
            return
        t = now()
        if self.stage is not None:
            self.total[f"stage.{self.stage}.fwd"] += t - self.stage_t0
        self.stage = stage
        self.stage_t0 = t

    def summary(self) -> dict:
        return {"total": dict(self.total), "calls": dict(self.calls)}


class Recorder:
    def __init__(self, traced: bool):
        self.command: Command | None = None
        self.trace = Trace() if traced else None

    def unit_begin(self) -> None:
        c = self.command
        t = now()
        if c.setup_end is None:
            c.setup_end = t
        c.unit_start = t
        if self.trace is not None:
            self.trace.active = True
            self.trace.stage = None
            self.trace.channel_share.clear()

    def unit_end(self, tokens: int = 0) -> None:
        c = self.command
        if c.unit_start is None:
            return
        t = now()
        c.units.append(t - c.unit_start)
        c.tokens += tokens
        c.unit_start = None
        c.last_unit_end = t
        if self.trace is not None:
            self.trace.set_stage(None)
            self.trace.active = False


def _timed(trace: Trace, owner, attr: str, key: str, after=None) -> None:
    """Replace ``owner.attr`` with a wrapper that adds its duration to ``key``."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        t = now()
        out = fn(*args, **kwargs)
        trace.add(key, now() - t)
        if after is not None:
            after(args, out)
        return out

    setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    """Install the unit markers and, when tracing, the full trace."""
    trace = rec.trace
    base_tape = tc.Tape

    class BenchTape(base_tape):
        def __init__(self):
            super().__init__()
            if trace is not None:
                self.nodes = _NodeList(trace)

        def __enter__(self):
            if rec.command.kind == "train":
                rec.unit_begin()
            return super().__enter__()

        def __exit__(self, *exc):
            super().__exit__(*exc)
            if trace is not None:
                trace.set_stage(None)

    tc.Tape = BenchTape

    sgd_step = tc.sgd_step

    def sgd_hook(parameters, lr):
        t = now()
        sgd_step(parameters, lr)
        if trace is not None:
            trace.add("tensor_core.sgd_step", now() - t)
        if rec.command.kind == "train":
            rec.unit_end()

    tc.sgd_step = sgd_hook

    channels = embedding_io.ChannelProvider.channels

    def channels_hook(self, sentence, index):
        if rec.command.kind == "eval":
            rec.unit_begin()
        return channels(self, sentence, index)

    embedding_io.ChannelProvider.channels = channels_hook

    predict = tagger_model.MetaphorTagger.predict_probs

    def predict_hook(self, chans):
        out = predict(self, chans)
        if rec.command.kind == "eval":
            rec.unit_end(tokens=out.shape[0])
        return out

    tagger_model.MetaphorTagger.predict_probs = predict_hook

    class BenchPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self.bench_workers = max_workers or 1
            self.bench_busy = 0.0
            self.bench_t0 = None

        def map(self, fn, *iterables, **kwargs):
            c = rec.command
            if c.setup_end is None:
                c.setup_end = now()
            self.bench_t0 = now()
            if trace is not None:
                lock = threading.Lock()

                def busy(*args, _fn=fn):
                    t = now()
                    try:
                        return _fn(*args)
                    finally:
                        with lock:
                            self.bench_busy += now() - t
                return super().map(busy, *iterables, **kwargs)
            return super().map(fn, *iterables, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if trace is not None and self.bench_t0 is not None:
                wall = now() - self.bench_t0
                trace.add("cli.pool_busy", self.bench_busy)
                trace.add("cli.pool_capacity", wall * self.bench_workers)
                self.bench_t0 = None

    cli.ThreadPoolExecutor = BenchPool

    if trace is not None:
        _install_trace(rec, trace)


class _NodeList(list):
    """Tape node list that wraps each node's backward as it is appended."""

    def __init__(self, trace: Trace):
        super().__init__()
        self.trace = trace

    def append(self, node) -> None:
        trace = self.trace
        fn = node.backward_fn
        op = node.op
        stage = trace.stage if trace.stage is not None else "classifier"
        rows = useful = 0.0
        if op == "conv_bank" and node.inputs[0].requires_grad:
            c, n, _ = node.inputs[0].shape
            rows = float(c * n)
            useful = rows * trace.channel_share.get(id(node.inputs[0]), 1.0)

        def timed_backward(g):
            t = now()
            fn(g)
            dt = now() - t
            total = trace.total
            total[f"op.{op}.bwd"] += dt
            total[f"stage.{stage}.bwd"] += dt
            if rows:
                total["conv.input_grad_rows"] += rows
                total["conv.input_grad_useful_rows"] += useful

        node.backward_fn = timed_backward
        super().append(node)


def _install_trace(rec: Recorder, trace: Trace) -> None:
    total = trace.total

    def wrap_op(attr: str, name: str) -> None:
        fn = getattr(tc, attr)

        def op(*args, **kwargs):
            if name == "conv_bank":
                trace.set_stage("conv")
            elif name == "concat_cols" and trace.stage == "conv":
                trace.set_stage("tanh")
            t = now()
            out = fn(*args, **kwargs)
            if trace.active:
                total[f"op.{name}.fwd"] += now() - t
                if name == "stack_mats":
                    mats = args[0]
                    trace.channel_share[id(out)] = (
                        sum(m.requires_grad for m in mats) / len(mats))
                elif name == "dropout" and id(args[0]) in trace.channel_share:
                    trace.channel_share[id(out)] = trace.channel_share[id(args[0])]
            return out

        setattr(tc, attr, op)

    for attr, name in OPS.items():
        wrap_op(attr, name)

    backward = tc.backward

    def backward_hook(loss, tape, parameters=None):
        t = now()
        backward(loss, tape, parameters)
        total["tensor_core.backward"] += now() - t

    tc.backward = backward_hook

    def staged(owner, attr: str, enter: str, leave: str | None = None) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            trace.set_stage(enter)
            out = fn(*args, **kwargs)
            if leave is not None:
                trace.set_stage(leave)
            return out

        setattr(owner, attr, wrapper)

    model = tagger_model.MetaphorTagger
    staged(model, "build_stack", "projection")
    staged(tagger_model, "stack_channels", "stack")
    staged(model, "forward", "stack")
    staged(model, "_lstm_direction", "bilstm", "classifier")
    _timed(trace, model, "predict_probs", "tagger_model.predict")
    _timed(trace, tagger_model, "save_checkpoint", "tagger_model.save_checkpoint")
    _timed(trace, tagger_model, "load_checkpoint", "tagger_model.load_checkpoint")

    def glove_lines(args, table):
        total["embedding_io.glove_lines"] += len(table)

    def cemb_bytes(args, layer):
        total["embedding_io.cemb_bytes"] += os.path.getsize(args[0])

    _timed(trace, cli, "load_static_text", "embedding_io.load_static_text", glove_lines)
    _timed(trace, cli, "load_contextual", "embedding_io.load_contextual", cemb_bytes)
    _timed(trace, embedding_io.ChannelProvider, "channels", "embedding_io.channels")
    _timed(trace, embedding_io.ContextualLayerFile, "all_rows", "embedding_io.all_rows")

    scorer = linguistic_features.AbstractnessScorer
    score = scorer.score
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def score_hook(self, word):
        t = now()
        out = score(self, word)
        dt = now() - t
        key = word.lower() if self.lowercase else word
        keys = seen.setdefault(self, set())
        total["linguistic_features.score"] += dt
        total["linguistic_features.score_calls"] += 1
        if key in keys:
            total["linguistic_features.memo_hits"] += 1
        keys.add(key)
        return out

    scorer.score = score_hook

    for attr in ("parse_dataset", "compute_metrics", "breakdown"):
        _timed(trace, train_eval, attr, f"train_eval.{attr}")
    for attr in ("build_pairs", "avg_pair_cosine", "procrustes_align", "avg_l2", "pca_2d"):
        _timed(trace, space_analysis, attr, f"space_analysis.{attr}")
    _timed(trace, cli, "_write_manifest", "cli.manifest")
