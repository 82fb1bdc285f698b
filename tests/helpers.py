"""Shared verification utilities for model-level and probe tests."""

import contextlib

import numpy as np

from metaseq import tensor_core as tc
from metaseq.tagger_model import MetaphorTagger, ModelConfig


def zero_grads(parameters) -> None:
    for p in parameters:
        p.grad = None


def fd_gradient(f, tensors, h: float = 1e-6) -> list[np.ndarray]:
    """Central finite-difference gradients of ``f()`` w.r.t. each tensor.

    ``f`` must be a pure function of the tensors' current data. This is the
    independent oracle used to verify every analytic gradient.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(f())
            flat[i] = keep - h
            down = float(f())
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def micro_model_and_batch(seed=0):
    """The small gradient-check configuration: unified dim 8, 2 kernels per
    window, hidden 4, two sentences."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(unified_dim=8, static_dim=5, kernels_per_window=2,
                         hidden_size=4, input_dropout=0.0, hidden_dropout=0.0,
                         seed=seed)
    model = MetaphorTagger(config)
    batch = []
    for n in (5, 7):
        channels = {"G": rng.normal(size=(n, 5)),
                    "E": rng.normal(size=(n, 8)),
                    "B": rng.normal(size=(n, 8))}
        labels = rng.integers(0, 2, size=n)
        batch.append((channels, labels))
    return model, batch


def batch_loss_value(model, batch) -> float:
    rng = tc.RngStream(0)
    total = 0.0
    for channels, labels in batch:
        stack = model.build_stack(channels)
        total += float(model.sentence_loss(stack, labels, rng, training=False).data)
    return total


def analytic_batch_grads(model, batch) -> dict[str, np.ndarray]:
    params = model.parameters()
    zero_grads(params.values())
    rng = tc.RngStream(0)
    with tc.Tape() as tape:
        parts = []
        for channels, labels in batch:
            stack = model.build_stack(channels)
            parts.append(model.sentence_loss(stack, labels, rng, training=False))
        loss = parts[0]
        for part in parts[1:]:
            loss = tc.add(loss, part)
    tc.backward(loss, tape, params.values())
    grads = {name: p.grad.copy() for name, p in params.items()}
    zero_grads(params.values())
    return grads


def reference_sgd(model, steps, lr: float, rng: tc.RngStream) -> None:
    """Batch-size-1 SGD with every gradient copied into a fresh array before
    the update, and every parameter a new tensor after it, so no gradient
    storage lives from one step to the next. ``steps`` holds
    (channels, labels) pairs, one per step; dropout is on."""
    params = model.parameters()
    for channels, labels in steps:
        with tc.Tape() as tape:
            loss = model.sentence_loss(model.build_stack(channels), labels, rng, training=True)
        tc.backward(loss, tape, params.values())
        for name, p in list(params.items()):
            grad = np.array(p.grad)
            grad *= lr
            params[name] = tc.Tensor(p.data - grad, requires_grad=True)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


def micro_gradcheck(param_names=None, h=1e-6, seed=0) -> float:
    """Max relative error between tape and finite-difference gradients of the
    summed two-sentence loss, over the named parameters (default: all)."""
    model, batch = micro_model_and_batch(seed)
    analytic = analytic_batch_grads(model, batch)
    names = sorted(analytic) if param_names is None else list(param_names)
    tensors = [model.parameters()[name] for name in names]
    numeric = fd_gradient(lambda: batch_loss_value(model, batch), tensors, h=h)
    return max(max_relative_error(analytic[name], num)
               for name, num in zip(names, numeric))


def random_orthogonal(dim: int, rng: tc.RngStream) -> np.ndarray:
    """Haar-distributed orthogonal matrix (rotations and reflections), drawn
    from the stream's generator: ``RngStream`` offers only the draws the
    program makes."""
    q, r = np.linalg.qr(rng._gen.normal(0.0, 1.0, size=(dim, dim)))
    return q * np.sign(np.diag(r))


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function through boolean masks, one exponential per
    sign: the oracle for ``tensor_core._sigmoid``."""
    s = np.empty_like(z)
    pos = z >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    s[~pos] = e / (1.0 + e)
    return s


@contextlib.contextmanager
def op_pool(width: int):
    """Run the block with ``tensor_core``'s op pool ``width`` threads wide,
    then shut down any pool the block started and restore the previous one."""
    saved = tc._pool_width, tc._pool
    tc._pool_width, tc._pool = width, None
    try:
        yield
    finally:
        if tc._pool is not None:
            tc._pool.shutdown()
        tc._pool_width, tc._pool = saved
