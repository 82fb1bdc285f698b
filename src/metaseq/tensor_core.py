"""Dense float64 tensors with tape-recorded reverse-mode differentiation.

The operation set is deliberately small: exactly what a projection +
multi-window sequence convolution + BiLSTM + softmax classifier needs.
All arithmetic is 64-bit. There is no broadcasting beyond the explicit
``add_bias`` row op.

Tape recording is thread-local: each model instance runs its forward and
backward on one thread, while independent instances may run concurrently.
Inside one op, ``conv_bank`` and ``sgd_step`` share independent
per-window or per-parameter jobs between the calling thread and a shared
thread pool (``pool_width``); the jobs record nothing, and their results
are combined in a fixed order, so the bits do not depend on the width.

Gradient storage belongs to the tensor and lives across steps. The first
gradient a ``backward`` writes into a tensor lands in that storage (a
matrix product straight through ``np.matmul(..., out=)``), later ones in
the same pass are added with ``+=``. So a ``.grad`` array is valid until
the next ``backward`` into that tensor; ``sgd_step`` sets ``.grad`` to
None but keeps the storage for the next step. A caller that keeps a
gradient must copy it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    LabelError,
    NumericError,
    ParameterError,
    StateError,
    WindowError,
)

PROB_FLOOR = 1e-12  # clamp applied to probabilities before taking logs


def _asarray(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64, order="C")
    if not np.all(np.isfinite(arr)):
        raise NumericError("tensor contains non-finite values")
    return arr


class Tensor:
    """A dense float64 array plus an optional accumulated gradient.

    ``grad_channels`` lists the indices along axis 0 whose gradient is read
    further down the tape (None: all of them). ``stack_mats`` sets it to the
    matrices that require a gradient, ``dropout`` passes it on, and
    ``conv_bank`` computes its input gradient for those channels only.
    """

    __slots__ = ("data", "requires_grad", "grad", "grad_channels", "_grad_store")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.grad_channels: tuple[int, ...] | None = None
        self._grad_store: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_TLS = threading.local()


class _Node:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor,
                 backward_fn: Callable[[np.ndarray], None]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of differentiable operations.

    Nodes are appended at execution time, so the list is topologically
    sorted by construction; ``backward`` replays it once, in reverse.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        stack = getattr(_TLS, "stack", None)
        if stack is None:
            stack = _TLS.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TLS.stack.pop()


def active_tape() -> Tape | None:
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else None


def _record(op: str, inputs: tuple[Tensor, ...], output: Tensor,
            backward_fn: Callable[[np.ndarray], None]) -> None:
    tape = active_tape()
    if tape is not None and output.requires_grad:
        tape.nodes.append(_Node(op, inputs, output, backward_fn))


def _grad_storage(t: Tensor) -> np.ndarray:
    """The array that holds ``t``'s gradient, reused from step to step."""
    store = t._grad_store
    if store is None or store.shape != t.data.shape:
        store = t._grad_store = np.empty(t.data.shape)
    return store


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = _grad_storage(t)
        np.copyto(t.grad, grad)
    else:
        t.grad += grad


def _accumulate_product(t: Tensor, a: np.ndarray, b: np.ndarray) -> None:
    """``_accumulate(t, a @ b)``, with the first product written straight
    into the storage. ``a @ b`` has ``t``'s shape, or is ``t`` flattened to
    2-D (the conv kernels)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = _grad_storage(t)
        np.matmul(a, b, out=t.grad.reshape(a.shape[0], b.shape[1]))
    else:
        t.grad += (a @ b).reshape(t.shape)


def backward(loss: Tensor, tape: Tape,
             parameters: Iterable[Tensor] | None = None) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every tensor on the tape.

    ``loss`` must be a scalar. Parameters passed explicitly but never used
    on the tape receive a zero gradient.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        out_grad = node.output.grad
        if out_grad is None:
            continue
        node.backward_fn(out_grad)
    if parameters is not None:
        for p in parameters:
            if p.requires_grad and p.grad is None:
                p.grad = _grad_storage(p)
                p.grad.fill(0.0)


# ---------------------------------------------------------------------------
# Op pool
# ---------------------------------------------------------------------------

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_POOL_LOCK = threading.Lock()
_pool_width: int | None = None
_pool: ThreadPoolExecutor | None = None


def _width_for(environ: Mapping[str, str], cpus: int) -> int:
    """How many BLAS thread sets fit side by side on ``cpus`` CPUs. BLAS
    threads come from the first of BLAS_THREAD_VARS that is set; with none
    set, or one that is not a positive integer, BLAS takes every CPU and
    the width is 1."""
    for var in BLAS_THREAD_VARS:
        if var in environ:
            try:
                blas = int(environ[var])
            except ValueError:
                return 1
            return max(1, cpus // blas) if blas > 0 else 1
    return 1


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def pool_width() -> int:
    """Threads that run an op's tasks, the calling thread and
    ``pool_width() - 1`` pool threads; fixed at first use from the
    environment and the CPUs this process may run on."""
    global _pool_width
    if _pool_width is None:
        _pool_width = _width_for(os.environ, usable_cpus())
    return _pool_width


def _forget_pool() -> None:
    """In a forked child the pool's threads do not exist: start afresh."""
    global _pool, _POOL_LOCK
    _pool, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _largest_first(fn: Callable, jobs: Sequence, sizes: Sequence[int]) -> list:
    """``[fn(job) for job in jobs]``, the jobs taken largest first by the
    calling thread and the pool's threads alike. At width 1 they run inline
    and no thread starts. No job is still running when this returns, also
    when one of them raised."""
    global _pool
    order = iter(sorted(range(len(jobs)), key=lambda i: -sizes[i]))
    results = [None] * len(jobs)
    taking = threading.Lock()

    def drain() -> None:
        while True:
            with taking:
                i = next(order, None)
            if i is None:
                return
            results[i] = fn(jobs[i])

    futures = []
    helpers = min(pool_width(), len(jobs)) - 1
    if helpers > 0:
        with _POOL_LOCK:
            if _pool is None:
                _pool = ThreadPoolExecutor(pool_width() - 1, thread_name_prefix="metaseq-op")
        futures = [_pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return results


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

class RngStream:
    """Deterministic random source keyed by (seed, stream id).

    The same key always yields the same draw sequence, regardless of how
    many other streams exist or which thread consumes it.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int) -> int:
        return int(self._gen.integers(0, n))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _require_2d(name: str, t: Tensor) -> None:
    if t.data.ndim != 2:
        raise DimensionError(f"{name} expects a 2-D tensor, got shape {t.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard matrix product with the usual transpose-product gradients."""
    _require_2d("matmul", a)
    _require_2d("matmul", b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree for {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad)

    def bw(g: np.ndarray) -> None:
        _accumulate_product(a, g, b.data.T)
        _accumulate_product(b, a.data.T, g)

    _record("matmul", (a, b), out, bw)
    return out


def transpose(x: Tensor) -> Tensor:
    _require_2d("transpose", x)
    out = Tensor(x.data.T, requires_grad=x.requires_grad)

    def bw(g: np.ndarray) -> None:
        _accumulate(x, g.T)

    _record("transpose", (x,), out, bw)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    _record("add", (a, b), out, bw)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes differ, {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    _record("mul", (a, b), out, bw)
    return out


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    """Add a length-k bias row to every row of an (n, k) matrix."""
    _require_2d("add_bias", m)
    if bias.data.ndim != 1 or bias.shape[0] != m.shape[1]:
        raise DimensionError(f"add_bias: bias {bias.shape} does not fit matrix {m.shape}")
    out = Tensor(m.data + bias.data[None, :], requires_grad=m.requires_grad or bias.requires_grad)

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g)
        _accumulate(bias, g.sum(axis=0))

    _record("add_bias", (m, bias), out, bw)
    return out


def tanh_act(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = Tensor(t, requires_grad=x.requires_grad)

    def bw(g: np.ndarray) -> None:
        _accumulate(x, g * (1.0 - t * t))

    _record("tanh", (x,), out, bw)
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function that never exponentiates a positive number:
    1/(1+e) where z >= 0 and e/(1+e) elsewhere, with e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out = Tensor(s, requires_grad=x.requires_grad)

    def bw(g: np.ndarray) -> None:
        _accumulate(x, g * s * (1.0 - s))

    _record("sigmoid", (x,), out, bw)
    return out


def softmax(logits: Tensor) -> Tensor:
    """Probability vector(s) over the last axis, max-subtracted for stability.

    Accepts a length-k vector or an (n, k) matrix of per-row logits; k >= 2.
    """
    z = logits.data
    if z.ndim not in (1, 2):
        raise DimensionError(f"softmax expects a vector or matrix, got shape {logits.shape}")
    if z.shape[-1] < 2:
        raise DimensionError(f"softmax needs at least 2 classes, got shape {logits.shape}")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, requires_grad=logits.requires_grad)

    def bw(g: np.ndarray) -> None:
        inner = (g * p).sum(axis=-1, keepdims=True)
        _accumulate(logits, p * (g - inner))

    _record("softmax", (logits,), out, bw)
    return out


def weighted_cross_entropy(probs: Tensor, labels: Sequence[int],
                           weights: Sequence[float]) -> Tensor:
    """Class-weighted negative log likelihood summed over all positions.

    ``probs`` is (n, k) with rows summing to 1; probabilities are clamped
    at PROB_FLOOR before the log so confident mistakes stay finite.
    """
    _require_2d("weighted_cross_entropy", probs)
    n, k = probs.shape
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n,):
        raise DimensionError(f"labels shape {y.shape} does not match {n} rows")
    if y.size and (y.min() < 0 or y.max() >= k):
        raise LabelError(f"label outside [0, {k}) in {sorted(set(y.tolist()))}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (k,):
        raise DimensionError(f"weights shape {w.shape} does not match {k} classes")

    picked = probs.data[np.arange(n), y]
    clamped = np.maximum(picked, PROB_FLOOR)
    loss = -(w[y] * np.log(clamped)).sum()
    out = Tensor(loss, requires_grad=probs.requires_grad)

    def bw(g: np.ndarray) -> None:
        dp = np.zeros_like(probs.data)
        live = picked >= PROB_FLOOR  # inside the clamp the log is flat
        rows = np.arange(n)[live]
        dp[rows, y[live]] = -w[y[live]] / picked[live] * float(g)
        _accumulate(probs, dp)

    _record("weighted_cross_entropy", (probs,), out, bw)
    return out


def dropout(x: Tensor, rate: float, rng: RngStream, training: bool) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.uniform(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    out = Tensor(x.data * keep, requires_grad=x.requires_grad)
    out.grad_channels = x.grad_channels

    def bw(g: np.ndarray) -> None:
        _accumulate(x, g * keep)

    _record("dropout", (x,), out, bw)
    return out


def conv_bank(inp: Tensor, kernels: Sequence[Tensor]) -> Tensor:
    """The feature maps of every window size: (k_j, c, w_j, d) kernels ->
    (n, sum of k_j), kernel j's maps in its own columns, in the given order.

    Position i of map k of window j is the full sum over channels, window
    offsets and embedding dimensions of input[c, i+o, d] * kernels[j][k, c, o, d],
    with the (c, n, d) input zero-padded at the end so every position yields
    a value. Each window is one im2col matrix product and one pool task,
    forward and backward. The input gradient is computed for
    ``inp.grad_channels`` only, one matmul over each channel's w*d kernel
    columns; the other channels get zeros. One tape node covers every
    window; its backward adds the windows' input gradients into ``inp`` last
    window first, the order in which one node per window would replay.
    """
    if inp.data.ndim != 3:
        raise DimensionError("conv_bank expects a (channel, position, dim) input")
    if not kernels:
        raise ContractError("conv_bank needs at least one kernel tensor")
    if len({id(kern) for kern in kernels}) != len(kernels):
        raise ContractError("conv_bank: a kernel tensor is given twice")
    c, n, d = inp.shape
    for kern in kernels:
        if kern.data.ndim != 4:
            raise DimensionError(f"conv_bank expects (k, c, w, d) kernels, got {kern.shape}")
        _, kc, w, kd = kern.shape
        if (kc, kd) != (c, d):
            raise DimensionError(f"conv_bank: window {w}: kernel channels/dim {(kc, kd)} "
                                 f"do not match input {(c, d)}")
        if w < 1:
            raise WindowError(f"conv_bank: window must be >= 1, got {w}")
    if n < 1:
        raise WindowError(f"conv_bank: no window fits a padded sequence of length {n}")
    sizes = [kern.size for kern in kernels]

    def forward(kern: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k, _, w, _ = kern.shape
        padded = np.concatenate([inp.data, np.zeros((c, w - 1, d))], axis=1) if w > 1 else inp.data
        # im2col: cols[i, (c, o, d)] = padded[c, i + o, d], the kernels' own order
        windows = np.lib.stride_tricks.sliding_window_view(padded, w, axis=1)
        cols = windows.transpose(1, 0, 3, 2).reshape(n, c * w * d)
        k_flat = kern.data.reshape(k, c * w * d)
        return cols, k_flat, cols @ k_flat.T

    parts = _largest_first(forward, kernels, sizes)
    out = Tensor(np.concatenate([maps for _, _, maps in parts], axis=1),
                 requires_grad=inp.requires_grad or any(kern.requires_grad for kern in kernels))
    starts = np.cumsum([0] + [kern.shape[0] for kern in kernels]).tolist()

    def bw(g: np.ndarray) -> None:
        def window(j: int) -> np.ndarray | None:
            """Kernel j's gradient, and its window's input-gradient block."""
            cols, k_flat, _ = parts[j]
            w = kernels[j].shape[2]
            gj = np.ascontiguousarray(g[:, starts[j]:starts[j + 1]])
            _accumulate_product(kernels[j], gj.T, cols)
            if not inp.requires_grad:
                return None
            dpad = np.zeros((c, n + w - 1, d))
            for ch in range(c) if inp.grad_channels is None else inp.grad_channels:
                contrib = (gj @ k_flat[:, ch * w * d:(ch + 1) * w * d]).reshape(n, w, d)
                for o in range(w):
                    dpad[ch, o:o + n, :] += contrib[:, o, :]
            return dpad[:, :n, :]

        blocks = _largest_first(window, range(len(kernels)), sizes)
        if inp.requires_grad:
            for block in reversed(blocks):
                _accumulate(inp, block)

    _record("conv_bank", (inp, *kernels), out, bw)
    return out


def lstm(x: Tensor, wx: Tensor, wh: Tensor, bias: Tensor,
         reverse: bool = False) -> Tensor:
    """One LSTM direction over an (n, f) sequence -> (n, hidden) states.

    Gates are laid out (input, forget, candidate, output) along the 4*hidden
    columns of ``wx`` (f, 4h), ``wh`` (h, 4h) and ``bias`` (4h,); the state
    starts at zero and runs from the last position to the first when
    ``reverse``. The input projection of all positions is one matmul; the
    backward is hand-written BPTT whose weight and input gradients are
    single matmuls over the stored pre-activation gradients.
    """
    _require_2d("lstm", x)
    _require_2d("lstm", wh)
    n, f = x.shape
    hidden = wh.shape[0]
    if wx.shape != (f, 4 * hidden) or wh.shape != (hidden, 4 * hidden) \
            or bias.shape != (4 * hidden,):
        raise DimensionError(
            f"lstm: weights {wx.shape}, {wh.shape}, bias {bias.shape} do not fit "
            f"input {x.shape} with hidden size {hidden}")
    h2, h3 = 2 * hidden, 3 * hidden
    steps = range(n - 1, -1, -1) if reverse else range(n)
    zx = x.data @ wx.data + bias.data
    gates = np.empty((n, 4 * hidden))       # activated i, f, g, o
    tanh_cells = np.empty((n, hidden))
    states = np.empty((n, hidden))
    prev_states = np.zeros((n, hidden))     # h entering each position
    prev_cells = np.zeros((n, hidden))
    h = np.zeros(hidden)
    cell = np.zeros(hidden)
    for t in steps:
        prev_states[t] = h
        prev_cells[t] = cell
        z = zx[t] + h @ wh.data
        a = gates[t]
        a[:] = _sigmoid(z)
        a[h2:h3] = np.tanh(z[h2:h3])
        cell = a[hidden:h2] * cell + a[:hidden] * a[h2:h3]
        tanh_cells[t] = np.tanh(cell)
        h = a[h3:] * tanh_cells[t]
        states[t] = h
    out = Tensor(states, requires_grad=x.requires_grad or wx.requires_grad
                 or wh.requires_grad or bias.requires_grad)

    def bw(g: np.ndarray) -> None:
        dz = np.empty((n, 4 * hidden))
        dh_next = np.zeros(hidden)
        dc_next = np.zeros(hidden)
        for t in reversed(steps):
            a = gates[t]
            gi, gf, gg, go = a[:hidden], a[hidden:h2], a[h2:h3], a[h3:]
            dh = g[t] + dh_next
            dc = dh * go * (1.0 - tanh_cells[t] * tanh_cells[t]) + dc_next
            d = dz[t]
            d[:hidden] = dc * gg * gi * (1.0 - gi)
            d[hidden:h2] = dc * prev_cells[t] * gf * (1.0 - gf)
            d[h2:h3] = dc * gi * (1.0 - gg * gg)
            d[h3:] = dh * tanh_cells[t] * go * (1.0 - go)
            dc_next = dc * gf
            dh_next = d @ wh.data.T
        _accumulate_product(wx, x.data.T, dz)
        _accumulate_product(wh, prev_states.T, dz)
        _accumulate(bias, dz.sum(axis=0))
        _accumulate_product(x, dz, wx.data.T)

    _record("lstm", (x, wx, wh, bias), out, bw)
    return out


def row(x: Tensor, i: int) -> Tensor:
    """Row i of an (n, k) matrix as a (1, k) tensor."""
    _require_2d("row", x)
    if not 0 <= i < x.shape[0]:
        raise DimensionError(f"row {i} out of range for shape {x.shape}")
    out = Tensor(x.data[i:i + 1, :], requires_grad=x.requires_grad)

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[i, :] = g[0]
        _accumulate(x, full)

    _record("row", (x,), out, bw)
    return out


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    _require_2d("slice_cols", x)
    if not 0 <= start < stop <= x.shape[1]:
        raise DimensionError(f"column slice [{start}:{stop}] invalid for shape {x.shape}")
    out = Tensor(x.data[:, start:stop], requires_grad=x.requires_grad)

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        _accumulate(x, full)

    _record("slice_cols", (x,), out, bw)
    return out


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Horizontal concatenation of (n, k_i) matrices."""
    if not parts:
        raise ContractError("concat_cols needs at least one tensor")
    n = parts[0].shape[0]
    for p in parts:
        _require_2d("concat_cols", p)
        if p.shape[0] != n:
            raise DimensionError(f"concat_cols: row counts differ, {p.shape[0]} vs {n}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1),
                 requires_grad=any(p.requires_grad for p in parts))
    widths = [p.shape[1] for p in parts]

    def bw(g: np.ndarray) -> None:
        at = 0
        for p, width in zip(parts, widths):
            _accumulate(p, g[:, at:at + width])
            at += width

    _record("concat_cols", tuple(parts), out, bw)
    return out


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack n tensors of shape (1, k) into an (n, k) matrix."""
    if not rows:
        raise ContractError("stack_rows needs at least one row")
    k = rows[0].shape[-1]
    for r in rows:
        if r.data.ndim != 2 or r.shape != (1, k):
            raise DimensionError(f"stack_rows expects (1, {k}) rows, got {r.shape}")
    out = Tensor(np.concatenate([r.data for r in rows], axis=0),
                 requires_grad=any(r.requires_grad for r in rows))

    def bw(g: np.ndarray) -> None:
        for i, r in enumerate(rows):
            _accumulate(r, g[i:i + 1, :])

    _record("stack_rows", tuple(rows), out, bw)
    return out


def stack_mats(mats: Sequence[Tensor]) -> Tensor:
    """Stack c matrices of shape (n, d) into a (c, n, d) block."""
    if not mats:
        raise ContractError("stack_mats needs at least one matrix")
    shape = mats[0].shape
    for m in mats:
        _require_2d("stack_mats", m)
        if m.shape != shape:
            raise DimensionError(f"stack_mats: shapes differ, {m.shape} vs {shape}")
    out = Tensor(np.stack([m.data for m in mats], axis=0),
                 requires_grad=any(m.requires_grad for m in mats))
    out.grad_channels = tuple(i for i, m in enumerate(mats) if m.requires_grad)

    def bw(g: np.ndarray) -> None:
        for i, m in enumerate(mats):
            _accumulate(m, g[i])

    _record("stack_mats", tuple(mats), out, bw)
    return out


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def sgd_step(parameters: Iterable[Tensor] | Mapping[str, Tensor], lr: float) -> None:
    """In-place p <- p - lr * grad for every parameter, one pool task per
    parameter, largest first; sets each ``grad`` to None and keeps its
    storage for the next ``backward``."""
    params = parameters.values() if isinstance(parameters, Mapping) else parameters
    params = list(params)
    for p in params:
        if p.grad is None:
            raise StateError("sgd_step: parameter has no gradient (run backward first)")
    if len({id(p) for p in params}) != len(params):
        raise ContractError("sgd_step: a parameter is listed twice")

    def update(p: Tensor) -> None:
        p.grad *= lr            # same bits as p.data -= lr * p.grad, no temporary
        p.data -= p.grad
        p.grad = None

    _largest_first(update, params, [p.size for p in params])
