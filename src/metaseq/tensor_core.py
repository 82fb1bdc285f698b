"""Dense float64 tensors with tape-recorded reverse-mode differentiation.

The operation set is deliberately small: exactly what a projection +
multi-window sequence convolution + BiLSTM + softmax classifier needs.
All arithmetic is 64-bit. There is no broadcasting beyond the explicit
``add_bias`` row op.

Tape recording is thread-local: each model instance runs its forward and
backward on one thread, while independent instances may run concurrently.
Inside one op, ``conv_bank``, ``conv_maps``, ``fold_kernels``, ``lstm``
and ``sgd_step`` share independent per-window, per-direction or
per-parameter jobs between the calling thread and a shared thread pool
(``pool_width``); the jobs record nothing, and their results are combined
in a fixed order, so the bits do not depend on the width.

Every op builds its output and its tape node with ``_node``: ``conv_bank``
and ``lstm`` through ``_pooled_node``, the joining ops through ``_joined``.
Training's ``conv_bank`` and scoring's ``conv_maps`` compute a window
alike (``_window_maps``): the channels' rows side by side times the
offset-major kernel, whose shifted offset blocks are then added; no window
matrix is built. ``conv_bank``'s (c, d, w, k) kernels reshape to that
kernel for free.

Gradient storage belongs to the tensor and lives across steps. The first
gradient a ``backward`` writes into a tensor lands in that storage (a
matrix product straight through ``np.matmul(..., out=)``), later ones in
the same pass are added with ``+=``. So a ``.grad`` array is valid until
the next ``backward`` into that tensor; ``sgd_step`` sets ``.grad`` to
None but keeps the storage for the next step, and ``release_gradients``
drops the storage too. A caller that keeps a gradient must copy it.
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

_TLS = threading.local()    # .tape: this thread's active tape, if any


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
    sorted by construction; ``backward`` replays it once, in reverse. A
    tape entered inside another records in its place until it exits.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._shadowed: Tape | None = None

    def __enter__(self) -> "Tape":
        self._shadowed, _TLS.tape = active_tape(), self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TLS.tape = self._shadowed


def active_tape() -> Tape | None:
    return getattr(_TLS, "tape", None)


def _node(op: str, inputs: tuple[Tensor, ...], value,
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """The output of ``op`` over ``inputs``: a tensor of ``value`` that
    requires a gradient when any input does. Under an active tape such an
    output is recorded with ``backward_fn``, which gets its gradient."""
    out = Tensor(value, requires_grad=any(t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.nodes.append(_Node(op, inputs, out, backward_fn))
    return out


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
    for p in parameters or ():
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


def usable_memory(cgroup_root: str = "/sys/fs/cgroup",
                  cgroups: str = "/proc/self/cgroup") -> tuple[int, str]:
    """Bytes of memory this process may use, and the bound that sets them:
    the machine's ``physical memory``, or ``the memory limit in <file>``,
    the lowest limit of the process's own cgroup and its ancestors where
    that is lower, v2 ``memory.max`` or v1 ``memory.limit_in_bytes``.
    A limit file that cannot be read, or that reads ``max``, sets none."""
    bound, source = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"
    try:
        with open(cgroups, encoding="utf-8") as fh:
            groups = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return bound, source
    for _, controllers, path in groups:
        if controllers == "":
            base, name = cgroup_root, "memory.max"
        elif "memory" in controllers.split(","):
            base, name = os.path.join(cgroup_root, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            limit_file = os.path.join(base, *parts[:depth], name)
            try:
                with open(limit_file, encoding="ascii") as fh:
                    limit = int(fh.read())
            except (OSError, ValueError):
                continue
            if limit < bound:
                bound, source = limit, f"the memory limit in {limit_file}"
    return bound, source


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

    def bw(g: np.ndarray) -> None:
        _accumulate_product(a, g, b.data.T)
        _accumulate_product(b, a.data.T, g)

    return _node("matmul", (a, b), a.data @ b.data, bw)


def transpose(x: Tensor) -> Tensor:
    _require_2d("transpose", x)
    return _node("transpose", (x,), x.data.T, lambda g: _accumulate(x, g.T))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.shape} vs {b.shape}")

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _node("add", (a, b), a.data + b.data, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes differ, {a.shape} vs {b.shape}")

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _node("mul", (a, b), a.data * b.data, bw)


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    """Add a length-k bias row to every row of an (n, k) matrix."""
    _require_2d("add_bias", m)
    if bias.data.ndim != 1 or bias.shape[0] != m.shape[1]:
        raise DimensionError(f"add_bias: bias {bias.shape} does not fit matrix {m.shape}")

    def bw(g: np.ndarray) -> None:
        _accumulate(m, g)
        _accumulate(bias, g.sum(axis=0))

    return _node("add_bias", (m, bias), m.data + bias.data[None, :], bw)


def tanh_act(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return _node("tanh", (x,), t, lambda g: _accumulate(x, g * (1.0 - t * t)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function that never exponentiates a positive number:
    1/(1+e) where z >= 0 and e/(1+e) elsewhere, with e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return _node("sigmoid", (x,), s, lambda g: _accumulate(x, g * s * (1.0 - s)))


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

    def bw(g: np.ndarray) -> None:
        inner = (g * p).sum(axis=-1, keepdims=True)
        _accumulate(logits, p * (g - inner))

    return _node("softmax", (logits,), p, bw)


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

    def bw(g: np.ndarray) -> None:
        dp = np.zeros_like(probs.data)
        live = picked >= PROB_FLOOR  # inside the clamp the log is flat
        rows = np.arange(n)[live]
        dp[rows, y[live]] = -w[y[live]] / picked[live] * float(g)
        _accumulate(probs, dp)

    return _node("weighted_cross_entropy", (probs,), loss, bw)


def dropout(x: Tensor, rate: float, rng: RngStream | None, training: bool) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.uniform(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    out = _node("dropout", (x,), x.data * keep, lambda g: _accumulate(x, g * keep))
    out.grad_channels = x.grad_channels
    return out


def _window_maps(x: np.ndarray, kernel: np.ndarray, w: int) -> np.ndarray:
    """The (n, k) maps of one window over the (n, sum of d_c) rows ``x``,
    with the offset-major (sum of d_c, w * k) ``kernel``: y = x @ kernel,
    then map row i adds y's offset-o column block at row i + o, and a row
    past the sentence's end adds nothing. No window matrix is built."""
    n = x.shape[0]
    y = x @ kernel
    k = y.shape[1] // w
    out = y[:, :k].copy()
    for o in range(1, min(w, n)):
        out[:n - o] += y[o:, o * k:(o + 1) * k]
    return out


def _check_length(n: int) -> None:
    if n < 1:
        raise WindowError(f"conv_bank: no window fits a padded sequence of length {n}")


def _pooled_node(op: str, x: Tensor, weights: Sequence[Tensor], jobs: Sequence,
                 sizes: Sequence[int], forward: Callable, backward: Callable) -> Tensor:
    """One tape node over ``(x, *weights)`` whose independent jobs are one
    pool task each, forward and backward, largest ``sizes`` first.

    ``forward(job)`` returns the job's (n, k_j) output block and what its
    backward reads; the output is the blocks side by side, in job order.
    ``backward(job, saved, g)`` gets the latter and the job's columns of the
    output gradient, accumulates the job's own weight gradients and returns
    its block of ``x``'s gradient, or None. The blocks are added into ``x``
    last job first, the order in which one node per job would replay, so
    the bits do not depend on the pool width. A weight given twice is a
    ContractError: two jobs would write one gradient storage at once.
    """
    if len({id(t) for t in weights}) != len(weights):
        raise ContractError(f"{op}: a weight tensor is given twice")
    parts = _largest_first(forward, jobs, sizes)
    starts = np.cumsum([0] + [block.shape[1] for block, _ in parts]).tolist()

    def bw(g: np.ndarray) -> None:
        blocks = _largest_first(
            lambda j: backward(jobs[j], parts[j][1], g[:, starts[j]:starts[j + 1]]),
            range(len(jobs)), sizes)
        if x.requires_grad:
            for block in reversed(blocks):
                _accumulate(x, block)

    return _node(op, (x, *weights), np.concatenate([block for block, _ in parts], axis=1), bw)


def conv_bank(inp: Tensor, kernels: Sequence[Tensor]) -> Tensor:
    """The feature maps of every window size: (c, d, w_j, k_j) kernels ->
    (n, sum of k_j), kernel j's maps in its own columns, in the given order.

    Position i of map k of window j is the full sum over channels, window
    offsets and embedding dimensions of input[c, i+o, d] * kernels[j][c, d, o, k],
    with the (c, n, d) input zero-padded at the end so every position yields
    a value. A kernel's free reshape to (c * d, w * k) is ``conv_maps``'
    offset-major matrix: the (c, n, d) input is joined once as x, (n, c * d),
    and each window is ``conv_maps``' product and shifted adds, one job of a
    ``_pooled_node``. Backward, G_s is the (n, w * k) map gradient whose
    offset-o column block is shifted down by o rows; the kernel gradient is
    x.T @ G_s, and the input gradient is computed for ``inp.grad_channels``
    only, G_s times each such channel's kernel rows; the other channels get
    zeros.
    """
    if inp.data.ndim != 3:
        raise DimensionError("conv_bank expects a (channel, position, dim) input")
    if not kernels:
        raise ContractError("conv_bank needs at least one kernel tensor")
    c, n, d = inp.shape
    for kern in kernels:
        if kern.data.ndim != 4:
            raise DimensionError(f"conv_bank expects (c, d, w, k) kernels, got {kern.shape}")
        kc, kd, w, _ = kern.shape
        if (kc, kd) != (c, d):
            raise DimensionError(f"conv_bank: window {w}: kernel channels/dim {(kc, kd)} "
                                 f"do not match input {(c, d)}")
        if w < 1:
            raise WindowError(f"conv_bank: window must be >= 1, got {w}")
    _check_length(n)
    x = inp.data.transpose(1, 0, 2).reshape(n, c * d)

    def forward(kern: Tensor) -> tuple[np.ndarray, None]:
        w, k = kern.shape[2:]
        return _window_maps(x, kern.data.reshape(c * d, w * k), w), None

    def backward(kern: Tensor, _, g: np.ndarray) -> np.ndarray | None:
        w, k = kern.shape[2:]
        g_s = np.zeros((n, w * k))
        for o in range(min(w, n)):      # offset o's rows past the end add nothing
            g_s[o:, o * k:(o + 1) * k] = g[:n - o]
        _accumulate_product(kern, x.T, g_s)
        if not inp.requires_grad:
            return None
        rows = kern.data.reshape(c, d, w * k)
        dx = np.zeros((c, n, d))
        for ch in range(c) if inp.grad_channels is None else inp.grad_channels:
            np.matmul(g_s, rows[ch].T, out=dx[ch])
        return dx

    return _pooled_node("conv_bank", inp, kernels, kernels, [kern.size for kern in kernels],
                        forward, backward)


def conv_maps(x: np.ndarray, kernels: Sequence[np.ndarray],
              windows: Sequence[int]) -> np.ndarray:
    """``conv_bank``'s forward on no tape, over the (n, sum of d_c) rows
    ``x`` of every channel side by side, whose widths may differ. Kernel j
    is ``fold_kernels``' offset-major (sum of d_c, w_j * k_j) matrix, and
    window j is one pool task of ``_window_maps``."""
    _check_length(x.shape[0])
    maps = _largest_first(lambda j: _window_maps(x, kernels[j], windows[j]),
                          range(len(kernels)), [kern.size for kern in kernels])
    return np.concatenate(maps, axis=1)


def fold_kernels(kernels: Sequence[np.ndarray],
                 linear: Mapping[int, np.ndarray]) -> list[np.ndarray]:
    """``conv_maps`` kernels for (c, d, w, k) conv kernels whose input
    channel ch is ``x @ linear[ch]``, a (d_ch, d) map of an (n, d_ch)
    matrix x; every other channel is taken as it is. A kernel's free
    reshape to (c * d, w * k) is offset-major: row block c holds channel
    c's input dimensions and column o * k + kk offset o of kernel kk. Each
    window's kernel is a (sum of d_c, w * k) copy of those rows, a mapped
    channel's block the one product ``linear[ch] @ K[ch]``, and each window
    is one pool task."""

    def fold(kern: np.ndarray) -> np.ndarray:
        c, d, w, k = kern.shape
        blocks = kern.reshape(c, d, w * k)
        return np.concatenate([linear[ch] @ blocks[ch] if ch in linear else blocks[ch]
                               for ch in range(c)])

    return _largest_first(fold, kernels, [kern.size for kern in kernels])


def _lstm_forward(x: np.ndarray, wx: np.ndarray, wh: np.ndarray, bias: np.ndarray,
                  reverse: bool) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """One direction's recurrence: its (n, hidden) states, and the states
    and cells entering each step, activated gates and cell tanh that its
    BPTT reads. States and cells are stored once, (n + 1, hidden) each: row
    t + 1 leaves step t and row t enters it, or the reverse when
    ``reverse``, and the extra zero row enters the first step."""
    n, hidden = x.shape[0], wh.shape[0]
    h2, h3 = 2 * hidden, 3 * hidden
    zx = x @ wx + bias
    gates = np.empty((n, 4 * hidden))       # activated i, f, g, o
    tanh_cells = np.empty((n, hidden))
    (h, h_in), (cell, cell_in) = ((rows[:-1], rows[1:]) if reverse else (rows[1:], rows[:-1])
                                  for rows in np.zeros((2, n + 1, hidden)))
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        z = zx[t] + h_in[t] @ wh
        a = gates[t]
        a[:] = _sigmoid(z)
        a[h2:h3] = np.tanh(z[h2:h3])
        cell[t] = a[hidden:h2] * cell_in[t] + a[:hidden] * a[h2:h3]
        tanh_cells[t] = np.tanh(cell[t])
        h[t] = a[h3:] * tanh_cells[t]
    return h, (h_in, cell_in, gates, tanh_cells)


def _lstm_backward(g: np.ndarray, wh: np.ndarray, reverse: bool, gates: np.ndarray,
                   tanh_cells: np.ndarray, cell_in: np.ndarray) -> np.ndarray:
    """One direction's BPTT: the (n, 4 hidden) pre-activation gradients
    for the (n, hidden) state gradient ``g``; ``cell_in`` holds the cells
    entering each step."""
    n, hidden = g.shape
    h2, h3 = 2 * hidden, 3 * hidden
    dz = np.empty((n, 4 * hidden))
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in (range(n) if reverse else range(n - 1, -1, -1)):
        a = gates[t]
        gi, gf, gg, go = a[:hidden], a[hidden:h2], a[h2:h3], a[h3:]
        dh = g[t] + dh_next
        dc = dh * go * (1.0 - tanh_cells[t] * tanh_cells[t]) + dc_next
        d = dz[t]
        d[:hidden] = dc * gg * gi * (1.0 - gi)
        d[hidden:h2] = dc * cell_in[t] * gf * (1.0 - gf)
        d[h2:h3] = dc * gi * (1.0 - gg * gg)
        d[h3:] = dh * tanh_cells[t] * go * (1.0 - go)
        dc_next = dc * gf
        dh_next = d @ wh.T
    return dz


def lstm(x: Tensor, directions: Sequence[tuple[Tensor, Tensor, Tensor, bool]]) -> Tensor:
    """LSTM directions over one (n, f) sequence -> (n, sum of hidden_j):
    direction j's states in its own columns, in the given order.

    A direction is ``(wx, wh, bias, reverse)``. Gates are laid out (input,
    forget, candidate, output) along the 4*hidden columns of ``wx`` (f, 4h),
    ``wh`` (h, 4h) and ``bias`` (4h,); the state starts at zero and runs
    from the last position to the first when ``reverse``. The input
    projection of all positions is one matmul; the backward is hand-written
    BPTT whose weight and input gradients are single matmuls over the
    stored pre-activation gradients. Each direction is one job of a
    ``_pooled_node``.
    """
    _require_2d("lstm", x)
    if not directions:
        raise ContractError("lstm needs at least one direction")
    n, f = x.shape
    for j, (wx, wh, bias, _) in enumerate(directions):
        _require_2d("lstm", wh)
        hidden = wh.shape[0]
        if wx.shape != (f, 4 * hidden) or wh.shape != (hidden, 4 * hidden) \
                or bias.shape != (4 * hidden,):
            raise DimensionError(
                f"lstm: direction {j}: weights {wx.shape}, {wh.shape}, bias {bias.shape} "
                f"do not fit input {x.shape} with hidden size {hidden}")

    def backward(direction: tuple, saved: tuple, g: np.ndarray) -> np.ndarray | None:
        wx, wh, bias, reverse = direction
        h_in, cell_in, gates, tanh_cells = saved
        dz = _lstm_backward(g, wh.data, reverse, gates, tanh_cells, cell_in)
        _accumulate_product(wx, x.data.T, dz)
        _accumulate_product(wh, h_in.T, dz)
        _accumulate(bias, dz.sum(axis=0))
        return dz @ wx.data.T if x.requires_grad else None

    return _pooled_node(
        "lstm", x, [t for wx, wh, bias, _ in directions for t in (wx, wh, bias)], directions,
        [wx.size + wh.size for wx, wh, _, _ in directions],
        lambda d: _lstm_forward(x.data, d[0].data, d[1].data, d[2].data, d[3]), backward)


def row(x: Tensor, i: int) -> Tensor:
    """Row i of an (n, k) matrix as a (1, k) tensor."""
    _require_2d("row", x)
    if not 0 <= i < x.shape[0]:
        raise DimensionError(f"row {i} out of range for shape {x.shape}")

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[i, :] = g[0]
        _accumulate(x, full)

    return _node("row", (x,), x.data[i:i + 1, :], bw)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    _require_2d("slice_cols", x)
    if not 0 <= start < stop <= x.shape[1]:
        raise DimensionError(f"column slice [{start}:{stop}] invalid for shape {x.shape}")

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        _accumulate(x, full)

    return _node("slice_cols", (x,), x.data[:, start:stop], bw)


def _joined(op: str, parts: Sequence[Tensor], value: np.ndarray, at: Sequence) -> Tensor:
    """The ``op`` node that joins ``parts`` into ``value``, where part i is
    ``value[at[i]]``; its backward hands part i the gradient ``g[at[i]]``."""

    def bw(g: np.ndarray) -> None:
        for p, index in zip(parts, at):
            _accumulate(p, g[index])

    return _node(op, tuple(parts), value, bw)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Horizontal concatenation of (n, k_i) matrices."""
    if not parts:
        raise ContractError("concat_cols needs at least one tensor")
    n = parts[0].shape[0]
    for p in parts:
        _require_2d("concat_cols", p)
        if p.shape[0] != n:
            raise DimensionError(f"concat_cols: row counts differ, {p.shape[0]} vs {n}")
    stops = np.cumsum([p.shape[1] for p in parts]).tolist()
    return _joined("concat_cols", parts, np.concatenate([p.data for p in parts], axis=1),
                   [(slice(None), slice(stop - p.shape[1], stop)) for p, stop in zip(parts, stops)])


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack n tensors of shape (1, k) into an (n, k) matrix."""
    if not rows:
        raise ContractError("stack_rows needs at least one row")
    k = rows[0].shape[-1]
    for r in rows:
        if r.data.ndim != 2 or r.shape != (1, k):
            raise DimensionError(f"stack_rows expects (1, {k}) rows, got {r.shape}")
    return _joined("stack_rows", rows, np.concatenate([r.data for r in rows], axis=0),
                   [slice(i, i + 1) for i in range(len(rows))])


def stack_mats(mats: Sequence[Tensor]) -> Tensor:
    """Stack c matrices of shape (n, d) into a (c, n, d) block."""
    if not mats:
        raise ContractError("stack_mats needs at least one matrix")
    shape = mats[0].shape
    for m in mats:
        _require_2d("stack_mats", m)
        if m.shape != shape:
            raise DimensionError(f"stack_mats: shapes differ, {m.shape} vs {shape}")
    out = _joined("stack_mats", mats, np.stack([m.data for m in mats], axis=0), range(len(mats)))
    out.grad_channels = tuple(i for i, m in enumerate(mats) if m.requires_grad)
    return out


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def sgd_step(parameters: Iterable[Tensor] | Mapping[str, Tensor], lr: float) -> None:
    """In-place p <- p - lr * grad for every parameter, one pool task per
    parameter, largest first; sets each ``grad`` to None and keeps its
    storage for the next ``backward``."""
    params = list(parameters.values() if isinstance(parameters, Mapping) else parameters)
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


def release_gradients(parameters: Iterable[Tensor]) -> None:
    """Drop each parameter's gradient and its storage: they hold no memory
    until the next ``backward`` makes the storage afresh."""
    for p in parameters:
        p.grad = None
        p._grad_store = None
