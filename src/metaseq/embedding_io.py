"""Embedding loaders and the multi-channel input block.

Static vectors arrive as whitespace text (one token per line); contextual
per-layer vectors arrive as little-endian binary files. Channel matrices
for one sentence are stacked, in the configured channel order, into a
(channel, position, dimension) block.
"""

from __future__ import annotations

import os
import struct
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import AbstractSet, BinaryIO, Mapping

import numpy as np

from . import tensor_core as tc
from .errors import (
    AlignmentError,
    CompatibilityError,
    DimensionError,
    FormatError,
    ParseError,
    TruncatedError,
    open_text,
)

CONTEXTUAL_MAGIC = b"CEMB"
CONTEXTUAL_VERSION = 1


# ---------------------------------------------------------------------------
# Static word vectors
# ---------------------------------------------------------------------------

class StaticEmbeddingTable:
    """Token -> fixed-width vector map over one (V, d) matrix; absent
    tokens read as zeros."""

    def __init__(self, rows: dict[str, int], matrix: np.ndarray):
        self.rows = rows
        self.matrix = matrix
        self.dimension = matrix.shape[1]
        self._zero = np.zeros(self.dimension)

    def __contains__(self, token: str) -> bool:
        return token in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def vector(self, token: str) -> np.ndarray:
        row = self.rows.get(token)
        return self._zero if row is None else self.matrix[row]


# Lines handed to one np.loadtxt call: enough to amortise its set-up, few
# enough that one chunk's floats stay under 10 MB at d = 300.
GLOVE_CHUNK_LINES = 4096
# The fewest bytes a range of the vector file is given. A fork costs a few
# milliseconds and 4 MiB parses in about 60 ms, so a range this size pays
# for its process; a file smaller than two of them is parsed in one range.
GLOVE_RANGE_BYTES = 4 << 20


def _parse_vectors(values: list[str]) -> np.ndarray:
    """The `v1 ... vd` parts of vector lines, by numpy's C float parser."""
    return np.loadtxt(values, delimiter=" ", comments=None, dtype=np.float64, ndmin=2)


def _check_widths(path, lines: list[str], linenos: list[int], dimension: int) -> None:
    """A ParseError naming the first line that does not hold ``dimension``
    space-separated values, or whose one value is empty."""
    for line, lineno in zip(lines, linenos):
        width = line.count(" ")
        if width != dimension:
            raise ParseError(
                f"{path}: line {lineno}: expected {dimension} values, got {width}")
        if not line.partition(" ")[2]:  # `token ` with d = 1; loadtxt would skip, not reject, it
            raise ParseError(f"{path}: line {lineno}: non-numeric field (empty value)")


def _checked_vectors(path, lines: list[str], values: list[str], linenos: list[int],
                     dimension: int) -> np.ndarray:
    """The chunk's vectors, ``dimension`` finite floats per line; else a
    ParseError naming the first line of a wrong width, or failing that the
    first line with a value that is not a finite float."""
    try:
        # loadtxt splits a field at every space and rejects ragged rows, so
        # this shape means every line's width is ``dimension``. It would
        # skip an empty string, so a chunk with one is checked line by line.
        if "" not in values:
            block = _parse_vectors(values)
            if block.shape == (len(values), dimension) and np.isfinite(block).all():
                return block
    except ValueError:
        pass
    _check_widths(path, lines, linenos, dimension)
    rows = []
    for text, lineno in zip(values, linenos):
        try:
            row = _parse_vectors([text])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: non-numeric field ({exc})") from None
        if not np.isfinite(row).all():
            raise ParseError(f"{path}: line {lineno}: non-finite value")
        rows.append(row)
    return np.concatenate(rows)


def _parse_range(path, start: int, stop: int | None, words: AbstractSet[str]
                 ) -> tuple[int, dict[str, int], np.ndarray]:
    """The lines in bytes ``[start, stop)`` of the vector file: their
    dimension, fixed by the first non-empty line, and the first occurrence
    of each token in ``words`` with its row of the matrix of their vectors.

    Every line is checked, ``GLOVE_CHUNK_LINES`` at a time: a chunk's
    widths first, then its values. Line numbers in errors count from
    ``start``.
    """
    rows: dict[str, int] = {}
    blocks: list[np.ndarray] = []
    lines: list[str] = []
    linenos: list[int] = []
    dimension = None

    def keep_chunk() -> None:
        parts = [line.partition(" ") for line in lines]
        block = _checked_vectors(path, lines, [text for _, _, text in parts], linenos,
                                 dimension)
        take = []
        for i, (token, _, _) in enumerate(parts):
            if token in words and token not in rows:
                rows[token] = len(rows)
                take.append(i)
        if take:
            blocks.append(block[take])
        lines.clear()
        linenos.clear()

    with open_text(path, start, stop) as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line:
                    continue
                if dimension is None:
                    if " " not in line:
                        raise ParseError(f"{path}: line {lineno}: no vector values")
                    dimension = line.count(" ")
                lines.append(line)
                linenos.append(lineno)
                if len(lines) == GLOVE_CHUNK_LINES:
                    keep_chunk()
        except UnicodeDecodeError:
            # Widths are checked as far as the text could be read.
            _check_widths(path, lines, linenos, dimension)
            raise
    if dimension is None:
        raise ParseError(f"{path}: empty embedding file")
    if lines:
        keep_chunk()
    matrix = np.concatenate(blocks) if blocks else np.zeros((0, dimension))
    return dimension, rows, matrix


def _byte_ranges(path) -> list[tuple[int, int | None]]:
    """``[start, stop)`` byte ranges that cover the file in order, each but
    the last ending just after a newline and the last at the file's end
    (None). There is one per usable CPU, but no more than the file holds
    ``GLOVE_RANGE_BYTES``, when this process can fork safely, which needs
    ``os.fork`` and no second Python thread (a child would hold only a copy
    of the caller's); else one."""
    size = os.stat(path).st_size
    count = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        count = max(1, min(tc.usable_cpus(), size // GLOVE_RANGE_BYTES))
    starts = [0]
    if count > 1:
        with open(path, "rb") as fh:
            for k in range(1, count):
                fh.seek(max(size * k // count - 1, starts[-1]))
                fh.readline()
                if fh.tell() >= size:
                    break
                starts.append(fh.tell())
    return list(zip(starts, starts[1:] + [None]))


_pool_load: tuple = ()     # a pool worker's (path, words), set by its initializer


def _start_pool_load(path, words: AbstractSet[str]) -> None:
    global _pool_load
    _pool_load = path, words


def _parse_pool_range(start: int, stop: int | None) -> tuple[int, dict[str, int], np.ndarray]:
    path, words = _pool_load
    return _parse_range(path, start, stop, words)


def load_static_text(path, words: AbstractSet[str]) -> StaticEmbeddingTable:
    """Parse `token v1 ... vd` lines; the first non-empty line fixes the
    dimension.

    Every line is checked for its width and for finite float values, in
    chunks of ``GLOVE_CHUNK_LINES``; only the first occurrence of each
    token in ``words`` is kept. A large file is parsed in the byte ranges of
    ``_byte_ranges``: the first here, each other on a forked process pool
    whose workers get ``path`` and ``words`` once, from its initializer. No
    worker outlives the call. If any range fails, a worker dies or cannot be
    forked, or the ranges' dimensions differ, the running workers are waited
    for and the whole file is parsed here as one range, whose table or error
    is the answer.
    """
    ranges, parts = _byte_ranges(path), None
    if len(ranges) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import active_children, get_context
        try:
            with ProcessPoolExecutor(len(ranges) - 1, mp_context=get_context("fork"),
                                     initializer=_start_pool_load, initargs=(path, words)) as pool:
                later = [pool.submit(_parse_pool_range, *r) for r in ranges[1:]]
                parts = [_parse_range(path, *ranges[0], words), *(f.result() for f in later)]
        except Exception:   # whatever failed, the one-range parse below answers
            parts = None
            for worker in active_children():    # forked before a later fork failed
                worker.kill()
                worker.join()
    if parts is None or any(dimension != parts[0][0] for dimension, _, _ in parts):
        parts = [_parse_range(path, 0, None, words)]
    rows, blocks = {}, []
    for _, part_rows, part in parts:    # in file order, so the first occurrence wins
        take = []
        for token, i in part_rows.items():
            if token not in rows:
                rows[token] = len(rows)
                take.append(i)
        blocks.append(part if len(take) == len(part) else part[take])
    return StaticEmbeddingTable(rows, np.concatenate(blocks) if len(blocks) > 1 else blocks[0])


# ---------------------------------------------------------------------------
# Contextual layer files
# ---------------------------------------------------------------------------

@dataclass
class ContextualLayerFile:
    """One layer file checked by ``load_contextual``, which alone builds it:
    its identity (device, inode, size, modification and change times) and
    each dataset sentence's payload offset and token count, but no rows.
    ``rows(i)`` reads sentence i's float32 (tokens, dim) matrix; ``gather``
    and ``all_rows`` read each record they need once through it. Every read
    checks the identity, then the record's size and values: a difference
    is a FormatError naming the file and sentence. A write moves the change
    time, which ``os.utime`` cannot set back, so a rewrite that keeps the
    size and restores the modification time is seen too. So is a change of
    the file's metadata alone (permissions, owner, links, extended
    attributes), which moves the change time as well. On a file system
    with coarse timestamps, a same-size rewrite of finite values within one
    tick of the check is not.
    """

    path: object
    layer_index: int
    dimension: int
    offsets: np.ndarray       # int64 byte offset of each sentence's payload
    token_counts: np.ndarray  # its token count, so all_rows need not read
    identity: tuple

    def rows(self, index: int) -> np.ndarray:
        """Dataset sentence ``index``'s rows, fresh memory on each call;
        IndexError outside 0..N-1."""
        if not 0 <= index < len(self.offsets):
            raise IndexError(f"{self.path}: no sentence {index}")
        rows = np.empty((int(self.token_counts[index]), self.dimension), dtype="<f4")
        fd = os.open(self.path, os.O_RDONLY)
        try:
            if _identity(os.fstat(fd)) != self.identity:
                raise FormatError(f"{self.path}: sentence {index}: file changed "
                                  f"since it was checked")
            got = os.preadv(fd, [rows], int(self.offsets[index]))
        finally:
            os.close(fd)
        if got != rows.nbytes:
            raise TruncatedError(f"{self.path}: sentence {index}: file ended while "
                                 f"reading its payload")
        if not np.isfinite(rows).all():
            raise FormatError(f"{self.path}: sentence {index}: non-finite value")
        return rows

    def gather(self, positions: Sequence[tuple[int, int]]) -> np.ndarray:
        """The float64 rows at ``(sentence, token)`` positions, as one
        (len(positions), dim) array in their order; each sentence's record
        is read once, one alive at a time."""
        out = np.empty((len(positions), self.dimension))
        slots: dict[int, list[int]] = {}   # sentence -> the positions that name it
        for slot, (sentence, _) in enumerate(positions):
            slots.setdefault(sentence, []).append(slot)
        for sentence, taken in slots.items():
            out[taken] = self.rows(sentence)[[positions[k][1] for k in taken]]
        return out

    def all_rows(self) -> np.ndarray:
        """Every token vector, sentences in dataset order, as one (N, dim)
        float64 array, filled one sentence at a time."""
        out = np.empty((int(self.token_counts.sum()), self.dimension))
        start = 0
        for index, count in enumerate(self.token_counts):
            out[start:start + count] = self.rows(index)
            start += count
        return out


def _identity(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes; a claim beyond the file's end fails
    before any read, so a hostile header cannot size an allocation."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise TruncatedError(f"{fh.name}: file ended while reading {what}: "
                             f"{count} bytes declared, {left} left")
    data = fh.read(count)
    if len(data) != count:
        raise TruncatedError(f"{fh.name}: file ended while reading {what}")
    return data


def load_contextual(path, sentences: Sequence, dimension: int | None = None
                    ) -> ContextualLayerFile:
    """Check a contextual layer file that must hold exactly sentences 0..N-1
    of the dataset ``sentences``, one row per token, of ``dimension`` values
    when one is given (checked at the header), in one streaming pass. Each
    record's index and row count are checked before its payload is read,
    its size and values after; a sentence the file lacks is reported once
    every record has been read.

    No row is kept: the layer reads them when used, so the file costs
    O(sentences) memory, not O(tokens)."""
    offsets = np.full(len(sentences), -1, dtype=np.int64)
    tokens_of = np.zeros(len(sentences), dtype=np.int64)
    with open(path, "rb") as fh:
        identity = _identity(os.fstat(fh.fileno()))
        magic = _read_exact(fh, 4, "magic")
        if magic != CONTEXTUAL_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {CONTEXTUAL_MAGIC!r}")
        version, layer_index, width, count = struct.unpack(
            "<IIII", _read_exact(fh, 16, "header"))
        if version != CONTEXTUAL_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if width < 1:
            raise FormatError(f"{path}: non-positive dimension {width}")
        if dimension is not None and width != dimension:
            raise CompatibilityError(f"{path}: layer dimension {width} != configured "
                                     f"unified dimension {dimension}")
        for _ in range(count):
            idx, tokens = struct.unpack("<II", _read_exact(fh, 8, "sentence header"))
            if idx >= len(sentences):
                raise AlignmentError(f"{path}: sentence {idx}: {tokens} rows, "
                                     f"but the dataset has {len(sentences)} sentences")
            if offsets[idx] >= 0:
                raise FormatError(f"{path}: duplicate sentence index {idx}")
            sentence = sentences[idx]
            if tokens != len(sentence.tokens):
                raise AlignmentError(f"{path}: sentence {idx} ({sentence.sentence_id}): "
                                     f"{tokens} rows for {len(sentence.tokens)} tokens")
            offsets[idx] = fh.tell()
            tokens_of[idx] = tokens
            payload = _read_exact(fh, 4 * tokens * width, f"sentence {idx} payload")
            if not np.isfinite(np.frombuffer(payload, dtype="<f4")).all():
                raise FormatError(f"{path}: sentence {idx}: non-finite value")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after declared sentences")
    missing = np.flatnonzero(offsets < 0)
    if missing.size:
        idx = int(missing[0])
        sentence = sentences[idx]
        raise AlignmentError(f"{path}: sentence {idx} ({sentence.sentence_id}): "
                             f"no rows for {len(sentence.tokens)} tokens")
    return ContextualLayerFile(path, layer_index, width, offsets, tokens_of, identity)


# ---------------------------------------------------------------------------
# Channel assembly
# ---------------------------------------------------------------------------

def stack_channels(tensors: Sequence[tc.Tensor]) -> tc.Tensor:
    """Stack the model's checked per-channel (length, dim) tensors, in
    channel order, into one (channel, length, dim) tensor."""
    return tc.stack_mats(tensors)


class ChannelProvider:
    """Builds raw per-channel matrices for one sentence.

    The static channel "G" yields rows of static vectors, optionally
    extended with PoS one-hots and abstractness scores; the projection to
    the unified dimension happens inside the model, where its weights are
    trainable. Contextual channels come straight from layer files, indexed
    by the sentence's position in the dataset.
    """

    def __init__(self, order: Sequence[str],
                 static_table: StaticEmbeddingTable | None = None,
                 layer_files: Mapping[str, ContextualLayerFile] | None = None,
                 pos_vocab=None, abstractness_scorer=None):
        self.order = tuple(order)
        self.static_table = static_table
        self.layer_files = dict(layer_files or {})
        self.pos_vocab = pos_vocab
        self.abstractness_scorer = abstractness_scorer
        for name in self.order:
            if name == "G":
                if static_table is None:
                    raise DimensionError("channel G requested but no static table given")
            elif name not in self.layer_files:
                raise DimensionError(f"channel {name} requested but no layer file given")

    def _static_row(self, token) -> np.ndarray:
        """Static vector, then PoS one-hot, then ``[score]``, for the parts
        that are configured."""
        parts = [np.asarray(self.static_table.vector(token.text), dtype=np.float64)]
        if self.pos_vocab is not None:
            parts.append(self.pos_vocab.one_hot(token.pos))
        if self.abstractness_scorer is not None:
            parts.append([self.abstractness_scorer.score(token.text)])
        return np.concatenate(parts)

    def channels(self, sentence, index: int) -> dict[str, np.ndarray]:
        """The channel matrices of dataset sentence ``index``; the layer files
        were read against the same dataset by ``load_contextual``."""
        out: dict[str, np.ndarray] = {}
        for name in self.order:
            if name == "G":
                out[name] = np.stack([self._static_row(t) for t in sentence.tokens])
            else:
                out[name] = self.layer_files[name].rows(index).astype(np.float64)
        return out
