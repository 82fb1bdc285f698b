"""Embedding loaders and the multi-channel input block.

Static vectors arrive as whitespace text (one token per line); contextual
per-layer vectors arrive as little-endian binary files. Channel matrices
for one sentence are stacked, in the configured channel order, into a
(channel, position, dimension) block.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import AbstractSet, BinaryIO, Mapping, Sequence

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


def _parse_vectors(values: list[str]) -> np.ndarray:
    """The `v1 ... vd` parts of vector lines, by numpy's C float parser."""
    return np.loadtxt(values, delimiter=" ", comments=None, dtype=np.float64, ndmin=2)


def _checked_vectors(path, values: list[str], linenos: list[int]) -> np.ndarray:
    """The chunk's vectors; if any value is not a finite float, a
    ParseError naming the first bad line, found by parsing line by line."""
    try:
        block = _parse_vectors(values)
        if np.isfinite(block).all():
            return block
    except ValueError:
        pass
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


def load_static_text(path, words: AbstractSet[str]) -> StaticEmbeddingTable:
    """Parse `token v1 ... vd` lines; the first line fixes the dimension.

    Every line is checked for its width and for finite float values, in
    chunks of ``GLOVE_CHUNK_LINES``; only the first occurrence of each
    token in ``words`` is kept.
    """
    rows: dict[str, int] = {}
    blocks: list[np.ndarray] = []
    tokens: list[str] = []
    values: list[str] = []
    linenos: list[int] = []
    dimension = None

    def keep_chunk() -> None:
        block = _checked_vectors(path, values, linenos)
        take = []
        for i, token in enumerate(tokens):
            if token in words and token not in rows:
                rows[token] = len(rows)
                take.append(i)
        if take:
            blocks.append(block[take])
        tokens.clear()
        values.clear()
        linenos.clear()

    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            width = line.count(" ")
            if dimension is None:
                if not width:
                    raise ParseError(f"{path}: line {lineno}: no vector values")
                dimension = width
            if width != dimension:
                raise ParseError(
                    f"{path}: line {lineno}: expected {dimension} values, got {width}")
            token, _, text = line.partition(" ")
            if not text:  # `token ` with d = 1; loadtxt would skip, not reject, it
                raise ParseError(f"{path}: line {lineno}: non-numeric field (empty value)")
            tokens.append(token)
            values.append(text)
            linenos.append(lineno)
            if len(values) == GLOVE_CHUNK_LINES:
                keep_chunk()
    if dimension is None:
        raise ParseError(f"{path}: empty embedding file")
    if values:
        keep_chunk()
    matrix = np.concatenate(blocks) if blocks else np.zeros((0, dimension))
    return StaticEmbeddingTable(rows, matrix)


# ---------------------------------------------------------------------------
# Contextual layer files
# ---------------------------------------------------------------------------

@dataclass
class ContextualLayerFile:
    """Per-sentence token vectors extracted from one layer of a frozen encoder."""

    layer_index: int
    dimension: int
    sentences: list[np.ndarray]  # float32 (tokens, dim) per dataset sentence, in order

    def all_rows(self) -> np.ndarray:
        """Every token vector, sentences in dataset order, as one (N, dim) array."""
        if not self.sentences:
            return np.zeros((0, self.dimension))
        return np.concatenate(self.sentences, axis=0).astype(np.float64)


def write_contextual(path, layer_index: int, dimension: int,
                     sentences: Mapping[int, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(CONTEXTUAL_MAGIC)
        fh.write(struct.pack("<IIII", CONTEXTUAL_VERSION, layer_index,
                             dimension, len(sentences)))
        for idx in sorted(sentences):
            mat = np.ascontiguousarray(sentences[idx], dtype="<f4")
            if mat.ndim != 2 or mat.shape[1] != dimension:
                raise DimensionError(
                    f"sentence {idx}: expected (tokens, {dimension}), got {mat.shape}")
            fh.write(struct.pack("<II", idx, mat.shape[0]))
            fh.write(mat.tobytes())


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
    """Read a contextual layer file that must hold exactly sentences 0..N-1 of
    the dataset ``sentences``, one row per token, of ``dimension`` values
    when one is given (checked at the header). Each record's index and row
    count are checked before its payload is read, its size and values after;
    a sentence the file lacks is reported once every record has been read."""
    with open(path, "rb") as fh:
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
        rows: list[np.ndarray | None] = [None] * len(sentences)
        for _ in range(count):
            idx, tokens = struct.unpack("<II", _read_exact(fh, 8, "sentence header"))
            if idx >= len(sentences):
                raise AlignmentError(f"{path}: sentence {idx}: {tokens} rows, "
                                     f"but the dataset has {len(sentences)} sentences")
            if rows[idx] is not None:
                raise FormatError(f"{path}: duplicate sentence index {idx}")
            sentence = sentences[idx]
            if tokens != len(sentence.tokens):
                raise AlignmentError(f"{path}: sentence {idx} ({sentence.sentence_id}): "
                                     f"{tokens} rows for {len(sentence.tokens)} tokens")
            payload = _read_exact(fh, 4 * tokens * width, f"sentence {idx} payload")
            mat = np.frombuffer(payload, dtype="<f4").reshape(tokens, width)
            if not np.isfinite(mat).all():
                raise FormatError(f"{path}: sentence {idx}: non-finite value")
            rows[idx] = mat.copy()
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after declared sentences")
    for idx, (mat, sentence) in enumerate(zip(rows, sentences)):
        if mat is None:
            raise AlignmentError(f"{path}: sentence {idx} ({sentence.sentence_id}): "
                                 f"no rows for {len(sentence.tokens)} tokens")
    return ContextualLayerFile(layer_index, width, rows)


# ---------------------------------------------------------------------------
# Channel assembly
# ---------------------------------------------------------------------------

def stack_channels(matrices: Sequence, order: Sequence[str]) -> tc.Tensor:
    """Stack per-channel (length, dim) matrices, named by ``order``, into one
    (channel, length, dim) tensor; all shapes must agree."""
    if not matrices:
        raise DimensionError("stack_channels needs at least one channel")
    if len(order) != len(matrices):
        raise DimensionError(
            f"{len(order)} channel names for {len(matrices)} matrices")
    tensors = [m if isinstance(m, tc.Tensor) else tc.Tensor(m) for m in matrices]
    shape = tensors[0].shape
    for name, t in zip(order, tensors):
        if t.data.ndim != 2 or t.shape != shape:
            raise DimensionError(
                f"channel {name}: shape {t.shape} does not match {shape}")
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
                out[name] = self.layer_files[name].sentences[index].astype(np.float64)
        return out
