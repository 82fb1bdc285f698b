"""Shared fixtures: synthetic corpora with linearly separable channel
embeddings, and writers that lay them out as CLI-ready input files."""

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest

from metaseq.embedding_io import (
    CONTEXTUAL_MAGIC,
    CONTEXTUAL_VERSION,
    ChannelProvider,
    ContextualLayerFile,
    StaticEmbeddingTable,
    load_contextual,
)
from metaseq.errors import DimensionError
from metaseq.tagger_model import ModelConfig
from metaseq.train_eval import SentenceRecord, TokenRecord

DATA_DIR = Path(__file__).parent / "data"

POS_CYCLE = ("VERB", "NOUN", "ADJ", "ADV")
GENRE_CYCLE = ("news", "academic", "fiction", "conversation")


def static_table(dimension: int, vectors) -> StaticEmbeddingTable:
    """A static table holding ``vectors`` (token -> values), in their order."""
    matrix = np.array([np.asarray(v, dtype=np.float64) for v in vectors.values()])
    return StaticEmbeddingTable({word: i for i, word in enumerate(vectors)},
                                matrix.reshape(len(vectors), dimension))


@dataclass
class SynthCorpus:
    sentences: list
    static_table: StaticEmbeddingTable
    layer_files: dict
    provider: ChannelProvider
    config: ModelConfig


def build_separable_corpus(directory, n_sentences=20, dim=16, static_dim=8, seed=42,
                           noise=0.25, margin=1.0, metaphor_rate=0.4,
                           kernels_per_window=4, hidden_size=8,
                           learning_rate=0.2, epochs=300) -> SynthCorpus:
    """Sentences whose channel embeddings separate the two labels linearly:
    the projection onto a fixed direction mu is exactly +margin for
    metaphoric tokens and -margin for literal ones; noise lives in the
    orthogonal complement, so separability holds at any noise scale.

    The E and B rows are written to ``directory`` as ``layer_E.cemb`` and
    ``layer_B.cemb`` and loaded from there with ``load_contextual``."""
    rng = np.random.default_rng(seed)

    def unit(size):
        v = rng.normal(size=size)
        return v / np.linalg.norm(v)

    def off_axis(mu_vec):
        n = rng.normal(size=mu_vec.shape)
        return n - (n @ mu_vec) * mu_vec

    mu = unit(dim)
    mu_static = unit(static_dim)

    sentences = []
    e_sents, b_sents = [], []
    glove = {}
    for i in range(n_sentences):
        n = int(rng.integers(5, 9))
        tokens = []
        e_mat = np.zeros((n, dim), dtype=np.float32)
        b_mat = np.zeros((n, dim), dtype=np.float32)
        for t in range(n):
            label = int(rng.random() < metaphor_rate)
            sign = 1.0 if label else -1.0
            e_mat[t] = sign * margin * mu + noise * off_axis(mu)
            b_mat[t] = sign * margin * mu + noise * off_axis(mu)
            word = f"w{i}_{t}"
            glove[word] = sign * margin * mu_static + noise * off_axis(mu_static)
            tokens.append(TokenRecord(word, POS_CYCLE[t % 4], label, True))
        sentences.append(SentenceRecord(f"s{i}", GENRE_CYCLE[i % 4], tokens))
        e_sents.append(e_mat)
        b_sents.append(b_mat)

    table = static_table(static_dim, glove)
    Path(directory).mkdir(parents=True, exist_ok=True)
    layers = {}
    for name, layer_index, mats in (("E", 1, e_sents), ("B", 2, b_sents)):
        path = Path(directory) / f"layer_{name}.cemb"
        write_contextual(path, layer_index, dim, dict(enumerate(mats)))
        layers[name] = load_contextual(path, sentences)
    provider = ChannelProvider(("G", "E", "B"), table, layers)
    config = ModelConfig(unified_dim=dim, static_dim=static_dim,
                         kernels_per_window=kernels_per_window,
                         hidden_size=hidden_size, input_dropout=0.0,
                         hidden_dropout=0.0, learning_rate=learning_rate,
                         epochs=epochs, seed=seed)
    return SynthCorpus(sentences, table, layers, provider, config)


def write_contextual(path, layer_index: int, dimension: int,
                     sentences: Mapping[int, np.ndarray]) -> None:
    """A CEMB layer file holding ``sentences`` (index -> (tokens, dimension)
    rows) in index order, as float32."""
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


def layer_records(layer: ContextualLayerFile) -> dict[int, np.ndarray]:
    """Every record of a loaded layer file, by dataset sentence index."""
    return {i: layer.rows(i) for i in range(len(layer.offsets))}


def write_corpus_files(corpus: SynthCorpus, out_dir: Path) -> dict[str, Path]:
    """Materialize a corpus as the file formats the CLI consumes; the layer
    paths are those its files were loaded from."""
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "data.tsv"
    with open(data_path, "w", encoding="utf-8") as fh:
        for sent in corpus.sentences:
            for idx, tok in enumerate(sent.tokens):
                fh.write(f"{sent.sentence_id}\t{sent.genre}\t{idx}\t{tok.text}\t"
                         f"{tok.pos}\t{tok.label}\t{int(tok.target)}\n")
            fh.write("\n")
    glove_path = out_dir / "glove.txt"
    with open(glove_path, "w", encoding="utf-8") as fh:
        for word, row in corpus.static_table.rows.items():
            vec = corpus.static_table.matrix[row]
            fh.write(word + " " + " ".join(f"{v:.8f}" for v in vec) + "\n")
    paths = {"data": data_path, "glove": glove_path}
    for name, layer in corpus.layer_files.items():
        paths[name] = Path(layer.path)
    return paths


@pytest.fixture(scope="session")
def separable_corpus(tmp_path_factory) -> SynthCorpus:
    return build_separable_corpus(tmp_path_factory.mktemp("separable"))


@pytest.fixture()
def small_dataset_path() -> Path:
    return DATA_DIR / "synthetic_small.tsv"


@pytest.fixture()
def lexicon_path() -> Path:
    return DATA_DIR / "abstractness_small.tsv"
