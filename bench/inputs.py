"""Seeded generators and writers for every benchmark input.

Everything the program reads is made here from the workload seed: TSV
corpora, GloVe-style text vectors, CEMB layer files, abstractness
lexicons, configuration files and the probe's score series. The writers
follow the formats in the repository README and do not call the program,
so a reader fault cannot be hidden by a matching writer fault. The one
exception is the eval checkpoint, which is written with the program's own
``save_checkpoint``, as its format is the program's to define.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENRES = ("academic", "conversation", "fiction", "news")
OPEN_CLASS = ("VERB", "ADJ", "NOUN", "ADV")
POS_DRAW = ("NOUN", "VERB", "ADJ", "ADV", "DET", "ADP", "PRON")
POS_P = (0.28, 0.20, 0.10, 0.07, 0.15, 0.12, 0.08)
# PRON is left out on purpose so that it lands in the one-hot UNK slot.
CONFIG_POS_TAGS = ("VERB", "NOUN", "ADJ", "ADV", "DET", "ADP")

# GloVe values are written with 4 decimals; q / 1e4 is then exactly the
# float the program parses back, so references can use the quantized array.
_Q = 9999
_DECIMALS = [f"{q / 1e4:.4f}" for q in range(-_Q, _Q + 1)]


@dataclass
class Token:
    text: str
    pos: str
    label: int
    target: bool


@dataclass
class Sentence:
    sid: str
    genre: str
    tokens: list[Token]


def make_corpus(rng: np.random.Generator, n_sentences: int, lengths: tuple[int, int],
                vocab: list[str], metaphor_rate: float = 0.3) -> list[Sentence]:
    """Sentences with lengths spread evenly over [lo, hi] over ``vocab``.

    The multiset of lengths is fixed by ``n_sentences`` and ``lengths``;
    the seed only shuffles it, so every seed asks for the same work.
    Targets are the open-class tokens plus half of the pronouns; a target
    is metaphoric with probability ``metaphor_rate``. Sentence-initial
    tokens are capitalized, which exercises case-sensitive GloVe lookup
    against the lowercased abstractness lookup.
    """
    lo, hi = lengths
    sizes = rng.permutation(lo + np.arange(n_sentences) * (hi - lo + 1) // n_sentences)
    sentences = []
    for i, n in enumerate(sizes.tolist()):
        words = rng.integers(0, len(vocab), n)
        tags = rng.choice(len(POS_DRAW), size=n, p=POS_P)
        draws = rng.random((n, 2))
        tokens = []
        for t in range(n):
            pos = POS_DRAW[tags[t]]
            target = pos in OPEN_CLASS or (pos == "PRON" and draws[t, 0] < 0.5)
            label = int(target and draws[t, 1] < metaphor_rate)
            text = vocab[words[t]]
            tokens.append(Token(text.capitalize() if t == 0 else text, pos, label, target))
        sentences.append(Sentence(f"s{i}", GENRES[i % len(GENRES)], tokens))
    return sentences


def write_tsv(path: Path, sentences: list[Sentence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            for idx, tok in enumerate(sent.tokens):
                fh.write(f"{sent.sid}\t{sent.genre}\t{idx}\t{tok.text}\t{tok.pos}\t"
                         f"{tok.label}\t{int(tok.target)}\n")
            fh.write("\n")


def quantized_vectors(rng: np.random.Generator, rows: int, dim: int,
                      scale: float = 0.4) -> np.ndarray:
    """GloVe-like values as int32 multiples of 1e-4 in [-0.9999, 0.9999]."""
    q = np.rint(rng.normal(0.0, scale, (rows, dim)) * 1e4)
    return np.clip(q, -_Q, _Q).astype(np.int32)


def write_glove(path: Path, words: list[str], q: np.ndarray) -> None:
    """One `word v1 ... vd` line per word, values with 4 decimals."""
    table = _DECIMALS
    offset = q + _Q
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(words, offset.tolist()):
            fh.write(word + " " + " ".join([table[v] for v in row]) + "\n")


def write_lexicon(path: Path, scores: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, score in scores.items():
            fh.write(f"{word}\t{score:.4f}\n")


def write_cemb(path: Path, layer_index: int, mats: list[np.ndarray]) -> None:
    """CEMB v1: magic, version, layer, dim, count, then per sentence its
    index, token count and float32 rows (little-endian)."""
    dim = mats[0].shape[1]
    with open(path, "wb") as fh:
        fh.write(b"CEMB")
        fh.write(struct.pack("<IIII", 1, layer_index, dim, len(mats)))
        for idx, mat in enumerate(mats):
            fh.write(struct.pack("<II", idx, mat.shape[0]))
            fh.write(np.ascontiguousarray(mat, dtype="<f4").tobytes())


def write_config(path: Path, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            if isinstance(value, (tuple, list)):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            fh.write(f"{key}={value}\n")


@dataclass
class Lexical:
    """Vocabulary, static vectors and abstractness scores shared by a workload."""

    vocab: list[str]                 # corpus word types (lowercase)
    glove_words: list[str]
    glove_q: np.ndarray              # quantized vectors, row per glove word
    lexicon: dict[str, float]

    def static(self) -> dict[str, np.ndarray]:
        """Word -> float64 vector, exactly as the program parses the file."""
        vecs = self.glove_q / 1e4
        return dict(zip(self.glove_words, vecs))


def make_lexical(rng: np.random.Generator, vocab_size: int, glove_lines: int,
                 static_dim: int) -> Lexical:
    """A corpus vocabulary with mixed coverage.

    Nine in ten corpus words have a vector; a third are in the lexicon.
    Corpus words with a vector but no lexicon entry take the nearest
    lexicon neighbour's score; words with neither score 0.5. Filler words
    pad the vector file to ``glove_lines`` and a quarter of them join the
    lexicon as neighbour candidates.
    """
    vocab = [f"t{i:05d}" for i in range(vocab_size)]
    in_glove = [w for i, w in enumerate(vocab) if i % 10 != 0]
    fillers = [f"g{j:06d}" for j in range(max(0, glove_lines - len(in_glove)))]
    glove_words = in_glove + fillers
    order = rng.permutation(len(glove_words))
    glove_words = [glove_words[k] for k in order]
    glove_q = quantized_vectors(rng, len(glove_words), static_dim)
    lex_words = [w for i, w in enumerate(vocab) if i % 3 == 0]
    lex_words += [w for j, w in enumerate(fillers) if j % 4 == 0]
    scores = np.rint(rng.random(len(lex_words)) * 1e4) / 1e4
    lexicon = dict(zip(lex_words, scores.tolist()))
    return Lexical(vocab, glove_words, glove_q, lexicon)

