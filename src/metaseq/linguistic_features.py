"""PoS one-hot encoding and word abstractness with nearest-neighbor backoff.

A word missing from the abstractness lexicon inherits the score of its
most cosine-similar lexicon word (measured on static vectors); a word
missing from both lexicon and vector table scores 0.5. Every word a run
reads is scored once, when the scorer is built, with the backoff words
compared against all candidates in a few blocked matrix products; lexicon
words with identical vectors count once, under the smallest word.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ParseError, open_text


class PosVocabulary:
    """Dense tag -> index map with a reserved trailing UNK slot."""

    def __init__(self, tags: Iterable[str]):
        self.tags: tuple[str, ...] = tuple(tags)
        self._index = {tag: i for i, tag in enumerate(self.tags)}
        self.unk_index = len(self.tags)

    @property
    def size(self) -> int:
        """One-hot width: known tags plus the UNK slot."""
        return len(self.tags) + 1

    def index(self, tag: str) -> int:
        return self._index.get(tag, self.unk_index)

    def one_hot(self, tag: str) -> np.ndarray:
        vec = np.zeros(self.size)
        vec[self.index(tag)] = 1.0
        return vec


def load_abstractness_lexicon(path) -> dict[str, float]:
    """Word -> abstractness score in [0, 1], from `word TAB score` lines, one per word."""
    entries: dict[str, float] = {}
    first_line: dict[str, int] = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}: line {lineno}: expected `word TAB score`")
            word, score_text = parts
            try:
                score = float(score_text)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric score") from None
            if not 0.0 <= score <= 1.0:
                raise ParseError(f"{path}: line {lineno}: score {score} outside [0, 1]")
            if word in first_line:
                raise ParseError(f"{path}: line {lineno}: {word} already scored "
                                 f"on line {first_line[word]}")
            entries[word] = score
            first_line[word] = lineno
    return entries


def cosine(u, v) -> float:
    """Cosine similarity; any zero vector compares as 0. Each vector is first
    scaled by its largest magnitude so the squared norm cannot underflow."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    su = np.abs(u).max(initial=0.0)
    sv = np.abs(v).max(initial=0.0)
    if su == 0.0 or sv == 0.0:
        return 0.0
    u, v = u / su, v / sv
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


# Query rows per similarity block: a block of (rows x candidates) floats
# stays near 2**21 (16 MB), so backing off many words never allocates one
# (queries x candidates) matrix.
SIMILARITY_BLOCK_FLOATS = 1 << 21


class AbstractnessScorer:
    """Abstractness of every word of one run, scored once at construction.

    ``words`` are the words the run will look up, lowercased when
    ``lowercase`` is set; ``score`` of any other word raises ``KeyError``.
    """

    def __init__(self, lexicon: dict[str, float], table, words: Iterable[str],
                 lowercase: bool = True):
        self.lowercase = bool(lowercase)
        keys = {w.lower() for w in words} if self.lowercase else set(words)
        self._scores = {k: lexicon.get(k, 0.5) for k in keys}
        backoff = sorted(k for k in keys if k not in lexicon and k in table)
        self._scores.update(zip(backoff, _nearest_scores(lexicon, table, backoff)))

    def score(self, word: str) -> float:
        return self._scores[word.lower() if self.lowercase else word]


def _nearest_scores(lexicon: dict[str, float], table, queries: list[str]) -> list[float]:
    """The lexicon score of each query's most cosine-similar candidate, the
    lexicon words with static vectors; a zero query vector scores 0.5.

    Candidates are taken in lexicographic order, and identical vectors count
    once, under their smallest word: a matrix product may round the dot
    products of two identical rows differently, depending on where they sit.
    So the first argmax is the tie-break winner.
    """
    first: dict[bytes, str] = {}
    for word in sorted(w for w in lexicon if w in table):
        first.setdefault((table.vector(word) + 0.0).tobytes(), word)  # -0.0 -> 0.0
    if not queries or not first:
        return [0.5] * len(queries)
    candidates = list(first.values())
    rows = table.matrix[[table.rows[w] for w in candidates]]
    row_norms = np.linalg.norm(rows, axis=1)
    query_rows = table.matrix[[table.rows[w] for w in queries]]
    query_norms = np.linalg.norm(query_rows, axis=1)
    step = max(1, SIMILARITY_BLOCK_FLOATS // len(candidates))
    best = []
    for start in range(0, len(queries), step):
        block = slice(start, start + step)
        sims = query_rows[block] @ rows.T
        with np.errstate(invalid="ignore", divide="ignore"):
            sims /= np.outer(query_norms[block], row_norms)
        sims[:, row_norms == 0.0] = 0.0
        best.extend(np.argmax(sims, axis=1).tolist())
    return [lexicon[candidates[b]] if norm > 0.0 else 0.5
            for b, norm in zip(best, query_norms)]
