"""PoS one-hot encoding and word abstractness with nearest-neighbor backoff.

A word missing from the abstractness lexicon inherits the score of its
most cosine-similar lexicon word (measured on static vectors); a word
missing from both lexicon and vector table scores 0.5.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ParseError, open_text


class PosVocabulary:
    """Dense tag -> index map with a reserved trailing UNK slot."""

    def __init__(self, tags: Iterable[str]):
        seen: dict[str, int] = {}
        for tag in tags:
            if tag not in seen:
                seen[tag] = len(seen)
        self.tags: tuple[str, ...] = tuple(seen)
        self._index = seen
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


class AbstractnessLexicon:
    """Word -> abstractness score in [0, 1]."""

    def __init__(self, entries: dict[str, float]):
        self.entries = entries

    @classmethod
    def load(cls, path) -> "AbstractnessLexicon":
        entries: dict[str, float] = {}
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
                entries[word] = score
        return cls(entries)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def score(self, word: str) -> float:
        return self.entries[word]


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


class AbstractnessScorer:
    """Memoized abstractness lookup over one lexicon/table pair.

    Candidate neighbors are the lexicon words that have static vectors,
    held in lexicographic order so the first argmax hit is also the
    tie-break winner.
    """

    def __init__(self, lexicon: AbstractnessLexicon, table, lowercase: bool = True):
        self.lexicon = lexicon
        self.table = table
        self.lowercase = bool(lowercase)
        self._memo: dict[str, float] = {}
        self._candidates: list[str] | None = None
        self._rows: np.ndarray | None = None
        self._row_norms: np.ndarray | None = None

    def _ensure_candidates(self) -> None:
        if self._candidates is not None:
            return
        words = sorted(w for w in self.lexicon.entries if w in self.table)
        rows = self.table.matrix[[self.table.rows[w] for w in words]]
        self._candidates = words
        self._rows = rows
        self._row_norms = np.linalg.norm(rows, axis=1)

    def _nearest_score(self, word: str) -> float:
        self._ensure_candidates()
        if not self._candidates:
            return 0.5
        vec = np.asarray(self.table.vector(word), dtype=np.float64)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            return 0.5
        # dot / (|u| * |v|), matching the scalar cosine term for term so
        # exact ties land on identical floats and the lexicographic
        # tie-break (first argmax over sorted candidates) is well defined
        dots = self._rows @ vec
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.where(self._row_norms > 0.0,
                            dots / (self._row_norms * norm), 0.0)
        best = self._candidates[int(np.argmax(sims))]
        return self.lexicon.score(best)

    def score(self, word: str) -> float:
        key = word.lower() if self.lowercase else word
        if key in self._memo:
            return self._memo[key]
        if key in self.lexicon:
            value = self.lexicon.score(key)
        elif key in self.table:
            value = self._nearest_score(key)
        else:
            value = 0.5
        self._memo[key] = value
        return value

