"""Dataset parsing, per-token metrics with genre/PoS breakdowns, k-fold plans.

The tagging metrics treat the metaphor class as positive. Cross-validation
results are aggregated by pooling confusion counts across folds (micro);
every report says so via the fixed CSV schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, InputError, ParameterError, ParseError, open_text
from .tensor_core import RngStream

LITERAL, METAPHOR = 0, 1
GENRES = ("academic", "conversation", "fiction", "news")
OPEN_CLASS_POS = ("VERB", "ADJ", "NOUN", "ADV")


@dataclass(frozen=True)
class TokenRecord:
    text: str
    pos: str
    label: int            # LITERAL or METAPHOR
    target: bool          # counted in evaluation or not


@dataclass
class SentenceRecord:
    sentence_id: str
    genre: str
    tokens: list[TokenRecord]

    def labels(self) -> np.ndarray:
        return np.array([t.label for t in self.tokens], dtype=np.int64)

    def target_mask(self) -> np.ndarray:
        return np.array([t.target for t in self.tokens], dtype=bool)


def parse_dataset(path) -> list[SentenceRecord]:
    """Read the 7-column TSV; a blank line ends a sentence.

    Within a sentence every row carries the same ``sentence_id`` and the
    ``token_index`` column counts 0, 1, 2, ...; anything else is a
    ``ParseError`` naming the line, so two sentences are never merged.
    A file with no sentence is an ``InputError``."""
    sentences: list[SentenceRecord] = []
    current: list[TokenRecord] = []
    current_id: str | None = None
    current_genre = "other"

    def flush() -> None:
        nonlocal current, current_id, current_genre
        if current:
            sentences.append(SentenceRecord(current_id, current_genre, current))
        current, current_id, current_genre = [], None, "other"

    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                flush()
                continue
            cols = line.split("\t")
            if len(cols) != 7:
                raise ParseError(f"{path}: line {lineno}: expected 7 columns, got {len(cols)}")
            sent_id, genre, token_index, token, pos, label_text, target_text = cols
            if label_text not in ("0", "1"):
                raise ParseError(f"{path}: line {lineno}: unknown label {label_text!r}")
            if target_text not in ("0", "1"):
                raise ParseError(f"{path}: line {lineno}: unknown target flag {target_text!r}")
            if current_id is None:
                current_id = sent_id
                genre_norm = genre.strip().lower()
                current_genre = genre_norm if genre_norm in GENRES else "other"
            elif sent_id != current_id:
                raise ParseError(
                    f"{path}: line {lineno}: sentence id {sent_id!r} inside sentence "
                    f"{current_id!r}; a blank line must end each sentence")
            if token_index != str(len(current)):
                raise ParseError(f"{path}: line {lineno}: token index {token_index!r} "
                                 f"in sentence {current_id!r}, expected {len(current)}")
            current.append(TokenRecord(token, pos, int(label_text), target_text == "1"))
    flush()
    if not sentences:
        raise InputError(f"{path}: no sentences")
    return sentences


@dataclass(frozen=True)
class DatasetStats:
    n_sequences: int
    n_target_tokens: int
    pct_metaphor: float                     # share of metaphoric target tokens, percent
    avg_metaphors_per_met_sentence: float


def dataset_stats(sentences: Sequence[SentenceRecord]) -> DatasetStats:
    n_targets = 0
    n_met = 0
    met_per_sentence = []
    for s in sentences:
        m = sum(1 for t in s.tokens if t.target and t.label == METAPHOR)
        n_targets += sum(1 for t in s.tokens if t.target)
        n_met += m
        if m > 0:
            met_per_sentence.append(m)
    pct = 100.0 * n_met / n_targets if n_targets else 0.0
    avg = float(np.mean(met_per_sentence)) if met_per_sentence else 0.0
    return DatasetStats(len(sentences), n_targets, pct, avg)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts plus the derived P/R/F1/Acc (metaphor positive)."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        return f1_from_pr(self.precision, self.recall)

    @property
    def accuracy(self) -> float:
        total = self.tp + self.fp + self.fn + self.tn
        return (self.tp + self.tn) / total if total else 0.0


def compute_metrics(predictions, gold, mask=None) -> MetricsReport:
    """Confusion counts over masked (target) positions; metaphor is positive."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(gold, dtype=np.int64)
    if pred.shape != true.shape:
        raise ContractError(f"prediction/gold lengths differ: {pred.shape} vs {true.shape}")
    if mask is None:
        m = np.ones(pred.shape, dtype=bool)
    else:
        m = np.asarray(mask, dtype=bool)
        if m.shape != pred.shape:
            raise ContractError(f"mask length {m.shape} differs from {pred.shape}")
    pred = pred[m]
    true = true[m]
    tp = int(((pred == METAPHOR) & (true == METAPHOR)).sum())
    fp = int(((pred == METAPHOR) & (true == LITERAL)).sum())
    fn = int(((pred == LITERAL) & (true == METAPHOR)).sum())
    tn = int(((pred == LITERAL) & (true == LITERAL)).sum())
    return MetricsReport(tp, fp, fn, tn)


def f1_from_pr(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def pool_reports(reports: Iterable[MetricsReport]) -> MetricsReport:
    """Micro aggregation: sum confusion counts, then derive the metrics."""
    tp = fp = fn = tn = 0
    for r in reports:
        tp += r.tp
        fp += r.fp
        fn += r.fn
        tn += r.tn
    return MetricsReport(tp, fp, fn, tn)


def breakdown(sentences: Sequence[SentenceRecord],
              predictions: Sequence[Sequence[int]],
              key: str) -> dict[str, MetricsReport]:
    """Per-genre or per-PoS reports over target tokens.

    Genre reports cover the four named genres ("other" is excluded);
    PoS reports cover the open classes plus an ALL row over every target.
    Classes with no target tokens are omitted.
    """
    if key not in ("genre", "pos"):
        raise ParameterError(f"breakdown key must be 'genre' or 'pos', got {key!r}")
    if len(sentences) != len(predictions):
        raise ContractError(
            f"{len(predictions)} prediction rows for {len(sentences)} sentences")
    buckets: dict[str, list[tuple[int, int]]] = {}
    for sent, preds in zip(sentences, predictions):
        if len(preds) != len(sent.tokens):
            raise ContractError(
                f"sentence {sent.sentence_id}: {len(preds)} predictions "
                f"for {len(sent.tokens)} tokens")
        for tok, p in zip(sent.tokens, preds):
            if not tok.target:
                continue
            if key == "genre":
                if sent.genre == "other":
                    continue
                buckets.setdefault(sent.genre, []).append((int(p), tok.label))
            else:
                if tok.pos in OPEN_CLASS_POS:
                    buckets.setdefault(tok.pos, []).append((int(p), tok.label))
                buckets.setdefault("ALL", []).append((int(p), tok.label))
    out = {}
    for cls, pairs in buckets.items():
        preds = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        out[cls] = compute_metrics(preds, gold)
    return out


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

@dataclass
class FoldPlan:
    """Seeded assignment of every sentence to one of k folds."""

    k: int
    assignment: np.ndarray  # fold index per sentence
    seed: int

    def split(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= fold < self.k:
            raise ParameterError(f"fold {fold} outside [0, {self.k})")
        test = np.flatnonzero(self.assignment == fold)
        train = np.flatnonzero(self.assignment != fold)
        return train, test


def kfold(dataset: Sequence, k: int = 10, seed: int = 0,
          stratify: bool = False) -> FoldPlan:
    """Seeded shuffle then contiguous partition into k near-equal folds.

    With ``stratify`` the shuffle-and-split runs separately over sentences
    with and without metaphoric targets, keeping the label mix similar
    across folds.
    """
    n = len(dataset)
    if n == 0:
        raise InputError("empty dataset")
    if k < 1 or k > n:
        raise ParameterError(f"k={k} invalid for dataset of size {n}")
    rng = RngStream(seed, stream_id=104729)  # fixed stream keeps plans stable
    assignment = np.empty(n, dtype=np.int64)

    def assign(indices: np.ndarray) -> None:
        order = indices[rng.permutation(len(indices))]
        sizes = np.full(k, len(indices) // k)
        sizes[: len(indices) % k] += 1
        at = 0
        for fold, size in enumerate(sizes):
            assignment[order[at:at + size]] = fold
            at += size

    if stratify:
        has_met = np.array([
            any(t.target and t.label == METAPHOR for t in s.tokens) for s in dataset
        ])
        assign(np.flatnonzero(has_met))
        assign(np.flatnonzero(~has_met))
    else:
        assign(np.arange(n))
    return FoldPlan(k, assignment, seed)
