"""Plain-numpy reference computations that the benchmark checks the
program's outputs against.

They are written from the README's design notes, not from the program's
code paths:

- the static channel row is the word vector (zeros when absent), then the
  PoS one-hot over the configured tags plus a trailing UNK slot, then the
  abstractness score;
- abstractness is looked up lowercased; a word missing from the lexicon
  but present in the vector table takes the score of its most
  cosine-similar lexicon word that has a vector (ties go to the
  lexicographically smallest word); any other word scores 0.5;
- the static row is projected as ``row @ proj_w.T + proj_b`` and stacked
  with the contextual channels in channel order;
- a window of size w starts at the current token and the sequence is
  zero-padded at the end with w - 1 positions, computed here as one
  im2col matrix product per window size;
- tanh over the concatenated feature maps, then a BiLSTM with the
  canonical cell: gate blocks in the order input, forget, candidate,
  output, ``c = f * c + i * g`` and ``h = o * tanh(c)``; the backward
  direction reads the sequence reversed and its outputs stay aligned with
  token positions;
- a per-token softmax over ``[h_fwd, h_bwd] @ cls_w + cls_b``.
"""

from __future__ import annotations

import numpy as np


def abstractness_scores(words, static: dict[str, np.ndarray],
                        lexicon: dict[str, float]) -> dict[str, float]:
    """Score for every lowercased form in ``words``."""
    keys = sorted({w.lower() for w in words})
    out = {k: lexicon[k] if k in lexicon else 0.5 for k in keys}
    candidates = sorted(w for w in lexicon if w in static)
    backoff = [k for k in keys if k not in lexicon and k in static]
    if not candidates or not backoff:
        return out
    rows = np.array([static[w] for w in candidates])
    queries = np.array([static[k] for k in backoff])
    row_norms = np.linalg.norm(rows, axis=1)
    query_norms = np.linalg.norm(queries, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = (queries @ rows.T) / np.outer(query_norms, row_norms)
    sims[:, row_norms == 0.0] = 0.0
    best = np.argmax(sims, axis=1)      # first maximum: smallest word on ties
    for k, b, norm in zip(backoff, best, query_norms):
        if norm > 0.0:
            out[k] = lexicon[candidates[b]]
    return out


def static_rows(sentence, static: dict[str, np.ndarray], dim: int,
                pos_tags, abst: dict[str, float]) -> np.ndarray:
    """The G channel input of one sentence, before projection."""
    rows = np.zeros((len(sentence.tokens), dim + len(pos_tags) + 2))
    for i, tok in enumerate(sentence.tokens):
        if tok.text in static:
            rows[i, :dim] = static[tok.text]
        rows[i, dim + (pos_tags.index(tok.pos) if tok.pos in pos_tags else len(pos_tags))] = 1.0
        rows[i, -1] = abst[tok.text.lower()]
    return rows


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _lstm(feats: np.ndarray, wx, wh, b, reverse: bool) -> np.ndarray:
    n = feats.shape[0]
    hidden = wh.shape[0]
    pre = feats @ wx + b
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = np.zeros((n, hidden))
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        z = pre[t] + h @ wh
        i = _sigmoid(z[:hidden])
        f = _sigmoid(z[hidden:2 * hidden])
        g = np.tanh(z[2 * hidden:3 * hidden])
        o = _sigmoid(z[3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def features(params: dict[str, np.ndarray], window_sizes, g_rows: np.ndarray,
             contextual: list[np.ndarray]) -> np.ndarray:
    """BiLSTM outputs ``[h_fwd, h_bwd]`` (n, 2 * hidden) for one sentence, no dropout."""
    projected = g_rows @ params["proj_w"].T + params["proj_b"]
    block = np.stack([projected, *[np.asarray(m, dtype=np.float64) for m in contextual]])
    c, n, d = block.shape
    maps = []
    for w in window_sizes:
        padded = np.concatenate([block, np.zeros((c, w - 1, d))], axis=1)
        # cols[i] holds padded[:, i:i + w, :] flattened in (channel, offset, dim) order
        shifted = np.stack([padded[:, o:o + n, :] for o in range(w)], axis=2)
        cols = shifted.transpose(1, 0, 2, 3).reshape(n, c * w * d)
        kernels = params[f"conv_w{w}"]
        maps.append(cols @ kernels.reshape(kernels.shape[0], -1).T)
    feats = np.tanh(np.concatenate(maps, axis=1))
    h_f = _lstm(feats, params["lstm_f_wx"], params["lstm_f_wh"], params["lstm_f_b"], False)
    h_b = _lstm(feats, params["lstm_b_wx"], params["lstm_b_wh"], params["lstm_b_b"], True)
    return np.concatenate([h_f, h_b], axis=1)


def classify(hidden: np.ndarray, cls_w: np.ndarray, cls_b: np.ndarray) -> np.ndarray:
    """Per-token class probabilities (n, 2)."""
    logits = hidden @ cls_w + cls_b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def report(pred, gold) -> dict[str, float]:
    """Confusion counts and P/R/F1/Acc with metaphor (1) as positive."""
    pred = np.asarray(pred)
    gold = np.asarray(gold)
    tp = int(np.sum((pred == 1) & (gold == 1)))
    fp = int(np.sum((pred == 1) & (gold == 0)))
    fn = int(np.sum((pred == 0) & (gold == 1)))
    tn = int(np.sum((pred == 0) & (gold == 0)))
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0
    acc = (tp + tn) / len(pred) if len(pred) else 0.0
    return {"P": p, "R": r, "F1": f1, "Acc": acc, "TP": tp, "FP": fp, "FN": fn, "TN": tn}


def pos_reports(sentences, predictions) -> dict[tuple[str, str], dict]:
    """Overall and per-open-class rows over target tokens, keyed as in metrics.csv."""
    buckets: dict[str, tuple[list, list]] = {}
    for sent, preds in zip(sentences, predictions):
        for tok, p in zip(sent.tokens, preds):
            if not tok.target:
                continue
            keys = ["ALL"] + ([tok.pos] if tok.pos in ("VERB", "ADJ", "NOUN", "ADV") else [])
            for key in keys:
                pr, gd = buckets.setdefault(key, ([], []))
                pr.append(int(p))
                gd.append(tok.label)
    out = {("overall", "ALL"): report(*buckets["ALL"])}
    for key, (pr, gd) in buckets.items():
        out[("pos", key)] = report(pr, gd)
    return out


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    sxy = n * np.dot(x, y) - x.sum() * y.sum()
    sxx = n * np.dot(x, x) - x.sum() ** 2
    syy = n * np.dot(y, y) - y.sum() ** 2
    return float(sxy / np.sqrt(sxx * syy))
