"""Acceptance suite: one test (group) per exit criterion.

Run with `pytest -s -v tests/test_acceptance.py` to see one PASS line per
criterion. Three transcribed literature rows are marked xfail(strict):
their published F1 is arithmetically inconsistent with their published
P/R (fold-averaged or typo'd at the source), so the harmonic-mean
identity cannot hold for them.
"""

import os
import time

import numpy as np
import pytest

from metaseq import tensor_core as tc
from metaseq.embedding_io import (
    ContextualLayerFile,
    load_contextual,
    write_contextual,
)
from metaseq.linguistic_features import AbstractnessScorer, cosine, load_abstractness_lexicon
from metaseq.space_analysis import (
    avg_pair_cosine,
    build_pairs,
    pearson_r,
    procrustes_align,
)
from metaseq.tagger_model import train
from metaseq.train_eval import (
    SentenceRecord,
    TokenRecord,
    dataset_stats,
    f1_from_pr,
    parse_dataset,
)
from conftest import DATA_DIR, build_separable_corpus, static_table
from helpers import micro_gradcheck, random_orthogonal


def _report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion}] PASS - {message}")


# ---------------------------------------------------------------------------
# 1. Gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion1_gradient_fidelity():
    start = time.monotonic()
    err = micro_gradcheck(param_names=None, h=1e-6)
    elapsed = time.monotonic() - start
    assert err < 1e-4
    assert elapsed < 60.0
    _report(1, f"end-to-end gradients match finite differences "
               f"(max rel err {err:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Overfit oracle
# ---------------------------------------------------------------------------

def test_criterion2_overfit_oracle():
    corpus = build_separable_corpus(n_sentences=20, dim=16, seed=42, noise=1.0,
                                    learning_rate=0.2, epochs=300)
    history = []
    start = time.monotonic()
    checkpoint = train(corpus.sentences, corpus.provider, corpus.config,
                       on_epoch=lambda e, loss, f1: history.append((e, f1)),
                       stop_at_f1=0.99)
    elapsed = time.monotonic() - start
    best_epoch, best_f1 = max(history, key=lambda item: item[1])
    assert checkpoint.dev_f1 >= 0.99
    assert checkpoint.epoch <= 300
    assert elapsed < 120.0
    _report(2, f"train F1 {checkpoint.dev_f1:.3f} reached at epoch "
               f"{checkpoint.epoch} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Planted-rotation recovery
# ---------------------------------------------------------------------------

def test_criterion3_procrustes_recovery():
    start = time.monotonic()
    q = random_orthogonal(8, tc.RngStream(2024))
    b = np.random.default_rng(7).normal(size=(50, 8))
    e = b @ q.T
    result = procrustes_align(b, e)
    elapsed = time.monotonic() - start
    rot_err = float(np.linalg.norm(result.rotation - q))
    assert rot_err < 1e-6
    assert result.avg_l2 < 1e-8
    assert result.orthogonality_residual < 1e-8
    assert elapsed < 5.0
    _report(3, f"planted rotation recovered (|W-Q|={rot_err:.2e}, "
               f"avg L2 {result.avg_l2:.2e}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 4. Procrustes optimality against 10,000 random rotations
# ---------------------------------------------------------------------------

def _random_orthogonal_batch(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(count, dim, dim)))
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


@pytest.mark.parametrize("dim,n", [(1, 2), (2, 4), (3, 6)])
def test_criterion4_procrustes_optimality(dim, n):
    data_rng = np.random.default_rng(100 + dim)
    b = data_rng.normal(size=(n, dim))
    e = data_rng.normal(size=(n, dim))
    best = float(np.linalg.norm(procrustes_align(b, e).rotated - e))
    qs = _random_orthogonal_batch(10_000, dim, np.random.default_rng(200 + dim))
    rotated = np.einsum("nd,kcd->knc", b, qs)   # rows b @ q.T per candidate
    residuals = np.linalg.norm(rotated - e[None], axis=(1, 2))
    assert best <= residuals.min() + 1e-9
    _report(4, f"d={dim}, n={n}: optimum beats 10,000 random rotations "
               f"(best {best:.6f} vs sampled min {residuals.min():.6f})")


# ---------------------------------------------------------------------------
# 5. Published-arithmetic regression over Tables 2 and 5
# ---------------------------------------------------------------------------

def _inconsistent(reason):
    return pytest.mark.xfail(strict=True, reason=reason)

_FOLD_AVG = "published F1 is a fold average; harmonic identity does not hold"
_SOURCE_TYPO = "published F1 inconsistent with published P/R (source typo)"

# (model, dataset/category, P, R, F1)
PUBLISHED_ROWS = [
    # overall results table
    ("wu", "VUA_ALL", 60.8, 70.0, 65.1),
    ("wu", "VUA_VERB", 60.0, 76.3, 67.2),
    ("wu", "MOH-X", 69.2, 69.9, 69.6),
    ("wu", "TroFi", 79.6, 78.8, 79.2),
    ("gao", "VUA_ALL", 71.6, 73.6, 72.6),
    ("gao", "VUA_VERB", 68.2, 71.3, 69.7),
    pytest.param("gao", "MOH-X", 79.1, 73.5, 75.6, marks=_inconsistent(_FOLD_AVG)),
    ("gao", "TroFi", 87.7, 87.4, 87.6),
    ("mao-SPV", "VUA_ALL", 73.0, 75.7, 74.3),
    ("mao-SPV", "VUA_VERB", 66.3, 75.2, 70.5),
    pytest.param("mao-SPV", "MOH-X", 77.5, 83.1, 80.0, marks=_inconsistent(_FOLD_AVG)),
    ("mao-SPV", "TroFi", 89.8, 88.1, 88.9),
    ("GEB17", "VUA_ALL", 74.9, 74.4, 74.7),
    ("GEB17", "VUA_VERB", 70.4, 72.1, 71.2),
    ("GEB17", "MOH-X", 78.0, 83.1, 80.4),
    ("GEB17", "TroFi", 90.7, 89.0, 89.8),
    ("PoS+Abst+GEB17", "VUA_ALL", 72.5, 77.4, 74.9),
    ("PoS+Abst+GEB17", "VUA_VERB", 68.8, 74.5, 71.5),
    ("PoS+Abst+GEB17", "MOH-X", 77.9, 83.8, 80.7),
    ("PoS+Abst+GEB17", "TroFi", 89.3, 91.0, 90.2),
    # genre breakdown table
    ("GloVe", "Academic", 65.2, 67.5, 66.3),
    ("GloVe", "Conversation", 58.4, 62.6, 60.4),
    ("GloVe", "Fiction", 60.1, 55.6, 57.8),
    ("GloVe", "News", 69.3, 64.9, 67.0),
    ("ELMo", "Academic", 65.1, 74.1, 69.3),
    ("ELMo", "Conversation", 67.6, 65.1, 66.4),
    ("ELMo", "Fiction", 62.3, 68.4, 65.2),
    ("ELMo", "News", 72.6, 73.4, 73.0),
    ("BERT17", "Academic", 67.3, 71.7, 69.4),
    pytest.param("BERT17", "Conversation", 70.9, 63.0, 67.7,
                 marks=_inconsistent(_SOURCE_TYPO)),
    ("BERT17", "Fiction", 70.3, 65.9, 68.1),
    ("BERT17", "News", 74.0, 71.1, 72.6),
    ("GE", "Academic", 66.9, 74.6, 70.5),
    ("GE", "Conversation", 63.3, 69.3, 66.1),
    ("GE", "Fiction", 65.8, 65.5, 65.7),
    ("GE", "News", 73.1, 74.5, 73.8),
    ("GB17", "Academic", 64.7, 77.2, 70.4),
    ("GB17", "Conversation", 68.1, 67.5, 67.8),
    ("GB17", "Fiction", 70.3, 67.6, 68.9),
    ("GB17", "News", 74.3, 71.5, 72.9),
    ("EB17", "Academic", 71.8, 72.3, 72.0),
    ("EB17", "Conversation", 69.9, 66.3, 68.1),
    ("EB17", "Fiction", 72.9, 64.8, 68.6),
    ("EB17", "News", 76.1, 70.5, 73.2),
    ("GEB17", "Academic", 72.7, 72.0, 72.3),
    ("GEB17", "Conversation", 74.0, 64.9, 69.1),
    ("GEB17", "Fiction", 75.9, 67.1, 71.2),
    ("GEB17", "News", 77.7, 71.4, 74.4),
    # PoS breakdown table
    ("GloVe", "Verb", 60.2, 57.2, 58.7),
    ("GloVe", "Adjective", 54.9, 42.2, 47.7),
    ("GloVe", "Noun", 59.1, 50.5, 54.5),
    ("GloVe", "Adverb", 49.4, 49.4, 49.4),
    ("ELMo", "Verb", 62.7, 70.3, 66.3),
    ("ELMo", "Adjective", 46.7, 54.9, 50.5),
    ("ELMo", "Noun", 61.5, 58.6, 60.0),
    ("ELMo", "Adverb", 57.6, 51.9, 54.6),
    ("BERT17", "Verb", 63.3, 72.2, 67.5),
    ("BERT17", "Adjective", 54.7, 49.1, 51.8),
    ("BERT17", "Noun", 66.8, 51.7, 58.3),
    ("BERT17", "Adverb", 66.7, 45.5, 54.1),
    ("GE", "Verb", 62.4, 68.9, 65.5),
    ("GE", "Adjective", 56.9, 58.7, 57.8),
    ("GE", "Noun", 62.4, 59.9, 61.1),
    ("GE", "Adverb", 53.7, 56.5, 55.1),
    ("GB17", "Verb", 64.7, 69.1, 66.8),
    ("GB17", "Adjective", 58.4, 53.8, 56.0),
    ("GB17", "Noun", 65.0, 57.7, 61.1),
    ("GB17", "Adverb", 61.3, 49.4, 54.7),
    ("EB17", "Verb", 66.9, 69.0, 67.9),
    ("EB17", "Adjective", 53.7, 53.2, 53.4),
    ("EB17", "Noun", 73.4, 49.5, 59.1),
    ("EB17", "Adverb", 63.3, 49.4, 55.5),
    ("GEB17", "Verb", 71.6, 67.4, 69.4),
    ("GEB17", "Adjective", 62.8, 53.5, 57.8),
    ("GEB17", "Noun", 69.9, 54.5, 61.3),
    ("GEB17", "Adverb", 69.1, 49.4, 57.6),
]


@pytest.mark.parametrize("model,category,p,r,f1", PUBLISHED_ROWS)
def test_criterion5_published_f1_consistency(model, category, p, r, f1):
    assert abs(f1_from_pr(p, r) - f1) <= 0.1


def test_criterion5_summary():
    total = len(PUBLISHED_ROWS)
    flagged = sum(1 for row in PUBLISHED_ROWS if hasattr(row, "marks"))
    example = f1_from_pr(74.9, 74.4)
    assert example == pytest.approx(74.65, abs=0.005)
    _report(5, f"{total - flagged}/{total} transcribed rows satisfy the "
               f"harmonic identity within 0.1; {flagged} rows are "
               f"inconsistent at the source (strict xfail)")


# ---------------------------------------------------------------------------
# 6. Probe sensitivity on synthetic layer files
# ---------------------------------------------------------------------------

def test_criterion6_probe_sensitivity(tmp_path):
    rng = np.random.default_rng(31)
    dim, n_pairs, n_layers = 12, 15, 8
    thetas = [0.3 * layer for layer in range(1, n_layers + 1)]  # max 2.4 < pi

    sentences = []
    bases = []
    for i in range(n_pairs):
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        v = rng.normal(size=dim)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        bases.append((u, v))
        sentences.append(SentenceRecord(
            f"lit{i}", "news", [TokenRecord(f"w{i}", "VERB", 0, True)]))
        sentences.append(SentenceRecord(
            f"met{i}", "news", [TokenRecord(f"w{i}", "VERB", 1, True)]))
    pairs = build_pairs(sentences, seed=0)
    assert len(pairs) == n_pairs

    averages = []
    for layer_idx, theta in enumerate(thetas, start=1):
        rows = {}
        for i, (u, v) in enumerate(bases):
            rows[2 * i] = np.asarray([u], dtype=np.float32)
            rotated = np.cos(theta) * u + np.sin(theta) * v
            rows[2 * i + 1] = np.asarray([rotated], dtype=np.float32)
        path = tmp_path / f"layer{layer_idx}.cemb"
        write_contextual(path, layer_idx, dim, rows)
        averages.append(avg_pair_cosine(pairs, load_contextual(path, sentences)))

    for prev, nxt in zip(averages, averages[1:]):
        assert nxt < prev - 1e-9
    for theta, value in zip(thetas, averages):
        assert value == pytest.approx(np.cos(theta), abs=1e-6)

    scores = [2.0 - 0.5 * theta for theta in thetas]   # exact affine in theta
    r_affine = pearson_r(thetas, scores)
    assert r_affine == pytest.approx(-1.0, abs=1e-6)
    r_hand = pearson_r([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert r_hand == pytest.approx(0.9819805060619659, abs=1e-6)
    _report(6, f"avg cosine strictly decreasing over {n_layers} layers; "
               f"pearson matches analytic values ({r_affine:+.6f}, {r_hand:+.6f})")


# ---------------------------------------------------------------------------
# 7. Abstractness contract
# ---------------------------------------------------------------------------

def test_criterion7_abstractness_contract():
    lexicon = load_abstractness_lexicon(DATA_DIR / "abstractness_small.tsv")
    table = static_table(3, {"purism": np.array([1.0, 0.0, 0.0]),
                             "ski": np.array([0.0, 1.0, 0.0])})
    scorer = AbstractnessScorer(lexicon, table, ["purism", "ski", "qqqnotaword"])
    assert scorer.score("purism") == 0.97
    assert scorer.score("ski") == 0.25
    assert scorer.score("qqqnotaword") == 0.5

    rng = np.random.default_rng(77)
    words = [f"lex{i:04d}" for i in range(1000)]
    vectors = {w: rng.integers(-4, 5, size=5).astype(float) for w in words}
    scores = {w: round(float(rng.uniform()), 6) for w in words}
    queries = [f"q{i}" for i in range(40)]
    for q in queries:
        vectors[q] = rng.integers(-4, 5, size=5).astype(float)
    big_scorer = AbstractnessScorer(scores, static_table(5, vectors), queries)
    for q in queries:
        best_word, best_sim = None, -np.inf
        for w in words:  # exhaustive scan over the full lexicon
            sim = cosine(vectors[q], vectors[w])
            if sim > best_sim or (sim == best_sim and w < best_word):
                best_word, best_sim = w, sim
        expected = scores[best_word] if np.linalg.norm(vectors[q]) else 0.5
        assert big_scorer.score(q) == expected
    _report(7, "lexicon rows, OOV rule, and 1,000-word nearest-neighbor "
               "oracle all agree")


# ---------------------------------------------------------------------------
# 8. Dataset statistics
# ---------------------------------------------------------------------------

def test_criterion8_dataset_statistics_fixture():
    sentences = parse_dataset(DATA_DIR / "synthetic_small.tsv")
    stats = dataset_stats(sentences)
    assert stats.n_sequences == 3
    assert stats.n_target_tokens == 10
    assert stats.pct_metaphor == pytest.approx(30.0)
    assert stats.avg_metaphors_per_met_sentence == pytest.approx(1.0)
    _report(8, "bundled fixture reproduces its hand counts "
               "(3 sequences, 10 targets, 30.0% metaphor)")


@pytest.mark.skipif("METASEQ_VUA_TRN" not in os.environ,
                    reason="set METASEQ_VUA_TRN to a real VUA training TSV")
def test_criterion8_real_vua_statistics():
    sentences = parse_dataset(os.environ["METASEQ_VUA_TRN"])
    stats = dataset_stats(sentences)
    assert stats.n_target_tokens == 116_622
    assert stats.n_sequences == 6_323
    assert round(stats.pct_metaphor, 1) == 11.2
    assert len(build_pairs(sentences, seed=0)) == 1_516
    _report(8, "real VUA training statistics match the published table")


@pytest.mark.skipif("METASEQ_MOHX" not in os.environ,
                    reason="set METASEQ_MOHX to a real MOH-X TSV")
def test_criterion8_real_mohx_statistics():
    stats = dataset_stats(parse_dataset(os.environ["METASEQ_MOHX"]))
    assert stats.n_sequences == 647
    assert stats.n_target_tokens == 647
    assert round(stats.pct_metaphor, 1) == 48.7
    _report(8, "real MOH-X statistics match the published table")


# ---------------------------------------------------------------------------
# 9. Non-reproducibility disclosure
# ---------------------------------------------------------------------------

def test_criterion9_disclosure_documented():
    raw = (DATA_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
    readme = " ".join(raw.split())  # collapse line wrapping
    assert "not reproducible at desk scale" in readme
    assert "property-based" in readme and "oracle" in readme
    _report(9, "README states that absolute benchmark scores need the full "
               "pretrained embeddings/corpora and that property/oracle tests "
               "stand in for them")
