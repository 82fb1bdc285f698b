"""PoS one-hots, cosine, and the abstractness backoff chain."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metaseq import linguistic_features
from metaseq.errors import ParameterError, ParseError
from metaseq.linguistic_features import (
    AbstractnessScorer,
    PosVocabulary,
    cosine,
    load_abstractness_lexicon,
)
from metaseq.tagger_model import ModelConfig

from conftest import static_table


class TestPosOneHot:
    def test_known_tag(self):
        vocab = PosVocabulary(["NOUN", "VERB"])
        np.testing.assert_array_equal(vocab.one_hot("NOUN"), [1, 0, 0])

    def test_unknown_tag_hits_unk_slot(self):
        vocab = PosVocabulary(["NOUN", "VERB"])
        np.testing.assert_array_equal(vocab.one_hot("X9"), [0, 0, 1])

    def test_always_sums_to_one(self):
        vocab = PosVocabulary(["NOUN", "VERB", "ADJ"])
        for tag in ("NOUN", "VERB", "ADJ", "ADV", ""):
            assert vocab.one_hot(tag).sum() == 1.0

    def test_empty_vocab_rejected(self):
        with pytest.raises(ParameterError):
            ModelConfig(use_pos=True)

    def test_duplicate_tags_collapse(self):
        vocab = PosVocabulary(["NOUN", "NOUN", "VERB"])
        assert vocab.tags == ("NOUN", "VERB")


class TestCosine:
    def test_self_similarity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_hand_value(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0 / np.sqrt(2), abs=1e-12)

    def test_zero_vector_defined_as_zero(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=6))
    def test_scale_invariance(self, alpha, values):
        u = np.array(values)
        v = np.arange(1.0, len(values) + 1.0)
        if np.linalg.norm(u) == 0:
            return
        assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-12)


class TestLexicon:
    def test_load(self, lexicon_path):
        lex = load_abstractness_lexicon(lexicon_path)
        assert lex["purism"] == 0.97
        assert lex["ski"] == 0.25
        assert len(lex) == 8

    def test_score_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("word\t1.5\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 1: score 1.5 outside")):
            load_abstractness_lexicon(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("word\t0.5\nword only\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 2: expected `word TAB")):
            load_abstractness_lexicon(p)


def _table(entries):
    return static_table(len(next(iter(entries.values()))), entries)


def scored(word, lex, table, lowercase=True) -> float:
    return AbstractnessScorer(lex, table, [word], lowercase).score(word)


class TestAbstractness:
    def test_listed_words_score_directly(self, lexicon_path):
        lex = load_abstractness_lexicon(lexicon_path)
        table = _table({"purism": [1.0, 0.0], "ski": [0.0, 1.0]})
        assert scored("purism", lex, table) == 0.97
        assert scored("ski", lex, table) == 0.25

    def test_doubly_oov_scores_half(self, lexicon_path):
        lex = load_abstractness_lexicon(lexicon_path)
        table = _table({"purism": [1.0, 0.0]})
        assert scored("zzgrblx", lex, table) == 0.5

    def test_identical_vector_inherits_score(self):
        lex = {"stone": 0.05}
        table = _table({"stone": [2.0, 1.0], "pebble": [2.0, 1.0]})
        assert scored("pebble", lex, table) == 0.05

    def test_nearest_neighbor_by_cosine(self):
        lex = {"stone": 0.05, "idea": 0.92}
        table = _table({"stone": [1.0, 0.0], "idea": [0.0, 1.0],
                        "boulder": [0.9, 0.1]})
        assert scored("boulder", lex, table) == 0.05

    def test_tie_breaks_lexicographically(self):
        lex = {"beta": 0.8, "alpha": 0.2}
        table = _table({"alpha": [1.0, 0.0], "beta": [1.0, 0.0],
                        "query": [1.0, 0.0]})
        assert scored("query", lex, table) == 0.2

    def test_lowercase_flag(self):
        lex = {"ski": 0.25}
        table = _table({"ski": [1.0, 0.0]})
        assert scored("Ski", lex, table, lowercase=True) == 0.25
        assert scored("Ski", lex, table, lowercase=False) == 0.5

    def test_output_always_in_unit_interval(self):
        lex = {"a": 0.0, "b": 1.0}
        table = _table({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [-1.0, -1.0]})
        for word in ("a", "b", "c", "missing", "B"):
            assert 0.0 <= scored(word, lex, table) <= 1.0

    def test_words_scored_at_construction(self):
        lex = {"stone": 0.05}
        table = _table({"stone": [1.0, 0.0], "rock": [0.8, 0.2]})
        scorer = AbstractnessScorer(lex, table, ["rock"])
        assert scorer.score("rock") == 0.05
        table.matrix[table.rows["stone"]] = [0.0, 1.0]  # scored before the mutation
        assert scorer.score("rock") == 0.05

    def test_backoff_matches_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(11)
        dim = 4
        words = [f"word{idx:04d}" for idx in range(1000)]
        vectors = {w: rng.integers(-5, 6, size=dim).astype(float) for w in words}
        scores = {w: float(rng.integers(0, 101)) / 100.0 for w in words}
        queries = [f"query{idx}" for idx in range(50)]
        for q in queries:
            vectors[q] = rng.integers(-5, 6, size=dim).astype(float)
        scorer = AbstractnessScorer(scores, _table(vectors), queries)
        for q in queries:
            best_word, best_sim = None, -np.inf
            for w in words:  # plain scan over the full lexicon
                sim = cosine(vectors[q], vectors[w])
                if sim > best_sim or (sim == best_sim and w < best_word):
                    best_word, best_sim = w, sim
            expected = scores[best_word] if np.linalg.norm(vectors[q]) else 0.5
            assert scorer.score(q) == expected

    def test_zero_vectors(self):
        lex = {"a": 0.1, "b": 0.9}
        table = _table({"a": [0.0, 0.0], "b": [-1.0, 0.0], "query": [1.0, 0.0],
                        "blank": [0.0, 0.0]})
        assert scored("query", lex, table) == 0.1   # zero candidate: similarity 0 > -1
        assert scored("blank", lex, table) == 0.5   # zero query

    def test_identical_vectors_tie_to_smallest_word_at_any_row(self):
        # w00051 and w00788 share one 300-d vector. A product over all
        # candidate rows at once may round the two copies' dot products
        # differently by where the rows sit; with OpenBLAS it rounds
        # w00788's higher for this seed, which once handed it the tie.
        rng = np.random.default_rng(1398)
        words = [f"w{i:05d}" for i in range(790)]
        rows = rng.normal(size=(790, 300))
        rows[788] = rows[51]
        vectors = dict(zip(words, rows))
        vectors["query"] = rows[51] + 0.1 * rng.normal(size=300)
        lex = dict.fromkeys(words, 0.5) | {"w00051": 0.25, "w00788": 0.75}
        assert scored("query", lex, _table(vectors)) == 0.25

    def test_blocked_backoff_matches_exhaustive_scan_oracle(self, monkeypatch):
        rng = np.random.default_rng(29)
        dim = 300
        words = [f"lex{i:04d}" for i in range(400)]
        rows = rng.normal(size=(400, dim))
        for src, dst in ((3, 250), (250, 251), (399, 17), (42, 43)):
            rows[dst] = rows[src]       # identical vectors, either order
        rows[100] = 0.0                 # a zero candidate
        vectors = dict(zip(words, rows))
        lex = {w: round(float(rng.uniform()), 6) for w in words}
        queries = [f"q{i:02d}" for i in range(60)]
        for i, q in enumerate(queries):
            base = rows[(3, 250, 17, 42, 399)[i % 5]] if i < 20 else 0.0
            vectors[q] = base + (0.2 if i < 20 else 1.0) * rng.normal(size=dim)
        vectors["copy"] = rows[251].copy()
        vectors["zero"] = np.zeros(dim)
        words_read = [*queries, "copy", "zero", "lex0007", "unknown"]
        # 3,000 floats per block: 7 queries per block over 396 distinct candidates
        monkeypatch.setattr(linguistic_features, "SIMILARITY_BLOCK_FLOATS", 3000)
        scorer = AbstractnessScorer(lex, _table(vectors), words_read)

        def exact_cosine(u, v):   # correctly rounded sums: identical rows tie exactly
            denom = np.sqrt(math.fsum(u * u)) * np.sqrt(math.fsum(v * v))
            return math.fsum(u * v) / denom if denom else 0.0

        for q in [*queries, "copy"]:
            best = min(words, key=lambda w: (-exact_cosine(vectors[q], vectors[w]), w))
            assert scorer.score(q) == lex[best], q
        assert scorer.score("zero") == 0.5
        assert scorer.score("lex0007") == lex["lex0007"]
        assert scorer.score("unknown") == 0.5
