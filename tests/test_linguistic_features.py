"""PoS one-hots, cosine, and the abstractness backoff chain."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metaseq.errors import ParameterError, ParseError
from metaseq.linguistic_features import (
    AbstractnessLexicon,
    AbstractnessScorer,
    PosVocabulary,
    cosine,
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
        lex = AbstractnessLexicon.load(lexicon_path)
        assert lex.score("purism") == 0.97
        assert lex.score("ski") == 0.25
        assert len(lex) == 8

    def test_score_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("word\t1.5\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 1: score 1.5 outside")):
            AbstractnessLexicon.load(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("word\t0.5\nword only\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 2: expected `word TAB")):
            AbstractnessLexicon.load(p)


def _table(entries):
    return static_table(len(next(iter(entries.values()))), entries)


def scored(word, lex, table, lowercase=True) -> float:
    return AbstractnessScorer(lex, table, lowercase).score(word)


class TestAbstractness:
    def test_listed_words_score_directly(self, lexicon_path):
        lex = AbstractnessLexicon.load(lexicon_path)
        table = _table({"purism": [1.0, 0.0], "ski": [0.0, 1.0]})
        assert scored("purism", lex, table) == 0.97
        assert scored("ski", lex, table) == 0.25

    def test_doubly_oov_scores_half(self, lexicon_path):
        lex = AbstractnessLexicon.load(lexicon_path)
        table = _table({"purism": [1.0, 0.0]})
        assert scored("zzgrblx", lex, table) == 0.5

    def test_identical_vector_inherits_score(self):
        lex = AbstractnessLexicon({"stone": 0.05})
        table = _table({"stone": [2.0, 1.0], "pebble": [2.0, 1.0]})
        assert scored("pebble", lex, table) == 0.05

    def test_nearest_neighbor_by_cosine(self):
        lex = AbstractnessLexicon({"stone": 0.05, "idea": 0.92})
        table = _table({"stone": [1.0, 0.0], "idea": [0.0, 1.0],
                        "boulder": [0.9, 0.1]})
        assert scored("boulder", lex, table) == 0.05

    def test_tie_breaks_lexicographically(self):
        lex = AbstractnessLexicon({"beta": 0.8, "alpha": 0.2})
        table = _table({"alpha": [1.0, 0.0], "beta": [1.0, 0.0],
                        "query": [1.0, 0.0]})
        assert scored("query", lex, table) == 0.2

    def test_lowercase_flag(self):
        lex = AbstractnessLexicon({"ski": 0.25})
        table = _table({"ski": [1.0, 0.0]})
        assert scored("Ski", lex, table, lowercase=True) == 0.25
        assert scored("Ski", lex, table, lowercase=False) == 0.5

    def test_output_always_in_unit_interval(self):
        lex = AbstractnessLexicon({"a": 0.0, "b": 1.0})
        table = _table({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [-1.0, -1.0]})
        for word in ("a", "b", "c", "missing", "B"):
            assert 0.0 <= scored(word, lex, table) <= 1.0

    def test_memoization_caches_backoff(self):
        lex = AbstractnessLexicon({"stone": 0.05})
        table = _table({"stone": [1.0, 0.0], "rock": [0.8, 0.2]})
        scorer = AbstractnessScorer(lex, table)
        assert scorer.score("rock") == 0.05
        table.matrix[table.rows["stone"]] = [0.0, 1.0]  # memo hides later mutation
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
        lex = AbstractnessLexicon(scores)
        table = _table(vectors)
        scorer = AbstractnessScorer(lex, table)
        for q in queries:
            best_word, best_sim = None, -np.inf
            for w in words:  # plain scan over the full lexicon
                sim = cosine(vectors[q], vectors[w])
                if sim > best_sim or (sim == best_sim and w < best_word):
                    best_word, best_sim = w, sim
            expected = scores[best_word] if np.linalg.norm(vectors[q]) else 0.5
            assert scorer.score(q) == expected
