"""Dataset parsing, metric arithmetic, breakdowns, and fold plans."""

import re

import numpy as np
import pytest

from metaseq.errors import ContractError, InputError, ParameterError, ParseError
from metaseq.train_eval import (
    METAPHOR,
    MetricsReport,
    SentenceRecord,
    TokenRecord,
    breakdown,
    compute_metrics,
    dataset_stats,
    f1_from_pr,
    kfold,
    parse_dataset,
    pool_reports,
)


class TestParseDataset:
    def test_fixture_hand_counts(self, small_dataset_path):
        sents = parse_dataset(small_dataset_path)
        assert len(sents) == 3
        assert [s.sentence_id for s in sents] == ["s1", "s2", "s3"]
        assert [s.genre for s in sents] == ["news", "academic", "conversation"]
        stats = dataset_stats(sents)
        assert stats.n_sequences == 3
        assert stats.n_target_tokens == 10
        assert stats.pct_metaphor == pytest.approx(30.0)
        assert stats.avg_metaphors_per_met_sentence == pytest.approx(1.0)

    def test_token_fields(self, small_dataset_path):
        sents = parse_dataset(small_dataset_path)
        tok = sents[0].tokens[2]
        assert tok.text == "devoured" and tok.pos == "VERB"
        assert tok.label == METAPHOR and tok.target

    def test_missing_column_reports_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("s1\tnews\t0\tword\tNOUN\t0\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 1: expected 7 columns")):
            parse_dataset(p)

    def test_unknown_label(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("s1\tnews\t0\tword\tNOUN\t2\t1\n")
        with pytest.raises(ParseError, match="label"):
            parse_dataset(p)

    def test_sentence_id_change_without_blank_line(self, tmp_path):
        p = tmp_path / "merged.tsv"
        p.write_text("s1\tnews\t0\ta\tNOUN\t0\t1\n"
                     "s1\tnews\t1\tb\tVERB\t0\t1\n"
                     "s2\tnews\t0\tc\tNOUN\t1\t1\n")
        with pytest.raises(ParseError, match=r"line 3: sentence id 's2' inside sentence 's1'"):
            parse_dataset(p)

    @pytest.mark.parametrize("indices,bad_line", [
        ((1, 2), 1),        # does not start at 0
        ((0, 2), 2),        # gap
        ((0, 0), 2),        # repeat
        ((0, "x"), 2),      # not a number
    ])
    def test_token_index_must_count_from_zero(self, tmp_path, indices, bad_line):
        p = tmp_path / "idx.tsv"
        p.write_text("".join(f"s1\tnews\t{i}\tw\tNOUN\t0\t1\n" for i in indices))
        with pytest.raises(ParseError, match=f"line {bad_line}: token index"):
            parse_dataset(p)

    def test_token_index_restarts_after_blank_line(self, tmp_path):
        p = tmp_path / "two.tsv"
        p.write_text("s1\tnews\t0\ta\tNOUN\t0\t1\ns1\tnews\t1\tb\tVERB\t0\t1\n\n"
                     "s2\tnews\t0\tc\tNOUN\t1\t1\n")
        assert [len(s.tokens) for s in parse_dataset(p)] == [2, 1]

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_file_with_no_sentence_is_input_error(self, tmp_path, text):
        p = tmp_path / "empty.tsv"
        p.write_text(text)
        with pytest.raises(InputError) as info:
            parse_dataset(p)
        assert str(info.value) == f"{p}: no sentences"

    def test_unknown_genre_becomes_other(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("s1\temail\t0\tword\tNOUN\t0\t1\n")
        assert parse_dataset(p)[0].genre == "other"


class TestComputeMetrics:
    def test_perfect(self):
        r = compute_metrics([1, 0, 1], [1, 0, 1])
        assert (r.precision, r.recall, r.f1, r.accuracy) == (1.0, 1.0, 1.0, 1.0)

    def test_confusion_arithmetic(self):
        r = compute_metrics([1, 1, 0, 0], [1, 0, 1, 0])
        assert (r.tp, r.fp, r.fn, r.tn) == (1, 1, 1, 1)
        assert (r.precision, r.recall, r.f1, r.accuracy) == (0.5, 0.5, 0.5, 0.5)

    def test_mask_restricts_scoring(self):
        r = compute_metrics([1, 1], [1, 0], mask=[True, False])
        assert (r.tp, r.fp, r.fn, r.tn) == (1, 0, 0, 0)

    def test_zero_division_reads_zero(self):
        r = compute_metrics([0, 0], [0, 0])
        assert r.precision == 0.0 and r.recall == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            compute_metrics([1], [1, 0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pred = rng.integers(0, 2, 40)
        gold = rng.integers(0, 2, 40)
        base = compute_metrics(pred, gold)
        perm = rng.permutation(40)
        shuffled = compute_metrics(pred[perm], gold[perm])
        assert (base.tp, base.fp, base.fn, base.tn) == \
               (shuffled.tp, shuffled.fp, shuffled.fn, shuffled.tn)

    def test_published_row_consistency(self):
        assert f1_from_pr(74.9, 74.4) == pytest.approx(74.65, abs=0.01)


def _sentence(sid, genre, rows):
    return SentenceRecord(sid, genre,
                          [TokenRecord(t, pos, label, bool(target))
                           for (t, pos, label, target) in rows])


class TestBreakdown:
    def test_single_genre(self):
        sents = [_sentence("a", "news", [("x", "NOUN", 1, 1), ("y", "VERB", 0, 1)])]
        out = breakdown(sents, [[1, 0]], key="genre")
        assert set(out) == {"news"}
        assert out["news"].f1 == 1.0

    def test_other_genre_excluded(self):
        sents = [_sentence("a", "other", [("x", "NOUN", 1, 1)])]
        assert breakdown(sents, [[1]], key="genre") == {}

    def test_partition_law(self):
        rng = np.random.default_rng(9)
        sents, preds = [], []
        for i, genre in enumerate(["news", "fiction", "academic", "conversation"] * 3):
            rows = [(f"w{j}", "NOUN", int(rng.integers(0, 2)), 1) for j in range(5)]
            sents.append(_sentence(f"s{i}", genre, rows))
            preds.append(rng.integers(0, 2, 5).tolist())
        per_genre = breakdown(sents, preds, key="genre")
        overall = compute_metrics([p for row in preds for p in row],
                                  [t.label for s in sents for t in s.tokens])
        pooled = pool_reports(per_genre.values())
        assert (pooled.tp, pooled.fp, pooled.fn, pooled.tn) == \
               (overall.tp, overall.fp, overall.fn, overall.tn)

    def test_pos_all_row_and_masked_classes(self):
        sents = [_sentence("a", "news", [("run", "VERB", 1, 1),
                                         ("sky", "NOUN", 0, 0),
                                         ("of", "ADP", 0, 1)])]
        out = breakdown(sents, [[1, 0, 0]], key="pos")
        assert set(out) == {"VERB", "ALL"}
        assert out["VERB"].f1 == 1.0
        every = out["ALL"]   # non-target NOUN excluded, ADP only in ALL
        assert every.tp + every.fp + every.fn + every.tn == 2

    def test_unknown_key(self):
        with pytest.raises(ParameterError):
            breakdown([], [], key="color")


class TestKfold:
    def _dataset(self, n):
        return [
            _sentence(f"s{i}", "news", [("w", "NOUN", i % 2, 1)]) for i in range(n)
        ]

    def test_balanced_sizes(self):
        plan = kfold(self._dataset(647), k=10, seed=1)
        sizes = np.bincount(plan.assignment, minlength=10)
        assert sizes.sum() == 647
        assert sizes.max() - sizes.min() <= 1
        assert sorted(sizes.tolist(), reverse=True) == [65] * 7 + [64] * 3

    def test_determinism(self):
        data = self._dataset(40)
        a = kfold(data, k=5, seed=9).assignment
        b = kfold(data, k=5, seed=9).assignment
        np.testing.assert_array_equal(a, b)
        c = kfold(data, k=5, seed=10).assignment
        assert not np.array_equal(a, c)

    def test_partition_law(self):
        data = self._dataset(23)
        plan = kfold(data, k=4, seed=3)
        seen = []
        for fold in range(4):
            train, test = plan.split(fold)
            assert not set(train) & set(test)
            assert len(train) + len(test) == 23
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(23))

    def test_k_larger_than_dataset(self):
        with pytest.raises(ParameterError):
            kfold(self._dataset(3), k=10, seed=0)

    def test_stratified_balances_metaphor_sentences(self):
        data = self._dataset(40)  # alternating metaphor/literal sentences
        plan = kfold(data, k=4, seed=2, stratify=True)
        for fold in range(4):
            _, test = plan.split(fold)
            met = sum(1 for i in test if any(
                t.label == METAPHOR for t in data[i].tokens))
            assert met == 5  # 20 metaphor sentences over 4 folds

    def test_pooled_counts_equal_sum_of_folds(self):
        rng = np.random.default_rng(4)
        reports = [
            compute_metrics(rng.integers(0, 2, 30), rng.integers(0, 2, 30))
            for _ in range(10)
        ]
        pooled = pool_reports(reports)
        assert pooled.tp == sum(r.tp for r in reports)
        assert pooled.fp == sum(r.fp for r in reports)
        assert pooled.fn == sum(r.fn for r in reports)
        assert pooled.tn == sum(r.tn for r in reports)
