"""Corpus loading, vocabulary counts, and OOV screening."""

from __future__ import annotations

import numpy as np
import pytest

from compforge.corpus import (
    ParallelExample,
    build_vocab_counts,
    filter_oov,
    load_parallel_corpus,
    save_corpus_jsonl,
    side_tokens,
)
from compforge.errors import ConfigError, DataError

from conftest import make_examples


class TestLoading:
    def test_tsv_line_splits_into_both_sides(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a b c\tx y\nq r\ts\n", encoding="utf-8")
        corpus = load_parallel_corpus(path)
        assert corpus[0].source == ("a", "b", "c")
        assert corpus[0].target == ("x", "y")
        assert [ex.id for ex in corpus] == ["0", "1"]

    def test_empty_file_is_an_empty_corpus(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("", encoding="utf-8")
        assert load_parallel_corpus(path) == []

    def test_jsonl_missing_target_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"source": "a", "target": "b"}\n{"source": "a only"}\n', encoding="utf-8"
        )
        with pytest.raises(DataError) as err:
            load_parallel_corpus(path)
        assert err.value.line == 2

    def test_tsv_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\nno tab here\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_parallel_corpus(path)
        assert err.value.line == 2

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "x", "source": "a", "target": "b"}\n'
            '{"id": "x", "source": "c", "target": "d"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError):
            load_parallel_corpus(path)

    def test_jsonl_round_trip(self, tmp_path):
        corpus = make_examples(["a b c", "d e"])
        path = tmp_path / "out.jsonl"
        save_corpus_jsonl(corpus, path)
        again = load_parallel_corpus(path)
        assert again == corpus

    def test_unknown_side_rejected(self):
        ex = ParallelExample("0", ("a",), ("b",))
        with pytest.raises(ConfigError):
            side_tokens(ex, "middle")


class TestVocabCounts:
    def test_small_fixture(self):
        corpus = make_examples(["a b a"])
        counts = build_vocab_counts(corpus, "target")
        assert counts.counts == {"a": 2, "b": 1}
        assert counts.total_tokens == 3

    def test_empty_corpus(self):
        counts = build_vocab_counts([], "target")
        assert counts.counts == {} and counts.total_tokens == 0

    def test_absent_token_counts_zero(self):
        counts = build_vocab_counts(make_examples(["a"]), "target")
        assert counts.count("zzz") == 0

    def test_repetition_scales_counts_linearly(self):
        base = make_examples(["a b c d"])
        for k in (2, 5):
            repeated = make_examples(["a b c d"] * k)
            single = build_vocab_counts(base, "target")
            many = build_vocab_counts(repeated, "target")
            assert all(many.count(t) == k * single.count(t) for t in single.counts)

    def test_counts_additivity_over_concatenation(self):
        rng = np.random.default_rng(5)
        sents_a = [" ".join(rng.choice(list("abcdef"), size=5)) for _ in range(20)]
        sents_b = [" ".join(rng.choice(list("abcdef"), size=5)) for _ in range(20)]
        ca = build_vocab_counts(make_examples(sents_a), "target")
        cb = build_vocab_counts(make_examples(sents_b), "target")
        cab = build_vocab_counts(make_examples(sents_a + sents_b), "target")
        for token in set(ca.counts) | set(cb.counts):
            assert cab.count(token) == ca.count(token) + cb.count(token)


class TestFilterOOV:
    def fixture_counts(self):
        # "common" tokens seen 5x, "rare" seen once
        corpus = make_examples(["a b c"] * 5 + ["rare x y"])
        return build_vocab_counts(corpus, "target")

    def test_retains_frequent_only_examples(self):
        counts = self.fixture_counts()
        pool = make_examples(["a b", "b c a"])
        assert filter_oov(pool, counts, min_count=3) == pool

    def test_discards_example_with_rare_token(self):
        counts = self.fixture_counts()
        pool = make_examples(["a rare b"])
        assert filter_oov(pool, counts, min_count=3) == []

    def test_order_preserved_against_per_token_check(self):
        # 10 synthetic examples, 4 of which contain a rare token
        counts = self.fixture_counts()
        sentences = [
            "a b", "a rare", "c c", "x y", "b", "rare", "a c b", "y", "c a", "b b c",
        ]
        pool = make_examples(sentences)
        kept = filter_oov(pool, counts, min_count=3)
        expected = [
            ex for ex in pool
            if all(counts.count(tok) >= 3 for tok in ex.target)  # independent check
        ]
        assert kept == expected
        assert len(kept) == 6

    def test_idempotent(self):
        counts = self.fixture_counts()
        pool = make_examples(["a b", "rare a", "c"])
        once = filter_oov(pool, counts, min_count=3)
        assert filter_oov(once, counts, min_count=3) == once

    def test_output_is_subsequence_of_input(self):
        rng = np.random.default_rng(11)
        corpus = make_examples(
            [" ".join(rng.choice(list("abcdefgh"), size=4)) for _ in range(50)]
        )
        counts = build_vocab_counts(corpus[:30], "target")
        kept = filter_oov(corpus, counts, min_count=2)
        it = iter(corpus)
        assert all(ex in it for ex in kept)  # order-preserving subsequence

    def test_zero_min_count_keeps_unseen_tokens(self):
        counts = self.fixture_counts()
        pool = make_examples(["a never-seen", "rare"])
        assert filter_oov(pool, counts, min_count=0) == pool

    def test_negative_min_count_rejected(self):
        with pytest.raises(ConfigError):
            filter_oov([], self.fixture_counts(), min_count=-1)
