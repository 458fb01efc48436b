"""Novel n-gram counting and the benchmark report."""

from __future__ import annotations

import numpy as np
import pytest

from compforge.errors import ConfigError, DataError
from compforge.ngrams import NGramDictionary
from compforge.novelty import (
    TaggedSentence,
    benchmark_report,
    novel_ngram_count,
    read_tagged_file,
)

from conftest import make_examples
from oracles import set_difference_novelty


class TestNovelCounts:
    def test_identical_streams_have_no_novelty(self):
        stream = [("a", "b", "c"), ("d", "e")]
        assert novel_ngram_count(stream, stream, 2) == 0

    def test_one_novel_bigram(self):
        train = [("a", "b"), ("b", "c")]
        test = [("b", "c"), ("c", "d")]
        assert novel_ngram_count(train, test, 2) == 1

    def test_ngrams_do_not_cross_sentences(self):
        train = [("a", "b")]
        test = [("a",), ("b",)]  # "a b" never occurs inside one test sentence
        assert novel_ngram_count(train, test, 2) == 0

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(31)
        tokens = list("abcde")
        for n in (2, 3):
            for _ in range(50):
                train = [tuple(rng.choice(tokens, size=int(rng.integers(2, 8))))
                         for _ in range(20)]
                test = [tuple(rng.choice(tokens, size=int(rng.integers(2, 8))))
                        for _ in range(10)]
                assert novel_ngram_count(train, test, n) == set_difference_novelty(train, test, n)

    def test_growing_train_never_increases_novelty(self):
        rng = np.random.default_rng(12)
        tokens = list("abcd")
        test = [tuple(rng.choice(tokens, size=5)) for _ in range(10)]
        train = [tuple(rng.choice(tokens, size=5)) for _ in range(5)]
        prev = novel_ngram_count(train, test, 2)
        for _ in range(5):
            train = train + [tuple(rng.choice(tokens, size=5))]
            cur = novel_ngram_count(train, test, 2)
            assert cur <= prev
            prev = cur

    def test_concatenation_subadditive(self):
        rng = np.random.default_rng(13)
        tokens = list("abcd")
        train = [tuple(rng.choice(tokens, size=5)) for _ in range(10)]
        t1 = [tuple(rng.choice(tokens, size=5)) for _ in range(6)]
        t2 = [tuple(rng.choice(tokens, size=5)) for _ in range(6)]
        both = novel_ngram_count(train, t1 + t2, 2)
        assert both <= novel_ngram_count(train, t1, 2) + novel_ngram_count(train, t2, 2)

    def test_invalid_n(self):
        with pytest.raises(ConfigError):
            novel_ngram_count([("a",)], [("a",)], 0)


def tag_by_case(sentence):
    """Toy tagger: uppercase tokens are 'U', lowercase 'L'."""
    return TaggedSentence(
        tokens=tuple(sentence),
        tags=tuple("U" if tok.isupper() else "L" for tok in sentence),
    )


class TestBenchmarkReport:
    def make_inputs(self):
        train_sents = ["a b c", "b c d", "a b d"]
        test_sents = ["a b c", "b c d"]  # subset: no novelty
        train = make_examples(train_sents)
        test = make_examples(test_sents)
        tagged_train = [tag_by_case(s.split()) for s in train_sents]
        tagged_test = [tag_by_case(s.split()) for s in test_sents]
        dictionary = NGramDictionary.from_entries([["a", "b"], ["c"], ["b"], ["d"]])
        return train, test, tagged_train, tagged_test, dictionary

    def test_subset_test_has_zero_novelty(self):
        train, test, tg_train, tg_test, d = self.make_inputs()
        report = benchmark_report(train, test, tg_train, tg_test, d)
        assert report.novel_word_ngrams == {2: 0, 3: 0}
        assert report.novel_tag_ngrams == {2: 0, 3: 0}
        assert report.n_examples == 2
        # degrees: "a b c" -> (a b|c) = 2/3 ; "b c d" -> (b|c|d) = 3/3
        assert report.mean_degree == pytest.approx((2 / 3 + 1.0) / 2)

    def test_synthetic_against_oracles(self):
        rng = np.random.default_rng(77)
        tokens = list("abcdefg")
        train_sents = [" ".join(rng.choice(tokens, size=int(rng.integers(3, 9))))
                       for _ in range(100)]
        test_sents = [" ".join(rng.choice(tokens, size=int(rng.integers(3, 9))))
                      for _ in range(30)]
        train, test = make_examples(train_sents), make_examples(test_sents)
        tg_train = [tag_by_case(s.split()) for s in train_sents]
        tg_test = [tag_by_case(s.split()) for s in test_sents]
        d = NGramDictionary.from_entries([["a", "b"], ["c", "d", "e"]])
        report = benchmark_report(train, test, tg_train, tg_test, d)
        for n in (2, 3):
            assert report.novel_word_ngrams[n] == set_difference_novelty(
                [s.split() for s in train_sents], [s.split() for s in test_sents], n
            )

    def test_tag_permutation_changes_only_tag_counts(self):
        train, test, tg_train, tg_test, d = self.make_inputs()
        rng = np.random.default_rng(4)
        varied = [
            TaggedSentence(ts.tokens, tuple(rng.choice(list("NVDA"), size=len(ts.tokens))))
            for ts in tg_test
        ]
        base = benchmark_report(train, test, tg_train, varied, d)
        shuffled = [
            TaggedSentence(ts.tokens, tuple(rng.permutation(list(ts.tags))))
            for ts in varied
        ]
        report = benchmark_report(train, test, tg_train, shuffled, d)
        assert report.novel_word_ngrams == base.novel_word_ngrams
        assert report.mean_degree == base.mean_degree

    def test_alignment_mismatch_rejected(self):
        train, test, tg_train, tg_test, d = self.make_inputs()
        with pytest.raises(DataError):
            benchmark_report(train, test, tg_train, tg_test[:-1], d)

    def test_tag_length_mismatch_names_sentence(self):
        with pytest.raises(DataError) as err:
            TaggedSentence(("hello", "world"), ("L",))
        assert "hello" in str(err.value)


class TestTaggedIO:
    def test_vertical_format_round_trip(self, tmp_path):
        sentences = [
            TaggedSentence(("a", "b"), ("X", "Y")),
            TaggedSentence(("c",), ("Z",)),
        ]
        path = tmp_path / "tagged.tsv"
        path.write_text("a\tX\nb\tY\n\nc\tZ\n\n", encoding="utf-8")
        assert read_tagged_file(path) == sentences

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tX\nno_tag_here\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_tagged_file(path)
        assert err.value.line == 2
