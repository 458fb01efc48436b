"""Minimum covers, compositional degree, and candidate-pool selection."""

from __future__ import annotations

import itertools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compforge.cover as cover_module
from compforge.corpus import ParallelExample
from compforge.cover import (
    CompositionalDegree,
    degree_of,
    min_cover,
    score_degrees,
    select_candidate_pool,
)
from compforge.errors import ConfigError
from compforge.ngrams import NGramDictionary, build_ngram_dictionary

from oracles import all_segmentations, exhaustive_min_cover, full_sort_selection


def dict_of(*entries):
    return NGramDictionary.from_entries([e.split() for e in entries])


class TestMinCover:
    def test_worked_example(self):
        d = dict_of("x1", "x2", "x3 x4", "x5", "x1 x2", "x3 x4 x5")
        cover = min_cover("x1 x2 x3 x4 x5".split(), d)
        assert len(cover) == 2
        assert cover == (("x1", "x2"), ("x3", "x4", "x5"))

    def test_low_degree_sentence(self):
        d = dict_of("but", "what can we do about this ?")
        sent = "but what can we do about this ?".split()
        assert len(min_cover(sent, d)) == 2
        assert degree_of(sent, d).value == pytest.approx(0.25)

    def test_high_degree_sentence(self):
        d = dict_of("please", "report", "all", "changes", "here .")
        sent = "please report all changes here .".split()
        assert len(min_cover(sent, d)) == 5
        degree = degree_of(sent, d)
        assert (degree.atom_count, degree.length) == (5, 6)

    def test_uncovered_tokens_flagged(self):
        d = dict_of("a b")
        assert min_cover(["a", "b", "zzz"], d) == (("a", "b"), ("zzz",))

    def test_singleton_member_is_covered(self):
        d = dict_of("a")
        cover = min_cover(["a", "q"], d)
        assert cover == (("a",), ("q",))
        assert [d.contains(atom) for atom in cover] == [True, False]

    def test_empty_dictionary_gives_fallback_ceiling(self):
        d = NGramDictionary.from_entries([["unused"]])
        sent = ["p", "q", "r"]
        assert len(min_cover(sent, d)) == len(sent)
        assert degree_of(sent, d).value == 1.0

    def test_tie_break_prefers_longer_final_atom(self):
        d = dict_of("a", "b c", "a b", "c")
        cover = min_cover(["a", "b", "c"], d)
        assert len(cover) == 2
        assert cover == (("a",), ("b", "c"))

    def test_atoms_concatenate_to_sentence(self):
        rng = np.random.default_rng(0)
        tokens = list("abcdef")
        d = build_ngram_dictionary(
            [tuple(rng.choice(tokens, size=6)) for _ in range(100)], min_count=2, max_n=4
        )
        for _ in range(100):
            sent = list(rng.choice(tokens, size=int(rng.integers(1, 12))))
            cover = min_cover(sent, d)
            flat = [tok for atom in cover for tok in atom]
            assert flat == sent
            for atom in cover:
                assert len(atom) == 1 or d.contains(atom)

    def test_optimal_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(99)
        tokens = list("abcdef")
        for _ in range(300):
            d = build_ngram_dictionary(
                [tuple(rng.choice(tokens, size=5)) for _ in range(30)], min_count=1, max_n=4
            )
            sent = list(rng.choice(tokens, size=int(rng.integers(1, 13))))
            assert len(min_cover(sent, d)) == exhaustive_min_cover(sent, d)

    def test_adding_entries_never_increases_count(self):
        rng = np.random.default_rng(17)
        tokens = list("abcd")
        base_entries = [["a", "b"], ["c"]]
        richer_entries = base_entries + [["b", "c"], ["a", "b", "c"], ["d", "a"]]
        small = NGramDictionary.from_entries(base_entries)
        large = NGramDictionary.from_entries(richer_entries)
        for _ in range(200):
            sent = list(rng.choice(tokens, size=int(rng.integers(1, 10))))
            assert len(min_cover(sent, large)) <= len(min_cover(sent, small))

    def test_empty_sentence_rejected(self):
        with pytest.raises(ConfigError):
            min_cover([], dict_of("a"))


class TestDegree:
    def test_exact_fractions(self):
        d = dict_of("x1 x2", "x3 x4 x5")
        degree = degree_of("x1 x2 x3 x4 x5".split(), d)
        assert (degree.atom_count, degree.length) == (2, 5)
        assert degree.value == pytest.approx(0.4)

    def test_single_atom_sentence(self):
        d = dict_of("a b c d")
        degree = degree_of("a b c d".split(), d)
        assert (degree.atom_count, degree.length) == (1, 4)

    def test_degree_bounds(self):
        rng = np.random.default_rng(2)
        tokens = list("abcde")
        d = build_ngram_dictionary(
            [tuple(rng.choice(tokens, size=5)) for _ in range(60)], min_count=2, max_n=3
        )
        for _ in range(100):
            sent = list(rng.choice(tokens, size=int(rng.integers(1, 10))))
            degree = degree_of(sent, d)
            assert 0 < degree.value <= 1.0


class TestScoreDegrees:
    def test_more_sentences_than_one_chunk_match_min_cover(self):
        rng = np.random.default_rng(5)
        tokens = list("abcdef")
        d = build_ngram_dictionary(
            [tuple(rng.choice(tokens, size=8)) for _ in range(200)], min_count=2, max_n=5
        )
        pool = [list(rng.choice(tokens + ["zz"], size=int(rng.integers(1, 30))))
                for _ in range(2 * cover_module._CHUNK + 3)]
        degrees = score_degrees(pool, d)
        assert [(g.atom_count, g.length) for g in degrees] == [
            (len(min_cover(sent, d)), len(sent)) for sent in pool
        ]

    def test_empty_sentence_rejected_with_its_index(self):
        with pytest.raises(ConfigError, match="sentence 2"):
            score_degrees([["a"], ["a", "b"], []], dict_of("a b"))

    def test_no_sentences(self):
        assert score_degrees([], dict_of("a")) == []

    def test_long_repeated_sentences_are_fast(self):
        # 400-token sentences store every n-gram up to length 400 with max_n=None.
        corpus = [("a",) * 400] * 5
        started = time.perf_counter()
        d = build_ngram_dictionary(corpus, min_count=3, max_n=None)
        degrees = score_degrees(corpus, d)
        elapsed = time.perf_counter() - started
        assert len(d) == 400
        assert [g.atom_count for g in degrees] == [1] * 5
        assert elapsed < 1.0, f"build and score took {elapsed:.2f} s"


_ALPHABET = "abcde"  # "z" below is never in a dictionary


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=4), max_size=12),
    max_n=st.one_of(st.none(), st.integers(1, 4)),
    sentences=st.lists(st.lists(st.sampled_from(_ALPHABET + "z"), min_size=1, max_size=9),
                       min_size=1, max_size=7),
)
def test_score_degrees_matches_exhaustive_cover(entries, max_n, sentences):
    # Random entries are rarely prefix-closed, so the index holds unstored
    # prefixes; with a chunk of three, draws of four or more sentences span chunks.
    d = NGramDictionary.from_entries(entries, max_n=max_n)
    with mock.patch.object(cover_module, "_CHUNK", 3):
        degrees = score_degrees(sentences, d)
    for sentence, degree in zip(sentences, degrees, strict=True):
        best = exhaustive_min_cover(sentence, d)
        assert (degree.atom_count, degree.length) == (best, len(sentence))
        assert len(min_cover(sentence, d)) == best
        assert degree_of(sentence, d) == degree


def tie_break_oracle(sentence, dictionary):
    """The fewest-atom segmentation whose atom starts, read from the end, are
    lexicographically smallest: the longest final atom, applied recursively."""
    segmentations = all_segmentations(sentence, dictionary)
    fewest = min(map(len, segmentations))

    def starts_from_end(atoms):
        return list(itertools.accumulate(map(len, atoms), initial=0))[-2::-1]

    return min((s for s in segmentations if len(s) == fewest), key=starts_from_end)


@st.composite
def _sentence_and_entries(draw):
    """A sentence and a dictionary holding some of its spans, so that equal-cost
    segmentations, and so tie-breaks, are common."""
    sentence = draw(st.lists(st.sampled_from(_ALPHABET + "z"), min_size=1, max_size=8))
    spans = draw(st.lists(st.tuples(st.integers(0, len(sentence) - 1), st.integers(2, 5)),
                          max_size=6))
    entries = draw(st.lists(st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=4),
                            max_size=6))
    return sentence, entries + [sentence[i:i + n] for i, n in spans if i + n <= len(sentence)]


@settings(max_examples=300, deadline=None)
@given(drawn=_sentence_and_entries(), max_n=st.one_of(st.none(), st.integers(1, 4)))
def test_min_cover_matches_tie_break_oracle(drawn, max_n):
    sentence, entries = drawn
    d = NGramDictionary.from_entries(entries, max_n=max_n)
    cover = min_cover(sentence, d)
    assert list(cover) == tie_break_oracle(sentence, d)
    assert [tok for atom in cover for tok in atom] == sentence
    assert len(cover) == degree_of(sentence, d).atom_count


def scored_examples(pairs):
    out = []
    for i, (sentence, atoms) in enumerate(pairs):
        toks = tuple(sentence.split())
        ex = ParallelExample(str(i), toks, toks)
        out.append(
            (ex, CompositionalDegree(atoms, len(toks)))
        )
    return out


class TestSelection:
    def test_top_k_by_degree(self):
        scored = scored_examples(
            [("a b c d", 1), ("e f", 2), ("g h i", 3), ("j k", 1), ("l m n o", 3)]
        )
        # degrees: 0.25, 1.0, 1.0, 0.5, 0.75 ; ties on 1.0 -> shorter first
        chosen = select_candidate_pool(scored, k=2)
        assert [ex.id for ex in chosen.examples] == ["1", "2"]
        assert chosen.warning is None

    def test_duplicates_removed_first_kept(self):
        scored = scored_examples([("a b", 1), ("a b", 2), ("c d", 1)])
        chosen = select_candidate_pool(scored, k=3)
        assert [ex.id for ex in chosen.examples] == ["0", "2"]
        assert chosen.scored == 3
        assert chosen.warning == "requested k=3 but only 2 deduplicated examples available"

    def test_k_exceeding_pool_warns(self):
        scored = scored_examples([("a b", 1), ("c d", 2)])
        chosen = select_candidate_pool(scored, k=10)
        assert len(chosen.examples) == 2
        assert chosen.warning is not None

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(123)
        tokens = list("abcdefgh")
        pairs = []
        atoms_of = {}  # a degree is a function of the tokens, so repeats share it
        for _ in range(10_000):
            length = int(rng.integers(1, 9))
            sentence = " ".join(rng.choice(tokens, size=length))
            atoms = atoms_of.setdefault(sentence, int(rng.integers(1, length + 1)))
            pairs.append((sentence, atoms))
        scored = scored_examples(pairs)
        # scored_examples assigns unique ids, duplicates still collide on tokens
        chosen = select_candidate_pool(scored, k=1000)
        expected = full_sort_selection(scored, 1000)
        assert list(chosen.examples) == expected

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            select_candidate_pool([], k=0)

    def test_invalid_k_checked_before_input_is_read(self):
        def unread():
            raise AssertionError("scored was read before k was checked")
            yield

        with pytest.raises(ConfigError):
            select_candidate_pool(unread(), k=0)


# Degrees with lengths up to 2^26 - 1, including near-one neighbours such as
# (n-2)/n and (n-3)/(n-1), whose floats differ only in the last bits.
_LARGE = 2**26 - 1
_degree = st.one_of(
    st.integers(1, 40).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))),
    st.integers(1, _LARGE).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))),
    st.integers(_LARGE - 3, _LARGE).flatmap(lambda n: st.tuples(st.integers(n - 3, n), st.just(n))),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_degree, st.integers(0, 30)), max_size=40),
       k=st.integers(1, 45))
def test_selection_order_matches_fraction_sort(rows, k):
    # The float sort key must order exactly like the oracle's Fraction key.
    # Repeated tokens carry the degree drawn for their first occurrence.
    degree_of_tokens = {}
    scored = [
        (ParallelExample(str(i), (f"s{tokens}",), (f"t{tokens}",)),
         CompositionalDegree(*degree_of_tokens.setdefault(tokens, degree)))
        for i, (degree, tokens) in enumerate(rows)
    ]
    chosen = select_candidate_pool(scored, k=k)
    assert list(chosen.examples) == full_sort_selection(scored, k)


@st.composite
def _scored_stream(draw):
    """Scored pairs whose token tuples repeat, with tied degrees and lengths;
    each distinct tuple has one degree, as any degree computed from it does."""
    sentences = draw(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=4)
                              .map(tuple), min_size=1, max_size=8, unique=True))
    degrees = [CompositionalDegree(draw(st.integers(1, len(s))), len(s)) for s in sentences]
    picks = draw(st.lists(st.integers(0, len(sentences) - 1), max_size=30))
    return [(ParallelExample(str(i), sentences[j], sentences[j]), degrees[j])
            for i, j in enumerate(picks)]


@settings(max_examples=300, deadline=None)
@given(stream=_scored_stream(), data=st.data())
def test_streaming_selection_matches_dedup_then_sort(stream, data):
    distinct = len({ex.target for ex, _ in stream})
    k = data.draw(st.integers(1, distinct + 3), label="k")
    sizes = data.draw(st.lists(st.integers(1, 5), min_size=len(stream), max_size=len(stream)),
                      label="batch sizes")

    def batches():
        # A one-shot stream that arrives a batch at a time, as the pipeline's pool pass yields it.
        start = 0
        for size in sizes:
            yield from stream[start:start + size]
            start += size

    chosen = select_candidate_pool(batches(), k=k)
    first = {}
    for index, (example, degree) in enumerate(stream):
        first.setdefault(example.target, (example, degree, index))
    expected = sorted(first.values(), key=lambda item: (-item[1].value, item[1].length, item[2]))
    assert list(chosen.examples) == [example for example, _, _ in expected[:k]]
    assert chosen.scored == len(stream)
    if k > distinct:
        assert chosen.warning == (
            f"requested k={k} but only {distinct} deduplicated examples available")
    else:
        assert chosen.warning is None
