"""Minimum covers, compositional degree, and candidate-pool selection."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compforge.corpus import ParallelExample
from compforge.cover import (
    CompositionalDegree,
    compositional_degree,
    degree_of,
    min_cover,
    select_candidate_pool,
)
from compforge.errors import ConfigError
from compforge.ngrams import NGramDictionary, build_ngram_dictionary

from oracles import exhaustive_min_cover, full_sort_selection


def dict_of(*entries):
    return NGramDictionary.from_entries([e.split() for e in entries])


class TestMinCover:
    def test_worked_example(self):
        d = dict_of("x1", "x2", "x3 x4", "x5", "x1 x2", "x3 x4 x5")
        cover = min_cover("x1 x2 x3 x4 x5".split(), d)
        assert cover.atom_count == 2
        assert cover.atoms == (("x1", "x2"), ("x3", "x4", "x5"))
        assert all(cover.covered)

    def test_low_degree_sentence(self):
        d = dict_of("but", "what can we do about this ?")
        sent = "but what can we do about this ?".split()
        cover = min_cover(sent, d)
        assert cover.atom_count == 2
        assert degree_of(sent, d).value == pytest.approx(0.25)

    def test_high_degree_sentence(self):
        d = dict_of("please", "report", "all", "changes", "here .")
        sent = "please report all changes here .".split()
        cover = min_cover(sent, d)
        assert cover.atom_count == 5
        assert degree_of(sent, d).exact == Fraction(5, 6)

    def test_uncovered_tokens_flagged(self):
        d = dict_of("a b")
        cover = min_cover(["a", "b", "zzz"], d)
        assert cover.atoms == (("a", "b"), ("zzz",))
        assert cover.covered == (True, True, False)

    def test_singleton_member_is_covered(self):
        d = dict_of("a")
        cover = min_cover(["a", "q"], d)
        assert cover.covered == (True, False)

    def test_empty_dictionary_gives_fallback_ceiling(self):
        d = NGramDictionary.from_entries([["unused"]])
        sent = ["p", "q", "r"]
        cover = min_cover(sent, d)
        assert cover.atom_count == len(sent)
        assert degree_of(sent, d).value == 1.0
        assert not any(cover.covered)

    def test_tie_break_prefers_longer_final_atom(self):
        d = dict_of("a", "b c", "a b", "c")
        cover = min_cover(["a", "b", "c"], d)
        assert cover.atom_count == 2
        assert cover.atoms == (("a",), ("b", "c"))

    def test_atoms_concatenate_to_sentence(self):
        rng = np.random.default_rng(0)
        tokens = list("abcdef")
        d = build_ngram_dictionary(
            [tuple(rng.choice(tokens, size=6)) for _ in range(100)], min_count=2, max_n=4
        )
        for _ in range(100):
            sent = list(rng.choice(tokens, size=int(rng.integers(1, 12))))
            cover = min_cover(sent, d)
            flat = [tok for atom in cover.atoms for tok in atom]
            assert flat == sent
            for atom in cover.atoms:
                assert len(atom) == 1 or d.contains(atom)

    def test_optimal_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(99)
        tokens = list("abcdef")
        for _ in range(300):
            d = build_ngram_dictionary(
                [tuple(rng.choice(tokens, size=5)) for _ in range(30)], min_count=1, max_n=4
            )
            sent = list(rng.choice(tokens, size=int(rng.integers(1, 13))))
            assert min_cover(sent, d).atom_count == exhaustive_min_cover(sent, d)

    def test_adding_entries_never_increases_count(self):
        rng = np.random.default_rng(17)
        tokens = list("abcd")
        base_entries = [["a", "b"], ["c"]]
        richer_entries = base_entries + [["b", "c"], ["a", "b", "c"], ["d", "a"]]
        small = NGramDictionary.from_entries(base_entries)
        large = NGramDictionary.from_entries(richer_entries)
        for _ in range(200):
            sent = list(rng.choice(tokens, size=int(rng.integers(1, 10))))
            assert min_cover(sent, large).atom_count <= min_cover(sent, small).atom_count

    def test_empty_sentence_rejected(self):
        with pytest.raises(ConfigError):
            min_cover([], dict_of("a"))


class TestDegree:
    def test_exact_fractions(self):
        d = dict_of("x1 x2", "x3 x4 x5")
        degree = degree_of("x1 x2 x3 x4 x5".split(), d)
        assert degree.exact == Fraction(2, 5)
        assert degree.value == pytest.approx(0.4)

    def test_single_atom_sentence(self):
        d = dict_of("a b c d")
        degree = degree_of("a b c d".split(), d)
        assert degree.atom_count == 1 and degree.exact == Fraction(1, 4)

    def test_length_mismatch_rejected(self):
        d = dict_of("a b")
        cover = min_cover(["a", "b"], d)
        with pytest.raises(ConfigError):
            compositional_degree(cover, 3)

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
        assert chosen.deduplicated == 2

    def test_k_exceeding_pool_warns(self):
        scored = scored_examples([("a b", 1), ("c d", 2)])
        chosen = select_candidate_pool(scored, k=10)
        assert len(chosen.examples) == 2
        assert chosen.warning is not None

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(123)
        tokens = list("abcdefgh")
        pairs = []
        for _ in range(10_000):
            length = int(rng.integers(1, 9))
            sentence = " ".join(rng.choice(tokens, size=length))
            atoms = int(rng.integers(1, length + 1))
            pairs.append((sentence, atoms))
        scored = scored_examples(pairs)
        # scored_examples assigns unique ids, duplicates still collide on tokens
        chosen = select_candidate_pool(scored, k=1000)
        expected = full_sort_selection(scored, 1000)
        assert list(chosen.examples) == expected

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            select_candidate_pool([], k=0)


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
    scored = [
        (ParallelExample(str(i), (f"s{tokens}",), (f"t{tokens}",)), CompositionalDegree(a, n))
        for i, ((a, n), tokens) in enumerate(rows)
    ]
    chosen = select_candidate_pool(scored, k=k)
    assert list(chosen.examples) == full_sort_selection(scored, k)
