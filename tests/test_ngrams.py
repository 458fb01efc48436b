"""N-gram dictionary construction, queries, and serialization."""

from __future__ import annotations

import functools
import json
import pickle
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compforge.errors import ConfigError, DataError
from compforge.ngrams import NGramDictionary, build_ngram_dictionary

from oracles import brute_force_ngram_counts


def random_corpus(rng, n_sentences=200, alphabet=6, low=3, high=10):
    tokens = [chr(ord("a") + i) for i in range(alphabet)]
    return [
        tuple(rng.choice(tokens, size=int(rng.integers(low, high))))
        for _ in range(n_sentences)
    ]


class TestBuild:
    def test_four_copies_cross_threshold(self):
        d = build_ngram_dictionary([("a", "b")] * 4, min_count=3)
        assert d.contains(["a"]) and d.contains(["b"]) and d.contains(["a", "b"])
        assert d.count(["a", "b"]) == 4

    def test_three_copies_store_nothing(self):
        d = build_ngram_dictionary([("a", "b")] * 3, min_count=3)
        assert len(d) == 0 and d.vocab_size == 0

    def test_membership_matches_brute_force_counts(self):
        rng = np.random.default_rng(42)
        corpus = random_corpus(rng)
        min_count, max_n = 3, 5
        d = build_ngram_dictionary(corpus, min_count=min_count, max_n=max_n)
        oracle = brute_force_ngram_counts(corpus, max_n)
        for gram, count in oracle.items():
            assert d.contains(gram) == (count > min_count), gram
            if count > min_count:
                assert d.count(gram) == count
        # nothing stored that the oracle never saw
        for gram, count in d.entries():
            assert oracle[gram] == count

    def test_apriori_prefix_closure(self):
        rng = np.random.default_rng(7)
        d = build_ngram_dictionary(random_corpus(rng), min_count=2, max_n=6)
        for gram, _ in d.entries():
            for cut in range(1, len(gram)):
                assert d.contains(gram[:cut]), (gram, cut)

    def test_max_n_none_unbounded(self):
        corpus = [("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")] * 5
        d = build_ngram_dictionary(corpus, min_count=3, max_n=None)
        assert d.contains(list("abcdefghij"))

    def test_negative_min_count_rejected(self):
        with pytest.raises(ConfigError):
            build_ngram_dictionary([("a",)], min_count=-1)


class TestQueries:
    def fixture(self):
        return NGramDictionary.from_entries(
            [["a"], ["b"], ["a", "b"], ["b", "c", "d"]], max_n=3
        )

    def test_contains_stored_and_not_reversed(self):
        d = self.fixture()
        assert d.contains(["a", "b"])
        assert not d.contains(["b", "a"])

    def test_span_longer_than_max_n_is_false(self):
        d = build_ngram_dictionary([("a", "b", "c")] * 5, min_count=2, max_n=2)
        assert not d.contains(["a", "b", "c"])

    def test_match_lengths_simple(self):
        d = self.fixture()
        assert d.match_lengths_from(["a", "b", "x"], 0) == [1, 2]
        assert d.match_lengths_from(["z", "a"], 0) == []

    def test_match_lengths_agree_with_contains(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng)
        d = build_ngram_dictionary(corpus, min_count=2, max_n=4)
        for _ in range(200):
            sent = corpus[int(rng.integers(len(corpus)))]
            start = int(rng.integers(len(sent)))
            lengths = set(d.match_lengths_from(sent, start))
            for L in range(1, min(4, len(sent) - start) + 1):
                assert (L in lengths) == d.contains(sent[start : start + L])

    def test_start_out_of_range(self):
        with pytest.raises(ConfigError):
            self.fixture().match_lengths_from(["a"], 5)


class TestSerialization:
    def test_round_trip_preserves_entries(self, tmp_path):
        rng = np.random.default_rng(9)
        d = build_ngram_dictionary(random_corpus(rng), min_count=2, max_n=4)
        path = tmp_path / "d.ngix"
        d.save(path)
        loaded = NGramDictionary.load(path)
        assert list(loaded.entries()) == list(d.entries())
        assert loaded.min_count == d.min_count and loaded.max_n == d.max_n

    def test_two_builds_byte_identical(self, tmp_path):
        rng = np.random.default_rng(10)
        corpus = random_corpus(rng)
        p1, p2 = tmp_path / "a.ngix", tmp_path / "b.ngix"
        build_ngram_dictionary(corpus, min_count=2, max_n=4).save(p1)
        build_ngram_dictionary(corpus, min_count=2, max_n=4).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.ngix"
        path.write_bytes(b"not an index")
        with pytest.raises(Exception):
            NGramDictionary.load(path)

    def test_unstored_prefixes_round_trip(self, tmp_path):
        # Fixtures need not be prefix-closed: "b c" is a tree node but not stored.
        d = NGramDictionary.from_entries([["b", "c", "d"], ["a"], ["b"]])
        path = tmp_path / "d.ngix"
        d.save(path)
        loaded = NGramDictionary.load(path)
        assert loaded.entries() == d.entries()
        assert not loaded.contains(["b", "c"])
        assert loaded.match_lengths_from(["b", "c", "d"], 0) == [1, 3]
        loaded.save(tmp_path / "again.ngix")
        assert (tmp_path / "again.ngix").read_bytes() == path.read_bytes()

    def test_saved_layout(self, tmp_path):
        d = NGramDictionary.from_entries([["a", "b"], ["a"]], min_count=1, max_n=2)
        path = tmp_path / "d.ngix"
        d.save(path)
        header = b'{"max_n": 2, "min_count": 1, "tokens": 2}'
        expected = (
            b"NGIX1" + struct.pack("<I", len(header)) + header
            + struct.pack("<I", 1) + b"a" + struct.pack("<I", 1) + b"b"
            + struct.pack("<I", 1)                   # root: one child
            + struct.pack("<IQBI", 0, 2, 1, 1)       # "a": count 2, stored, one child
            + struct.pack("<IQBI", 1, 2, 1, 0)       # "a b": count 2, stored, leaf
        )
        assert path.read_bytes() == expected


class TestDeepEntry:
    """A 1500-token entry is deeper than Python's recursion limit."""

    def test_every_operation_handles_depth(self, tmp_path):
        tokens = [f"t{i}" for i in range(1500)]
        d = NGramDictionary.from_entries([tokens, tokens[:1]])
        assert len(d) == 2
        assert d.entries() == [((tokens[0],), 1), (tuple(tokens), 1)]
        assert d.match_lengths_from(tokens, 0) == [1, 1500]
        path = tmp_path / "deep.ngix"
        d.save(path)
        loaded = NGramDictionary.load(path)
        assert loaded.entries() == d.entries() and loaded.max_n == 1500
        copy = pickle.loads(pickle.dumps(d))
        assert copy.entries() == d.entries()
        assert copy.match_lengths_from(tokens, 0) == [1, 1500]


_NODE_SIZE = struct.calcsize("<IQBI")
_DROP = "<drop>"  # header value meaning "remove this key"


def _index_bytes(tmp_path, **header_changes) -> bytes:
    d = NGramDictionary.from_entries([["a", "b"], ["a"], ["c"]], min_count=1, max_n=2)
    path = tmp_path / "d.ngix"
    d.save(path)
    data = path.read_bytes()
    if not header_changes:
        return data
    (size,) = struct.unpack_from("<I", data, 5)
    header = json.loads(data[9 : 9 + size])
    header.update(header_changes)
    header = {k: v for k, v in header.items() if v != _DROP}
    raw = json.dumps(header).encode()
    return data[:5] + struct.pack("<I", len(raw)) + raw + data[9 + size :]


class TestMalformedIndex:
    """Every malformed index file raises DataError, never another exception."""

    def load_bytes(self, tmp_path, data: bytes):
        path = tmp_path / "bad.ngix"
        path.write_bytes(data)
        return NGramDictionary.load(path)

    def test_header_not_an_object(self, tmp_path):
        data = _index_bytes(tmp_path)
        with pytest.raises(DataError, match="header"):
            self.load_bytes(tmp_path, data.replace(b"{", b"[", 1))

    @pytest.mark.parametrize("changes", [
        {"tokens": _DROP}, {"min_count": _DROP}, {"max_n": _DROP},
        {"tokens": -1}, {"tokens": "3"}, {"min_count": True}, {"max_n": 0}, {"max_n": 2.0},
    ])
    def test_bad_header_fields(self, tmp_path, changes):
        with pytest.raises(DataError, match="header"):
            self.load_bytes(tmp_path, _index_bytes(tmp_path, **changes))

    def test_token_not_utf8(self, tmp_path):
        data = _index_bytes(tmp_path)
        with pytest.raises(DataError, match="UTF-8"):
            self.load_bytes(tmp_path, data.replace(struct.pack("<I", 1) + b"b",
                                                   struct.pack("<I", 1) + b"\xff"))

    def test_token_id_out_of_range(self, tmp_path):
        data = _index_bytes(tmp_path)
        last = len(data) - _NODE_SIZE
        token_id, count, stored, children = struct.unpack_from("<IQBI", data, last)
        bad = data[:last] + struct.pack("<IQBI", 3, count, stored, children)
        with pytest.raises(DataError, match="out of range"):
            self.load_bytes(tmp_path, bad)

    def test_trailing_bytes(self, tmp_path):
        with pytest.raises(DataError, match="trailing"):
            self.load_bytes(tmp_path, _index_bytes(tmp_path) + b"\x00")

    def test_truncated(self, tmp_path):
        with pytest.raises(DataError, match="truncated"):
            self.load_bytes(tmp_path, _index_bytes(tmp_path)[:-1])


@functools.lru_cache(maxsize=None)
def _built_index() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.ngix"
        build_ngram_dictionary(random_corpus(np.random.default_rng(5), 60), 2, 4).save(path)
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_index_loads_or_raises_data_error(data):
    raw = _built_index()
    if data.draw(st.booleans(), label="truncate"):
        corrupt = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
        corrupt = raw[:at] + bytes([byte]) + raw[at + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corrupt.ngix"
        path.write_bytes(corrupt)
        try:
            NGramDictionary.load(path)
        except DataError:
            pass
