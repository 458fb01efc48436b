"""N-gram dictionary construction, queries, and serialization."""

from __future__ import annotations

import functools
import json
import pickle
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compforge.ngrams as ngrams_mod
from compforge.cover import degree_of, min_cover
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

    @pytest.mark.parametrize("build, match", [
        (lambda: build_ngram_dictionary([("a",)], max_n=0), "max_n"),
        (lambda: NGramDictionary.from_entries([[]]), "non-empty"),
    ], ids=["build-max_n-0", "empty-entry"])
    def test_invalid_arguments_rejected(self, build, match):
        with pytest.raises(ConfigError, match=match):
            build()

    @pytest.mark.parametrize("min_count", [-1, 2**63 - 1])
    def test_from_entries_count_must_fit_a_stored_node(self, min_count):
        # A stored node's count, min_count + 1, must lie in (0, 2**63).
        with pytest.raises(ConfigError, match="min_count"):
            NGramDictionary.from_entries([["a"]], min_count=min_count)


@settings(max_examples=200, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from("abcd"), max_size=12), max_size=25),
    min_count=st.integers(0, 3),
    max_n=st.one_of(st.none(), st.integers(1, 6)),
)
def test_id_build_matches_brute_force_counts(corpus, min_count, max_n):
    d = build_ngram_dictionary(corpus, min_count=min_count, max_n=max_n)
    longest = max(map(len, corpus), default=0)
    oracle = brute_force_ngram_counts(corpus, longest if max_n is None else max_n)
    assert d.entries() == sorted((g, c) for g, c in oracle.items() if c > min_count)



@settings(max_examples=200, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=8), max_size=12),
    min_count=st.integers(0, 3),
    max_n=st.one_of(st.none(), st.integers(1, 4)),
)
def test_stored_starts_find_every_occurrence_the_build_counted(corpus, min_count, max_n):
    # The build and the query bound sentences the same way: on the build's own
    # corpus, the cells yielded for length n are the stored n-grams' occurrences.
    d = build_ngram_dictionary(corpus, min_count=min_count, max_n=max_n)
    tokens = [tok for sentence in corpus for tok in sentence]
    lengths = np.array([len(sentence) for sentence in corpus], dtype=np.int64)
    yielded = {n: len(cells) for n, cells in d.stored_starts(tokens, lengths)}
    counted: dict[int, int] = {}
    for gram, count in d.entries():
        counted[len(gram)] = counted.get(len(gram), 0) + count
    assert yielded == counted

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

    def test_stored_starts_simple(self):
        d = self.fixture()

        def starts(*sentences):
            tokens = [tok for sentence in sentences for tok in sentence.split()]
            lengths = np.array([len(sentence.split()) for sentence in sentences], dtype=np.int64)
            return {n: found.tolist() for n, found in d.stored_starts(tokens, lengths)}

        # "z" is in no n-gram, and "a z" / "a b" would cross a sentence end.
        # Cells leave one place after each sentence for its separator.
        assert starts("a b x", "z a") == {1: [0, 1, 5], 2: [0]}
        assert starts("a", "b") == {1: [0, 2]}
        # "b c" is a node of the tree but not stored.
        assert starts("b c d") == {1: [0], 2: [], 3: [0]}
        assert starts("z") == {}
        assert starts() == {}

    def test_stored_starts_agree_with_contains(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng)
        # Probes draw on one letter the corpus never uses.
        probes = random_corpus(rng, n_sentences=100, alphabet=7, low=1)
        tokens = [tok for sentence in probes for tok in sentence]
        lengths = np.array([len(sentence) for sentence in probes])
        offsets = (np.cumsum(lengths + 1) - (lengths + 1)).tolist()
        longest = {}
        for max_n in (3, None):
            d = build_ngram_dictionary(corpus, min_count=2, max_n=max_n)
            yielded = {
                (n, p) for n, found in d.stored_starts(tokens, lengths) for p in found.tolist()
            }
            contained = {
                (n, offset + start)
                for sentence, offset in zip(probes, offsets)
                for start in range(len(sentence))
                for n in range(1, len(sentence) - start + 1)
                if d.contains(sentence[start : start + n])
            }
            assert yielded == contained
            longest[max_n] = max(n for n, _ in yielded)
        assert longest[3] == 3 < longest[None]


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
        assert min_cover(["b", "c", "d"], loaded) == (("b", "c", "d"),)
        assert len(min_cover(["b", "c"], loaded)) == 2
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
        assert degree_of(tokens, d).atom_count == 1
        path = tmp_path / "deep.ngix"
        d.save(path)
        loaded = NGramDictionary.load(path)
        assert loaded.entries() == d.entries() and loaded.max_n == 1500
        assert degree_of(tokens, loaded).atom_count == 1
        copy = pickle.loads(pickle.dumps(d))
        assert copy.entries() == d.entries()
        assert degree_of(tokens, copy).atom_count == 1


def test_long_sentence_of_distinct_tokens_stays_small(tmp_path):
    """All L(L+1)/2 n-grams of a 600-token sentence, without one string tuple per n-gram."""
    sentence = [f"t{i}" for i in range(600)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        built = build_ngram_dictionary([sentence] * 4, min_count=3, max_n=None)
        built.save(tmp_path / "d.ngix")
        loaded = NGramDictionary.load(tmp_path / "d.ngix")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(built) == len(loaded) == 180300
    assert loaded.count(sentence) == 4 and loaded.vocab_size == 600
    assert peak < 100e6, f"peak {peak / 1e6:.0f} MB"


def _zipf_corpus(seed: int = 0) -> list[tuple[str, ...]]:
    """4000 sentences of 8-40 tokens over 2500 Zipf(1.1) types: about 95k tokens."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, 2501) ** 1.1
    words = [f"w{i}" for i in range(2500)]
    lengths = rng.integers(8, 41, size=4000)
    drawn = rng.choice(2500, size=int(lengths.sum()), p=weights / weights.sum()).tolist()
    starts = np.concatenate(([0], np.cumsum(lengths))).tolist()
    return [tuple(words[i] for i in drawn[a:b]) for a, b in zip(starts, starts[1:])]


@pytest.mark.parametrize("min_count, max_n", [(3, 8), (1, None)])
def test_build_working_set_per_train_token(min_count, max_n):
    # The build holds int32 layout cells and sorts each depth's packed keys:
    # its working set is about 30 bytes per train token, not 72.
    corpus = _zipf_corpus()
    tokens = sum(map(len, corpus))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build_ngram_dictionary(corpus, min_count=min_count, max_n=max_n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 40 * tokens, f"{peak / tokens:.1f} bytes per token"


def test_cell_dtype_holds_every_cell():
    assert ngrams_mod._cell_dtype(2**31 - 1) is np.int32
    assert ngrams_mod._cell_dtype(2**31) is np.int64


@settings(max_examples=100, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from("abcd"), max_size=12), max_size=25),
    min_count=st.integers(0, 3),
    max_n=st.one_of(st.none(), st.integers(1, 6)),
)
def test_int64_cells_build_the_same_index(corpus, min_count, max_n):
    # A layout too long for int32 cells takes int64 ones; both write the same bytes.
    with tempfile.TemporaryDirectory() as tmp:
        default, wide = Path(tmp) / "default.ngix", Path(tmp) / "wide.ngix"
        build_ngram_dictionary(corpus, min_count, max_n).save(default)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ngrams_mod, "_cell_dtype", lambda cells: np.int64)
            build_ngram_dictionary(corpus, min_count, max_n).save(wide)
        assert wide.read_bytes() == default.read_bytes()


@settings(max_examples=100, deadline=None)
@given(
    entries=st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6), max_size=12),
    probes=st.lists(st.lists(st.sampled_from("abcde"), max_size=7), max_size=10),
    min_count=st.integers(0, 3),
    max_n=st.one_of(st.none(), st.integers(1, 6)),
)
def test_from_entries_matches_set_oracle(entries, probes, min_count, max_n):
    """Fixtures need not be prefix-closed, and `max_n` may cut entries off."""
    oracle = {tuple(entry) for entry in entries}
    d = NGramDictionary.from_entries(entries, min_count=min_count, max_n=max_n)
    limit = max(map(len, oracle), default=1) if max_n is None else max_n
    assert len(d) == len(oracle)
    assert d.vocab_size == sum(len(gram) == 1 for gram in oracle)
    assert d.entries() == sorted((gram, min_count + 1) for gram in oracle)
    prefixes = {gram[:cut] for gram in oracle for cut in range(len(gram) + 1)}
    for span in prefixes | {tuple(probe) for probe in probes}:
        assert d.count(span) == (min_count + 1 if span in oracle else 0), span
        assert d.contains(span) == (span in oracle and len(span) <= limit), span
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp) / "first.ngix", Path(tmp) / "again.ngix"
        d.save(first)
        loaded = NGramDictionary.load(first)
        loaded.save(again)
        assert loaded.entries() == d.entries() and loaded.max_n == d.max_n
        assert again.read_bytes() == first.read_bytes()


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


def _with_nodes(data: bytes, nodes: dict[int, tuple[int, int, int, int]]) -> bytes:
    """`data` with the node records at the given walk positions replaced."""
    first = len(data) - 3 * _NODE_SIZE  # _index_bytes holds three nodes: a, a b, c
    for index, fields in nodes.items():
        at = first + index * _NODE_SIZE
        data = data[:at] + struct.pack("<IQBI", *fields) + data[at + _NODE_SIZE :]
    return data


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

    @pytest.mark.parametrize("nodes", [
        {0: (2, 2, 1, 1)},                    # a -> c: c twice under the root
        {0: (1, 2, 1, 1), 2: (0, 2, 1, 0)},   # a -> b, c -> a: b before a under the root
    ])
    def test_children_out_of_token_order(self, tmp_path, nodes):
        with pytest.raises(DataError, match="out of token order"):
            self.load_bytes(tmp_path, _with_nodes(_index_bytes(tmp_path), nodes))

    def test_repeated_token_in_table(self, tmp_path):
        data = _index_bytes(tmp_path).replace(struct.pack("<I", 1) + b"b",
                                              struct.pack("<I", 1) + b"a")
        with pytest.raises(DataError, match="token table"):
            self.load_bytes(tmp_path, data)

    @pytest.mark.parametrize("count, stored", [
        (0, 1), (2, 0), (2, 2), (2**63, 1), (2**64 - 1, 1),
    ])
    def test_stored_flag_disagrees_with_count(self, tmp_path, count, stored):
        data = _with_nodes(_index_bytes(tmp_path), {2: (2, count, stored, 0)})
        with pytest.raises(DataError, match="stored flag"):
            self.load_bytes(tmp_path, data)

    def test_trailing_bytes(self, tmp_path):
        with pytest.raises(DataError, match="trailing"):
            self.load_bytes(tmp_path, _index_bytes(tmp_path) + b"\x00")
        # A whole extra node record is read, then found to hang under no node.
        with pytest.raises(DataError, match="^17 trailing bytes after the last node"):
            self.load_bytes(tmp_path, _index_bytes(tmp_path) + bytes(17))

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
