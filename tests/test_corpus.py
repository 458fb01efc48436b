"""Corpus loading, vocabulary counts, and OOV screening."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compforge.corpus as corpus_module
from compforge.corpus import (
    ParallelExample,
    build_vocab_counts,
    filter_oov,
    iter_parallel_corpus,
    load_parallel_corpus,
    save_corpus_jsonl,
    side_tokens,
)
from compforge.cover import read_degree_tsv
from compforge.errors import ConfigError, DataError
from compforge.uncertainty import read_ensemble_dump, read_uncertainty_tsv

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

    def test_jsonl_lone_surrogate_reports_line(self, tmp_path):
        # A paired escape is one character; a lone one cannot be written as UTF-8.
        path = tmp_path / "c.jsonl"
        path.write_text('{"source": "a \\ud83d\\ude00", "target": "b"}\n'
                        '{"source": "a \\ud800", "target": "b"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="lone surrogate") as err:
            load_parallel_corpus(path)
        assert err.value.line == 2 and f"[{path}:2]" in str(err.value)
        path.write_text('{"source": "a \\ud83d\\ude00", "target": "b"}\n', encoding="utf-8")
        assert load_parallel_corpus(path)[0].source == ("a", "\U0001f600")

    def test_tsv_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\nno tab here\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_parallel_corpus(path)
        assert err.value.line == 2

    def test_jsonl_record_not_an_object_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"source": "a", "target": "b"}\n[1, 2]\n', encoding="utf-8")
        with pytest.raises(DataError, match="record is not an object") as err:
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

    def test_string_and_integer_ids_and_object_meta_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "x", "source": "a", "target": "b", "meta": {}}\n'
                        '{"id": 7, "source": "c", "target": "d", "meta": {"k": [1]}}\n'
                        '{"source": "e", "target": "f"}\n', encoding="utf-8")
        assert load_parallel_corpus(path) == [
            ParallelExample("x", ("a",), ("b",)),
            ParallelExample("7", ("c",), ("d",), {"k": [1]}),
            ParallelExample("2", ("e",), ("f",)),
        ]

    def test_jsonl_round_trip(self, tmp_path):
        corpus = make_examples(["a b c", "d e"])
        path = tmp_path / "out.jsonl"
        save_corpus_jsonl(corpus, path)
        again = load_parallel_corpus(path)
        assert again == corpus

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown corpus format 'csv'"):
            load_parallel_corpus(path, "csv")
        # The lazy reader checks its format when called, before the first example.
        with pytest.raises(ConfigError, match="unknown corpus format 'csv'"):
            iter_parallel_corpus(path, "csv")
        with pytest.raises(ConfigError, match="cannot infer corpus format"):
            iter_parallel_corpus(tmp_path / "c.csv")

    def test_unknown_side_rejected(self):
        ex = ParallelExample("0", ("a",), ("b",))
        with pytest.raises(ConfigError):
            side_tokens(ex, "middle")


class TestIterParallelCorpus:
    @pytest.fixture
    def opened(self, monkeypatch):
        """Every file object the corpus module opens, in order."""
        files = []

        def tracking_open(*args, **kwargs):
            files.append(open(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(corpus_module, "open", tracking_open, raising=False)
        return files

    @pytest.mark.parametrize("name, text, ids", [
        ("c.tsv", "a b\tx y\n\n  \nc\tz\n", ["0", "1"]),
        ("c.jsonl", '{"id": 7, "source": "a b", "target": "x"}\n\n'
                    '{"source": "c", "target": "y z"}\n{"id": "e", "source": "d", "target": "w"}\n',
         ["7", "1", "e"]),
    ])
    def test_load_is_the_iterator_read_to_the_end(self, tmp_path, name, text, ids):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert load_parallel_corpus(path) == list(iter_parallel_corpus(path))
        assert [ex.id for ex in iter_parallel_corpus(path)] == ids

    def test_malformed_record_names_path_and_line_when_reached(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"source": "a", "target": "b"}\n\n{broken\n', encoding="utf-8")
        examples = iter_parallel_corpus(path)
        assert next(examples).id == "0"
        with pytest.raises(DataError) as err:
            next(examples)
        assert (err.value.path, err.value.line) == (str(path), 3)

    @pytest.mark.parametrize("content", [
        b'{"source": "a", "target": "b"}\n{broken\n',  # malformed record
        b'{"source": "a", "target": "b"}\n{"source": "\xff", "target": "b"}\n',  # not UTF-8
        b'\xef\xbb\xbf{"source": "a", "target": "b"}\n',  # byte-order mark
        b'{"id": "x", "source": "a", "target": "b"}\n{"id": "x", "source": "a", "target": "b"}\n',
    ], ids=["malformed", "not-utf8", "bom", "duplicate-id"])
    def test_no_file_is_left_open_on_an_error(self, tmp_path, opened, content):
        path = tmp_path / "c.jsonl"
        path.write_bytes(content)
        with pytest.raises(DataError):
            list(iter_parallel_corpus(path))
        assert len(opened) == 1 and opened[0].closed

    def test_closing_an_unfinished_iterator_closes_its_file(self, tmp_path, opened):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\nc\td\n", encoding="utf-8")
        examples = iter_parallel_corpus(path)
        assert not opened  # nothing is opened before the first example is asked for
        next(examples)
        examples.close()
        assert len(opened) == 1 and opened[0].closed


# One corpus in both layouts; each line-handling test rewrites its lines.
_LINES = {
    "tsv": ["a b\tx y", "c\tz"],
    "jsonl": ['{"id": "e0", "source": "a b", "target": "x y"}',
              '{"id": "e1", "source": "c", "target": "z"}'],
}


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
class TestLineHandling:
    def load(self, tmp_path, fmt, raw: bytes) -> list[ParallelExample]:
        path = tmp_path / f"c.{fmt}"
        path.write_bytes(raw)
        return load_parallel_corpus(path)

    def expected(self, fmt) -> list[ParallelExample]:
        ids = ["0", "1"] if fmt == "tsv" else ["e0", "e1"]
        return [ParallelExample(ids[0], ("a", "b"), ("x", "y")),
                ParallelExample(ids[1], ("c",), ("z",))]

    def test_crlf_line_endings(self, tmp_path, fmt):
        raw = "".join(line + "\r\n" for line in _LINES[fmt]).encode()
        assert self.load(tmp_path, fmt, raw) == self.expected(fmt)

    @pytest.mark.parametrize("blank", ["", " ", "\t", "\u3000", " \t\u3000\x0b\x0c\xa0"])
    def test_whitespace_only_lines_are_skipped(self, tmp_path, fmt, blank):
        first, second = _LINES[fmt]
        raw = "\n".join([blank, first, blank, blank, second, blank]) + "\n"
        # Skipped lines take no record index: TSV ids stay 0 and 1.
        assert self.load(tmp_path, fmt, raw.encode()) == self.expected(fmt)

    def test_last_line_without_newline(self, tmp_path, fmt):
        raw = "\n".join(_LINES[fmt]).encode()
        assert self.load(tmp_path, fmt, raw) == self.expected(fmt)

    def test_no_break_space_splits_like_str_split(self, tmp_path, fmt):
        sentence = "a\xa0b c\u3000d"
        line = (f"{sentence}\t{sentence}" if fmt == "tsv" else
                json.dumps({"source": sentence, "target": sentence}, ensure_ascii=False))
        [example] = self.load(tmp_path, fmt, (line + "\n").encode())
        assert example.source == example.target == tuple(sentence.split()) == ("a", "b", "c", "d")


def _dump_line(ex_id: str) -> str:
    return json.dumps({"id": ex_id, "support": [["a", "b"]],
                       "probs": [[[0.5, 0.5]], [[0.25, 0.75]]]})


# Every id-keyed format: (suffix, reader, records "a" and "b", a malformed
# line, a line repeating id "a"). A TSV corpus numbers its own ids, so no
# line of it can repeat one.
_ID_KEYED = {
    "corpus-tsv": (".tsv", load_parallel_corpus, ["a b\tx y", "c\tz"], "no tab", None),
    "corpus-jsonl": (".jsonl", load_parallel_corpus,
                     ['{"id": "a", "source": "a", "target": "x"}',
                      '{"id": "b", "source": "c", "target": "z"}'],
                     '{"id": "c", "source": "d"}',
                     '{"id": "a", "source": "e", "target": "w"}'),
    "degrees": (".tsv", read_degree_tsv, ["a\t1\t2\t0.5", "b\t1\t1\t1"],
                "c\t1\t2", "a\t2\t2\t1"),
    "uncertainty": (".tsv", read_uncertainty_tsv, ["a\t0.5", "b\t0.25"],
                    "c\tmany", "a\t0.75"),
    "dump": (".jsonl", read_ensemble_dump, [_dump_line("a"), _dump_line("b")],
             '{"id": "c"', _dump_line("a")),
}


@pytest.mark.parametrize("fmt,fault", [
    (fmt, fault) for fmt, spec in _ID_KEYED.items() for fault in ("malformed", "repeat")
    if fault == "malformed" or spec[4] is not None
])
def test_id_keyed_readers_share_line_rules(tmp_path, fmt, fault):
    """Line 2 is blank, so the bad record on line 4 is the third record and
    the error still names line 4."""
    suffix, read, (first, second), malformed, repeat = _ID_KEYED[fmt]
    path = tmp_path / f"input{suffix}"
    bad = malformed if fault == "malformed" else repeat
    path.write_text("\n".join([first, "  ", second, bad]) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read(path)
    assert str(err.value).endswith(f"[{path}:4]")
    assert err.value.line == 4
    if fault == "repeat":
        assert str(err.value).startswith("duplicate example id 'a'")


@pytest.mark.parametrize("fmt", ["corpus-jsonl", "dump"])
def test_json_records_may_be_wrapped_in_any_whitespace(tmp_path, fmt):
    """Both JSON readers drop the whitespace around a record that `id_records`
    counts as blank, not only JSON's own."""
    suffix, read, (first, second), _, _ = _ID_KEYED[fmt]
    path = tmp_path / f"input{suffix}"
    path.write_text(f"\xa0{first}\u3000\n\u3000{second}\xa0\n", encoding="utf-8")
    assert len(read(path)) == 2


@pytest.mark.parametrize("read,lines,message", [
    (read_degree_tsv, "a\t1\t2\t0.5\na\t3\t2\t1.5\n", "atom_count 3 outside"),
    (read_uncertainty_tsv, "a\t0.5\na\tmany\n", "score 'many' is not a number"),
], ids=["degrees", "uncertainty"])
def test_score_row_that_is_malformed_and_repeats_an_id_reports_the_malformation(
    tmp_path, read, lines, message
):
    """As in the corpus and the dump, a record is parsed before its id is checked."""
    path = tmp_path / "scores.tsv"
    path.write_text(lines, encoding="utf-8")
    with pytest.raises(DataError, match=message) as err:
        read(path)
    assert err.value.line == 2


# Characters a JSON writer must escape or may pass through raw.
_TRICKY = '"\\\x00\x01\x1f\x7f\x85\u2028\u2029\U0001f600\U00010000éab'
_tokens = st.lists(st.text(_TRICKY, min_size=1, max_size=4), min_size=1, max_size=4)
_meta = st.dictionaries(
    st.text(_TRICKY, max_size=3),
    st.none() | st.booleans() | st.integers() | st.text(_TRICKY, max_size=3)
    | st.lists(st.integers(), max_size=2),
    max_size=2,
)
_examples = st.lists(
    st.builds(ParallelExample, st.text(_TRICKY, max_size=5) | st.integers(), _tokens, _tokens,
              _meta),
    max_size=6, unique_by=lambda ex: str(ex.id),
)


def _reference_line(ex: ParallelExample) -> str:
    """The line `save_corpus_jsonl` must write for `ex`, made with json.dumps."""
    record = {"id": ex.id, "source": " ".join(ex.source), "target": " ".join(ex.target)}
    if ex.meta:
        record["meta"] = ex.meta
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


@settings(max_examples=200, deadline=None)
@given(examples=_examples)
def test_jsonl_writer_matches_json_dumps_and_round_trips(examples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.jsonl"
        assert save_corpus_jsonl(examples, path) == len(examples)
        assert path.read_text(encoding="utf-8") == "".join(map(_reference_line, examples))
        # The loader splits on whitespace, which includes \x1f, \x85 and
        # U+2028; a side left with no tokens cannot be read back.
        loadable = [ex for ex in examples
                    if " ".join(ex.source).split() and " ".join(ex.target).split()]
        save_corpus_jsonl(loadable, path)
        assert load_parallel_corpus(path) == [
            ParallelExample(str(ex.id), tuple(" ".join(ex.source).split()),
                            tuple(" ".join(ex.target).split()), ex.meta)
            for ex in loadable
        ]


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
        assert counts.counts.get("zzz", 0) == 0

    def test_repetition_scales_counts_linearly(self):
        base = make_examples(["a b c d"])
        for k in (2, 5):
            repeated = make_examples(["a b c d"] * k)
            single = build_vocab_counts(base, "target")
            many = build_vocab_counts(repeated, "target")
            assert all(many.counts[t] == k * single.counts[t] for t in single.counts)

    def test_counts_additivity_over_concatenation(self):
        rng = np.random.default_rng(5)
        sents_a = [" ".join(rng.choice(list("abcdef"), size=5)) for _ in range(20)]
        sents_b = [" ".join(rng.choice(list("abcdef"), size=5)) for _ in range(20)]
        ca = build_vocab_counts(make_examples(sents_a), "target")
        cb = build_vocab_counts(make_examples(sents_b), "target")
        cab = build_vocab_counts(make_examples(sents_a + sents_b), "target")
        for token in set(ca.counts) | set(cb.counts):
            assert cab.counts[token] == ca.counts.get(token, 0) + cb.counts.get(token, 0)


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
            if all(counts.counts.get(tok, 0) >= 3 for tok in ex.target)  # independent check
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
