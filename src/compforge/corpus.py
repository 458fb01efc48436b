"""Parallel corpus loading, vocabulary counting, and OOV screening.

Two on-disk layouts are understood:

* TSV — one example per line, ``source<TAB>target``, whitespace-tokenized.
* JSONL — one JSON object per line with ``source`` and ``target`` string
  fields, an optional ``id`` (a string or an integer) and an optional
  ``meta`` object.

Sentences are plain token tuples everywhere downstream; punctuation is not
treated specially and tokens never contain whitespace (they are produced by
splitting on it).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from compforge.errors import ConfigError, DataError

SIDES = ("source", "target")


@dataclass(frozen=True)
class ParallelExample:
    """A single aligned sentence pair."""

    id: str
    source: tuple[str, ...]
    target: tuple[str, ...]
    meta: dict = field(default_factory=dict)


def side_tokens(example: ParallelExample, side: str) -> tuple[str, ...]:
    """Tokens of one side of an example; `side` is "source" or "target"."""
    if side == "source":
        return example.source
    if side == "target":
        return example.target
    raise ConfigError(f"unknown side {side!r}; expected one of {SIDES}")


def text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its newline) for each line of a UTF-8
    text file; bytes that are not UTF-8, or a byte-order mark, raise DataError
    naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if lineno == 1 and raw.startswith("\ufeff"):
                    raise DataError("Unexpected UTF-8 BOM", path=str(path), line=1)
                yield lineno, raw.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"not UTF-8 text: {exc.reason}", path=str(path))


def _infer_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".tsv", ".txt"):
        return "tsv"
    if suffix in (".jsonl", ".json"):
        return "jsonl"
    raise ConfigError(f"cannot infer corpus format from {path!r}; pass format explicitly")


def load_parallel_corpus(path: str | Path, format: str | None = None) -> list[ParallelExample]:
    """Read a parallel corpus from `path`.

    `format` is "tsv" or "jsonl"; when omitted it is inferred from the file
    suffix. Blank lines are skipped. An empty file yields an empty corpus.
    Malformed records raise :class:`DataError` carrying the 1-based line
    number. Explicit ids must be unique; missing ids are assigned from the
    record index, and an integer id is read as its decimal string. Equal
    tokens share one string object, to save memory.
    """
    fmt = format or _infer_format(path)
    if fmt not in ("tsv", "jsonl"):
        raise ConfigError(f"unknown corpus format {fmt!r}")
    path = Path(path)

    examples: list[ParallelExample] = []
    seen_ids: set[str] = set()
    intern = {}.setdefault  # each token string to the first equal one seen
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        if fmt == "tsv":
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(
                    f"expected exactly one tab, got {len(parts) - 1}",
                    path=str(path), line=lineno,
                )
            ex_id = str(len(examples))
            src_text, tgt_text = parts
            meta: dict = {}
        else:
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also deep nesting, huge ints
                raise DataError(f"invalid JSON: {exc}", path=str(path), line=lineno)
            if not isinstance(record, dict):
                raise DataError("record is not an object", path=str(path), line=lineno)
            src_text, tgt_text = record.get("source"), record.get("target")
            if not (isinstance(src_text, str) and isinstance(tgt_text, str)):
                missing = [k for k in SIDES if not isinstance(record.get(k), str)]
                raise DataError(
                    f"missing or non-string field(s): {', '.join(missing)}",
                    path=str(path), line=lineno,
                )
            ex_id = record.get("id", len(examples))
            if type(ex_id) is not str:
                if type(ex_id) is not int:  # a bool is not an int here
                    raise DataError("id must be a string or an integer",
                                    path=str(path), line=lineno)
                ex_id = str(ex_id)
            meta = record.get("meta", {})
            if type(meta) is not dict:
                raise DataError("meta must be an object", path=str(path), line=lineno)
        src_toks, tgt_toks = src_text.split(), tgt_text.split()
        source = tuple(map(intern, src_toks, src_toks))
        target = tuple(map(intern, tgt_toks, tgt_toks))
        if not source or not target:
            raise DataError("source and target must be non-empty", path=str(path), line=lineno)
        if ex_id in seen_ids:
            raise DataError(f"duplicate example id {ex_id!r}", path=str(path), line=lineno)
        seen_ids.add(ex_id)
        examples.append(ParallelExample(ex_id, source, target, meta))
    return examples


def _jsonl_line(ex: ParallelExample) -> str:
    """One example as a JSONL line: ``json.dumps(record, sort_keys=True,
    ensure_ascii=False)`` plus a newline, formatted directly for the common
    record of a string id and no meta."""
    if type(ex.id) is str and not ex.meta:
        # json.dumps escapes strings with encode_basestring when ensure_ascii
        # is off, and "id" < "source" < "target" is the sort_keys order.
        return (f'{{"id": {_quote(ex.id)}, "source": {_quote(" ".join(ex.source))}, '
                f'"target": {_quote(" ".join(ex.target))}}}\n')
    record = {"id": ex.id, "source": " ".join(ex.source), "target": " ".join(ex.target)}
    if ex.meta:
        record["meta"] = ex.meta
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def save_corpus_jsonl(examples: Iterable[ParallelExample], path: str | Path) -> int:
    """Write examples as JSONL; returns the number of records written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(_jsonl_line(ex))
            n += 1
    return n


@dataclass
class VocabCounts:
    """Token occurrence counts over one side of a corpus."""

    side: str
    counts: dict[str, int]
    total_tokens: int

    def count(self, token: str) -> int:
        """Occurrences of `token`; absent tokens count 0."""
        return self.counts.get(token, 0)

    def __len__(self) -> int:
        return len(self.counts)


def build_vocab_counts(corpus: Sequence[ParallelExample], side: str = "target") -> VocabCounts:
    """Count token occurrences on one side of `corpus`."""
    counter: Counter[str] = Counter()
    for ex in corpus:
        counter.update(side_tokens(ex, side))
    return VocabCounts(side=side, counts=dict(counter), total_tokens=sum(counter.values()))


def tsv_rows(path: str | Path, fields: int, layout: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, columns) for each non-blank line of a TSV file.

    A line without exactly `fields` columns raises DataError("expected
    `layout`") naming its line.
    """
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != fields:
            raise DataError(f"expected {layout}", path=str(path), line=lineno)
        yield lineno, parts


def filter_oov(
    pool: Sequence[ParallelExample],
    counts: VocabCounts,
    min_count: int = 3,
) -> list[ParallelExample]:
    """Drop pool examples containing any rare token.

    An example survives only if every token on the side the counts were built
    from (`counts.side`) occurred at least `min_count` times in them. Order
    is preserved; the filter is idempotent.
    """
    if min_count < 0:
        raise ConfigError(f"min_count must be non-negative, got {min_count}")
    if min_count == 0:  # every token qualifies, seen or not
        return list(pool)
    frequent = {tok for tok, count in counts.counts.items() if count >= min_count}
    return [ex for ex in pool if frequent.issuperset(side_tokens(ex, counts.side))]


def iter_side(corpus: Iterable[ParallelExample], side: str) -> Iterator[tuple[str, ...]]:
    """Yield the chosen side's token tuples, in corpus order."""
    for ex in corpus:
        yield side_tokens(ex, side)
