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

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from compforge.errors import ConfigError, DataError, require_int

SIDES = ("source", "target")
FORMATS = ("tsv", "jsonl")

T = TypeVar("T")


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


def json_line(line: str):
    """`line` parsed as JSON, any whitespace around it dropped as `id_records`
    drops blank lines; DataError("invalid JSON: ...") if it is not JSON or a
    string in it holds a lone surrogate escape, which no UTF-8 writer can encode."""
    try:
        record = json.loads(line.strip())
        if "\\u" in line:  # only an escape can spell a surrogate
            json.dumps(record, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:  # a ValueError too
        raise DataError("invalid JSON: a string holds a lone surrogate escape")
    except (ValueError, RecursionError) as exc:  # also deep nesting, huge ints
        raise DataError(f"invalid JSON: {exc}")
    return record


def read_id(value) -> str:
    """A record's id: a string as it is, an integer as its decimal string.
    Any other JSON value (a bool, a float, null, a list) is a DataError, and
    so is a string holding a tab, LF or CR, which no TSV artifact row can hold."""
    if type(value) is int:  # a bool is not an int here
        return str(value)
    if type(value) is not str or "\t" in value or "\n" in value or "\r" in value:
        raise DataError(f"id must be a string or an integer with no tab or line break, "
                        f"got {value!r}")
    return value


def tsv_fields(line: str, fields: int, layout: str) -> list[str]:
    """The tab-separated columns of `line`; DataError("expected `layout`")
    unless there are exactly `fields`."""
    parts = line.split("\t")
    if len(parts) != fields:
        raise DataError(f"expected {layout}")
    return parts


def id_records(
    path: str | Path, parse: Callable[[str, int], tuple[str, T]]
) -> Iterator[tuple[str, T]]:
    """Yield ``parse(line, index)``, an (id, record) pair, for each non-blank line
    of a text file; `index` counts the records before it. These are the rules
    every id-keyed input shares: whitespace-only lines are skipped but counted,
    and a DataError from `parse` or a repeated id raises DataError naming the
    path and line."""
    seen: set[str] = set()
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            record_id, record = parse(line, len(seen))
        except DataError as exc:
            raise DataError(str(exc), path=str(path), line=lineno)
        if record_id in seen:
            raise DataError(f"duplicate example id {record_id!r}", path=str(path), line=lineno)
        seen.add(record_id)
        yield record_id, record


def iter_parallel_corpus(path: str | Path, format: str | None = None) -> Iterator[ParallelExample]:
    """Yield the examples of a parallel corpus at `path`, reading it lazily.

    `format` is "tsv" or "jsonl"; when omitted it is inferred from the file
    suffix, and a bad or uninferable format raises :class:`ConfigError` here,
    not at the first example. Lines are read by `id_records`, so ids must be
    unique and a malformed record raises :class:`DataError` naming its line
    when it is reached. An empty file yields nothing. Missing ids are assigned
    from the record index, and an integer id is read as its decimal string.
    Equal tokens share one string object, to save memory.
    """
    fmt = format or _infer_format(path)
    if fmt not in FORMATS:
        raise ConfigError(f"unknown corpus format {fmt!r}")
    intern = {}.setdefault  # each token string to the first equal one seen

    def parse(line: str, index: int) -> tuple[str, ParallelExample]:
        if fmt == "tsv":
            ex_id = str(index)
            src_text, tgt_text = tsv_fields(line, 2, "source<TAB>target")
            meta: dict = {}
        else:
            record = json_line(line)
            if not isinstance(record, dict):
                raise DataError("record is not an object")
            src_text, tgt_text = record.get("source"), record.get("target")
            if not (isinstance(src_text, str) and isinstance(tgt_text, str)):
                missing = [k for k in SIDES if not isinstance(record.get(k), str)]
                raise DataError(f"missing or non-string field(s): {', '.join(missing)}")
            ex_id = read_id(record.get("id", index))
            meta = record.get("meta", {})
            if type(meta) is not dict:
                raise DataError("meta must be an object")
        src_toks, tgt_toks = src_text.split(), tgt_text.split()
        source = tuple(map(intern, src_toks, src_toks))
        target = tuple(map(intern, tgt_toks, tgt_toks))
        if not source or not target:
            raise DataError("source and target must be non-empty")
        return ex_id, ParallelExample(ex_id, source, target, meta)

    return (example for _, example in id_records(Path(path), parse))


def load_parallel_corpus(path: str | Path, format: str | None = None) -> list[ParallelExample]:
    """The whole corpus at `path` as a list: `iter_parallel_corpus`, read to the end."""
    return list(iter_parallel_corpus(path, format))


def batched(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """Yield `items` as consecutive lists of `size` (the last may be shorter)."""
    items = iter(items)
    while batch := list(itertools.islice(items, size)):
        yield batch
        del batch  # so that only the caller holds it while the next batch is read


def jsonl_line(ex: ParallelExample) -> str:
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
            fh.write(jsonl_line(ex))
            n += 1
    return n


@dataclass
class VocabCounts:
    """Token occurrence counts over one side of a corpus."""

    side: str
    counts: dict[str, int]
    total_tokens: int

    def __len__(self) -> int:
        return len(self.counts)


def build_vocab_counts(corpus: Iterable[ParallelExample], side: str = "target") -> VocabCounts:
    """Count token occurrences on one side of `corpus`."""
    counter: Counter[str] = Counter()
    for ex in corpus:
        counter.update(side_tokens(ex, side))
    return VocabCounts(side=side, counts=dict(counter), total_tokens=sum(counter.values()))


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
    require_int("min_count", min_count, 0)
    if min_count == 0:  # every token qualifies, seen or not
        return list(pool)
    frequent = {tok for tok, count in counts.counts.items() if count >= min_count}
    return [ex for ex in pool if frequent.issuperset(side_tokens(ex, counts.side))]


def iter_side(corpus: Iterable[ParallelExample], side: str) -> Iterator[tuple[str, ...]]:
    """Yield the chosen side's token tuples, in corpus order."""
    for ex in corpus:
        yield side_tokens(ex, side)
