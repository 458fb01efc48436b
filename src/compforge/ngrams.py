"""Frequent n-gram dictionary: one table from stored n-gram to count.

The dictionary stores every n-gram (up to `max_n` tokens) that occurs
strictly more than `min_count` times in a corpus, together with its count.
Because any contiguous subspan of an n-gram occurs at least as often as the
n-gram itself, the stored set is closed under prefixes, which is what makes
the level-wise Apriori build below sound: a k-gram can only pass the
threshold if its (k-1)-token prefix and suffix already did, so only those
candidates are ever counted.

The table ``dict[tuple[str, ...], int]`` is the dictionary's only state:
`contains`, `count`, `len` and `entries` read it, and pickling sends only
it. `match_lengths_from` reports every stored n-gram starting at a sentence
position in a single walk over a prefix tree of nested dicts,
``token -> (stored, children)``, which is derived from the table once on
construction.

Serialization is deterministic — the same corpus and flags always produce
byte-identical index files. The file is a depth-first walk of the prefix
tree with children in token order, which is the sorted order of the tree's
n-grams: `save` writes them in one loop and `load` reads them back with an
explicit stack, so neither recurses (the layout is in the README).
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from compforge.errors import ConfigError, DataError

_MAGIC = b"NGIX1"
# One node: token id, count, stored flag, then the node's child count.
_NODE = struct.Struct("<IQBI")
_U32 = struct.Struct("<I")


class NGramDictionary:
    """Immutable-by-convention n-gram membership index with counts."""

    def __init__(self, counts: dict[tuple[str, ...], int], min_count: int, max_n: int | None):
        self._counts = counts
        self.min_count = min_count
        self.max_n = max_n
        # A prefix sorts before its extensions, so a stored n-gram's node is
        # created before any node below it; unstored prefixes (possible in
        # `from_entries` fixtures) get a non-stored node on first use.
        self._tree: dict[str, tuple[bool, dict]] = {}
        for gram in sorted(counts):
            children = self._tree
            for token in gram[:-1]:
                children = children.setdefault(token, (False, {}))[1]
            children[gram[-1]] = (True, {})

    def __reduce__(self):
        return (NGramDictionary, (self._counts, self.min_count, self.max_n))

    # -- queries ---------------------------------------------------------

    @property
    def vocab_size(self) -> int:
        """Number of distinct unigram entries."""
        return sum(1 for gram in self._counts if len(gram) == 1)

    def __len__(self) -> int:
        """Total number of stored n-grams."""
        return len(self._counts)

    def contains(self, span: Sequence[str]) -> bool:
        """True iff `span` (a token sequence) is a stored n-gram."""
        if self.max_n is not None and len(span) > self.max_n:
            return False
        return tuple(span) in self._counts

    def count(self, span: Sequence[str]) -> int:
        """Corpus count of a stored n-gram; 0 when not stored."""
        return self._counts.get(tuple(span), 0)

    def match_lengths_from(self, sentence: Sequence[str], start: int) -> list[int]:
        """Ascending lengths L such that sentence[start:start+L] is stored."""
        if not 0 <= start < len(sentence):
            raise ConfigError(f"start {start} out of range for sentence of length {len(sentence)}")
        lengths: list[int] = []
        children = self._tree
        limit = len(sentence) - start
        if self.max_n is not None:
            limit = min(limit, self.max_n)
        for offset in range(limit):
            node = children.get(sentence[start + offset])
            if node is None:
                break
            stored, children = node
            if stored:
                lengths.append(offset + 1)
        return lengths

    def entries(self) -> list[tuple[tuple[str, ...], int]]:
        """All stored (n-gram, count) pairs in lexicographic order."""
        return sorted(self._counts.items())

    # -- construction ----------------------------------------------------

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[Sequence[str]],
        min_count: int = 0,
        max_n: int | None = None,
    ) -> "NGramDictionary":
        """Build a dictionary from explicit entries (for hand-built fixtures).

        Every entry is stored as a member with a synthetic count of
        ``min_count + 1``; `max_n` defaults to the longest entry.
        """
        counts: dict[tuple[str, ...], int] = {}
        for entry in entries:
            gram = tuple(entry)
            if not gram:
                raise ConfigError("dictionary entries must be non-empty")
            counts[gram] = min_count + 1
        longest = max(map(len, counts), default=1)
        return cls(counts, min_count, max_n if max_n is not None else longest)

    # -- serialization ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the index; same dictionary always gives identical bytes."""
        counts = self._counts
        tokens = sorted({tok for gram in counts for tok in gram})
        token_ids = {tok: i for i, tok in enumerate(tokens)}
        # The tree's nodes are every prefix of every stored n-gram; a built
        # table is prefix-closed, so only fixtures add unstored prefixes here.
        prefixes = set(counts)
        for gram in counts:
            if gram[:-1] not in counts:
                prefixes.update(gram[:cut] for cut in range(1, len(gram)))
        nodes = sorted(prefixes)
        child_counts = Counter(node[:-1] for node in nodes)
        header = json.dumps(
            {"min_count": self.min_count, "max_n": self.max_n, "tokens": len(tokens)},
            sort_keys=True,
        ).encode("utf-8")
        parts = [_MAGIC, _U32.pack(len(header)), header]
        for tok in tokens:
            raw = tok.encode("utf-8")
            parts += (_U32.pack(len(raw)), raw)
        parts.append(_U32.pack(child_counts[()]))
        parts += (
            _NODE.pack(token_ids[node[-1]], counts.get(node, 0), node in counts, child_counts[node])
            for node in nodes
        )
        Path(path).write_bytes(b"".join(parts))

    @classmethod
    def load(cls, path: str | Path) -> "NGramDictionary":
        """Read an index written by `save`; a malformed file raises DataError."""
        data = Path(path).read_bytes()
        if data[: len(_MAGIC)] != _MAGIC:
            raise DataError("not an n-gram index file (bad magic)", path=str(path))
        offset = len(_MAGIC)

        def take(size: int) -> bytes:
            nonlocal offset
            if offset + size > len(data):
                raise DataError("truncated n-gram index", path=str(path))
            offset += size
            return data[offset - size : offset]

        (header_len,) = _U32.unpack(take(_U32.size))
        try:
            header = json.loads(take(header_len).decode("utf-8"))
            min_count, max_n, n_tokens = header["min_count"], header["max_n"], header["tokens"]
        except (ValueError, RecursionError, LookupError, TypeError):
            raise DataError("n-gram index header is not a JSON object with "
                            "min_count, max_n and tokens", path=str(path))
        if not (type(min_count) is type(n_tokens) is int and min(min_count, n_tokens) >= 0
                and (max_n is None or type(max_n) is int and max_n >= 1)):
            raise DataError("n-gram index header needs integers min_count >= 0, "
                            "tokens >= 0 and max_n >= 1 or null", path=str(path))
        tokens = []
        for _ in range(n_tokens):
            (tok_len,) = _U32.unpack(take(_U32.size))
            try:
                tokens.append(take(tok_len).decode("utf-8"))
            except UnicodeDecodeError:
                raise DataError(f"token {len(tokens)} is not UTF-8", path=str(path))

        counts: dict[tuple[str, ...], int] = {}
        # Each entry: the n-gram of an open node and how many children remain to read.
        (root_children,) = _U32.unpack(take(_U32.size))
        stack: list[tuple[tuple[str, ...], int]] = [((), root_children)]
        while stack:
            prefix, remaining = stack[-1]
            if not remaining:
                stack.pop()
                continue
            stack[-1] = (prefix, remaining - 1)
            token_id, count, stored, n_children = _NODE.unpack(take(_NODE.size))
            if token_id >= len(tokens):
                raise DataError(
                    f"token id {token_id} out of range for {len(tokens)} tokens", path=str(path)
                )
            gram = prefix + (tokens[token_id],)
            if stored:
                counts[gram] = count
            stack.append((gram, n_children))
        if offset != len(data):
            raise DataError(
                f"{len(data) - offset} trailing bytes after the last node", path=str(path)
            )
        return cls(counts, min_count, max_n)


def build_ngram_dictionary(
    sentences: Iterable[Sequence[str]],
    min_count: int = 3,
    max_n: int | None = 8,
) -> NGramDictionary:
    """Count n-grams over `sentences` and keep those with count > `min_count`.

    `sentences` is an iterable of token sequences (one side of a corpus).
    n-grams never cross sentence boundaries. `max_n=None` removes the length
    cap; the build then stops at the longest n-gram still above threshold.
    """
    if min_count < 0:
        raise ConfigError(f"min_count must be non-negative, got {min_count}")
    if max_n is not None and max_n < 1:
        raise ConfigError(f"max_n must be at least 1, got {max_n}")

    sents = [tuple(s) for s in sentences]
    survivors: dict[tuple[str, ...], int] = {}

    unigrams = Counter(tok for s in sents for tok in s)
    level = {(tok,): c for tok, c in unigrams.items() if c > min_count}
    survivors.update(level)
    # Start positions (per sentence) whose current-level n-gram survived.
    alive_tokens = {g[0] for g in level}
    alive = [[i for i, tok in enumerate(s) if tok in alive_tokens] for s in sents]

    n = 2
    while level and (max_n is None or n <= max_n):
        counter: Counter[tuple[str, ...]] = Counter()
        candidates: list[list[int]] = []
        for s, positions in zip(sents, alive):
            posset = set(positions)
            cand = [i for i in positions if i + 1 in posset and i + n <= len(s)]
            for i in cand:
                counter[s[i : i + n]] += 1
            candidates.append(cand)
        level = {g: c for g, c in counter.items() if c > min_count}
        alive = [
            [i for i in cand if s[i : i + n] in level]
            for s, cand in zip(sents, candidates)
        ]
        survivors.update(level)
        n += 1

    return NGramDictionary(survivors, min_count, max_n)
