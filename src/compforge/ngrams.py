"""Frequent n-gram dictionary: one table from stored n-gram to count.

The dictionary stores every n-gram (up to `max_n` tokens) that occurs
strictly more than `min_count` times in a corpus, together with its count.
Because any contiguous subspan of an n-gram occurs at least as often as the
n-gram itself, the stored set is closed under prefixes, which is what makes
the level-wise Apriori build below sound: an n-gram can only pass the
threshold if its (n-1)-token prefix and suffix already did, so only those
candidates are ever counted.

The build works on integer token ids. The corpus side becomes one flat id
array with, per position, the number of tokens left in its sentence. Level
n extends only the positions whose (n-1)-gram prefix and suffix survived,
packs each candidate as ``prefix gram id * vocabulary + next token id``
(int64) and counts the keys with one `np.unique`, so no level loops over
tokens in Python and no input shape makes the build cubic.

The table ``dict[tuple[str, ...], int]`` is the dictionary's state:
`contains`, `count`, `len` and `entries` read it. Construction derives
one id-level index of the prefix tree from it: the sorted tokens (a
token's id is its rank) and, per depth n, the sorted packed keys
``parent node * tokens + token id`` of the tree's nodes with a stored flag
each, where a node's number is its rank among the keys of its depth.
Unstored prefixes (possible in `from_entries` fixtures) are nodes too.
`stored_starts` maps a batch of sentences to those ids and walks the index
for all their token positions at once, one `np.searchsorted` per depth.

Serialization is deterministic — the same corpus and flags always produce
byte-identical index files. The file is a depth-first walk of the prefix
tree with children in token order, which is the sorted order of the tree's
n-grams: `save` writes them in one loop and `load` reads them back with an
explicit stack, so neither recurses (the layout is in the README).
"""

from __future__ import annotations

import itertools
import json
import struct
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from compforge.errors import ConfigError, DataError

_MAGIC = b"NGIX1"
# One node: token id, count, stored flag, then the node's child count.
_NODE = struct.Struct("<IQBI")
_U32 = struct.Struct("<I")


def _room_to_end(lengths: np.ndarray) -> np.ndarray:
    """For sentences of `lengths` laid end to end: tokens from each position to its sentence end."""
    ends = np.cumsum(lengths)
    return np.repeat(ends, lengths) - np.arange(ends[-1] if len(ends) else 0)


def _prefix_nodes(counts: dict[tuple[str, ...], int]) -> set[tuple[str, ...]]:
    """Every prefix of every stored n-gram: the nodes of the prefix tree.

    A built table is prefix-closed, so only fixtures add unstored prefixes.
    """
    nodes = set(counts)
    for gram in counts:
        if gram[:-1] not in counts:
            nodes.update(gram[:cut] for cut in range(1, len(gram)))
    return nodes


class NGramDictionary:
    """Immutable-by-convention n-gram membership index with counts."""

    def __init__(self, counts: dict[tuple[str, ...], int], min_count: int, max_n: int | None):
        self._counts = counts
        self.min_count = min_count
        self.max_n = max_n
        self._tokens = sorted({tok for gram in counts for tok in gram})
        self._token_ids = {tok: i for i, tok in enumerate(self._tokens)}
        by_depth: dict[int, list[tuple[str, ...]]] = {}
        for node in _prefix_nodes(counts):
            by_depth.setdefault(len(node), []).append(node)
        # Same-length n-grams sort like (parent rank, token id), so each depth's
        # keys come out sorted and a node's rank is its number.
        width = len(self._tokens)
        rank: dict[tuple[str, ...], int] = {(): 0}
        self._levels: list[tuple[np.ndarray, np.ndarray]] = []
        for depth in range(1, len(by_depth) + 1):
            nodes = sorted(by_depth[depth])
            keys = np.fromiter(
                (rank[node[:-1]] * width + self._token_ids[node[-1]] for node in nodes),
                dtype=np.int64, count=len(nodes),
            )
            stored = np.fromiter((node in counts for node in nodes), dtype=bool, count=len(nodes))
            self._levels.append((keys, stored))
            rank = {node: i for i, node in enumerate(nodes)}

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

    def stored_starts(
        self, tokens: Iterable[str], lengths: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (n, positions p where tokens[p:p+n] is a stored n-gram) for n = 1, 2, ...

        `tokens` are sentences of `lengths` laid end to end; no n-gram crosses
        a sentence end, and a token no n-gram holds gets id -1, which matches
        no key. Depth n looks up only the positions whose (n-1)-token prefix is
        a node of the tree, and the walk stops when none is left or at `max_n`.
        """
        ids = np.fromiter(map(self._token_ids.get, tokens, itertools.repeat(-1)), dtype=np.int64)
        room = _room_to_end(lengths)
        width = len(self._tokens)
        levels = self._levels if self.max_n is None else self._levels[: self.max_n]
        pos = np.arange(len(ids))
        node = np.zeros(len(pos), dtype=np.int64)
        for n, (keys, stored) in enumerate(levels, start=1):
            inside = room[pos] >= n
            pos, node = pos[inside], node[inside]
            token = ids[pos + (n - 1)]
            key = node * width + token
            # Binary search is several times faster over sorted needles.
            order = np.argsort(key)
            at = np.empty_like(key)
            at[order] = np.minimum(np.searchsorted(keys, key[order]), len(keys) - 1)
            found = (keys[at] == key) & (token >= 0)
            pos, node = pos[found], at[found]
            if not len(pos):
                return
            yield n, pos[stored[node]]

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
        counts, tokens, token_ids = self._counts, self._tokens, self._token_ids
        nodes = sorted(_prefix_nodes(counts))
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

    tokens: list[str] = []
    lengths: list[int] = []
    for sentence in sentences:
        before = len(tokens)
        tokens.extend(sentence)
        lengths.append(len(tokens) - before)
    words = list(dict.fromkeys(tokens))  # id -> token, in first-occurrence order
    word_ids = {word: i for i, word in enumerate(words)}
    ids = np.fromiter(map(word_ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    room = _room_to_end(np.array(lengths, dtype=np.int64))
    width = len(words)

    counts = np.bincount(ids, minlength=width)
    keep = counts > min_count
    # gram_ids[p]: id of the surviving current-level n-gram starting at p, else -1.
    gram_ids = np.where(keep, np.cumsum(keep) - 1, -1)[ids]
    grams = [(words[t],) for t in np.flatnonzero(keep).tolist()]
    survivors = dict(zip(grams, counts[keep].tolist()))
    pos = np.flatnonzero(gram_ids >= 0)

    n = 2
    while grams and (max_n is None or n <= max_n):
        # A candidate's (n-1)-token prefix starts at p and its suffix at p + 1.
        pos = pos[room[pos] >= n]
        pos = pos[gram_ids[pos + 1] >= 0]
        keys = gram_ids[pos] * width + ids[pos + (n - 1)]
        unique, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        keep = counts > min_count
        level_ids = np.where(keep, np.cumsum(keep) - 1, -1)[inverse]
        gram_ids.fill(-1)
        gram_ids[pos] = level_ids
        pos = pos[level_ids >= 0]
        kept = unique[keep]
        grams = [
            grams[prefix] + (words[last],)
            for prefix, last in zip((kept // width).tolist(), (kept % width).tolist())
        ]
        survivors.update(zip(grams, counts[keep].tolist()))
        n += 1

    return NGramDictionary(survivors, min_count, max_n)
