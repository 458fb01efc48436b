"""Frequent n-gram dictionary: an id-level prefix tree with counts.

The dictionary stores every n-gram (up to `max_n` tokens) that occurs
strictly more than `min_count` times in a corpus, together with its count.
Because any contiguous subspan of an n-gram occurs at least as often as the
n-gram itself, the stored set is closed under prefixes, which is what makes
the level-wise Apriori build below sound: an n-gram can only pass the
threshold if its (n-1)-token prefix and suffix already did, so only those
candidates are ever counted.

The prefix tree is the dictionary's only state: the sorted tokens (a
token's id is its rank) and, per depth, the sorted packed keys
``parent node * tokens + token id`` of the tree's nodes, where a node's
number is its rank among its depth's keys, with an int64 count each. A
count of 0 marks a prefix that is only on the way to a stored n-gram
(possible in `from_entries` fixtures).

Sentences have one layout, `_separated`: ids laid end to end with a -1
after each sentence, so sentence r's token i is cell ``i + r + (tokens
before r)``; a -1 matches no key, so no n-gram crosses a sentence end. The
build lays out the corpus side with ids that rank the kept unigrams by
token. Level n extends only the cells whose (n-1)-gram prefix and suffix
survived. One sort of their packed candidate keys groups equal keys; a
group's size is its count, and the groups above `min_count` are that
depth's sorted keys. So no level loops over tokens in Python and no input
shape makes the build cubic. The build's per-cell arrays (ids, positions,
node ids) are int32 while the layout has fewer than 2**31 cells; packed
keys and counts are int64. `stored_starts` lays out the sentences it is
given and walks the tree for all their cells at once, one
`np.searchsorted` per depth; `contains` and `count` walk it for one span.

Serialization is deterministic — the same corpus and flags always produce
byte-identical index files. The file is a depth-first walk of the tree
with children in token order. `save` places each node in it from subtree
sizes and `load` hangs each node under the latest node one depth up, so
neither recurses (the layout is in the README).
"""

from __future__ import annotations

import itertools
import json
import struct
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from compforge.errors import ConfigError, DataError, require_int

_MAGIC = b"NGIX1"
# One node: token id, count, stored flag, then the node's child count.
_NODE = np.dtype([("token", "<u4"), ("count", "<u8"), ("stored", "u1"), ("children", "<u4")])
_U32 = struct.Struct("<I")

# Per depth of the prefix tree: sorted node keys and each node's count (0: not stored).
Levels = list[tuple[np.ndarray, np.ndarray]]


def _separated(ids: np.ndarray, lengths: Sequence[int] | np.ndarray) -> np.ndarray:
    """`ids` of sentences of `lengths`, laid end to end, with a -1 after each sentence."""
    return np.insert(ids, np.cumsum(lengths, dtype=np.int64), -1)


def _cell_dtype(cells: int) -> type:
    """The build's integer type for `cells` cells: int32 if every cell and node id fits."""
    return np.int32 if cells < 2**31 else np.int64


def _levels(depth: np.ndarray, token: np.ndarray, count: np.ndarray, width: int) -> Levels:
    """The levels of the tree whose depth-first walk has these nodes' depths, token ids and counts.

    Each node hangs under the latest node one depth up, so with children in
    token order every depth's keys come out sorted.
    """
    by_depth = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[by_depth], np.arange(1, depth.max(initial=0) + 2)).tolist()
    levels, above = [], np.array([-1])  # the root precedes every node
    for lo, hi in zip(bounds, bounds[1:]):
        walk = by_depth[lo:hi]  # walk positions of this depth's nodes
        parent = np.searchsorted(above, walk) - 1
        levels.append((parent * width + token[walk], count[walk]))
        above = walk
    return levels


class NGramDictionary:
    """Immutable-by-convention n-gram membership index with counts."""

    def __init__(self, tokens: list[str], levels: Levels, min_count: int, max_n: int | None):
        self._tokens = tokens
        self._token_ids = {tok: i for i, tok in enumerate(tokens)}
        self._levels = levels
        self.min_count = min_count
        self.max_n = max_n

    # -- queries ---------------------------------------------------------

    @property
    def vocab_size(self) -> int:
        """Number of distinct unigram entries."""
        return int(np.count_nonzero(self._levels[0][1])) if self._levels else 0

    def __len__(self) -> int:
        """Total number of stored n-grams."""
        return sum(int(np.count_nonzero(counts)) for _, counts in self._levels)

    def contains(self, span: Sequence[str]) -> bool:
        """True iff `span` (a token sequence) is a stored n-gram."""
        return (self.max_n is None or len(span) <= self.max_n) and self.count(span) > 0

    def count(self, span: Sequence[str]) -> int:
        """Corpus count of a stored n-gram; 0 when not stored."""
        ids = [self._token_ids.get(tok, -1) for tok in span]
        if not ids or len(ids) > len(self._levels) or min(ids) < 0:
            return 0
        node, width = 0, len(self._tokens)
        for (keys, counts), token in zip(self._levels, ids):
            key = node * width + token
            node = int(np.searchsorted(keys, key))
            if node == len(keys) or keys[node] != key:
                return 0
        return int(counts[node])

    def stored_starts(
        self, tokens: Iterable[str], lengths: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (n, cells c where the n-gram starting at c is stored) for n = 1, 2, ...

        `tokens` are sentences of `lengths` laid end to end; the cells are
        those of `_separated`, and a token no n-gram holds gets id -1, as a
        separator does. Depth n looks up only the cells whose (n-1)-token
        prefix is a node of the tree, and the walk stops when none is left or
        at `max_n`.
        """
        ids = np.fromiter(map(self._token_ids.get, tokens, itertools.repeat(-1)), dtype=np.int64)
        ids = _separated(ids, lengths)
        width = len(self._tokens)
        levels = self._levels if self.max_n is None else self._levels[: self.max_n]
        cell = np.arange(len(ids))
        node = np.zeros(len(cell), dtype=np.int64)
        for n, (keys, counts) in enumerate(levels, start=1):
            # A surviving cell's n - 1 tokens are not separators, so its n-th cell exists.
            token = ids[cell + (n - 1)]
            key = node * width + token
            # Binary search is several times faster over sorted needles.
            order = np.argsort(key)
            at = np.empty_like(key)
            at[order] = np.minimum(np.searchsorted(keys, key[order]), len(keys) - 1)
            found = (keys[at] == key) & (token >= 0)
            cell, node = cell[found], at[found]
            if not len(cell):
                return
            yield n, cell[counts[node] > 0]

    def entries(self) -> list[tuple[tuple[str, ...], int]]:
        """All stored (n-gram, count) pairs in lexicographic order."""
        width, grams, stored = len(self._tokens), [()], []
        for keys, counts in self._levels:
            grams = [grams[key // width] + (self._tokens[key % width],) for key in keys.tolist()]
            stored += [(gram, count) for gram, count in zip(grams, counts.tolist()) if count]
        return sorted(stored)

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
        if not 0 <= min_count < 2**63 - 1:  # a stored node's count must fit in (0, 2**63)
            raise ConfigError(f"min_count must be in [0, 2**63 - 1), got {min_count}")
        stored = {tuple(entry) for entry in entries}
        if () in stored:
            raise ConfigError("dictionary entries must be non-empty")
        # Sorted n-grams are the depth-first walk of their tree, children in token order.
        nodes = sorted({gram[:cut] for gram in stored for cut in range(1, len(gram) + 1)})
        tokens = sorted({gram[-1] for gram in nodes})
        token_ids = {tok: i for i, tok in enumerate(tokens)}
        levels = _levels(
            np.array([len(node) for node in nodes], dtype=np.int64),
            np.array([token_ids[node[-1]] for node in nodes], dtype=np.int64),
            np.array([min_count + 1 if node in stored else 0 for node in nodes], dtype=np.int64),
            len(tokens),
        )
        longest = max(map(len, stored), default=1)
        return cls(tokens, levels, min_count, max_n if max_n is not None else longest)

    # -- serialization ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the index; same dictionary always gives identical bytes."""
        tokens, levels = self._tokens, self._levels
        width = len(tokens)
        header = json.dumps(
            {"min_count": self.min_count, "max_n": self.max_n, "tokens": width},
            sort_keys=True,
        ).encode("utf-8")
        parts = [_MAGIC, _U32.pack(len(header)), header]
        for tok in tokens:
            raw = tok.encode("utf-8")
            parts += (_U32.pack(len(raw)), raw)
        # A node's place in the depth-first walk is its parent's place + 1 + the subtree
        # sizes of its earlier siblings, so the walk needs neither a stack nor recursion.
        parents = [keys // width for keys, _ in levels] + [np.zeros(0, dtype=np.int64)]
        sizes = [np.ones(len(keys), dtype=np.int64) for keys, _ in levels]
        for depth in range(len(levels) - 1, 0, -1):
            np.add.at(sizes[depth - 1], parents[depth], sizes[depth])
        walk = np.zeros(sum(map(len, sizes)), dtype=_NODE)
        place = np.array([-1])  # the root's
        for depth, (keys, counts) in enumerate(levels):
            parent, size = parents[depth], sizes[depth]
            before = np.cumsum(size) - size
            place = place[parent] + 1 + before - before[np.searchsorted(parent, parent)]
            walk["token"][place], walk["count"][place] = keys % width, counts
            walk["stored"][place] = counts > 0
            walk["children"][place] = np.bincount(parents[depth + 1], minlength=len(keys))
        parts += (_U32.pack(len(levels[0][0]) if levels else 0), walk.tobytes())
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
        if any(a >= b for a, b in zip(tokens, tokens[1:])):
            raise DataError("token table is not sorted or repeats a token", path=str(path))

        (root_children,) = _U32.unpack(take(_U32.size))
        nodes = np.frombuffer(data, _NODE, (len(data) - offset) // _NODE.itemsize, offset)
        # Walk the child counts with one stack entry per open node: its children still to read.
        depths: list[int] = []
        stack = [root_children]
        for n_children in nodes["children"].tolist():
            while stack and not stack[-1]:
                stack.pop()
            if not stack:
                break
            stack[-1] -= 1
            depths.append(len(stack))
            stack.append(n_children)
        if any(stack):
            raise DataError("truncated n-gram index", path=str(path))
        nodes = nodes[: len(depths)]
        if offset + nodes.nbytes != len(data):
            raise DataError(f"{len(data) - offset - nodes.nbytes} trailing bytes after the "
                            "last node", path=str(path))
        token_ids, counts = nodes["token"].astype(np.int64), nodes["count"]
        if len(nodes) and token_ids.max() >= len(tokens):
            raise DataError(f"token id {token_ids.max()} out of range for {len(tokens)} tokens",
                            path=str(path))
        if (nodes["stored"] != ((counts > 0) & (counts < 2**63))).any():
            raise DataError("a stored flag disagrees with its node's count", path=str(path))
        levels = _levels(np.array(depths, dtype=np.int64), token_ids, counts.astype(np.int64),
                         len(tokens))
        if any((np.diff(keys) <= 0).any() for keys, _ in levels):
            raise DataError("children out of token order or repeated", path=str(path))
        return cls(tokens, levels, min_count, max_n)


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
    require_int("min_count", min_count, 0)
    require_int("max_n", max_n, 1, optional=True)

    tokens: list[str] = []
    lengths: list[int] = []
    for sentence in sentences:
        tokens.extend(sentence)
        lengths.append(len(sentence))
    words = sorted(set(tokens))
    word_ids = {word: i for i, word in enumerate(words)}
    cell = _cell_dtype(len(tokens) + len(lengths))
    ids = np.fromiter(map(word_ids.__getitem__, tokens), dtype=cell, count=len(tokens))
    del tokens, word_ids

    counts = np.bincount(ids, minlength=len(words))
    # The tree's tokens are the kept words, in order; a dropped word's id becomes -1.
    kept = counts > min_count
    ids = _separated(np.where(kept, np.cumsum(kept) - 1, -1).astype(cell)[ids], lengths)
    vocab = [word for word, keep in zip(words, kept.tolist()) if keep]
    width = len(vocab)
    levels = [(np.arange(width, dtype=np.int64), counts[kept])] if vocab else []
    # gram_ids[p]: node of the surviving current-depth n-gram starting at p, else -1.
    gram_ids = ids
    pos = np.flatnonzero(gram_ids >= 0).astype(cell)

    n = 2
    while levels and (max_n is None or n <= max_n):
        # A candidate's (n-1)-token prefix starts at p and its suffix at p + 1; no
        # surviving n-gram holds a separator, so neither crosses a sentence end.
        pos = pos[gram_ids[1:][pos] >= 0]
        # Grouping the sorted (prefix node, token id) keys gives this depth's keys.
        keys = gram_ids[pos].astype(np.int64) * width + ids[n - 1:][pos]
        del gram_ids
        pos = pos[np.argsort(keys)]
        keys.sort()  # in place: no second int64 array beside the argsort's
        starts = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=starts[1:])
        counts = np.diff(np.flatnonzero(starts), append=len(keys))
        keep = counts > min_count
        if not keep.any():
            break
        levels.append((keys[starts][keep], counts[keep]))
        del keys
        # Sorted key i is in group (starts up to i) - 1, and a kept group's node
        # is its rank among the kept groups.
        nodes = np.where(keep, np.cumsum(keep) - 1, -1).astype(cell)
        gram_ids = np.full_like(ids, -1)
        gram_ids[pos] = nodes[np.cumsum(starts, dtype=cell) - 1]
        pos = pos[gram_ids[pos] >= 0]
        n += 1

    return NGramDictionary(vocab, levels, min_count, max_n)
