"""Minimum n-gram covers and compositional degree.

A sentence is segmented into the fewest contiguous atoms such that each atom
is either a dictionary n-gram or a single (uncovered) token. The
compositional degree of a sentence is ``atom_count / length``: low when the
sentence is pieced together from few large memorized chunks, 1.0 when no
multi-token chunk from the dictionary applies at all.

The segmentation is a shortest-path DP over token boundaries:

    f[0] = 0
    f[i] = min over admissible last atoms sentence[j:i] of f[j] + 1

where "admissible" means the span is a dictionary member, or has length 1
(the fallback for uncovered tokens).

`score_degrees` is the one degree scorer. It takes the sentences in chunks
of `_CHUNK` and hands each chunk's tokens to `NGramDictionary.stored_starts`,
which finds every stored n-gram. It then runs the DP for the whole chunk at
once, one vectorised step per end position i: for every sentence at least i
tokens long, the fallback ``f[i - 1] + 1`` lowered by a scatter-min over
every stored n-gram that ends at i, whatever its length. The table is
ragged, in the n-gram index's sentence layout (sentence r owns
``length_r + 1`` cells), so one long sentence does not pad the others. A
degree needs only the minimum count, so no back-pointers are kept.

`min_cover` runs the same DP on its one sentence and reads the atoms back
from the table, end first: the last atom ending at i starts at the earliest
stored n-gram start j with ``f[j] = f[i] - 1``, or is the singleton at
i - 1 if there is none. So among equal-cost segmentations it prefers the
longer final atom, applied recursively, and its atom count is the degree's.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from compforge.corpus import ParallelExample, batched, id_records, side_tokens, tsv_fields
from compforge.errors import ConfigError, DataError, require_int
from compforge.ngrams import NGramDictionary

# Sentences scored together: bounds the span arrays and the DP table, so
# scoring memory does not grow with the pool.
_CHUNK = 1024


@dataclass(frozen=True)
class CompositionalDegree:
    """Degree = atom_count / length, held as the two integers."""

    atom_count: int
    length: int

    @property
    def value(self) -> float:
        return self.atom_count / self.length


# -- degrees.tsv: id, atom_count, length, degree; one example per line --------


def degree_line(ex_id: str, degree: CompositionalDegree) -> str:
    """One degrees.tsv row, newline included."""
    return f"{ex_id}\t{degree.atom_count}\t{degree.length}\t{degree.value:.10g}\n"


def read_degree_tsv(path: str | Path) -> dict[str, CompositionalDegree]:
    """Parse a degree TSV into id -> degree.

    The degree column is derived, so it is recomputed from atom_count and
    length. A malformed row or a repeated id raises DataError naming its line.
    """

    def parse(line: str, _index: int) -> tuple[str, CompositionalDegree]:
        ex_id, atoms, length, _ = tsv_fields(line, 4, "id/atom_count/length/degree")
        try:
            atoms, length = int(atoms), int(length)
        except ValueError:
            raise DataError("atom_count and length must be integers")
        if not 1 <= atoms <= length:
            raise DataError(f"atom_count {atoms} outside [1, length={length}]")
        return ex_id, CompositionalDegree(atoms, length)

    return dict(id_records(path, parse))


def min_cover(sentence: Sequence[str], dictionary: NGramDictionary) -> tuple[tuple[str, ...], ...]:
    """Segment `sentence` into the fewest dictionary atoms, left to right.

    Uncovered tokens fall back to singleton atoms, so every sentence has a
    cover, and the number of atoms is the degree's ``atom_count``, at most
    ``len(sentence)``. Ties are broken toward longer final atoms.
    """
    n = len(sentence)
    if n == 0:
        raise ConfigError("cannot cover an empty sentence")
    best, sources, bounds = _cover_table(sentence, np.array([n]), dictionary)
    best = best.tolist()
    atoms: list[tuple[str, ...]] = []
    i = n
    while i > 0:
        # The earliest start of a stored n-gram ending at i that costs one atom
        # more than its start, else the singleton at i - 1: the longest final atom.
        starts = sources[bounds[i] : bounds[i + 1]].tolist()
        j = min((s for s in starts if best[s] == best[i] - 1), default=i - 1)
        atoms.append(tuple(sentence[j:i]))
        i = j
    return tuple(reversed(atoms))


def _cover_table(
    tokens: Iterable[str], lengths: np.ndarray, dictionary: NGramDictionary
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The cover DP over sentences of `lengths`, laid end to end in `tokens`:
    the table `best`, and the start cells `sources` of the stored multi-token
    n-grams, of which those ending at column i are ``sources[bounds[i] : bounds[i + 1]]``."""
    # The table's cells are those `stored_starts` yields: sentence r owns cells
    # first[r] .. first[r] + lengths[r], and cell first[r] + i holds the fewest
    # atoms covering its first i tokens, so a stored n-gram at cell c is an edge c -> c + n.
    owned = lengths + 1
    first = np.cumsum(owned) - owned
    column = np.arange(owned.sum()) - np.repeat(first, owned)
    none = np.zeros(0, dtype=np.int64)
    sources, targets = [none], [none]
    for n, cells in dictionary.stored_starts(tokens, lengths):
        if n > 1:  # a stored unigram costs what the singleton fallback costs
            sources.append(cells)
            targets.append(cells + n)
    sources, targets = np.concatenate(sources), np.concatenate(targets)
    order = np.argsort(column[targets], kind="stable")
    sources, targets = sources[order], targets[order]
    width = int(lengths.max())
    bounds = np.searchsorted(column[targets], np.arange(width + 2)).tolist()

    best = np.zeros(len(column), dtype=np.int32)
    for i in range(1, width + 1):
        at = first[lengths >= i] + i
        best[at] = best[at - 1] + 1
        lo, hi = bounds[i], bounds[i + 1]
        if lo < hi:
            np.minimum.at(best, targets[lo:hi], best[sources[lo:hi]] + 1)
    return best, sources, bounds


def score_degrees(
    sentences: Iterable[Sequence[str]], dictionary: NGramDictionary
) -> list[CompositionalDegree]:
    """Compositional degree of every sentence, in order, `_CHUNK` sentences at a time."""
    degrees: list[CompositionalDegree] = []
    for chunk in batched(sentences, _CHUNK):
        lengths = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
        if not lengths.all():
            empty = len(degrees) + int(np.argmin(lengths))
            raise ConfigError(f"cannot cover an empty sentence (sentence {empty})")
        best = _cover_table(itertools.chain.from_iterable(chunk), lengths, dictionary)[0]
        atoms = best[np.cumsum(lengths + 1) - 1]  # each sentence's last cell
        degrees += map(CompositionalDegree, atoms.tolist(), lengths.tolist())
    return degrees


def degree_of(sentence: Sequence[str], dictionary: NGramDictionary) -> CompositionalDegree:
    """Degree of one sentence: `score_degrees` on a single-sentence batch."""
    return score_degrees([sentence], dictionary)[0]


@dataclass(frozen=True)
class PoolSelection:
    """Result of candidate-pool selection."""

    examples: tuple[ParallelExample, ...]
    scored: int  # pairs read, duplicates included
    warning: str | None = None


def select_candidate_pool(
    scored: Iterable[tuple[ParallelExample, CompositionalDegree]],
    k: int = 60_000,
    side: str = "target",
) -> PoolSelection:
    """Keep the `k` highest-degree examples after exact-duplicate removal.

    `scored` is read once, in order, and only a heap of `k` examples and
    their token sequences is kept. Duplicates are detected on the scored
    side's token sequence; the first occurrence is kept. Ranking is by
    degree descending, with ties broken by shorter length first, then
    original order. Asking for more examples than survive returns the whole
    deduplicated pool with a warning set.

    Dedup needs no record of the examples already dropped because equal
    token sequences carry equal degrees, as any degree computed from the
    tokens does. A duplicate then ranks just below its first occurrence. If
    that occurrence is in the heap, the duplicate is dropped on arrival. If
    it was turned away or evicted, the heap's lowest member outranks it and
    so outranks the duplicate too: the lowest member only ever rises. (Given
    two degrees for one sequence, a later copy can take the place of a first
    one turned away.) The heap fills only if there are at least `k` distinct
    examples, so the warning's count is exact.

    The float degree ranks exactly like the fraction. Division is correctly
    rounded, so equal fractions give equal floats, and a degree in (0, 1]
    lies within 2^-54 of its fraction. Two different fractions whose lengths
    are below 2^26 differ by at least 1/(length1 * length2) > 2^-52, more
    than both rounding errors together.
    """
    require_int("k", k, 1)
    # A min-heap of (degree, -length, -index, example): its root is the
    # lowest-ranked member. Indices are unique, so examples are never compared.
    heap: list[tuple[float, int, int, ParallelExample]] = []
    held: set[tuple[str, ...]] = set()  # the members' token sequences
    count = 0
    for index, (example, degree) in enumerate(scored):
        count = index + 1
        key = side_tokens(example, side)
        if key in held:
            continue
        entry = (degree.value, -degree.length, -index, example)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            held.discard(side_tokens(heapq.heapreplace(heap, entry)[3], side))
        else:
            continue
        held.add(key)

    warning = None
    if len(heap) < k:
        warning = f"requested k={k} but only {len(heap)} deduplicated examples available"
    chosen = tuple(entry[3] for entry in sorted(heap, reverse=True))
    return PoolSelection(examples=chosen, scored=count, warning=warning)
