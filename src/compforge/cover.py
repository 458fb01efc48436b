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
(the fallback for uncovered tokens). Among equal-cost segmentations the
reconstruction prefers the longer final atom, applied recursively, so the
result is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from compforge.corpus import ParallelExample, side_tokens, tsv_rows
from compforge.errors import ConfigError, DataError
from compforge.ngrams import NGramDictionary


@dataclass(frozen=True)
class CoverResult:
    """A minimum cover: atoms partition the sentence left to right."""

    atoms: tuple[tuple[str, ...], ...]
    covered: tuple[bool, ...]  # per token; False marks fallback singletons

    @property
    def atom_count(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class CompositionalDegree:
    """Degree = atom_count / length, held as the two integers."""

    atom_count: int
    length: int

    @property
    def value(self) -> float:
        return self.atom_count / self.length

    @property
    def exact(self) -> Fraction:
        return Fraction(self.atom_count, self.length)


# -- degrees.tsv: id, atom_count, length, degree; one example per line --------


def write_degree_tsv(
    rows: Iterable[tuple[str, CompositionalDegree]], path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex_id, degree in rows:
            fh.write(f"{ex_id}\t{degree.atom_count}\t{degree.length}\t{degree.value:.10g}\n")


def read_degree_tsv(path: str | Path) -> dict[str, CompositionalDegree]:
    """Parse a degree TSV into id -> degree.

    The degree column is derived, so it is recomputed from atom_count and
    length. A malformed row raises DataError naming its line.
    """
    scores: dict[str, CompositionalDegree] = {}
    for lineno, (ex_id, atoms, length, _) in tsv_rows(path, 4, "id/atom_count/length/degree"):
        try:
            atoms, length = int(atoms), int(length)
        except ValueError:
            raise DataError("atom_count and length must be integers", path=str(path), line=lineno)
        if not 1 <= atoms <= length:
            raise DataError(
                f"atom_count {atoms} outside [1, length={length}]", path=str(path), line=lineno
            )
        scores[ex_id] = CompositionalDegree(atoms, length)
    return scores


def min_cover(sentence: Sequence[str], dictionary: NGramDictionary) -> CoverResult:
    """Segment `sentence` into the fewest dictionary atoms.

    Uncovered tokens fall back to singleton atoms, so every sentence has a
    cover and ``atom_count <= len(sentence)``. Ties are broken toward longer
    final atoms.
    """
    n = len(sentence)
    if n == 0:
        raise ConfigError("cannot cover an empty sentence")

    infinity = n + 1
    best = [infinity] * (n + 1)
    best[0] = 0
    # back[i] = start of the chosen last atom ending at i; init any j < i wins a tie
    back = list(range(n + 1))
    for j in range(n):
        cost = best[j] + 1
        saw_unigram = False
        for length in dictionary.match_lengths_from(sentence, j):
            i = j + length
            if length == 1:
                saw_unigram = True
            if cost < best[i] or (cost == best[i] and j < back[i]):
                best[i] = cost
                back[i] = j
        if not saw_unigram:
            i = j + 1
            if cost < best[i] or (cost == best[i] and j < back[i]):
                best[i] = cost
                back[i] = j

    atoms: list[tuple[str, ...]] = []
    covered = [False] * n
    i = n
    while i > 0:
        j = back[i]
        atom = tuple(sentence[j:i])
        atoms.append(atom)
        is_member = dictionary.contains(atom)
        for k in range(j, i):
            covered[k] = is_member
        i = j
    atoms.reverse()
    return CoverResult(atoms=tuple(atoms), covered=tuple(covered))


def compositional_degree(cover: CoverResult, length: int) -> CompositionalDegree:
    """Degree of a cover over a sentence of `length` tokens."""
    total = sum(len(atom) for atom in cover.atoms)
    if total != length:
        raise ConfigError(
            f"cover spans {total} tokens but sentence length is {length}"
        )
    return CompositionalDegree(cover.atom_count, length)


def degree_of(sentence: Sequence[str], dictionary: NGramDictionary) -> CompositionalDegree:
    """Convenience wrapper: minimum cover, then its degree."""
    return compositional_degree(min_cover(sentence, dictionary), len(sentence))


@dataclass(frozen=True)
class PoolSelection:
    """Result of candidate-pool selection."""

    examples: tuple[ParallelExample, ...]
    requested: int
    deduplicated: int
    warning: str | None = None


def select_candidate_pool(
    scored: Sequence[tuple[ParallelExample, CompositionalDegree]],
    k: int = 60_000,
    side: str = "target",
) -> PoolSelection:
    """Keep the `k` highest-degree examples after exact-duplicate removal.

    Duplicates are detected on the scored side's token sequence; the first
    occurrence (corpus order) is kept. Ranking is by degree descending, with
    ties broken by shorter length first, then original order. Asking for
    more examples than survive returns the whole deduplicated pool with a
    warning set.

    The float degree ranks exactly like the fraction. Division is correctly
    rounded, so equal fractions give equal floats, and a degree in (0, 1]
    lies within 2^-54 of its fraction. Two different fractions whose lengths
    are below 2^26 differ by at least 1/(length1 * length2) > 2^-52, more
    than both rounding errors together.
    """
    if k < 1:
        raise ConfigError(f"k must be positive, got {k}")
    seen: set[tuple[str, ...]] = set()
    survivors: list[tuple[ParallelExample, CompositionalDegree, int]] = []
    for index, (example, degree) in enumerate(scored):
        key = side_tokens(example, side)
        if key in seen:
            continue
        seen.add(key)
        survivors.append((example, degree, index))

    survivors.sort(key=lambda item: (-item[1].value, item[1].length, item[2]))
    warning = None
    if k > len(survivors):
        warning = (
            f"requested k={k} but only {len(survivors)} deduplicated examples available"
        )
    chosen = tuple(example for example, _, _ in survivors[:k])
    return PoolSelection(
        examples=chosen,
        requested=k,
        deduplicated=len(survivors),
        warning=warning,
    )
