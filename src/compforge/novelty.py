"""Novel n-gram statistics for characterizing a constructed test set.

Novelty is counted over n-gram *types*: an n-gram of the test stream is
novel if it never occurs in the training stream. Counts are reported for
word streams and for POS-tag streams (tags come from the caller; no tagger
ships here), for n in {2, 3} by default, alongside the mean compositional
degree of the test examples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from compforge.corpus import ParallelExample, iter_side, text_lines
from compforge.cover import degree_of
from compforge.errors import ConfigError, DataError
from compforge.ngrams import NGramDictionary


@dataclass(frozen=True)
class TaggedSentence:
    """Tokens with one POS tag per token."""

    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.tags):
            preview = " ".join(self.tokens[:6])
            raise DataError(
                f"sentence '{preview}…': {len(self.tokens)} tokens but {len(self.tags)} tags"
            )


def sentence_ngrams(tokens: Sequence[str], n: int) -> set[tuple[str, ...]]:
    """Distinct n-grams of one sentence. n-grams never cross sentences."""
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    return {tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}


def stream_ngrams(stream: Iterable[Sequence[str]], n: int) -> set[tuple[str, ...]]:
    grams: set[tuple[str, ...]] = set()
    for sentence in stream:
        grams |= sentence_ngrams(sentence, n)
    return grams


def novel_ngram_count(
    train_stream: Iterable[Sequence[str]],
    test_stream: Iterable[Sequence[str]],
    n: int,
) -> int:
    """Number of distinct test n-grams absent from the training stream."""
    return len(stream_ngrams(test_stream, n) - stream_ngrams(train_stream, n))


@dataclass
class NoveltyReport:
    """Summary statistics of a test set against its training corpus."""

    n_examples: int
    mean_degree: float
    novel_word_ngrams: dict[int, int]
    novel_tag_ngrams: dict[int, int]
    tagset: str | None = None

    def to_json(self) -> str:
        payload = {
            "n_examples": self.n_examples,
            "mean_degree": self.mean_degree,
            "novel_word_ngrams": {str(n): c for n, c in sorted(self.novel_word_ngrams.items())},
            "novel_tag_ngrams": {str(n): c for n, c in sorted(self.novel_tag_ngrams.items())},
            "tagset": self.tagset,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def benchmark_report(
    train: Sequence[ParallelExample],
    test: Sequence[ParallelExample],
    tagged_train: Sequence[TaggedSentence],
    tagged_test: Sequence[TaggedSentence],
    dictionary: NGramDictionary,
    side: str = "target",
    orders: Sequence[int] = (2, 3),
    tagset: str | None = None,
) -> NoveltyReport:
    """Build the novelty/degree summary of `test` relative to `train`.

    The tagged streams must align one-to-one with the corpora (same sentence
    count, same side).
    """
    if len(tagged_train) != len(train):
        raise DataError(
            f"{len(train)} training examples but {len(tagged_train)} tagged sentences"
        )
    if len(tagged_test) != len(test):
        raise DataError(
            f"{len(test)} test examples but {len(tagged_test)} tagged sentences"
        )
    if not test:
        raise ConfigError("test set is empty")

    train_words = list(iter_side(train, side))
    test_words = list(iter_side(test, side))
    train_tags = [ts.tags for ts in tagged_train]
    test_tags = [ts.tags for ts in tagged_test]

    novel_words = {n: novel_ngram_count(train_words, test_words, n) for n in orders}
    novel_tags = {n: novel_ngram_count(train_tags, test_tags, n) for n in orders}

    degrees = [degree_of(sentence, dictionary).value for sentence in test_words]
    mean_degree = sum(degrees) / len(degrees)
    return NoveltyReport(
        n_examples=len(test),
        mean_degree=mean_degree,
        novel_word_ngrams=novel_words,
        novel_tag_ngrams=novel_tags,
        tagset=tagset,
    )


def read_tagged_file(path: str | Path) -> list[TaggedSentence]:
    """Read the vertical tagged format: ``token<TAB>TAG`` lines, blank line
    between sentences."""
    sentences: list[TaggedSentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    for lineno, line in text_lines(path):
        if not line.strip():
            if tokens:
                sentences.append(TaggedSentence(tuple(tokens), tuple(tags)))
                tokens, tags = [], []
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError("expected token<TAB>TAG", path=str(path), line=lineno)
        tokens.append(parts[0])
        tags.append(parts[1])
    if tokens:
        sentences.append(TaggedSentence(tuple(tokens), tuple(tags)))
    return sentences
