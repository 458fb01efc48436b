"""Novel n-gram statistics for characterizing a constructed test set.

Novelty is counted over n-gram *types*: an n-gram of the test stream is
novel if it never occurs in the training stream. Each side is one tagged
stream (tags come from the caller; no tagger ships here): its tokens give
the word n-grams and the test set's mean compositional degree, its tags the
tag n-grams, for each n in `ORDERS`. Each stream is counted with the n-gram index.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from compforge.corpus import text_lines
from compforge.cover import score_degrees
from compforge.errors import ConfigError, DataError
from compforge.ngrams import NGramDictionary, build_ngram_dictionary


# The n-gram orders whose novelty the report counts.
ORDERS = (2, 3)


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


def novel_ngram_count(
    train_stream: Iterable[Sequence[str]],
    test_stream: Iterable[Sequence[str]],
    n: int,
) -> int:
    """Number of distinct test n-grams absent from the training stream."""
    return _novel_counts(train_stream, test_stream, (n,))[n]


def _novel_counts(train_stream: Iterable[Sequence[str]], test_stream: Iterable[Sequence[str]],
                  orders: Sequence[int]) -> dict[int, int]:
    """`novel_ngram_count` for each n in `orders`, read from one n-gram index
    of each stream that keeps every n-gram up to the largest order."""
    train = build_ngram_dictionary(train_stream, 0, max(orders))
    test = build_ngram_dictionary(test_stream, 0, max(orders))
    novel = Counter(len(gram) for gram, _ in test.entries()
                    if len(gram) in orders and not train.contains(gram))
    return {n: novel[n] for n in orders}


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
    tagged_train: Sequence[TaggedSentence],
    tagged_test: Sequence[TaggedSentence],
    dictionary: NGramDictionary,
    tagset: str | None = None,
) -> NoveltyReport:
    """Build the novelty/degree summary of `tagged_test` relative to `tagged_train`.

    Word n-grams and the mean degree come from the sentences' tokens and tag
    n-grams from their tags, so words and tags describe the same sentences.
    """
    if not tagged_test:
        raise ConfigError("test set is empty")
    test_words = [ts.tokens for ts in tagged_test]
    degrees = [degree.value for degree in score_degrees(test_words, dictionary)]
    return NoveltyReport(
        n_examples=len(tagged_test),
        mean_degree=sum(degrees) / len(degrees),
        novel_word_ngrams=_novel_counts((ts.tokens for ts in tagged_train), test_words, ORDERS),
        novel_tag_ngrams=_novel_counts((ts.tags for ts in tagged_train),
                                       (ts.tags for ts in tagged_test), ORDERS),
        tagset=tagset,
    )


def read_tagged_file(path: str | Path) -> list[TaggedSentence]:
    """Read the vertical tagged format: ``token<TAB>TAG`` lines, blank line
    between sentences. Tokens and tags are non-empty without whitespace, as
    corpus tokens are; any other line is a DataError naming it."""
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
        token, tag = parts
        for what, field in (("token", token), ("tag", tag)):
            if field.split() != [field]:
                raise DataError(f"{what} {field!r} is empty or holds whitespace",
                                path=str(path), line=lineno)
        tokens.append(token)
        tags.append(tag)
    if tokens:
        sentences.append(TaggedSentence(tuple(tokens), tuple(tags)))
    return sentences
