"""Novel n-gram statistics for characterizing a constructed test set.

Novelty is counted over n-gram *types*: an n-gram of the test stream is
novel if it never occurs in the training stream. Counts are reported for
word streams and for POS-tag streams (tags come from the caller; no tagger
ships here), for each n in `ORDERS`, alongside the mean compositional degree
of the test examples. Each stream is counted with the n-gram index.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from compforge.corpus import ParallelExample, iter_side, text_lines
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
    train: Sequence[ParallelExample],
    test: Sequence[ParallelExample],
    tagged_train: Sequence[TaggedSentence],
    tagged_test: Sequence[TaggedSentence],
    dictionary: NGramDictionary,
    side: str = "target",
    tagset: str | None = None,
) -> NoveltyReport:
    """Build the novelty/degree summary of `test` relative to `train`.

    The tagged streams must align one-to-one with the corpora: tagged
    sentence i holds the `side` tokens of example i. The first sentence that
    does not is a DataError naming its corpus and index.
    """
    if not test:
        raise ConfigError("test set is empty")
    train_words = list(iter_side(train, side))
    test_words = list(iter_side(test, side))
    for name, words, tagged in (("training", train_words, tagged_train),
                                ("test", test_words, tagged_test)):
        if len(tagged) != len(words):
            raise DataError(f"{len(words)} {name} examples but {len(tagged)} tagged sentences")
        for i, (tokens, sentence) in enumerate(zip(words, tagged)):
            if tokens != sentence.tokens:
                raise DataError(
                    f"tagged {name} sentence {i} is not the {side} side of {name} example {i}"
                )
    train_tags = [ts.tags for ts in tagged_train]
    test_tags = [ts.tags for ts in tagged_test]

    novel_words = _novel_counts(train_words, test_words, ORDERS)
    novel_tags = _novel_counts(train_tags, test_tags, ORDERS)

    degrees = [degree.value for degree in score_degrees(test_words, dictionary)]
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
