#!/usr/bin/env python3
"""How novel is a test set? Count the n-grams its training set never shows.

A toy train/test split is tagged with a fixed word -> tag table and written
in the vertical tagged format (``token<TAB>TAG``, blank line between
sentences), which is what `compforge analyze-novelty` reads. The report
counts the word and tag bigrams and trigrams of the test set that never
occur in training, and the test set's mean compositional degree against an
n-gram index of the training sentences.
"""

import tempfile
from pathlib import Path

from compforge.ngrams import build_ngram_dictionary
from compforge.novelty import benchmark_report, read_tagged_file

TAGS = {
    "the": "DET", "a": "DET",
    "dog": "NOUN", "cat": "NOUN", "bird": "NOUN",
    "old": "ADJ", "small": "ADJ",
    "sees": "VERB", "chases": "VERB", "sleeps": "VERB",
}

TRAIN = [
    "the dog sees a cat",
    "a cat chases the bird",
    "the old dog sleeps",
    "a small bird sees the dog",
    "the cat sleeps",
    "the dog chases a cat",
]

TEST = [
    "the dog sees a cat",        # a training sentence
    "a bird chases the dog",     # seen words in unseen bigrams, a seen tag pattern
    "the small cat sleeps",      # the same, in the pattern of "the old dog sleeps"
    "the old small dog sleeps",  # ADJ ADJ: a tag bigram training never shows
]


def write_tagged(sentences: list[str], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in sentences:
            fh.writelines(f"{word}\t{TAGS[word]}\n" for word in sentence.split())
            fh.write("\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_tagged(TRAIN, Path(tmp) / "train.tags")
        write_tagged(TEST, Path(tmp) / "test.tags")
        train = read_tagged_file(Path(tmp) / "train.tags")
        test = read_tagged_file(Path(tmp) / "test.tags")

    # Every n-gram of up to 4 tokens that training holds more than twice.
    dictionary = build_ngram_dictionary((s.tokens for s in train), 2, 4)
    print(f"{len(train)} training and {len(test)} test sentences, "
          f"{len(dictionary)} indexed n-grams\n")

    report = benchmark_report(train, test, dictionary, tagset="toy")
    print(report.to_json())

    print("\nper test sentence: novel word / tag n-grams (n = 2, 3) and degree")
    for sentence in test:
        alone = benchmark_report(train, [sentence], dictionary)
        words = "/".join(str(alone.novel_word_ngrams[n]) for n in (2, 3))
        tags = "/".join(str(alone.novel_tag_ngrams[n]) for n in (2, 3))
        print(f"  words {words:>5}  tags {tags:>5}  {alone.mean_degree:.3f}  "
              f"{' '.join(sentence.tokens)}")


if __name__ == "__main__":
    main()
