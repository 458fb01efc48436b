#!/usr/bin/env python3
"""Build a frequency dictionary from a toy corpus and poke at it.

Walks the first two preprocessing steps: count tokens on the target side,
drop pool examples with rare tokens, then grow the n-gram dictionary level
by level and save/load it.
"""

import hashlib
import tempfile
from pathlib import Path

from compforge.corpus import ParallelExample, build_vocab_counts, filter_oov
from compforge.cover import min_cover
from compforge.ngrams import NGramDictionary, build_ngram_dictionary

TRAIN = [
    ("der hund schläft", "the dog sleeps"),
    ("der hund bellt", "the dog barks"),
    ("die katze schläft", "the cat sleeps"),
    ("der alte hund schläft", "the old dog sleeps"),
    ("die katze bellt nie", "the cat never barks"),
    ("der hund schläft tief", "the dog sleeps deeply"),
]

POOL = [
    ("der hund schläft oft", "the dog often sleeps"),
    ("die katze schnurrt", "the cat purrs"),  # "purrs" never seen in training
    ("der alte hund bellt", "the old dog barks"),
]


def main() -> None:
    train = [
        ParallelExample(id=f"t{i}", source=tuple(s.split()), target=tuple(t.split()))
        for i, (s, t) in enumerate(TRAIN)
    ]
    pool = [
        ParallelExample(id=f"p{i}", source=tuple(s.split()), target=tuple(t.split()))
        for i, (s, t) in enumerate(POOL)
    ]

    counts = build_vocab_counts(train, side="target")
    print(f"target vocabulary: {len(counts)} types over {counts.total_tokens} tokens")
    for token in sorted(counts.counts, key=lambda t: (-counts.counts[t], t))[:6]:
        print(f"  {token:<8} {counts.counts[token]}")

    kept = filter_oov(pool, counts, min_count=1)
    print(f"\nOOV filter kept {len(kept)} of {len(pool)} pool examples:")
    for ex in pool:
        mark = "kept   " if ex in kept else "dropped"
        print(f"  {mark}  {' '.join(ex.target)}")

    # Dictionary membership needs count > min_count, so min_count=1 keeps
    # n-grams seen at least twice.
    dictionary = build_ngram_dictionary((ex.target for ex in train), min_count=1, max_n=4)
    print(f"\ndictionary: {len(dictionary)} members (count > 1, n <= 4)")
    for gram, count in sorted(dictionary.entries(), key=lambda e: (len(e[0]), e[0])):
        print(f"  {' '.join(gram):<16} {count}")

    probe = "the dog sleeps".split()
    print(f"\nminimum cover of {probe!r}: {min_cover(probe, dictionary)}")
    print(f"contains ('the', 'dog') -> {dictionary.contains(['the', 'dog'])}")
    print(f"count    ('the', 'cat') -> {dictionary.count(['the', 'cat'])}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.ngix"
        dictionary.save(path)
        reloaded = NGramDictionary.load(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        same = sorted(reloaded.entries()) == sorted(dictionary.entries())
        print(f"\nsaved {path.stat().st_size} bytes, sha256 {digest[:16]}…")
        print(f"reload preserves all {len(reloaded)} entries: {same}")


if __name__ == "__main__":
    main()
