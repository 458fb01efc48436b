#!/usr/bin/env python3
"""Compositional degree: how many dictionary atoms does a sentence need?

A sentence that the dictionary can cover with a few long, frequent chunks
is "easy" (low degree); one that shatters into many atoms is compositionally
novel (high degree). Degree = atom count / sentence length.
"""

from compforge.corpus import ParallelExample
from compforge.cover import degree_of, min_cover, select_candidate_pool
from compforge.ngrams import NGramDictionary

DICTIONARY = [
    "but",
    "please",
    "report",
    "all",
    "changes",
    "here .",
    "what can we do about this ?",
    "what can",
    "do about",
]

SENTENCES = [
    "but what can we do about this ?",
    "please report all changes here .",
    "what can we do about all changes ?",
    "please please please",
]


def render(sentence: list[str], dictionary: NGramDictionary) -> str:
    return " | ".join(" ".join(atom) for atom in min_cover(sentence, dictionary))


def main() -> None:
    dictionary = NGramDictionary.from_entries([e.split() for e in DICTIONARY])
    print(f"dictionary of {len(dictionary)} entries\n")

    print(f"{'degree':>7}  {'atoms':>5}  cover")
    for text in SENTENCES:
        tokens = text.split()
        degree = degree_of(tokens, dictionary)
        print(f"{degree.value:7.3f}  {degree.atom_count:5d}  {render(tokens, dictionary)}")

    # The DP prefers fewer atoms outright, and among minimal covers it
    # extends the final atom as far as possible.
    tokens = "what can we do about this ?".split()
    print(f"\n'{' '.join(tokens)}' covers as: {render(tokens, dictionary)}")
    print("(one 7-gram beats 'what can' + 'we' + 'do about' + 'this' + '?')")

    examples = [
        ParallelExample(id=f"e{i}", source=("src", str(i)), target=tuple(t.split()))
        for i, t in enumerate(SENTENCES)
    ]
    scored = [(ex, degree_of(ex.target, dictionary)) for ex in examples]
    selection = select_candidate_pool(scored, k=2)
    print("\ntop-2 candidates by degree (high degree = most compositional):")
    for ex in selection.examples:
        print(f"  {degree_of(ex.target, dictionary).value:.3f}  {' '.join(ex.target)}")


if __name__ == "__main__":
    main()
