"""Independent reference implementations used to derive expected values.

Everything here is deliberately naive — exhaustive enumeration, hash-map
counting, double loops — and shares no code with the package internals it
checks beyond public query interfaces.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from typing import Mapping, Sequence


def exhaustive_min_cover(sentence: Sequence[str], dictionary) -> int:
    """Minimum atom count by enumerating every segmentation of the sentence.

    A segment is admissible if it is a dictionary member or a single token.
    Exponential; only for short sentences.
    """
    n = len(sentence)

    def best_from(start: int) -> int:
        if start == n:
            return 0
        best = math.inf
        for end in range(start + 1, n + 1):
            span = list(sentence[start:end])
            if end - start == 1 or dictionary.contains(span):
                cost = 1 + best_from(end)
                if cost < best:
                    best = cost
        return best

    return int(best_from(0))


def all_segmentations(sentence: Sequence[str], dictionary) -> list[list[tuple[str, ...]]]:
    """Every admissible segmentation (for small n)."""
    n = len(sentence)

    def rec(start: int) -> list[list[tuple[str, ...]]]:
        if start == n:
            return [[]]
        out = []
        for end in range(start + 1, n + 1):
            span = tuple(sentence[start:end])
            if end - start == 1 or dictionary.contains(span):
                for rest in rec(end):
                    out.append([span] + rest)
        return out

    return rec(0)


def brute_force_ngram_counts(sentences: Sequence[Sequence[str]], max_n: int) -> Counter:
    """Plain hash-map counts of every n-gram up to max_n tokens."""
    counts: Counter = Counter()
    for sent in sentences:
        sent = tuple(sent)
        for n in range(1, max_n + 1):
            for i in range(len(sent) - n + 1):
                counts[sent[i : i + n]] += 1
    return counts


def naive_uncertainties(probs: Sequence[Sequence[float]], floor: float = 1e-10):
    """(entropy-of-mean, mutual information, reverse MI) for ONE position.

    `probs` is a list of member distributions (plain floats). Pure-python
    double loops, float64 math via the math module.
    """
    members = len(probs)
    support = len(probs[0])
    mean = [sum(probs[m][s] for m in range(members)) / members for s in range(support)]

    def entropy(dist):
        total = 0.0
        for p in dist:
            total -= p * math.log(max(p, floor))
        return total

    entropy_of_mean = entropy(mean)
    mean_entropy = sum(entropy(probs[m]) for m in range(members)) / members
    mutual_information = entropy_of_mean - mean_entropy

    rmi = 0.0
    for m in range(members):
        kl = 0.0
        for s in range(support):
            kl += mean[s] * (math.log(max(mean[s], floor)) - math.log(max(probs[m][s], floor)))
        rmi += kl
    rmi /= members
    return entropy_of_mean, mutual_information, rmi


def full_sort_selection(scored, k: int, side: str = "target"):
    """Reference pool selection: dict-based dedup then a full sort."""
    first_seen = {}
    for index, (example, degree) in enumerate(scored):
        key = example.source if side == "source" else example.target
        if key not in first_seen:
            first_seen[key] = (example, degree, index)
    survivors = sorted(
        first_seen.values(),
        key=lambda item: (-Fraction(item[1].atom_count, item[1].length), item[1].length, item[2]),
    )
    return [example for example, _, _ in survivors[:k]]


def set_difference_novelty(train: Sequence[Sequence[str]], test: Sequence[Sequence[str]], n: int) -> int:
    """Novel n-gram type count via explicit set construction."""

    def grams(stream):
        out = set()
        for sent in stream:
            sent = tuple(sent)
            for i in range(len(sent) - n + 1):
                out.add(sent[i : i + n])
        return out

    return len(grams(test) - grams(train))


OracleExample = namedtuple("OracleExample", "id source target")
_OracleDegree = namedtuple("_OracleDegree", "atom_count length")


class _SpanSet(set):
    """A set of token tuples that answers `contains` like the n-gram index."""

    def contains(self, span) -> bool:
        return tuple(span) in self


def oracle_pipeline(
    train: Sequence[OracleExample],
    pool: Sequence[OracleExample],
    dump: Mapping[str, Sequence[Sequence[Sequence[float]]]],
    *,
    side: str,
    oov_min_count: int,
    dict_min_count: int,
    max_n: int | None,
    pool_k: int,
) -> dict:
    """The detection stages of the pipeline, composed from the naive pieces above.

    `dump` maps each pool id to its probs, indexed [member][position][support].
    Returns the filtered ids, (atom_count, length) per filtered id, the
    candidate ids in order, the mean reverse MI per candidate id, and the
    ranking as (example, score) pairs, for the band draw.
    """
    def tokens(example):
        return example.source if side == "source" else example.target

    vocab = Counter(tok for example in train for tok in tokens(example))
    filtered = [ex for ex in pool if all(vocab[tok] >= oov_min_count for tok in tokens(ex))]

    sentences = [tokens(example) for example in train]
    cap = max(map(len, sentences)) if max_n is None else max_n
    counts = brute_force_ngram_counts(sentences, cap)
    stored = _SpanSet(gram for gram, count in counts.items() if count > dict_min_count)
    degrees, scored = {}, []
    for example in filtered:
        atoms, length = exhaustive_min_cover(tokens(example), stored), len(tokens(example))
        degrees[example.id] = (atoms, length)
        scored.append((example, _OracleDegree(atoms, length)))
    candidates = full_sort_selection(scored, pool_k, side)

    uncertainty = {}
    for example in candidates:
        members = dump[example.id]
        positions = [[member[l] for member in members] for l in range(len(members[0]))]
        rmi = [naive_uncertainties(position)[2] for position in positions]
        uncertainty[example.id] = sum(rmi) / len(rmi)
    return {
        "filtered": [example.id for example in filtered],
        "degrees": degrees,
        "candidates": [example.id for example in candidates],
        "uncertainty": uncertainty,
        "ranked": [(example, uncertainty[example.id]) for example in candidates],
    }
