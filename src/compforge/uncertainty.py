"""Ensemble disagreement scores over per-token predictive distributions.

Given M ensemble members that each assign a categorical distribution to
every target position, three position-wise quantities are computed (all in
nats, with an epsilon floor inside logarithms):

* total uncertainty      ``H(pi_bar)`` — entropy of the ensemble mean,
* mutual information     ``H(pi_bar) - (1/M) sum_m H(pi_m)``,
* reverse mutual information ``(1/M) sum_m KL(pi_bar || pi_m)``.

Reverse mutual information (knowledge uncertainty) is the score the test-set
sampler ranks by; a sequence's score is the mean of its per-token values.
All three are zero exactly when every member agrees, and positive otherwise.

Distributions arrive via a JSONL dump, written outside this package, whose
positions carry a token support shared by all members, so disagreement is
measured on aligned supports. The reader checks the support tokens but keeps
only each position's width: an example is one ``(M, sum of widths)`` array
with the positions' columns laid end to end, validated and scored with
array operations over the position starts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from compforge.corpus import id_records, json_line, read_id, tsv_fields
from compforge.errors import ConfigError, DataError

PROB_FLOOR = 1e-10
SUM_TOLERANCE = 1e-9


@dataclass
class EnsembleTokenDistributions:
    """Per-position categorical distributions from M ensemble members.

    Position l has ``widths[l]`` support tokens. Its columns of ``probs``,
    shape ``(M, widths.sum())``, begin at ``starts[l]``, and each row of them
    is one member's distribution over that support.
    """

    example_id: str
    widths: np.ndarray
    probs: np.ndarray
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.widths = np.asarray(self.widths, dtype=np.int64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        where = f"example {self.example_id}"
        if self.widths.ndim != 1 or self.widths.size == 0:
            raise DataError(f"{where}: no positions")
        if np.any(self.widths < 1):  # reduceat would read the next position's column
            raise DataError(f"{where}: empty support at position {np.argmax(self.widths < 1)}")
        if self.probs.ndim != 2 or self.probs.shape[1] != self.widths.sum():
            raise DataError(f"{where}: widths add up to {self.widths.sum()} columns, "
                            f"probs has shape {self.probs.shape}")
        if len(self.probs) < 2:
            raise DataError(f"{where}: need at least 2 ensemble members, got {len(self.probs)}")
        self.starts = starts = np.cumsum(self.widths) - self.widths
        negative = np.logical_or.reduceat(self.probs < 0, starts, axis=1).any(axis=0)
        off = np.abs(np.add.reduceat(self.probs, starts, axis=1) - 1.0).max(axis=0)
        # Comparisons with NaN are false, so ask for `<= tolerance` to reject NaN too.
        bad = negative | ~(off <= SUM_TOLERANCE)
        if np.any(bad):
            l = int(np.argmax(bad))
            if negative[l]:
                raise DataError(f"{where}: negative probability at position {l}")
            if not np.all(np.isfinite(self.probs[:, starts[l] : starts[l] + self.widths[l]])):
                raise DataError(f"{where}: non-finite probability at position {l}")
            raise DataError(f"{where}: unnormalized distribution at position {l} "
                            f"(off by {off[l]:.3e})")

    @property
    def positions(self) -> int:
        return len(self.widths)


@dataclass
class UncertaintyScore:
    """Per-token uncertainties and the aggregated sequence score."""

    example_id: str
    token_entropy: np.ndarray
    token_mutual_information: np.ndarray
    token_rmi: np.ndarray
    sequence_score: float


def token_uncertainties(dists: EnsembleTokenDistributions) -> UncertaintyScore:
    """Compute entropy / MI / RMI at every position, plus the sequence score."""
    probs, starts = dists.probs, dists.starts
    mean = probs.mean(axis=0)
    log_mean = np.log(np.maximum(mean, PROB_FLOOR))
    log_members = np.log(np.maximum(probs, PROB_FLOOR))
    # Per-position sums of each column's terms: (C,) -> (L,), (M, C) -> (M, L).
    entropy = -np.add.reduceat(mean * log_mean, starts)
    member_entropy = -np.add.reduceat(probs * log_members, starts, axis=1)
    kl = np.add.reduceat(mean * (log_mean - log_members), starts, axis=1)
    rmi = kl.mean(axis=0)
    return UncertaintyScore(
        example_id=dists.example_id,
        token_entropy=entropy,
        token_mutual_information=entropy - member_entropy.mean(axis=0),
        token_rmi=rmi,
        sequence_score=float(rmi.mean()),
    )


def band_select(
    ranked: Iterable[tuple[object, float]],
    discard_top: int = 2_000,
    window: int = 18_000,
    sample: int = 3_000,
    seed: int = 0,
) -> list[object]:
    """Draw the test set from a band below the noisy top of the ranking.

    `ranked` yields (example, score) pairs, read once the parameters are
    checked; they are ordered by score descending (ties broken by example
    id) here, so pre-sorted input is not required. The top `discard_top`
    items are dropped outright, and `sample` items are drawn uniformly
    without replacement from the next `window`. The draw is deterministic
    given `seed`; results come back in rank order.
    """
    if min(discard_top, window, sample, seed) < 0:
        raise ConfigError("discard_top, window, sample and seed must be non-negative")
    if sample > window:
        raise ConfigError(f"sample {sample} exceeds window {window}")
    ranked = list(ranked)
    if len(ranked) < discard_top + window:
        raise ConfigError(
            f"need at least discard_top+window={discard_top + window} ranked examples, "
            f"got {len(ranked)}"
        )

    def sort_key(pair_with_index):
        index, (item, score) = pair_with_index
        tie = getattr(item, "id", None)
        return (-score, str(tie) if tie is not None else "", index)

    ordered = [item for _, (item, _) in sorted(enumerate(ranked), key=sort_key)]
    band = ordered[discard_top : discard_top + window]
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(window, size=sample, replace=False))
    return [band[i] for i in picks]


# -- uncertainty.tsv: id, sequence score; one example per line ---------------


def write_uncertainty_tsv(rows: Iterable[tuple[str, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{ex_id}\t{score:.10g}\n" for ex_id, score in rows)


def read_uncertainty_tsv(path: str | Path) -> dict[str, float]:
    """Parse an uncertainty TSV into id -> score; a malformed or non-finite
    score or a repeated id raises DataError naming its line."""

    def parse(line: str, _index: int) -> tuple[str, float]:
        ex_id, text = tsv_fields(line, 2, "id<TAB>score")
        try:
            score = float(text)
        except ValueError:
            raise DataError(f"score {text!r} is not a number")
        if not math.isfinite(score):
            raise DataError(f"score {text!r} is not finite")
        return ex_id, score

    return dict(id_records(path, parse))


# -- ensemble dump I/O ----------------------------------------------------


def _is_number(value) -> bool:
    """A JSON number that converts to a float; a bool is not one."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _dump_record(line: str, _index: int) -> tuple[str, EnsembleTokenDistributions]:
    """One dump line as (id, distributions); DataError if it is malformed."""
    record = json_line(line)
    try:
        example_id, support, member_probs = record["id"], record["support"], record["probs"]
    except (KeyError, TypeError):
        raise DataError("record needs id/support/probs")
    example_id = read_id(example_id)
    if type(support) is not list:
        raise DataError("support must be a list of positions")
    for l, supp in enumerate(support):
        if type(supp) is not list or not set(map(type, supp)) <= {str}:
            raise DataError(f"support at position {l} is not a list of strings")
    widths = np.array([len(supp) for supp in support], dtype=np.int64)
    if type(member_probs) is not list or not member_probs:
        raise DataError("probs must be a non-empty list")
    for m, member in enumerate(member_probs):
        if type(member) is not list or len(member) != len(widths):
            raise DataError(f"member {m} needs a list of {len(widths)} positions")
    lengths = np.array([[len(r) if type(r) is list else -1 for r in m] for m in member_probs])
    mismatch = np.any(lengths != widths, axis=0)
    if np.any(mismatch):
        raise DataError(f"member support mismatch at position {np.argmax(mismatch)}")
    rows = [list(chain.from_iterable(member)) for member in member_probs]
    # numpy would read a bool as 1/0 and a numeric string as its value.
    numeric = set(map(type, chain.from_iterable(rows))) <= {float, int}
    try:
        probs = np.array(rows, dtype=np.float64) if numeric else None
    except OverflowError:  # an integer too large for a float
        probs = None
    if probs is None:
        bad = np.any([[not _is_number(p) for p in row] for row in rows], axis=0)
        l = np.searchsorted(np.cumsum(widths), np.argmax(bad), side="right")
        raise DataError(f"non-numeric probability at position {l}")
    if "tokens" in record and not isinstance(record["tokens"], list):
        raise DataError("tokens must be a list")
    return example_id, EnsembleTokenDistributions(example_id, widths, probs)


def read_ensemble_dump(path: str | Path) -> dict[str, EnsembleTokenDistributions]:
    """Parse a JSONL ensemble dump into example id -> distributions, in file order.

    Each record: ``{"id": ..., "tokens": [...], "support": [[...], ...],
    "probs": [[[...], ...], ...]}`` with probs indexed [member][position][support].
    Supports are lists of strings, of which only the widths are kept; `tokens`
    is optional and not kept. Probabilities are JSON numbers, not bools. A
    malformed record or a repeated id raises DataError naming its line.
    """
    return dict(id_records(path, _dump_record))
