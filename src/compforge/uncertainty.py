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

Distributions arrive via a JSONL dump whose positions carry a shared token
support (members' top candidates plus an "other" bucket absorbing the rest),
so disagreement is measured on aligned supports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from compforge.corpus import text_lines, tsv_rows
from compforge.errors import ConfigError, DataError

PROB_FLOOR = 1e-10
SUM_TOLERANCE = 1e-9
OTHER_TOKEN = "<other>"


@dataclass
class EnsembleTokenDistributions:
    """Per-position categorical distributions from M ensemble members.

    ``probs[l]`` has shape ``(M, len(support[l]))``; each row is one member's
    distribution over position l's support. Supports may differ across
    positions but are shared by all members at a position.
    """

    example_id: str
    support: tuple[tuple[str, ...], ...]
    probs: tuple[np.ndarray, ...]
    tokens: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.support) == 0:
            raise DataError(f"example {self.example_id}: no positions")
        if len(self.support) != len(self.probs):
            raise DataError(
                f"example {self.example_id}: {len(self.support)} supports vs "
                f"{len(self.probs)} probability blocks"
            )
        members = self.probs[0].shape[0]
        if members < 2:
            raise DataError(
                f"example {self.example_id}: need at least 2 ensemble members, got {members}"
            )
        for l, (supp, block) in enumerate(zip(self.support, self.probs)):
            if block.ndim != 2 or block.shape[0] != members:
                raise DataError(
                    f"example {self.example_id}: member support mismatch at position {l}"
                )
            if block.shape[1] != len(supp):
                raise DataError(
                    f"example {self.example_id}: position {l} support has {len(supp)} "
                    f"tokens but rows have {block.shape[1]} probabilities"
                )
            if np.any(block < 0):
                raise DataError(
                    f"example {self.example_id}: negative probability at position {l}"
                )
            off = np.abs(block.sum(axis=1) - 1.0)
            # Comparisons with NaN are false, so ask for `<= tolerance` to reject NaN too.
            if not np.all(off <= SUM_TOLERANCE):
                if not np.all(np.isfinite(block)):
                    raise DataError(
                        f"example {self.example_id}: non-finite probability at position {l}"
                    )
                worst = float(np.max(off))
                raise DataError(
                    f"example {self.example_id}: unnormalized distribution at position {l}"
                    f" (off by {worst:.3e})"
                )

    @property
    def members(self) -> int:
        return self.probs[0].shape[0]

    @property
    def positions(self) -> int:
        return len(self.support)


@dataclass
class UncertaintyScore:
    """Per-token uncertainties and the aggregated sequence score."""

    example_id: str
    token_entropy: np.ndarray
    token_mutual_information: np.ndarray
    token_rmi: np.ndarray
    sequence_score: float


def _entropy(rows: np.ndarray) -> np.ndarray:
    # rows: (..., S); epsilon floor applied inside the log only
    return -(rows * np.log(np.maximum(rows, PROB_FLOOR))).sum(axis=-1)


def token_uncertainties(dists: EnsembleTokenDistributions) -> UncertaintyScore:
    """Compute entropy / MI / RMI at every position, plus the sequence score."""
    entropy = np.empty(dists.positions)
    mutual_information = np.empty(dists.positions)
    rmi = np.empty(dists.positions)
    for l, block in enumerate(dists.probs):
        block = np.asarray(block, dtype=np.float64)
        mean = block.mean(axis=0)
        log_mean = np.log(np.maximum(mean, PROB_FLOOR))
        entropy[l] = -(mean * log_mean).sum()
        mutual_information[l] = entropy[l] - _entropy(block).mean()
        log_members = np.log(np.maximum(block, PROB_FLOOR))
        kl_each = (mean[None, :] * (log_mean[None, :] - log_members)).sum(axis=1)
        rmi[l] = kl_each.mean()
    return UncertaintyScore(
        example_id=dists.example_id,
        token_entropy=entropy,
        token_mutual_information=mutual_information,
        token_rmi=rmi,
        sequence_score=float(rmi.mean()),
    )


def band_select(
    ranked: Sequence[tuple[object, float]],
    discard_top: int = 2_000,
    window: int = 18_000,
    sample: int = 3_000,
    seed: int = 0,
) -> list[object]:
    """Draw the test set from a band below the noisy top of the ranking.

    `ranked` holds (example, score) pairs; they are ordered by score
    descending (ties broken by example id) here, so pre-sorted input is not
    required. The top `discard_top` items are dropped outright, and `sample`
    items are drawn uniformly without replacement from the next `window`.
    The draw is deterministic given `seed`; results come back in rank order.
    """
    if min(discard_top, window, sample) < 0:
        raise ConfigError("discard_top, window, and sample must be non-negative")
    if sample > window:
        raise ConfigError(f"sample {sample} exceeds window {window}")
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
        for ex_id, score in rows:
            fh.write(f"{ex_id}\t{score:.10g}\n")


def read_uncertainty_tsv(path: str | Path) -> dict[str, float]:
    """Parse an uncertainty TSV into id -> score; a malformed or non-finite
    score or a repeated id raises DataError naming its line."""
    scores: dict[str, float] = {}
    for lineno, (ex_id, text) in tsv_rows(path, 2, "id<TAB>score"):
        if ex_id in scores:
            raise DataError(f"duplicate example id {ex_id!r}", path=str(path), line=lineno)
        try:
            score = float(text)
        except ValueError:
            raise DataError(f"score {text!r} is not a number", path=str(path), line=lineno)
        if not math.isfinite(score):
            raise DataError(f"score {text!r} is not finite", path=str(path), line=lineno)
        scores[ex_id] = score
    return scores


# -- ensemble dump I/O ----------------------------------------------------


def _dump_record(record) -> EnsembleTokenDistributions:
    """One parsed dump record as distributions; DataError if it is malformed."""
    try:
        example_id = str(record["id"])
        support = tuple(tuple(s) for s in record["support"])
        member_probs = record["probs"]
    except (KeyError, TypeError):
        raise DataError("record needs id/support/probs")
    if not isinstance(member_probs, list) or not member_probs:
        raise DataError("probs must be a non-empty list")
    positions = len(support)
    for m, member in enumerate(member_probs):
        if not isinstance(member, list) or len(member) != positions:
            raise DataError(f"member {m} needs a list of {positions} positions")
    blocks = []
    for l, supp in enumerate(support):
        rows = [member[l] for member in member_probs]
        if not all(isinstance(row, list) and len(row) == len(supp) for row in rows):
            raise DataError(f"member support mismatch at position {l}")
        try:
            blocks.append(np.asarray(rows, dtype=np.float64))
        except (TypeError, ValueError, OverflowError):
            raise DataError(f"non-numeric probability at position {l}")
    tokens = record.get("tokens")
    if "tokens" in record and not isinstance(tokens, list):
        raise DataError("tokens must be a list")
    return EnsembleTokenDistributions(
        example_id=example_id,
        support=support,
        probs=tuple(blocks),
        tokens=tuple(tokens) if tokens is not None else None,
    )


def read_ensemble_dump(path: str | Path) -> list[EnsembleTokenDistributions]:
    """Parse a JSONL ensemble dump.

    Each record: ``{"id": ..., "tokens": [...], "support": [[...], ...],
    "probs": [[[...], ...], ...]}`` with probs indexed [member][position][support].
    A repeated id raises DataError naming its line.
    """
    out = []
    seen: set[str] = set()
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also deep nesting, huge ints
            raise DataError(f"invalid JSON: {exc}", path=str(path), line=lineno)
        try:
            dists = _dump_record(record)
        except DataError as exc:
            raise DataError(str(exc), path=str(path), line=lineno)
        if dists.example_id in seen:
            raise DataError(
                f"duplicate example id {dists.example_id!r}", path=str(path), line=lineno
            )
        seen.add(dists.example_id)
        out.append(dists)
    return out


def write_ensemble_dump(dists: Iterable[EnsembleTokenDistributions], path: str | Path) -> int:
    """Write distributions as a JSONL dump (full float precision)."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for d in dists:
            record = {
                "id": d.example_id,
                "support": [list(s) for s in d.support],
                "probs": [
                    [[float(p) for p in d.probs[l][m]] for l in range(d.positions)]
                    for m in range(d.members)
                ],
            }
            if d.tokens is not None:
                record["tokens"] = list(d.tokens)
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            n += 1
    return n


def coarsen_distributions(
    example_id: str,
    full_probs: np.ndarray,
    vocab: Sequence[str],
    top_k: int = 16,
    tokens: Sequence[str] | None = None,
) -> EnsembleTokenDistributions:
    """Reduce full-vocabulary member distributions to compact shared supports.

    `full_probs` has shape (M, L, V). Each position's support is the union of
    every member's `top_k` tokens; remaining mass goes to an ``<other>``
    bucket so rows still sum to one.
    """
    full_probs = np.asarray(full_probs, dtype=np.float64)
    if full_probs.ndim != 3:
        raise ConfigError("full_probs must have shape (members, positions, vocab)")
    members, positions, vocab_size = full_probs.shape
    if vocab_size != len(vocab):
        raise ConfigError(f"vocab of {len(vocab)} tokens but distributions over {vocab_size}")
    supports = []
    blocks = []
    for l in range(positions):
        block = full_probs[:, l, :]
        keep: set[int] = set()
        for m in range(members):
            top = np.argsort(-block[m])[:top_k]
            keep.update(int(i) for i in top)
        kept = sorted(keep)
        support = tuple(vocab[i] for i in kept) + (OTHER_TOKEN,)
        rows = np.empty((members, len(kept) + 1))
        rows[:, :-1] = block[:, kept]
        rows[:, -1] = 1.0 - block[:, kept].sum(axis=1)
        np.clip(rows[:, -1], 0.0, None, out=rows[:, -1])
        supports.append(support)
        blocks.append(rows)
    return EnsembleTokenDistributions(
        example_id=example_id,
        support=tuple(supports),
        probs=tuple(blocks),
        tokens=tuple(tokens) if tokens is not None else None,
    )
