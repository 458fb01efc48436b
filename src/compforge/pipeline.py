"""End-to-end test set construction.

Stages, in order:

1. ``filter_oov``        — drop pool examples with rare tokens
2. ``build_dictionary``  — frequent n-gram index over the training side
3. ``score_degrees``     — minimum-cover degree for every surviving example
4. ``select_pool``       — dedup + top-k by degree
5. ``score_uncertainty`` — ingest the ensemble dump, score knowledge uncertainty
6. ``sample_testset``    — band selection below the noisy top

Every stage writes one artifact, and every file is written by one rule,
`replacing`: the output goes to a ``.partial`` path, which is renamed into
place when the write succeeds and removed when it raises. So a final name
only ever holds whole output, and a failed run leaves no ``.partial`` file.
A run removes ``manifest.json`` before it writes anything, so only a run
that finished leaves a manifest.
The manifest records input digests, parameters, per-stage counts, and
artifact digests; given identical inputs and seed, two runs produce
byte-identical artifacts and manifests.

The work runs in a different order from the stages. Train is loaded, its
vocabulary counted and its n-gram index built, and then it is freed. One
pass then reads the pool `_CHUNK` examples at a time: each batch is
OOV-filtered, its survivors are appended to ``pool_filtered.jsonl``,
degree-scored, appended to ``degrees.tsv`` and offered to the top-k heap of
`select_candidate_pool`. After the pass, the stages are recorded in stage
order.

So peak memory is O(train + k), not O(pool). It holds train or its index,
one batch, the k candidates and the ensemble dump, which is read whole. The
one structure that grows with the pool is the set of pool ids that
`id_records` keeps to reject a repeated id.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from compforge.corpus import (
    ParallelExample,
    _infer_format,
    batched,
    build_vocab_counts,
    filter_oov,
    iter_parallel_corpus,
    iter_side,
    jsonl_line,
    load_parallel_corpus,
    save_corpus_jsonl,
    side_tokens,
)
from compforge.cover import (
    _CHUNK,
    CompositionalDegree,
    degree_line,
    score_degrees,
    select_candidate_pool,
)
from compforge.errors import ConfigError, DataError, StageError, require_int
from compforge.ngrams import NGramDictionary, build_ngram_dictionary
from compforge.uncertainty import (
    band_select,
    read_ensemble_dump,
    token_uncertainties,
    write_uncertainty_tsv,
)

T = TypeVar("T")


def _check_workers(workers: int | None) -> None:
    if workers not in (None, 1):
        raise ConfigError(f"workers must be null or 1 (degree scoring is serial), got {workers!r}")


def score_pool(
    pool: Sequence[ParallelExample],
    dictionary: NGramDictionary,
    side: str = "target",
    workers: int | None = None,
) -> list[tuple[ParallelExample, CompositionalDegree]]:
    """Degree-score a pool in the calling process, in pool order; `workers` must be None or 1."""
    _check_workers(workers)
    return list(zip(pool, score_degrees((side_tokens(ex, side) for ex in pool), dictionary)))


@dataclass
class PipelineConfig:
    train_path: str
    pool_path: str
    ensemble_dump_path: str
    out_dir: str
    side: str = "target"
    oov_min_count: int = 3
    dict_min_count: int = 3
    max_n: int | None = 8
    pool_k: int = 60_000
    discard_top: int = 2_000
    window: int = 18_000
    sample: int = 3_000
    seed: int = 0
    corpus_format: str | None = None
    workers: int | None = None

    def validate(self) -> None:
        for name in ("oov_min_count", "dict_min_count", "pool_k", "discard_top", "window",
                     "sample", "seed"):
            require_int(name, getattr(self, name))
        require_int("max_n", self.max_n, optional=True)
        require_int("workers", self.workers, optional=True)
        for name in ("oov_min_count", "dict_min_count", "discard_top", "window", "sample",
                     "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.pool_k < 1:
            raise ConfigError("pool_k must be positive")
        if self.sample > self.window:
            raise ConfigError(f"sample {self.sample} exceeds window {self.window}")
        if self.max_n is not None and self.max_n < 1:
            raise ConfigError("max_n must be at least 1 (or None for unbounded)")
        if self.side not in ("source", "target"):
            raise ConfigError(f"side must be source or target, got {self.side!r}")
        if self.corpus_format not in (None, "tsv", "jsonl"):
            raise ConfigError(f"corpus_format must be null, tsv or jsonl: {self.corpus_format!r}")
        _check_workers(self.workers)
        for name in ("train_path", "pool_path", "ensemble_dump_path", "out_dir"):
            path = getattr(self, name)
            if not isinstance(path, (str, os.PathLike)):
                raise ConfigError(f"{name} must be a path string, got {path!r}")
            if name == "out_dir" and Path(path).exists() and not Path(path).is_dir():
                raise ConfigError(f"out_dir is not a directory: {path}")
            if name != "out_dir" and not Path(path).is_file():
                raise ConfigError(f"{name} does not exist: {path}")
            if name in ("train_path", "pool_path") and self.corpus_format is None:
                _infer_format(path)

    @classmethod
    def from_json(cls, path: str | Path, **overrides) -> "PipelineConfig":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"pipeline config {path} is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ConfigError(f"pipeline config {path} must be a JSON object")
        payload.update({k: v for k, v in overrides.items() if v is not None})
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown pipeline config keys: {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(f"incomplete pipeline config: {exc}")


@dataclass
class PipelineManifest:
    parameters: dict
    inputs: dict[str, str]
    stages: list[dict] = field(default_factory=list)
    artifacts: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _sha256_file(path: str | Path) -> str:
    # Imported here: hashlib loads OpenSSL, which `compforge simulate` and any
    # other process that imports this module without running a pipeline never need.
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def join_by_id(
    examples: Iterable[ParallelExample], table: Mapping[str, T], source: str
) -> Iterator[tuple[ParallelExample, T]]:
    """Yield (example, table[example.id]) in example order, skipping ids the table
    lacks; after the last pair, DataError if any id was missing, with their count."""
    missing, first = 0, ""
    for ex in examples:
        if ex.id in table:
            yield ex, table[ex.id]
        else:
            if not missing:
                first = ex.id
            missing += 1
    if missing:
        raise DataError(f"{missing} pool examples missing from {source}, e.g. {first!r}")


@contextlib.contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """Yield `path`.partial for the block to write; rename it to `path` when the
    block succeeds and remove it when anything raises, so `path` only ever
    holds whole output."""
    partial = Path(f"{path}.partial")
    try:
        yield partial
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def run_pipeline(config: PipelineConfig) -> PipelineManifest:
    """Run all six stages; returns the manifest (also written to out_dir)."""
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # An earlier run's manifest would vouch for artifacts this run replaces.
    (out_dir / "manifest.json").unlink(missing_ok=True)

    manifest = PipelineManifest(
        parameters=asdict(config),
        inputs={
            "train": _sha256_file(config.train_path),
            "pool": _sha256_file(config.pool_path),
            "ensemble_dump": _sha256_file(config.ensemble_dump_path),
        },
        metadata={
            "rmi_formula": "mean over members of KL(ensemble_mean || member)",
            "aggregation": "mean of per-token reverse mutual information",
            "dedup": "exact-duplicate removal on the scored side",
            "warnings": [],
        },
    )

    def finish(label: str, filename: str, in_count: int, out_count: int,
               writer: Callable[[Path], None] | None = None) -> None:
        """Write the current stage's artifact, unless the pool pass already has,
        and record the stage and the artifact."""
        path = out_dir / filename
        if writer is not None:
            with replacing(path) as partial:
                writer(partial)
        manifest.stages.append({"name": stage, "in": in_count, "out": out_count})
        manifest.artifacts.append(
            {"name": label, "path": filename, "sha256": _sha256_file(path), "records": out_count}
        )

    # The work runs in a different order from the stages (see the module docstring).
    stage = "load_inputs"
    try:
        train = load_parallel_corpus(config.train_path, config.corpus_format)
        train_size = len(train)
        stage = "filter_oov"
        counts = build_vocab_counts(train, config.side)
        stage = "build_dictionary"
        dictionary = build_ngram_dictionary(
            iter_side(train, config.side), config.dict_min_count, config.max_n
        )
        del train

        stage = "load_inputs"
        pool = iter_parallel_corpus(config.pool_path, config.corpus_format)
        pool_size = 0

        def filter_and_score(filtered_fh, degrees_fh):
            """Yield the scored pool a batch at a time, appending the survivors
            and their degree rows to the two artifacts."""
            nonlocal stage, pool_size
            for batch in batched(pool, _CHUNK):
                pool_size += len(batch)
                stage = "filter_oov"
                kept = filter_oov(batch, counts, config.oov_min_count)
                filtered_fh.writelines(map(jsonl_line, kept))
                stage = "score_degrees"
                scored = score_pool(kept, dictionary, config.side)
                degrees_fh.writelines(degree_line(ex.id, degree) for ex, degree in scored)
                stage = "select_pool"
                yield from scored
                del batch, kept, scored  # only one batch is alive while the next is read
                stage = "load_inputs"

        with replacing(out_dir / "pool_filtered.jsonl") as filtered_path, \
                replacing(out_dir / "degrees.tsv") as degrees_path, \
                open(filtered_path, "w", encoding="utf-8") as filtered_fh, \
                open(degrees_path, "w", encoding="utf-8") as degrees_fh:
            selection = select_candidate_pool(
                filter_and_score(filtered_fh, degrees_fh), config.pool_k, config.side
            )
        kept_size = selection.scored
        del pool, counts

        stage = "filter_oov"
        finish("filtered_pool", "pool_filtered.jsonl", pool_size, kept_size)

        stage = "build_dictionary"
        finish("ngram_index", "ngrams.ngix", train_size, len(dictionary), dictionary.save)
        del dictionary

        stage = "score_degrees"
        finish("degree_scores", "degrees.tsv", kept_size, kept_size)

        stage = "select_pool"
        if selection.warning:
            manifest.metadata["warnings"].append(selection.warning)
        candidates = list(selection.examples)
        finish("candidate_pool", "candidates.jsonl", kept_size, len(candidates),
               lambda p: save_corpus_jsonl(candidates, p))

        stage = "score_uncertainty"
        dump = read_ensemble_dump(config.ensemble_dump_path)
        ranked = [(ex, token_uncertainties(dist).sequence_score)
                  for ex, dist in join_by_id(candidates, dump, "ensemble dump")]
        finish("uncertainty_scores", "uncertainty.tsv", len(candidates), len(ranked),
               lambda p: write_uncertainty_tsv(((ex.id, score) for ex, score in ranked), p))

        stage = "sample_testset"
        chosen = band_select(
            ranked, config.discard_top, config.window, config.sample, config.seed
        )
        finish("testset", "testset.jsonl", len(ranked), len(chosen),
               lambda p: save_corpus_jsonl(chosen, p))
    except (ConfigError, DataError) as exc:
        raise StageError(stage, str(exc)) from exc

    with replacing(out_dir / "manifest.json") as partial:
        partial.write_text(manifest.to_json() + "\n", encoding="utf-8")
    return manifest
