"""End-to-end test set construction.

Stages, in order:

1. ``filter_oov``        — drop pool examples with rare tokens
2. ``build_dictionary``  — frequent n-gram index over the training side
3. ``score_degrees``     — minimum-cover degree for every surviving example
4. ``select_pool``       — dedup + top-k by degree
5. ``score_uncertainty`` — ingest the ensemble dump, score knowledge uncertainty
6. ``sample_testset``    — band selection below the noisy top

Every stage writes one artifact. Artifacts are written to a ``.partial``
path first and renamed into place on success, so an aborted run leaves its
half-written output clearly marked. The manifest records input digests,
parameters, per-stage counts, and artifact digests; given identical inputs
and seed, two runs produce byte-identical artifacts and manifests.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from compforge.corpus import (
    ParallelExample,
    build_vocab_counts,
    filter_oov,
    iter_side,
    load_parallel_corpus,
    save_corpus_jsonl,
    side_tokens,
)
from compforge.cover import (
    CompositionalDegree,
    degree_of,
    select_candidate_pool,
    write_degree_tsv,
)
from compforge.errors import ConfigError, DataError, StageError
from compforge.ngrams import NGramDictionary, build_ngram_dictionary
from compforge.uncertainty import (
    band_select,
    read_ensemble_dump,
    token_uncertainties,
    write_uncertainty_tsv,
)


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
    return [(ex, degree_of(side_tokens(ex, side), dictionary)) for ex in pool]


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
        for name in ("oov_min_count", "dict_min_count", "discard_top", "window", "sample"):
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
        _check_workers(self.workers)
        for name in ("train_path", "pool_path", "ensemble_dump_path"):
            path = getattr(self, name)
            if not Path(path).is_file():
                raise ConfigError(f"{name} does not exist: {path}")

    @classmethod
    def from_json(cls, path: str | Path, **overrides) -> "PipelineConfig":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"pipeline config {path} is not valid JSON: {exc.msg}")
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
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_artifact(out_dir: Path, name: str, writer: Callable[[Path], None]) -> Path:
    """Write via a .partial path, renaming into place only on success."""
    final = out_dir / name
    partial = out_dir / (name + ".partial")
    writer(partial)
    os.replace(partial, final)
    return final


def run_pipeline(config: PipelineConfig) -> PipelineManifest:
    """Run all six stages; returns the manifest (also written to out_dir)."""
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

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

    def record_stage(name: str, in_count: int, out_count: int) -> None:
        manifest.stages.append({"name": name, "in": in_count, "out": out_count})

    def record_artifact(name: str, path: Path, records: int) -> None:
        manifest.artifacts.append(
            {"name": name, "path": path.name, "sha256": _sha256_file(path), "records": records}
        )

    stage = "load_inputs"
    try:
        train = load_parallel_corpus(config.train_path, config.corpus_format)
        pool = load_parallel_corpus(config.pool_path, config.corpus_format)

        stage = "filter_oov"
        counts = build_vocab_counts(train, config.side)
        filtered = filter_oov(pool, counts, config.oov_min_count)
        path = _write_artifact(
            out_dir, "pool_filtered.jsonl", lambda p: save_corpus_jsonl(filtered, p)
        )
        record_stage(stage, len(pool), len(filtered))
        record_artifact("filtered_pool", path, len(filtered))

        stage = "build_dictionary"
        dictionary = build_ngram_dictionary(
            iter_side(train, config.side), config.dict_min_count, config.max_n
        )
        path = _write_artifact(out_dir, "ngrams.ngix", lambda p: dictionary.save(p))
        record_stage(stage, len(train), len(dictionary))
        record_artifact("ngram_index", path, len(dictionary))

        stage = "score_degrees"
        scored = score_pool(filtered, dictionary, config.side)
        path = _write_artifact(
            out_dir, "degrees.tsv",
            lambda p: write_degree_tsv(((ex.id, degree) for ex, degree in scored), p),
        )
        record_stage(stage, len(filtered), len(scored))
        record_artifact("degree_scores", path, len(scored))

        stage = "select_pool"
        selection = select_candidate_pool(scored, config.pool_k, config.side)
        if selection.warning:
            manifest.metadata["warnings"].append(selection.warning)
        candidates = list(selection.examples)
        path = _write_artifact(
            out_dir, "candidates.jsonl", lambda p: save_corpus_jsonl(candidates, p)
        )
        record_stage(stage, len(scored), len(candidates))
        record_artifact("candidate_pool", path, len(candidates))

        stage = "score_uncertainty"
        dump = {d.example_id: d for d in read_ensemble_dump(config.ensemble_dump_path)}
        ranked: list[tuple[ParallelExample, float]] = []
        for ex in candidates:
            if ex.id not in dump:
                raise DataError(f"candidate {ex.id!r} missing from ensemble dump")
            ranked.append((ex, token_uncertainties(dump[ex.id]).sequence_score))
        path = _write_artifact(
            out_dir, "uncertainty.tsv",
            lambda p: write_uncertainty_tsv(((ex.id, score) for ex, score in ranked), p),
        )
        record_stage(stage, len(candidates), len(ranked))
        record_artifact("uncertainty_scores", path, len(ranked))

        stage = "sample_testset"
        chosen = band_select(
            ranked, config.discard_top, config.window, config.sample, config.seed
        )
        path = _write_artifact(out_dir, "testset.jsonl", lambda p: save_corpus_jsonl(chosen, p))
        record_stage(stage, len(ranked), len(chosen))
        record_artifact("testset", path, len(chosen))
    except (ConfigError, DataError) as exc:
        raise StageError(stage, str(exc)) from exc

    _write_artifact(
        out_dir, "manifest.json",
        lambda p: p.write_text(manifest.to_json() + "\n", encoding="utf-8"),
    )
    return manifest
