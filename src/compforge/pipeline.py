"""End-to-end test set construction.

The stages, their manifest labels and their artifact files are `STAGES`, in
stage order.

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
`select_candidate_pool`. After the pass the other four artifacts are
written, and then the manifest lists every stage and artifact in stage order.

So peak memory is O(train + k), not O(pool). It holds train or its index,
one batch, the k candidates and the ensemble dump, which is read whole. The
one structure that grows with the pool is the set of pool ids that
`id_records` keeps to reject a repeated id.

Each step runs inside the ``_stage`` block of the stage it belongs to, which
re-raises a `ConfigError` or `DataError` from it as a `StageError` naming
that stage, with the original error as its cause. So an error is named by
where it is raised: reading the pool is ``load_inputs``, a batch's filtering
``filter_oov`` and its scoring ``score_degrees``, and the top-k heap
``select_pool``. Joins raise at the first example whose id is missing.
`PipelineConfig.validate` rejects an input that is the same file as one of
the run's outputs or its ``.partial`` file, before any stage runs.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from compforge.corpus import (
    FORMATS,
    SIDES,
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

# Each stage, in stage order, with its artifact's manifest label and file name.
STAGES = {
    "filter_oov": ("filtered_pool", "pool_filtered.jsonl"),
    "build_dictionary": ("ngram_index", "ngrams.ngix"),
    "score_degrees": ("degree_scores", "degrees.tsv"),
    "select_pool": ("candidate_pool", "candidates.jsonl"),
    "score_uncertainty": ("uncertainty_scores", "uncertainty.tsv"),
    "sample_testset": ("testset", "testset.jsonl"),
}
# What a run writes under out_dir: the six artifacts in stage order, then the manifest.
_OUTPUTS = (*(name for _, name in STAGES.values()), "manifest.json")


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
        for name, least in (("oov_min_count", 0), ("dict_min_count", 0), ("max_n", 1),
                            ("pool_k", 1), ("discard_top", 0), ("window", 0), ("sample", 0),
                            ("seed", 0), ("workers", None)):
            require_int(name, getattr(self, name), least, optional=name in ("max_n", "workers"))
        if self.sample > self.window:
            raise ConfigError(f"sample {self.sample} exceeds window {self.window}")
        if self.side not in SIDES:
            raise ConfigError(f"side must be source or target, got {self.side!r}")
        if self.corpus_format not in (None, *FORMATS):
            raise ConfigError(f"corpus_format must be null, tsv or jsonl: {self.corpus_format!r}")
        _check_workers(self.workers)
        for name in ("train_path", "pool_path", "ensemble_dump_path", "out_dir"):
            path = getattr(self, name)
            if not isinstance(path, str):
                raise ConfigError(f"{name} must be a path string, got {path!r}")
            if name == "out_dir" and Path(path).exists() and not Path(path).is_dir():
                raise ConfigError(f"out_dir is not a directory: {path}")
            if name != "out_dir" and not Path(path).is_file():
                raise ConfigError(f"{name} does not exist: {path}")
            if name in ("train_path", "pool_path") and self.corpus_format is None:
                _infer_format(path)
        # A run would replace an input that is one of its outputs or their .partial files.
        outputs = [Path(self.out_dir) / f"{name}{suffix}" for name in _OUTPUTS
                   for suffix in ("", ".partial")]
        for name in ("train_path", "pool_path", "ensemble_dump_path"):
            path = getattr(self, name)
            for output in outputs:
                if output.exists() and os.path.samefile(path, output):
                    raise ConfigError(f"{name} {path} is the same file as {output}, "
                                      "which the run writes")

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
    stages: list[dict]
    artifacts: list[dict]
    metadata: dict

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
    examples: Iterable[ParallelExample], table: Mapping[str, T], source: str, path: str | Path
) -> Iterator[tuple[ParallelExample, T]]:
    """Yield (example, table[example.id]) in example order; DataError naming
    the table's `path` at the first example whose id the table lacks."""
    for ex in examples:
        if ex.id not in table:
            raise DataError(f"pool example {ex.id!r} missing from {source}", path=str(path))
        yield ex, table[ex.id]


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


@contextlib.contextmanager
def _stage(name: str) -> Iterator[None]:
    """Re-raise a ConfigError or DataError from the block as StageError(name).
    A StageError from an inner block is neither, so it passes through."""
    try:
        yield
    except (ConfigError, DataError) as exc:
        raise StageError(name, str(exc)) from exc


def run_pipeline(config: PipelineConfig) -> PipelineManifest:
    """Run all six stages; returns the manifest (also written to out_dir)."""
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {stage: out_dir / name for stage, (_, name) in STAGES.items()}
    manifest_file = out_dir / _OUTPUTS[-1]
    # An earlier run's manifest would vouch for artifacts this run replaces.
    manifest_file.unlink(missing_ok=True)
    inputs = {
        "train": _sha256_file(config.train_path),
        "pool": _sha256_file(config.pool_path),
        "ensemble_dump": _sha256_file(config.ensemble_dump_path),
    }

    def write(stage: str, writer: Callable[[Path], object]) -> None:
        with _stage(stage), replacing(paths[stage]) as partial:
            writer(partial)

    # The work runs in a different order from the stages (see the module docstring).
    with _stage("load_inputs"):
        train = load_parallel_corpus(config.train_path, config.corpus_format)
    train_size = len(train)
    with _stage("filter_oov"):
        counts = build_vocab_counts(train, config.side)
    with _stage("build_dictionary"):
        dictionary = build_ngram_dictionary(
            iter_side(train, config.side), config.dict_min_count, config.max_n
        )
    del train

    with _stage("load_inputs"):
        pool = iter_parallel_corpus(config.pool_path, config.corpus_format)
    pool_size = 0

    def filter_and_score(filtered_fh, degrees_fh):
        """Yield the scored pool a batch at a time, appending the survivors
        and their degree rows to the two artifacts."""
        nonlocal pool_size
        with _stage("load_inputs"):
            for batch in batched(pool, _CHUNK):
                pool_size += len(batch)
                with _stage("filter_oov"):
                    kept = filter_oov(batch, counts, config.oov_min_count)
                    filtered_fh.writelines(map(jsonl_line, kept))
                with _stage("score_degrees"):
                    scored = score_pool(kept, dictionary, config.side)
                    degrees_fh.writelines(degree_line(ex.id, degree) for ex, degree in scored)
                yield from scored
                del batch, kept, scored  # only one batch is alive while the next is read

    with replacing(paths["filter_oov"]) as filtered_path, \
            replacing(paths["score_degrees"]) as degrees_path, \
            open(filtered_path, "w", encoding="utf-8") as filtered_fh, \
            open(degrees_path, "w", encoding="utf-8") as degrees_fh, \
            _stage("select_pool"):
        selection = select_candidate_pool(
            filter_and_score(filtered_fh, degrees_fh), config.pool_k, config.side
        )
    kept_size = selection.scored
    del pool, counts

    write("build_dictionary", dictionary.save)
    dictionary_size = len(dictionary)
    del dictionary
    candidates = list(selection.examples)
    write("select_pool", lambda p: save_corpus_jsonl(candidates, p))

    with _stage("score_uncertainty"):
        dump = read_ensemble_dump(config.ensemble_dump_path)
        joined = join_by_id(candidates, dump, "ensemble dump", config.ensemble_dump_path)
        ranked = [(ex, token_uncertainties(dist).sequence_score) for ex, dist in joined]
    write("score_uncertainty",
          lambda p: write_uncertainty_tsv(((ex.id, score) for ex, score in ranked), p))

    with _stage("sample_testset"):
        chosen = band_select(ranked, config.discard_top, config.window, config.sample, config.seed)
    write("sample_testset", lambda p: save_corpus_jsonl(chosen, p))

    # Each stage's (in, out) record counts; an artifact's records are its stage's out.
    sizes = {
        "filter_oov": (pool_size, kept_size),
        "build_dictionary": (train_size, dictionary_size),
        "score_degrees": (kept_size, kept_size),
        "select_pool": (kept_size, len(candidates)),
        "score_uncertainty": (len(candidates), len(ranked)),
        "sample_testset": (len(ranked), len(chosen)),
    }
    manifest = PipelineManifest(
        parameters=asdict(config),
        inputs=inputs,
        stages=[{"name": stage, "in": sizes[stage][0], "out": sizes[stage][1]}
                for stage in STAGES],
        artifacts=[{"name": label, "path": name, "sha256": _sha256_file(paths[stage]),
                    "records": sizes[stage][1]} for stage, (label, name) in STAGES.items()],
        metadata={
            "rmi_formula": "mean over members of KL(ensemble_mean || member)",
            "aggregation": "mean of per-token reverse mutual information",
            "dedup": "exact-duplicate removal on the scored side",
            "warnings": [selection.warning] if selection.warning else [],
        },
    )
    with replacing(manifest_file) as partial:
        partial.write_text(manifest.to_json() + "\n", encoding="utf-8")
    return manifest
