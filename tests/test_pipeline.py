"""Six-stage pipeline: artifacts, manifest, determinism, failure handling."""

from __future__ import annotations

import hashlib
import importlib
import json
import tempfile
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compforge.pipeline as pipeline_mod
from compforge.corpus import ParallelExample, load_parallel_corpus
from compforge.errors import ConfigError, DataError, StageError
from compforge.ngrams import NGramDictionary, build_ngram_dictionary
from compforge.pipeline import (
    PipelineConfig,
    join_by_id,
    replacing,
    run_pipeline,
    score_pool,
)
from compforge.uncertainty import band_select

from conftest import random_sentence
from oracles import OracleExample, oracle_pipeline

ARTIFACTS = [
    "pool_filtered.jsonl",
    "ngrams.ngix",
    "degrees.tsv",
    "candidates.jsonl",
    "uncertainty.tsv",
    "testset.jsonl",
]

STAGES = [
    "filter_oov",
    "build_dictionary",
    "score_degrees",
    "select_pool",
    "score_uncertainty",
    "sample_testset",
]


def make_config(paths, out_dir, **overrides) -> PipelineConfig:
    params = dict(
        train_path=str(paths["train"]),
        pool_path=str(paths["pool"]),
        ensemble_dump_path=str(paths["dump"]),
        out_dir=str(out_dir),
        oov_min_count=3,
        dict_min_count=2,
        max_n=4,
        pool_k=40,
        discard_top=3,
        window=20,
        sample=5,
        seed=0,
    )
    params.update(overrides)
    return PipelineConfig(**params)


class TestRunPipeline:
    def test_produces_all_artifacts(self, pipeline_inputs, tmp_path):
        out = tmp_path / "out"
        manifest = run_pipeline(make_config(pipeline_inputs, out))
        for name in ARTIFACTS + ["manifest.json"]:
            assert (out / name).is_file(), name
        assert [a["path"] for a in manifest.artifacts] == ARTIFACTS
        assert not list(out.glob("*.partial"))

    def test_stage_counts(self, pipeline_inputs, tmp_path):
        manifest = run_pipeline(make_config(pipeline_inputs, tmp_path / "out"))
        stages = {s["name"]: s for s in manifest.stages}
        assert [s["name"] for s in manifest.stages] == STAGES
        # 60 pool examples; 7 carry a token the training corpus never saw
        assert stages["filter_oov"]["in"] == 60
        assert stages["filter_oov"]["out"] == 53
        assert stages["score_degrees"]["out"] == 53
        # 2 exact duplicates among the survivors; pool_k=40 truncates further
        assert stages["select_pool"]["out"] == 40
        assert stages["score_uncertainty"]["out"] == 40
        assert stages["sample_testset"]["out"] == 5

    def test_testset_is_subset_of_candidates(self, pipeline_inputs, tmp_path):
        out = tmp_path / "out"
        run_pipeline(make_config(pipeline_inputs, out))
        candidates = {ex.id for ex in load_parallel_corpus(out / "candidates.jsonl")}
        testset = [ex.id for ex in load_parallel_corpus(out / "testset.jsonl")]
        assert len(testset) == 5
        assert set(testset) <= candidates

    def test_degree_and_uncertainty_files_align_with_candidates(
        self, pipeline_inputs, tmp_path
    ):
        out = tmp_path / "out"
        run_pipeline(make_config(pipeline_inputs, out))
        filtered_ids = [ex.id for ex in load_parallel_corpus(out / "pool_filtered.jsonl")]
        degree_ids = [line.split("\t")[0] for line in (out / "degrees.tsv").read_text().splitlines()]
        assert degree_ids == filtered_ids
        candidate_ids = [ex.id for ex in load_parallel_corpus(out / "candidates.jsonl")]
        unc_ids = [line.split("\t")[0] for line in (out / "uncertainty.tsv").read_text().splitlines()]
        assert unc_ids == candidate_ids

    def test_dictionary_artifact_loads(self, pipeline_inputs, tmp_path):
        out = tmp_path / "out"
        run_pipeline(make_config(pipeline_inputs, out))
        d = NGramDictionary.load(out / "ngrams.ngix")
        assert len(d) > 0
        assert d.max_n == 4

    def test_rerun_same_outdir_byte_identical(self, pipeline_inputs, tmp_path):
        out = tmp_path / "out"
        cfg = make_config(pipeline_inputs, out)
        run_pipeline(cfg)
        first = {name: (out / name).read_bytes() for name in ARTIFACTS + ["manifest.json"]}
        run_pipeline(make_config(pipeline_inputs, out))
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_separate_outdirs_equal_digests(self, pipeline_inputs, tmp_path):
        m1 = run_pipeline(make_config(pipeline_inputs, tmp_path / "a"))
        m2 = run_pipeline(make_config(pipeline_inputs, tmp_path / "b"))
        assert m1.artifacts == m2.artifacts
        assert m1.stages == m2.stages
        assert m1.inputs == m2.inputs
        p1 = dict(m1.parameters)
        p2 = dict(m2.parameters)
        assert p1.pop("out_dir") != p2.pop("out_dir")
        assert p1 == p2

    def test_different_seed_changes_testset_only(self, pipeline_inputs, tmp_path):
        m1 = run_pipeline(make_config(pipeline_inputs, tmp_path / "a", seed=0))
        m2 = run_pipeline(make_config(pipeline_inputs, tmp_path / "b", seed=9))
        d1 = {a["path"]: a["sha256"] for a in m1.artifacts}
        d2 = {a["path"]: a["sha256"] for a in m2.artifacts}
        for name in ARTIFACTS[:-1]:
            assert d1[name] == d2[name], name
        assert d1["testset.jsonl"] != d2["testset.jsonl"]

    def test_truncation_warning_when_pool_small(self, pipeline_inputs, tmp_path):
        manifest = run_pipeline(
            make_config(pipeline_inputs, tmp_path / "out", pool_k=200, discard_top=0, window=40, sample=5)
        )
        assert any("200" in w for w in manifest.metadata["warnings"])
        # 53 survivors minus 2 exact duplicates
        assert manifest.stages[3]["out"] == 51

    def test_manifest_records_input_digests(self, pipeline_inputs, tmp_path):
        manifest = run_pipeline(make_config(pipeline_inputs, tmp_path / "out"))
        assert set(manifest.inputs) == {"train", "pool", "ensemble_dump"}
        for digest in manifest.inputs.values():
            assert len(digest) == 64

    def test_each_artifact_belongs_to_its_stage(self, pipeline_inputs, tmp_path):
        out = tmp_path / "out"
        manifest = run_pipeline(make_config(pipeline_inputs, out))
        pairs = list(zip(manifest.stages, manifest.artifacts, strict=True))
        assert [(stage["name"], artifact["path"]) for stage, artifact in pairs] == list(
            zip(STAGES, ARTIFACTS)
        )
        for stage, artifact in pairs:
            assert artifact["records"] == stage["out"], stage["name"]
            blob = (out / artifact["path"]).read_bytes()
            assert artifact["sha256"] == hashlib.sha256(blob).hexdigest(), stage["name"]

    def test_manifest_json_is_stable(self, pipeline_inputs, tmp_path):
        out = tmp_path / "out"
        manifest = run_pipeline(make_config(pipeline_inputs, out))
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["stages"] == manifest.stages
        assert on_disk["metadata"]["rmi_formula"].startswith("mean over members")


def _two_sided_inputs(tmp_path, swap: bool) -> dict:
    """Train/pool/dump whose source and target sides differ; `swap` exchanges the sides."""
    rng = np.random.default_rng(77)
    source_vocab = [f"s{i}" for i in range(8)]
    pairs = [(" ".join(rng.choice(source_vocab, size=int(rng.integers(2, 7)))),
              random_sentence(rng)) for _ in range(360)]
    train, pool = pairs[:300], pairs[300:]
    for i in range(0, 60, 7):  # a token each side's training half never saw
        pool[i] = (pool[i][0] + " s99", pool[i][1]) if i % 2 else (pool[i][0], pool[i][1] + " zzz")
    for i in range(5, 60, 11):  # a duplicate on one side only
        pool[i] = (pool[i - 1][0], pool[i][1]) if i % 2 else (pool[i][0], pool[i - 1][1])
    if swap:
        train = [(tgt, src) for src, tgt in train]
        pool = [(tgt, src) for src, tgt in pool]
    tmp_path.mkdir()
    paths = {name: tmp_path / f"{name}.{'tsv' if name == 'train' else 'jsonl'}"
             for name in ("train", "pool", "dump")}
    paths["train"].write_text("".join(f"{src}\t{tgt}\n" for src, tgt in train), encoding="utf-8")
    paths["pool"].write_text("".join(
        json.dumps({"id": f"p{i}", "source": src, "target": tgt}) + "\n"
        for i, (src, tgt) in enumerate(pool)), encoding="utf-8")
    probs = [[[0.5, 0.5]] * 2, [[0.9, 0.1]] * 2]
    paths["dump"].write_text("".join(
        json.dumps({"id": f"p{i}", "support": [["A", "B"]] * 2,
                    "probs": [[[1 - (i % 9 + 1) / 20, (i % 9 + 1) / 20]] * 2] + probs}) + "\n"
        for i in range(len(pool))), encoding="utf-8")
    return paths


class TestScoredSide:
    def test_source_side_equals_target_side_of_swapped_corpora(self, tmp_path):
        target_out, source_out, other_out = tmp_path / "t", tmp_path / "s", tmp_path / "o"
        inputs = _two_sided_inputs(tmp_path / "in", swap=False)
        swapped = _two_sided_inputs(tmp_path / "swapped", swap=True)
        by_target = run_pipeline(make_config(inputs, target_out, side="target"))
        by_source = run_pipeline(make_config(swapped, source_out, side="source"))
        for name in ("ngrams.ngix", "degrees.tsv", "uncertainty.tsv"):
            assert (target_out / name).read_bytes() == (source_out / name).read_bytes(), name
        for name in ("pool_filtered.jsonl", "candidates.jsonl", "testset.jsonl"):
            swapped_back = [replace(ex, source=ex.target, target=ex.source)
                            for ex in load_parallel_corpus(source_out / name)]
            assert load_parallel_corpus(target_out / name) == swapped_back, name
        assert by_target.stages == by_source.stages
        # Not vacuous: scoring the other side of the same corpora changes the result.
        by_other = run_pipeline(make_config(inputs, other_out, side="source"))
        assert by_other.stages != by_target.stages
        assert (other_out / "degrees.tsv").read_bytes() != (target_out / "degrees.tsv").read_bytes()


def _examples(ids):
    return [ParallelExample(ex_id, ("a",), ("b",)) for ex_id in ids]


class TestJoinById:
    def test_pairs_follow_example_order(self):
        examples = _examples(["c", "a", "b"])
        pairs = join_by_id(examples, {"a": 1, "b": 2, "c": 3, "unused": 4}, "scores",
                           "deg.tsv")
        assert [(ex.id, value) for ex, value in pairs] == [("c", 3), ("a", 1), ("b", 2)]

    def test_missing_ids_are_counted_and_the_first_named(self):
        # The join raises at the first missing id, after the pairs before it.
        examples = _examples(["a", "b", "c", "d"])
        pairs = []
        with pytest.raises(DataError) as err:
            for ex, value in join_by_id(examples, {"a": 1, "c": 3}, "ensemble dump",
                                        "dump.jsonl"):
                pairs.append((ex.id, value))
        assert str(err.value) == "pool example 'b' missing from ensemble dump [dump.jsonl]"
        assert pairs == [("a", 1)]

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.sampled_from("abcdef"), max_size=8),
           keys=st.sets(st.sampled_from("abcdef")))
    def test_pairs_stop_at_the_first_missing_id(self, ids, keys):
        table = {key: key.upper() for key in keys}
        pairs = []
        try:
            for ex, value in join_by_id(_examples(ids), table, "scores", "deg.tsv"):
                pairs.append((ex.id, value))
        except DataError as err:
            first = next(i for i, ex_id in enumerate(ids) if ex_id not in table)
            assert str(err) == f"pool example {ids[first]!r} missing from scores [deg.tsv]"
        else:
            first = len(ids)
            assert set(ids) <= keys
        assert pairs == [(ex_id, ex_id.upper()) for ex_id in ids[:first]]


def _failing(real, call: int, error: type[Exception]):
    """`real`, except that its `call`-th call raises `error`."""
    calls = 0

    def wrapper(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == call:
            raise error("injected fault")
        return real(*args, **kwargs)

    return wrapper


# (the name that raises, on which call, the stage its StageError names). The
# pipeline names are patched in `compforge.pipeline`; "pool record" fails the
# pool iterator at that record.
_FAULTS = [
    ("load_parallel_corpus", 1, "load_inputs"),
    ("build_vocab_counts", 1, "filter_oov"),
    ("build_ngram_dictionary", 1, "build_dictionary"),
    ("filter_oov", 1, "filter_oov"),
    ("jsonl_line", 3, "filter_oov"),
    ("score_pool", 1, "score_degrees"),
    ("degree_line", 2, "score_degrees"),
    ("select_candidate_pool", 1, "select_pool"),
    ("save_corpus_jsonl", 1, "select_pool"),
    ("read_ensemble_dump", 1, "score_uncertainty"),
    ("token_uncertainties", 2, "score_uncertainty"),
    ("write_uncertainty_tsv", 1, "score_uncertainty"),
    ("band_select", 1, "sample_testset"),
    ("save_corpus_jsonl", 2, "sample_testset"),
    ("NGramDictionary.save", 1, "build_dictionary"),
    ("pool record", 6, "load_inputs"),
]


class TestFailureHandling:
    @pytest.mark.parametrize("error", [ConfigError, DataError])
    @pytest.mark.parametrize("name, call, stage", _FAULTS,
                             ids=[f"{name}-{call}" for name, call, _ in _FAULTS])
    def test_error_names_the_stage_that_raised_it(self, pipeline_inputs, tmp_path, monkeypatch,
                                                  name, call, stage, error):
        if name == "NGramDictionary.save":
            monkeypatch.setattr(NGramDictionary, "save",
                                _failing(NGramDictionary.save, call, error))
        elif name == "pool record":
            real_iter = pipeline_mod.iter_parallel_corpus
            check = _failing(lambda ex: ex, call, error)
            monkeypatch.setattr(pipeline_mod, "iter_parallel_corpus",
                                lambda path, format=None: map(check, real_iter(path, format)))
        else:
            monkeypatch.setattr(pipeline_mod, name,
                                _failing(getattr(pipeline_mod, name), call, error))
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(pipeline_inputs, tmp_path / "out"))
        assert err.value.stage == stage
        assert type(err.value.__cause__) is error

    def test_band_too_large_names_stage(self, pipeline_inputs, tmp_path):
        cfg = make_config(pipeline_inputs, tmp_path / "out", discard_top=30, window=20)
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "sample_testset"

    def test_missing_dump_record_names_stage(self, pipeline_inputs, tmp_path):
        pipeline_inputs["dump"].write_text("")  # nobody home
        cfg = make_config(pipeline_inputs, tmp_path / "out")
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "score_uncertainty"
        assert f"missing from ensemble dump [{pipeline_inputs['dump']}]" in str(err.value)

    def test_malformed_train_names_load_stage(self, pipeline_inputs, tmp_path):
        with open(pipeline_inputs["train"], "a", encoding="utf-8") as fh:
            fh.write("only one field\n")
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(pipeline_inputs, tmp_path / "out"))
        assert err.value.stage == "load_inputs"

    def test_aborted_stage_leaves_no_partial_output(
        self, pipeline_inputs, tmp_path, monkeypatch
    ):
        # The OOV filter's survivors are written as the pool is read; writing
        # the second one fails.
        real_line = pipeline_mod.jsonl_line
        written = []

        def explode(example):
            if written:
                raise pipeline_mod.DataError("disk full")
            written.append(example)
            return real_line(example)

        monkeypatch.setattr(pipeline_mod, "jsonl_line", explode)
        out = tmp_path / "out"
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(pipeline_inputs, out))
        assert err.value.stage == "filter_oov"
        for name in ("pool_filtered.jsonl", "degrees.tsv"):
            assert not (out / name).exists() and not (out / f"{name}.partial").exists()

    def test_failed_index_save_leaves_no_index(self, pipeline_inputs, tmp_path, monkeypatch):
        def broken_save(self, path):
            Path(path).write_bytes(b"half an index")
            raise OSError("disk full")

        monkeypatch.setattr(NGramDictionary, "save", broken_save)
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(make_config(pipeline_inputs, out))
        assert not (out / "ngrams.ngix").exists()
        assert not (out / "ngrams.ngix.partial").exists()

    def test_malformed_pool_rerun_keeps_finished_artifacts(self, pipeline_inputs, tmp_path):
        out = tmp_path / "out"
        run_pipeline(make_config(pipeline_inputs, out))
        before = {name: (out / name).read_bytes() for name in ("pool_filtered.jsonl", "degrees.tsv")}
        with open(pipeline_inputs["pool"], "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(pipeline_inputs, out))
        assert err.value.stage == "load_inputs"
        assert {name: (out / name).read_bytes() for name in before} == before
        assert not list(out.glob("*.partial"))

    def test_failed_rerun_leaves_no_stale_manifest(self, pipeline_inputs, tmp_path):
        # The rerun rewrites the index, degrees and candidates before the
        # half-empty dump stops it, so the first manifest would no longer match.
        out = tmp_path / "out"
        run_pipeline(make_config(pipeline_inputs, out))
        first = json.loads((out / "manifest.json").read_text())
        dump = pipeline_inputs["dump"]
        dump.write_text("".join(dump.read_text().splitlines(keepends=True)[::2]))
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(pipeline_inputs, out, dict_min_count=3))
        assert err.value.stage == "score_uncertainty"
        assert not (out / "manifest.json").exists()
        index = next(a for a in first["artifacts"] if a["path"] == "ngrams.ngix")
        assert hashlib.sha256((out / "ngrams.ngix").read_bytes()).hexdigest() != index["sha256"]

    def test_malformed_pool_fails_before_any_artifact(self, pipeline_inputs, tmp_path):
        # The pool is loaded after the n-gram index is built, but still in
        # load_inputs and before the first artifact is written.
        with open(pipeline_inputs["pool"], "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        out = tmp_path / "out"
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(pipeline_inputs, out))
        assert err.value.stage == "load_inputs"
        assert list(out.iterdir()) == []

    def test_stage_error_preserves_cause(self, pipeline_inputs, tmp_path):
        pipeline_inputs["dump"].write_text("not json\n")
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(pipeline_inputs, tmp_path / "out"))
        assert err.value.__cause__ is not None


class TestReplacing:
    def test_success_renames_partial_into_place(self, tmp_path):
        path = tmp_path / "out.txt"
        with replacing(path) as partial:
            assert partial == tmp_path / "out.txt.partial"
            partial.write_text("whole")
            assert not path.exists()
        assert path.read_text() == "whole"
        assert not partial.exists()

    def test_raise_removes_partial_and_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"earlier run")
        with pytest.raises(KeyboardInterrupt):
            with replacing(str(path)) as partial:
                partial.write_text("half")
                raise KeyboardInterrupt
        assert path.read_bytes() == b"earlier run"
        assert not partial.exists()

    def test_failed_rename_removes_partial(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(IsADirectoryError):
            with replacing(tmp_path / "out") as partial:
                partial.write_text("whole")
        assert not partial.exists()


class TestPipelineConfig:
    def test_validate_accepts_good_config(self, pipeline_inputs, tmp_path):
        make_config(pipeline_inputs, tmp_path).validate()

    def test_sample_exceeding_window_rejected(self, pipeline_inputs, tmp_path):
        with pytest.raises(ConfigError):
            make_config(pipeline_inputs, tmp_path, sample=30, window=20).validate()

    def test_bad_side_rejected(self, pipeline_inputs, tmp_path):
        with pytest.raises(ConfigError):
            make_config(pipeline_inputs, tmp_path, side="both").validate()

    def test_missing_input_rejected(self, pipeline_inputs, tmp_path):
        cfg = make_config(pipeline_inputs, tmp_path, train_path=str(tmp_path / "nope.tsv"))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_nonpositive_pool_k_rejected(self, pipeline_inputs, tmp_path):
        with pytest.raises(ConfigError):
            make_config(pipeline_inputs, tmp_path, pool_k=0).validate()

    def test_negative_counts_rejected(self, pipeline_inputs, tmp_path):
        with pytest.raises(ConfigError):
            make_config(pipeline_inputs, tmp_path, discard_top=-1).validate()

    @pytest.mark.parametrize("field, value", [
        ("pool_k", "5"), ("oov_min_count", None), ("seed", 1.5), ("discard_top", False),
        ("max_n", 4.0), ("workers", True), ("train_path", 5), ("out_dir", None),
    ])
    def test_wrongly_typed_field_rejected(self, pipeline_inputs, tmp_path, field, value):
        with pytest.raises(ConfigError, match=field):
            replace(make_config(pipeline_inputs, tmp_path), **{field: value}).validate()

    @pytest.mark.parametrize("field, value", [("max_n", 0), ("seed", -1)])
    def test_out_of_range_field_rejected(self, pipeline_inputs, tmp_path, field, value):
        with pytest.raises(ConfigError, match=field):
            replace(make_config(pipeline_inputs, tmp_path), **{field: value}).validate()

    def test_parallel_workers_rejected_before_any_stage(self, pipeline_inputs, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="workers"):
            make_config(pipeline_inputs, out, workers=2).validate()
        with pytest.raises(ConfigError, match="workers"):
            run_pipeline(make_config(pipeline_inputs, out, workers=2))
        assert not out.exists()

    def test_from_json_round_trip(self, pipeline_inputs, tmp_path):
        cfg = make_config(pipeline_inputs, tmp_path / "out")
        blob = tmp_path / "cfg.json"
        blob.write_text(json.dumps(cfg.__dict__))
        loaded = PipelineConfig.from_json(blob)
        assert loaded == cfg

    def test_from_json_overrides_apply(self, pipeline_inputs, tmp_path):
        cfg = make_config(pipeline_inputs, tmp_path / "out")
        blob = tmp_path / "cfg.json"
        blob.write_text(json.dumps(cfg.__dict__))
        loaded = PipelineConfig.from_json(blob, seed=42, sample=None)
        assert loaded.seed == 42
        assert loaded.sample == cfg.sample  # None overrides are ignored

    def test_from_json_unknown_key_rejected(self, tmp_path):
        blob = tmp_path / "cfg.json"
        blob.write_text(json.dumps({"train_path": "x", "bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            PipelineConfig.from_json(blob)

    def test_from_json_missing_required_rejected(self, tmp_path):
        blob = tmp_path / "cfg.json"
        blob.write_text(json.dumps({"seed": 3}))
        with pytest.raises(ConfigError, match="incomplete"):
            PipelineConfig.from_json(blob)

    def test_from_json_invalid_json_rejected(self, tmp_path):
        blob = tmp_path / "cfg.json"
        blob.write_text("{not json")
        with pytest.raises(ConfigError):
            PipelineConfig.from_json(blob)

    def test_from_json_non_object_rejected(self, tmp_path):
        blob = tmp_path / "cfg.json"
        blob.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            PipelineConfig.from_json(blob)


_WORDS = [f"w{i}" for i in range(20)]
_TOP = 20  # pool examples of degree 1, ahead of every other


def _write_memory_inputs(directory: Path, pool_size: int) -> dict:
    """A train set of the windows of a cycle of 20 words, and a pool that
    starts with `_TOP` word pairs that are not train bigrams (degree 1) and
    goes on with 20-27-word windows of the cycle (degree at most 1/4 with
    n-grams up to 4): the candidates, and so the dump, do not depend on the
    pool size. Windows of 20 words or more make token tuples too long for
    the interpreter's tuple free lists, whose cached memory tracemalloc counts."""
    directory.mkdir()
    paths = {"train": directory / "train.tsv", "pool": directory / "pool.jsonl",
             "dump": directory / "dump.jsonl"}

    def window(start: int, n: int) -> str:
        return " ".join(_WORDS[(start + j) % 20] for j in range(n))

    with open(paths["train"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{window(i, 4)}\t{window(i, 4)}\n" for i in range(20) for _ in range(10))
    with open(paths["pool"], "w", encoding="utf-8") as fh:
        for i in range(pool_size):
            text = (f"{_WORDS[i % 20]} {_WORDS[(i + 2) % 20]}" if i < _TOP
                    else window(i, 20 + (i // 20) % 8))
            fh.write(json.dumps({"id": f"p{i}", "source": text, "target": text}) + "\n")
    with open(paths["dump"], "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"id": f"p{i}", "support": [["a", "b"]],
                                  "probs": [[[0.5, 0.5]], [[0.25, 0.75]]]}) + "\n"
                      for i in range(_TOP))
    return paths


class TestPoolMemory:
    def test_peak_memory_does_not_grow_with_the_pool(self, tmp_path, monkeypatch):
        # The pool is streamed in batches (64 here, so that both pools span
        # many), so a pool eight times larger costs only its ids' uniqueness
        # check: far less than holding the extra records. Train is freed
        # before the pool is read.
        monkeypatch.setattr(pipeline_mod, "_CHUNK", 64)
        train_refs: list[weakref.ref] = []
        real_load, real_filter = pipeline_mod.load_parallel_corpus, pipeline_mod.filter_oov

        def load(path, format=None):
            examples = real_load(path, format)
            train_refs.extend(weakref.ref(ex) for ex in examples)
            return examples

        def filter_oov(pool, counts, min_count):
            assert train_refs and all(ref() is None for ref in train_refs)
            return real_filter(pool, counts, min_count)

        monkeypatch.setattr(pipeline_mod, "load_parallel_corpus", load)
        monkeypatch.setattr(pipeline_mod, "filter_oov", filter_oov)

        def traced_peak(run) -> int:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 500
        inputs = {size: _write_memory_inputs(tmp_path / f"in{size}", size) for size in (n, 8 * n)}
        peaks = {}
        for size in (n, n, 8 * n):  # the first run also pays one-time costs
            config = make_config(inputs[size], tmp_path / f"out{size}", max_n=4,
                                 pool_k=_TOP, discard_top=0, window=_TOP, sample=5)
            peaks[size] = traced_peak(lambda: run_pipeline(config))
        assert _ids(tmp_path / f"out{n}" / "candidates.jsonl") == [f"p{i}" for i in range(_TOP)]
        held = {size: traced_peak(lambda: real_load(inputs[size]["pool"])) for size in (n, 8 * n)}
        assert peaks[8 * n] - peaks[n] < 0.25 * (held[8 * n] - held[n])

    def test_one_batch_is_alive_while_the_next_is_read(self, tmp_path, monkeypatch):
        # While batch i is read and OOV-filtered, the examples of earlier
        # batches still alive are the heap's `pool_k` and the one example
        # select_candidate_pool ranked last: the pass holds no earlier batch.
        monkeypatch.setattr(pipeline_mod, "_CHUNK", 64)
        refs: list[weakref.ref] = []  # the pool examples read so far
        real_iter, real_filter = pipeline_mod.iter_parallel_corpus, pipeline_mod.filter_oov

        def check(earlier: int) -> None:
            alive = sum(ref() is not None for ref in refs[:earlier])
            assert alive <= _TOP + 1, f"{alive} examples of earlier batches alive"

        def iter_parallel_corpus(path, format=None):
            for ex in real_iter(path, format):
                check(len(refs) - len(refs) % 64)
                refs.append(weakref.ref(ex))
                yield ex

        def filter_oov(batch, counts, min_count):
            check(len(refs) - len(batch))
            return real_filter(batch, counts, min_count)

        monkeypatch.setattr(pipeline_mod, "iter_parallel_corpus", iter_parallel_corpus)
        monkeypatch.setattr(pipeline_mod, "filter_oov", filter_oov)
        inputs = _write_memory_inputs(tmp_path / "in", 6 * 64)
        config = make_config(inputs, tmp_path / "out", max_n=4, pool_k=_TOP, discard_top=0,
                             window=_TOP, sample=5)
        run_pipeline(config)
        assert len(refs) == 6 * 64
        assert _ids(tmp_path / "out" / "candidates.jsonl") == [f"p{i}" for i in range(_TOP)]


class TestScorePool:
    def build(self):
        sentences = [["a", "b", "c"], ["b", "c"], ["a", "b"], ["c", "a", "b"]] * 3
        dictionary = build_ngram_dictionary(sentences, min_count=2, max_n=3)
        pool = [
            ParallelExample(str(i), ("a", "b"), ("a", "b", "c")[: 2 + i % 2])
            for i in range(30)
        ]
        return pool, dictionary

    def test_result_order_matches_pool_order(self):
        pool, dictionary = self.build()
        out = score_pool(pool, dictionary, workers=1)
        assert [ex.id for ex, _ in out] == [ex.id for ex in pool]

    @pytest.mark.parametrize("workers", [0, 2, 8])
    def test_other_worker_counts_rejected(self, workers):
        pool, dictionary = self.build()
        with pytest.raises(ConfigError, match="workers"):
            score_pool(pool, dictionary, workers=workers)


# Dump records, [member][position][support]; their mean reverse MIs (0,
# 0.035, 0.181, 0.109 and 0.071) are far apart and below 1, so equal records
# tie exactly and uncertainty.tsv's ten digits hold each to 1e-10.
_PALETTE = [
    [[[0.5, 0.5]], [[0.5, 0.5]]],
    [[[0.5, 0.5]], [[0.25, 0.75]]],
    [[[0.7, 0.2, 0.1], [0.6, 0.4]], [[0.2, 0.3, 0.5], [0.5, 0.5]],
     [[0.1, 0.1, 0.8], [0.9, 0.1]]],
    [[[0.9, 0.1], [0.3, 0.7]], [[0.6, 0.4], [0.8, 0.2]]],
    [[[0.2, 0.3, 0.5]], [[0.5, 0.3, 0.2]]],
]


def _pairs(words, max_size):
    sentence = st.lists(st.sampled_from(words), min_size=1, max_size=5).map(tuple)
    return st.lists(st.tuples(sentence, sentence), min_size=1, max_size=max_size)


@st.composite
def _corpora(draw):
    """Train pairs, and pool pairs with a palette index each. The pool repeats
    a few pairs, and the alphabet's last token occurs only in the pool."""
    alphabet = [f"t{i}" for i in range(draw(st.integers(4, 6)))]
    train = draw(_pairs(alphabet[:-1], 10))
    distinct = draw(_pairs(alphabet, 5))
    pool = draw(st.lists(st.tuples(st.sampled_from(distinct),
                                   st.integers(0, len(_PALETTE) - 1)), min_size=1, max_size=12))
    return train, pool


def _write_corpus(path: Path, examples, jsonl: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            source, target = " ".join(ex.source), " ".join(ex.target)
            fh.write(json.dumps({"id": ex.id, "source": source, "target": target}) + "\n"
                     if jsonl else f"{source}\t{target}\n")


def _ids(path: Path) -> list[str]:
    return [json.loads(line)["id"] for line in path.read_text(encoding="utf-8").splitlines()]


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


@settings(max_examples=60, deadline=None)
@given(corpora=_corpora(), jsonl=st.booleans(), side=st.sampled_from(["source", "target"]),
       oov_min_count=st.integers(0, 3), dict_min_count=st.integers(0, 3),
       max_n=st.none() | st.integers(1, 4), pool_k=st.integers(1, 14), seed=st.integers(0, 3),
       data=st.data())
def test_pipeline_matches_oracle_pipeline(corpora, jsonl, side, oov_min_count, dict_min_count,
                                          max_n, pool_k, seed, data):
    """Every artifact of run_pipeline, parsed, equals the naive pipeline's result."""
    train_pairs, pool_draws = corpora
    # A TSV corpus numbers its examples; JSONL ids come in shuffled order, so
    # that keeping pool order is not the same as sorting by id.
    ids = data.draw(st.permutations(range(len(pool_draws))), label="ids") if jsonl else None
    train = [OracleExample(str(i), *pair) for i, pair in enumerate(train_pairs)]
    pool = [OracleExample(f"e{ids[i]}" if jsonl else str(i), *pair)
            for i, (pair, _) in enumerate(pool_draws)]
    dump = {ex.id: _PALETTE[j] for ex, (_, j) in zip(pool, pool_draws)}
    expected = oracle_pipeline(train, pool, dump, side=side, oov_min_count=oov_min_count,
                               dict_min_count=dict_min_count, max_n=max_n, pool_k=pool_k)
    count = len(expected["candidates"])
    discard_top = data.draw(st.integers(0, count), label="discard_top")
    window = data.draw(st.integers(0, count - discard_top), label="window")
    sample = data.draw(st.integers(0, window), label="sample")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        suffix = ".jsonl" if jsonl else ".tsv"
        paths = {"train": tmp / f"train{suffix}", "pool": tmp / f"pool{suffix}",
                 "dump": tmp / "dump.jsonl"}
        _write_corpus(paths["train"], train, jsonl)
        _write_corpus(paths["pool"], pool, jsonl)
        paths["dump"].write_text("".join(
            json.dumps({"id": ex_id, "support": [["s"] * len(p) for p in probs[0]],
                        "probs": probs}) + "\n"
            for ex_id, probs in dump.items()), encoding="utf-8")
        out = tmp / "out"
        run_pipeline(make_config(
            paths, out, side=side, oov_min_count=oov_min_count, dict_min_count=dict_min_count,
            max_n=max_n, pool_k=pool_k, discard_top=discard_top, window=window, sample=sample,
            seed=seed))

        assert _ids(out / "pool_filtered.jsonl") == expected["filtered"]
        degrees = {ex_id: (int(atoms), int(length))
                   for ex_id, atoms, length, _ in _rows(out / "degrees.tsv")}
        assert degrees == expected["degrees"]
        assert _ids(out / "candidates.jsonl") == expected["candidates"]
        scores = {ex_id: float(score) for ex_id, score in _rows(out / "uncertainty.tsv")}
        assert scores == pytest.approx(expected["uncertainty"], abs=1e-10)
        chosen = band_select(expected["ranked"], discard_top, window, sample, seed)
        assert _ids(out / "testset.jsonl") == [ex.id for ex in chosen]


def test_tracer_targets_exist(monkeypatch):
    # perfbench/tracing.py wraps module-level names of the pipeline and the
    # engine; a rename breaks `perfbench/run.py --trace 1` and must fail here.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    for owner, attr, name, _ in tracing.PIPELINE_TARGETS + tracing.ENGINE_TARGETS:
        assert callable(getattr(owner, attr, None)), name
