"""Six-stage pipeline: artifacts, manifest, determinism, failure marking."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import compforge.pipeline as pipeline_mod
from compforge.corpus import load_parallel_corpus
from compforge.errors import ConfigError, StageError
from compforge.ngrams import NGramDictionary, build_ngram_dictionary
from compforge.pipeline import (
    PipelineConfig,
    run_pipeline,
    score_pool,
)

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

    def test_manifest_json_is_stable(self, pipeline_inputs, tmp_path):
        out = tmp_path / "out"
        manifest = run_pipeline(make_config(pipeline_inputs, out))
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["stages"] == manifest.stages
        assert on_disk["metadata"]["rmi_formula"].startswith("mean over members")


class TestFailureHandling:
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
        assert "missing from ensemble dump" in str(err.value)

    def test_malformed_train_names_load_stage(self, pipeline_inputs, tmp_path):
        with open(pipeline_inputs["train"], "a", encoding="utf-8") as fh:
            fh.write("only one field\n")
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(pipeline_inputs, tmp_path / "out"))
        assert err.value.stage == "load_inputs"

    def test_aborted_stage_leaves_partial_marker(
        self, pipeline_inputs, tmp_path, monkeypatch
    ):
        real_writer = pipeline_mod.save_corpus_jsonl

        def explode(examples, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"half": "written"}\n')
            raise pipeline_mod.DataError("disk full")

        monkeypatch.setattr(pipeline_mod, "save_corpus_jsonl", explode)
        out = tmp_path / "out"
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(pipeline_inputs, out))
        assert err.value.stage == "filter_oov"
        assert (out / "pool_filtered.jsonl.partial").is_file()
        assert not (out / "pool_filtered.jsonl").exists()
        monkeypatch.setattr(pipeline_mod, "save_corpus_jsonl", real_writer)

    def test_stage_error_preserves_cause(self, pipeline_inputs, tmp_path):
        pipeline_inputs["dump"].write_text("not json\n")
        with pytest.raises(StageError) as err:
            run_pipeline(make_config(pipeline_inputs, tmp_path / "out"))
        assert err.value.__cause__ is not None


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


class TestScorePool:
    def build(self):
        sentences = [["a", "b", "c"], ["b", "c"], ["a", "b"], ["c", "a", "b"]] * 3
        dictionary = build_ngram_dictionary(sentences, min_count=2, max_n=3)
        from compforge.corpus import ParallelExample

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
