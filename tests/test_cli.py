"""Command-line interface: subcommand behaviour and exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from compforge.cli import main
from compforge.corpus import load_parallel_corpus
from compforge.engine import ModelConfig, init_weights, save_weights
from compforge.pipeline import run_pipeline

from test_pipeline import make_config


@pytest.fixture
def sim_weights(tmp_path):
    """A saved model whose parameter set covers every variant."""
    cfg = ModelConfig(
        src_vocab=12,
        tgt_vocab=10,
        d_model=16,
        n_heads=4,
        encoder_layers=2,
        decoder_layers=2,
        k1=1,
        k2=1,
        max_src_positions=32,
        max_tgt_positions=32,
        variant="rdangle_sep",
        interval=2,
    )
    path = tmp_path / "model.npw"
    save_weights(path, init_weights(cfg, seed=0), cfg)
    return {"path": path, "cfg": cfg}


@pytest.fixture
def shr_only_weights(tmp_path):
    """Weights for the shared variant only (no plain encoder stack)."""
    cfg = ModelConfig(
        src_vocab=12, tgt_vocab=10, d_model=16, n_heads=4,
        max_src_positions=32, max_tgt_positions=32, variant="rdangle_shr",
    )
    path = tmp_path / "shr.npw"
    save_weights(path, init_weights(cfg, seed=0), cfg)
    return path


class TestStageCommands:
    def test_full_chain_matches_pipeline(self, pipeline_inputs, tmp_path, capsys):
        t = tmp_path
        paths = pipeline_inputs

        assert main([
            "build-dict", "--train", str(paths["train"]),
            "--min-count", "2", "--max-n", "4", "--out", str(t / "d.ngix"),
        ]) == 0
        assert "stored" in capsys.readouterr().out

        assert main([
            "filter-oov", "--train", str(paths["train"]), "--pool", str(paths["pool"]),
            "--min-count", "3", "--out", str(t / "filtered.jsonl"),
        ]) == 0
        assert len(load_parallel_corpus(t / "filtered.jsonl")) == 53

        assert main([
            "comp-degree", "--dict", str(t / "d.ngix"), "--pool", str(t / "filtered.jsonl"),
            "--out", str(t / "degrees.tsv"),
        ]) == 0
        lines = (t / "degrees.tsv").read_text().splitlines()
        assert len(lines) == 53
        assert all(len(line.split("\t")) == 4 for line in lines)

        assert main([
            "select-pool", "--pool", str(t / "filtered.jsonl"),
            "--scores", str(t / "degrees.tsv"), "--k", "40",
            "--out", str(t / "cands.jsonl"),
        ]) == 0
        candidates = load_parallel_corpus(t / "cands.jsonl")
        assert len(candidates) == 40

        assert main([
            "uncertainty-score", "--dump", str(paths["dump"]),
            "--out", str(t / "unc.tsv"),
        ]) == 0
        assert len((t / "unc.tsv").read_text().splitlines()) == 60

        assert main([
            "sample-testset", "--pool", str(t / "cands.jsonl"),
            "--scores", str(t / "unc.tsv"), "--discard-top", "3",
            "--window", "20", "--sample", "5", "--seed", "0",
            "--out", str(t / "test.jsonl"),
        ]) == 0
        chained = [ex.id for ex in load_parallel_corpus(t / "test.jsonl")]
        assert len(chained) == 5
        assert set(chained) <= {ex.id for ex in candidates}

        # the same parameters through the one-shot pipeline select the same set
        manifest_out = t / "pipe"
        run_pipeline(make_config(paths, manifest_out))
        direct = [ex.id for ex in load_parallel_corpus(manifest_out / "testset.jsonl")]
        assert chained == direct

    def test_select_pool_warning_on_small_pool(self, pipeline_inputs, tmp_path, capsys):
        t = tmp_path
        main(["build-dict", "--train", str(pipeline_inputs["train"]),
              "--min-count", "2", "--max-n", "4", "--out", str(t / "d.ngix")])
        main(["comp-degree", "--dict", str(t / "d.ngix"),
              "--pool", str(pipeline_inputs["pool"]), "--out", str(t / "deg.tsv")])
        capsys.readouterr()
        assert main([
            "select-pool", "--pool", str(pipeline_inputs["pool"]),
            "--scores", str(t / "deg.tsv"), "--k", "500", "--out", str(t / "c.jsonl"),
        ]) == 0
        assert "warning" in capsys.readouterr().err

    def test_analyze_novelty(self, pipeline_inputs, tmp_path, capsys):
        t = tmp_path
        train_corpus = load_parallel_corpus(pipeline_inputs["train"])
        test_corpus = train_corpus[:10]

        def write_tagged(examples, path):
            with open(path, "w", encoding="utf-8") as fh:
                for ex in examples:
                    for tok in ex.target:
                        fh.write(f"{tok}\tTOK\n")
                    fh.write("\n")

        write_tagged(train_corpus, t / "train.tags")
        write_tagged(test_corpus, t / "test.tags")
        test_path = t / "test.tsv"
        with open(test_path, "w", encoding="utf-8") as fh:
            for ex in test_corpus:
                s = " ".join(ex.source)
                fh.write(f"{s}\t{s}\n")
        main(["build-dict", "--train", str(pipeline_inputs["train"]),
              "--min-count", "2", "--max-n", "4", "--out", str(t / "d.ngix")])
        capsys.readouterr()
        assert main([
            "analyze-novelty", "--train", str(pipeline_inputs["train"]),
            "--test", str(test_path),
            "--tagged-train", str(t / "train.tags"), "--tagged-test", str(t / "test.tags"),
            "--dict", str(t / "d.ngix"), "--out", str(t / "report.json"),
        ]) == 0
        report = json.loads((t / "report.json").read_text())
        assert report["n_examples"] == 10
        # test sentences all appear in training: nothing novel
        assert all(v == 0 for v in report["novel_word_ngrams"].values())
        assert json.loads(capsys.readouterr().out) == report


class TestRunPipelineCommand:
    def write_config(self, paths, out_dir, tmp_path, **overrides):
        cfg = make_config(paths, out_dir, **overrides)
        blob = tmp_path / "pipeline.json"
        blob.write_text(json.dumps(cfg.__dict__))
        return blob

    def test_runs_and_reports_stages(self, pipeline_inputs, tmp_path, capsys):
        out = tmp_path / "out"
        blob = self.write_config(pipeline_inputs, out, tmp_path)
        assert main(["run-pipeline", "--config", str(blob)]) == 0
        stdout = capsys.readouterr().out
        for stage in ("filter_oov", "sample_testset"):
            assert stage in stdout
        assert (out / "manifest.json").is_file()

    def test_out_dir_flag_overrides(self, pipeline_inputs, tmp_path):
        blob = self.write_config(pipeline_inputs, tmp_path / "ignored", tmp_path)
        elsewhere = tmp_path / "elsewhere"
        assert main(["run-pipeline", "--config", str(blob), "--out-dir", str(elsewhere)]) == 0
        assert (elsewhere / "testset.jsonl").is_file()
        assert not (tmp_path / "ignored").exists()

    def test_seed_flag_changes_sample(self, pipeline_inputs, tmp_path):
        blob = self.write_config(pipeline_inputs, tmp_path / "a", tmp_path)
        assert main(["run-pipeline", "--config", str(blob)]) == 0
        blob2 = self.write_config(pipeline_inputs, tmp_path / "b", tmp_path)
        assert main(["run-pipeline", "--config", str(blob2), "--seed", "9"]) == 0
        a = (tmp_path / "a" / "testset.jsonl").read_bytes()
        b = (tmp_path / "b" / "testset.jsonl").read_bytes()
        assert a != b

    def test_invalid_config_exits_2(self, pipeline_inputs, tmp_path, capsys):
        blob = self.write_config(
            pipeline_inputs, tmp_path / "out", tmp_path, sample=50, window=20
        )
        assert main(["run-pipeline", "--config", str(blob)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parallel_workers_exit_2(self, pipeline_inputs, tmp_path, capsys):
        blob = self.write_config(pipeline_inputs, tmp_path / "out", tmp_path, workers=4)
        assert main(["run-pipeline", "--config", str(blob)]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("changes", [{"pool_k": "5"}, {"oov_min_count": None}],
                             ids=["pool_k-string", "oov_min_count-null"])
    def test_wrongly_typed_value_exits_2(self, pipeline_inputs, tmp_path, capsys, changes):
        blob = self.write_config(pipeline_inputs, tmp_path / "out", tmp_path)
        blob.write_text(json.dumps({**json.loads(blob.read_text()), **changes}))
        assert main(["run-pipeline", "--config", str(blob)]) == 2
        err = capsys.readouterr().err
        assert next(iter(changes)) in err and "Traceback" not in err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run-pipeline", "--config", str(tmp_path / "nope.json")]) == 2

    def test_stage_failure_exits_3(self, pipeline_inputs, tmp_path):
        pipeline_inputs["dump"].write_text("")
        blob = self.write_config(pipeline_inputs, tmp_path / "out", tmp_path)
        assert main(["run-pipeline", "--config", str(blob)]) == 3


class TestSimulate:
    def write_sources(self, tmp_path, rows=("3 5 7", "2 4")):
        path = tmp_path / "sources.txt"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_decodes_each_line(self, sim_weights, tmp_path, capsys):
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(sim_weights["path"]),
                     "--input", str(src), "--max-len", "6"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 2
        for line in out_lines:
            ids = [int(tok) for tok in line.split()]
            assert 1 <= len(ids) <= 6
            assert all(0 <= i < sim_weights["cfg"].tgt_vocab for i in ids)

    def test_trace_records_steps(self, sim_weights, tmp_path, capsys):
        src = self.write_sources(tmp_path, rows=("3 5 7",))
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "--weights", str(sim_weights["path"]),
                     "--input", str(src), "--max-len", "5",
                     "--trace", str(trace)]) == 0
        stdout_tokens = [int(t) for t in capsys.readouterr().out.split()]
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["token"] for r in records] == stdout_tokens
        assert [r["step"] for r in records] == list(range(1, len(records) + 1))
        for r in records:
            assert set(r) == {"sequence", "step", "point", "key_hash", "value_hash", "token"}
            assert r["sequence"] == 0

    def test_variant_override_changes_trace(self, sim_weights, tmp_path, capsys):
        src = self.write_sources(tmp_path, rows=("3 5 7",))
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "--weights", str(sim_weights["path"]),
                     "--input", str(src), "--variant", "vanilla",
                     "--max-len", "5", "--trace", str(trace)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert all(r["point"] is None for r in records)
        assert all(r["key_hash"] == r["value_hash"] for r in records)

    def test_interval_inf_accepted(self, sim_weights, tmp_path, capsys):
        src = self.write_sources(tmp_path, rows=("3 5 7",))
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "--weights", str(sim_weights["path"]),
                     "--input", str(src), "--variant", "rdangle_shr",
                     "--interval", "inf", "--max-len", "5",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert all(r["point"] == 1 for r in records)
        assert len({r["key_hash"] for r in records}) == 1

    def test_bad_interval_exits_2(self, sim_weights, tmp_path):
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(sim_weights["path"]),
                     "--input", str(src), "--interval", "soon"]) == 2

    def test_weights_without_config_exit_2(self, tmp_path):
        cfg = ModelConfig(src_vocab=12, tgt_vocab=10, d_model=16, n_heads=4,
                          max_src_positions=32, max_tgt_positions=32)
        bare = tmp_path / "bare.npw"
        save_weights(bare, init_weights(cfg, seed=0))
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(bare), "--input", str(src)]) == 2

    def test_variant_needing_missing_stack_exits_2(self, shr_only_weights, tmp_path, capsys):
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(shr_only_weights),
                     "--input", str(src), "--variant", "vanilla"]) == 2
        assert "no parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [
        {"shapes": {}, "config": None},
        {"names": ["a"], "shapes": {"a": "two"}, "config": None},
    ])
    def test_bad_weights_header_exits_3(self, tmp_path, capsys, header):
        blob = json.dumps(header).encode()
        bad = tmp_path / "bad.npw"
        bad.write_bytes(struct.pack("<I", len(blob)) + blob)
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(bad), "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert "weights header" in err and "Traceback" not in err

    def test_trailing_weights_bytes_exit_3(self, sim_weights, tmp_path, capsys):
        padded = tmp_path / "padded.npw"
        padded.write_bytes(sim_weights["path"].read_bytes() + b"\0\0\0\0")
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(padded), "--input", str(src)]) == 3
        assert "header and blobs span" in capsys.readouterr().err

    def test_non_integer_tokens_exit_3(self, sim_weights, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 five 7\n")
        assert main(["simulate", "--weights", str(sim_weights["path"]),
                     "--input", str(bad)]) == 3

    def test_empty_input_exits_3(self, sim_weights, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        assert main(["simulate", "--weights", str(sim_weights["path"]),
                     "--input", str(empty)]) == 3

    def test_out_of_vocab_source_exits_2(self, sim_weights, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("3 99\n")
        assert main(["simulate", "--weights", str(sim_weights["path"]),
                     "--input", str(src)]) == 2


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["build-dict", "--train", "x.tsv"]) == 2
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "compforge" in capsys.readouterr().out

    def test_missing_input_file_exits_2(self, tmp_path):
        assert main(["build-dict", "--train", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "d.ngix")]) == 2

    def test_comp_degree_has_no_workers_flag(self, pipeline_inputs, tmp_path, capsys):
        assert main(["comp-degree", "--dict", str(tmp_path / "d.ngix"),
                     "--pool", str(pipeline_inputs["pool"]), "--workers", "2",
                     "--out", str(tmp_path / "deg.tsv")]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_malformed_dictionary_exits_3(self, pipeline_inputs, tmp_path):
        junk = tmp_path / "junk.ngix"
        junk.write_bytes(b"not a dictionary")
        assert main(["comp-degree", "--dict", str(junk),
                     "--pool", str(pipeline_inputs["pool"]),
                     "--out", str(tmp_path / "deg.tsv")]) == 3

    def test_scores_missing_ids_exit_3(self, pipeline_inputs, tmp_path, capsys):
        scores = tmp_path / "deg.tsv"
        scores.write_text("p0\t1\t2\t0.5\n")  # only one of sixty
        assert main(["select-pool", "--pool", str(pipeline_inputs["pool"]),
                     "--scores", str(scores), "--k", "5",
                     "--out", str(tmp_path / "c.jsonl")]) == 3
        assert "missing from scores" in capsys.readouterr().err

    def test_malformed_dump_exits_3(self, tmp_path):
        dump = tmp_path / "dump.jsonl"
        dump.write_text("{broken\n")
        assert main(["uncertainty-score", "--dump", str(dump),
                     "--out", str(tmp_path / "u.tsv")]) == 3

    def test_sample_larger_than_window_exits_2(self, pipeline_inputs, tmp_path):
        scores = tmp_path / "u.tsv"
        with open(scores, "w") as fh:
            for i in range(60):
                fh.write(f"p{i}\t0.5\n")
        assert main(["sample-testset", "--pool", str(pipeline_inputs["pool"]),
                     "--scores", str(scores), "--discard-top", "0",
                     "--window", "10", "--sample", "20",
                     "--out", str(tmp_path / "t.jsonl")]) == 2


class TestMalformedScores:
    """Malformed score TSV rows exit 3 and name the offending path:line."""

    @pytest.mark.parametrize("row", [
        "p0\t1\ttwo\t0.5",   # non-integer length
        "p0\t1.0\t2\t0.5",   # non-integer atom_count
        "p0\t1\t0\t0.5",     # length 0
        "p0\t0\t2\t0.0",     # atom_count below 1
        "p0\t3\t2\t1.5",     # atom_count above length
    ])
    def test_bad_degree_row_exits_3(self, pipeline_inputs, tmp_path, capsys, row):
        scores = tmp_path / "deg.tsv"
        scores.write_text(f"\n{row}\n")
        assert main(["select-pool", "--pool", str(pipeline_inputs["pool"]),
                     "--scores", str(scores), "--k", "5",
                     "--out", str(tmp_path / "c.jsonl")]) == 3
        err = capsys.readouterr().err
        assert f"{scores}:2]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("score", ["abc", "nan", "inf", "-inf", ""])
    def test_bad_uncertainty_score_exits_3(self, pipeline_inputs, tmp_path, capsys, score):
        scores = tmp_path / "u.tsv"
        scores.write_text(f"p0\t0.5\np1\t{score}\n")
        assert main(["sample-testset", "--pool", str(pipeline_inputs["pool"]),
                     "--scores", str(scores), "--discard-top", "0",
                     "--window", "10", "--sample", "5",
                     "--out", str(tmp_path / "t.jsonl")]) == 3
        err = capsys.readouterr().err
        assert f"{scores}:2]" in err
        assert "Traceback" not in err


class TestMalformedInputs:
    """Corrupt dictionaries, non-finite probabilities and non-UTF-8 text exit 3."""

    def test_bad_dictionary_header_exits_3(self, pipeline_inputs, tmp_path, capsys):
        index = tmp_path / "d.ngix"
        assert main(["build-dict", "--train", str(pipeline_inputs["train"]),
                     "--out", str(index)]) == 0
        index.write_bytes(index.read_bytes().replace(b"{", b"[", 1))
        capsys.readouterr()
        assert main(["comp-degree", "--dict", str(index),
                     "--pool", str(pipeline_inputs["pool"]),
                     "--out", str(tmp_path / "deg.tsv")]) == 3
        err = capsys.readouterr().err
        assert "header" in err and "Traceback" not in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_exits_3(self, tmp_path, capsys, bad):
        dump = tmp_path / "dump.jsonl"
        record = {"id": "p0", "support": [["a", "b"]], "probs": [[[0.5, 0.5]], [[bad, 0.5]]]}
        dump.write_text(json.dumps(record) + "\n")
        assert main(["uncertainty-score", "--dump", str(dump),
                     "--out", str(tmp_path / "u.tsv")]) == 3
        err = capsys.readouterr().err
        assert f"{dump}:1]" in err and "Traceback" not in err

    @pytest.mark.parametrize("changes", [
        {"probs": [[[0.5, 0.5]], [["q", 0.5]]]},
        {"tokens": 5},
        {"probs": [[[0.5, 0.5]], 7]},
    ], ids=["non-numeric-probability", "tokens-not-a-list", "positions-not-a-list"])
    def test_bad_dump_value_exits_3(self, tmp_path, capsys, changes):
        dump = tmp_path / "dump.jsonl"
        record = {"id": "p0", "tokens": ["a"], "support": [["a", "b"]],
                  "probs": [[[0.5, 0.5]], [[0.25, 0.75]]]}
        dump.write_text("\n" + json.dumps({**record, **changes}) + "\n")
        assert main(["uncertainty-score", "--dump", str(dump),
                     "--out", str(tmp_path / "u.tsv")]) == 3
        err = capsys.readouterr().err
        assert f"{dump}:2]" in err and "Traceback" not in err

    def test_weights_not_matching_their_config_exit_3(self, sim_weights, tmp_path, capsys):
        cfg = sim_weights["cfg"]
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(cfg, seed=0), dataclasses.replace(cfg, d_model=32))
        src = tmp_path / "src.txt"
        src.write_text("3 5 7\n")
        assert main(["simulate", "--weights", str(path), "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert "do not match their config" in err and "Traceback" not in err

    def test_invalid_stored_config_exits_3(self, sim_weights, tmp_path, capsys):
        path = tmp_path / "model.npw"
        raw = sim_weights["path"].read_bytes()
        assert b'"n_heads": 4' in raw
        path.write_bytes(raw.replace(b'"n_heads": 4', b'"n_heads": 0', 1))
        src = tmp_path / "src.txt"
        src.write_text("3 5 7\n")
        assert main(["simulate", "--weights", str(path), "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert "n_heads" in err and "Traceback" not in err

    def test_float_geometry_in_stored_config_exits_3(self, sim_weights, tmp_path, capsys):
        path = tmp_path / "model.npw"
        path.write_bytes(_with_stored_config(sim_weights["path"].read_bytes(), d_model=16.0))
        src = tmp_path / "src.txt"
        src.write_text("3 5 7\n")
        assert main(["simulate", "--weights", str(path), "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert "d_model" in err and "Traceback" not in err

    def test_deleted_config_field_exits_3(self, sim_weights, tmp_path, capsys):
        # Weights saved with a layout option the engine no longer has are
        # rejected rather than decoded with the option silently dropped.
        path = tmp_path / "model.npw"
        path.write_bytes(_with_stored_config(sim_weights["path"].read_bytes(),
                                             use_positions=True))
        src = tmp_path / "src.txt"
        src.write_text("3 5 7\n")
        assert main(["simulate", "--weights", str(path), "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert "error:" in err and "use_positions" in err and "Traceback" not in err

    # One JSON reader per row; {deep} is a file whose JSON the parser cannot
    # take: nested too deeply, or an integer too long to convert.
    @pytest.mark.parametrize("text", [b"[" * 200_000, b"1" * 5_000], ids=["nested", "long-int"])
    @pytest.mark.parametrize("command, code", [
        (["filter-oov", "--train", "{train}", "--pool", "{deep}.jsonl", "--out", "{out}"], 3),
        (["uncertainty-score", "--dump", "{deep}.jsonl", "--out", "{out}"], 3),
        (["run-pipeline", "--config", "{deep}.jsonl"], 2),
        (["simulate", "--weights", "{deep}.bin", "--input", "{train}"], 3),
    ], ids=["corpus", "dump", "pipeline-config", "weights-header"])
    def test_unparsable_json_exits_cleanly(self, pipeline_inputs, tmp_path, capsys,
                                           command, code, text):
        deep = tmp_path / "deep"
        Path(f"{deep}.jsonl").write_bytes(text + b"\n")
        Path(f"{deep}.bin").write_bytes(struct.pack("<I", len(text)) + text)
        paths = {"deep": deep, "train": pipeline_inputs["train"], "out": tmp_path / "out"}
        assert main([arg.format(**paths) for arg in command]) == code
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    # One command per text reader; {bad} is a file holding a non-UTF-8 byte.
    @pytest.mark.parametrize("command", [
        ["filter-oov", "--train", "{bad}", "--pool", "{pool}", "--out", "{out}"],
        ["select-pool", "--pool", "{pool}", "--scores", "{bad}", "--out", "{out}"],
        ["sample-testset", "--pool", "{pool}", "--scores", "{bad}", "--out", "{out}"],
        ["uncertainty-score", "--dump", "{bad}", "--out", "{out}"],
        ["analyze-novelty", "--train", "{train}", "--test", "{train}", "--tagged-train", "{bad}",
         "--tagged-test", "{bad}", "--dict", "{out}", "--out", "{out}"],
        ["simulate", "--weights", "{weights}", "--input", "{bad}"],
    ], ids=["corpus", "degree-tsv", "uncertainty-tsv", "dump", "tagged", "simulate-input"])
    def test_non_utf8_text_exits_3(self, pipeline_inputs, sim_weights, tmp_path, capsys,
                                   command):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"p0\t1\n\xff\t2\n")
        paths = {"bad": bad, "pool": pipeline_inputs["pool"], "train": pipeline_inputs["train"],
                 "weights": sim_weights["path"], "out": tmp_path / "out"}
        assert main([arg.format(**paths) for arg in command]) == 3
        err = capsys.readouterr().err
        assert "not UTF-8" in err and str(bad) in err and "Traceback" not in err


_FUZZ_IDS = ("p0", "p1", "p2")
_fuzz_line = st.one_of(
    st.text(max_size=30),
    st.builds("\t".join, st.lists(st.one_of(st.sampled_from(_FUZZ_IDS), st.text(max_size=6),
                                            st.integers(-3, 9).map(str),
                                            st.floats().map(str)), max_size=5)),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_fuzz_line, max_size=8))
def test_fuzzed_score_files_exit_0_or_3(lines):
    # Whatever text the --scores file holds, select-pool and sample-testset
    # either succeed or report a data error; they never crash.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        pool = tmp / "pool.jsonl"
        pool.write_text("".join(
            json.dumps({"id": ex_id, "source": f"a {ex_id}", "target": f"b {ex_id}"}) + "\n"
            for ex_id in _FUZZ_IDS
        ))
        scores = tmp / "scores.tsv"
        scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
        commands = [
            ["select-pool", "--k", "2"],
            ["sample-testset", "--discard-top", "0", "--window", "3", "--sample", "2"],
        ]
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(command + ["--pool", str(pool), "--scores", str(scores),
                                       "--out", str(tmp / "out.jsonl")])
            assert code in (0, 3), err.getvalue()
            assert "Traceback" not in err.getvalue()


def _corrupt(raw: bytes, truncate: bool, at: int, byte: int) -> bytes:
    """`raw` cut to `at` bytes, or with byte `at` replaced by `byte`."""
    assume(truncate or byte != raw[at])
    return raw[:at] if truncate else raw[:at] + bytes([byte]) + raw[at + 1 :]


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _saved_model() -> bytes:
    cfg = ModelConfig(src_vocab=12, tgt_vocab=10, d_model=8, n_heads=2, k1=1, k2=1,
                      max_src_positions=16, max_tgt_positions=16,
                      variant="rdangle_sep", interval=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_weights(path, init_weights(cfg, seed=0), cfg)
        return path.read_bytes()


def _with_stored_config(raw: bytes, **changes) -> bytes:
    """A saved model whose header config has `changes` applied."""
    end = 4 + struct.unpack_from("<I", raw)[0]
    header = json.loads(raw[4:end])
    header["config"].update(changes)
    blob = json.dumps(header, sort_keys=True).encode()
    return struct.pack("<I", len(blob)) + blob + raw[end:]


_MODEL = _saved_model()
_MODEL_HEADER_END = 4 + struct.unpack_from("<I", _MODEL)[0]


# Half the offsets fall in the JSON header, where a changed byte is most likely
# to leave a readable file that describes other weights. The two examples are
# a config whose d_model no longer matches the blobs, and one with no heads.
# A changed blob byte can make a weight huge, so decoding may overflow.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(truncate=st.booleans(),
       at=st.one_of(st.integers(0, _MODEL_HEADER_END - 1), st.integers(0, len(_MODEL) - 1)),
       byte=st.integers(0, 255))
@example(truncate=False, at=_MODEL.index(b'"d_model": 8') + 11, byte=ord("4"))
@example(truncate=False, at=_MODEL.index(b'"n_heads": 2') + 11, byte=ord("0"))
def test_corrupted_weights_exit_0_2_or_3(truncate, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        weights, src = Path(tmp) / "model.bin", Path(tmp) / "src.txt"
        weights.write_bytes(_corrupt(_MODEL, truncate, at, byte))
        src.write_text("3 5 7\n")
        code, err = _run_quietly(["simulate", "--weights", str(weights), "--input", str(src),
                                  "--max-len", "4"])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    assert code == 0 or "error:" in err


_DUMP_LINE = json.dumps({
    "id": "p0", "tokens": ["a", "b"], "support": [["a", "c", "<other>"], ["b", "<other>"]],
    "probs": [[[0.5, 0.25, 0.25], [0.75, 0.25]], [[0.125, 0.5, 0.375], [1.0, 0.0]]],
}, sort_keys=True).encode()


@settings(max_examples=200, deadline=None)
@given(truncate=st.booleans(), at=st.integers(0, len(_DUMP_LINE) - 1),
       byte=st.integers(0, 255))
def test_corrupted_dump_line_exits_0_2_or_3(truncate, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "dump.jsonl"
        dump.write_bytes(_corrupt(_DUMP_LINE, truncate, at, byte) + b"\n")
        code, err = _run_quietly(["uncertainty-score", "--dump", str(dump),
                                  "--out", str(Path(tmp) / "u.tsv")])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    assert code == 0 or "error:" in err


_TRAIN_TSV = "".join(f"{s}\t{t}\n" for s, t in [
    ("a b c", "x y z"), ("b c", "y z"), ("a b", "x y"), ("c a b", "z x y"), ("a c", "x z"),
]).encode()
_POOL_JSONL = b"".join(
    json.dumps({"id": f"p{i}", "source": s, "target": t, "meta": {"n": i}}).encode() + b"\n"
    for i, (s, t) in enumerate([("a b", "x y"), ("c", "z w"), ("b c a", "y z x")])
)


# build-dict reads the corrupted corpus as TSV training data, filter-oov as a
# JSONL pool; a still-valid corpus may succeed.
@settings(max_examples=200, deadline=None)
@given(jsonl=st.booleans(), truncate=st.booleans(), data=st.data(), byte=st.integers(0, 255))
def test_corrupted_corpus_exits_0_2_or_3(jsonl, truncate, data, byte):
    raw = _POOL_JSONL if jsonl else _TRAIN_TSV
    corrupted = _corrupt(raw, truncate, data.draw(st.integers(0, len(raw) - 1)), byte)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        train, pool = tmp / "train.tsv", tmp / "pool.jsonl"
        if jsonl:
            train.write_bytes(_TRAIN_TSV)
            pool.write_bytes(corrupted)
            argv = ["filter-oov", "--train", str(train), "--pool", str(pool), "--min-count", "1"]
        else:
            train.write_bytes(corrupted)
            argv = ["build-dict", "--train", str(train), "--min-count", "1"]
        code, err = _run_quietly(argv + ["--out", str(tmp / "out")])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    assert code == 0 or "error:" in err


def test_interval_parsing_round_trip():
    from compforge.cli import _parse_interval

    assert _parse_interval("3") == 3
    assert _parse_interval("inf") == math.inf
    assert _parse_interval("Infinity") == math.inf
