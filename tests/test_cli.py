"""Command-line interface: subcommand behaviour and exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import compforge.cli as cli
from compforge.cli import main
from compforge.corpus import load_parallel_corpus
from compforge.engine import VARIANTS, ModelConfig, greedy_decode, init_weights, save_weights
from compforge.errors import CompforgeError, ConfigError, DataError, StageError
from compforge.ngrams import NGramDictionary
from compforge.pipeline import PipelineConfig, run_pipeline

from test_pipeline import ARTIFACTS, make_config


@pytest.fixture
def sim_weights(tmp_path):
    """A saved rdangle_sep model."""
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
def reader_inputs(pipeline_inputs, sim_weights, tmp_path):
    """A readable file for every input kind in `_READERS`."""
    paths = dict(pipeline_inputs, weights=sim_weights["path"], dict=tmp_path / "d.ngix",
                 degrees=tmp_path / "degrees.tsv", uncertainty=tmp_path / "unc.tsv",
                 tagged=tmp_path / "train.tags", sources=tmp_path / "sources.txt",
                 config=tmp_path / "pipeline.json")
    for argv in (["build-dict", "--train", "{train}", "--out", "{dict}"],
                 ["comp-degree", "--dict", "{dict}", "--pool", "{pool}", "--out", "{degrees}"],
                 ["uncertainty-score", "--dump", "{dump}", "--out", "{uncertainty}"]):
        assert _run_quietly([arg.format(**paths) for arg in argv])[0] == 0
    paths["tagged"].write_text("w1\tTOK\nw2\tTOK\n\n", encoding="utf-8")
    paths["sources"].write_text("3 5 7\n", encoding="utf-8")
    paths["config"].write_text(json.dumps(make_config(pipeline_inputs, tmp_path).__dict__))
    return paths


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

        # the same parameters through the one-shot pipeline write the same artifacts
        pipe = t / "pipe"
        run_pipeline(make_config(paths, pipe))
        for chained_file, artifact in (("d.ngix", "ngrams.ngix"),
                                       ("filtered.jsonl", "pool_filtered.jsonl"),
                                       ("degrees.tsv", "degrees.tsv"),
                                       ("cands.jsonl", "candidates.jsonl"),
                                       ("test.jsonl", "testset.jsonl")):
            assert (t / chained_file).read_bytes() == (pipe / artifact).read_bytes(), artifact
        # uncertainty-score scores the whole dump; the pipeline only the candidates
        rows = {line.split("\t")[0]: line for line in (t / "unc.tsv").read_text().splitlines()}
        assert (pipe / "uncertainty.tsv").read_text().splitlines() == [
            rows[ex.id] for ex in candidates
        ]

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
        captured = capsys.readouterr()
        assert ("warning: requested k=500 but only 57 deduplicated examples available"
                in captured.err)
        assert captured.out == f"selected 57 of 60 scored -> {t / 'c.jsonl'}\n"

    @pytest.mark.parametrize("command", ["filter-oov", "comp-degree", "select-pool"])
    def test_pool_broken_at_its_end_leaves_no_out_file(
        self, pipeline_inputs, tmp_path, capsys, monkeypatch, command
    ):
        # Batches of 8, so that the stage has written output before it reads the bad line.
        monkeypatch.setattr(cli, "_CHUNK", 8)
        t = tmp_path
        main(["build-dict", "--train", str(pipeline_inputs["train"]), "--out", str(t / "d.ngix")])
        main(["comp-degree", "--dict", str(t / "d.ngix"),
              "--pool", str(pipeline_inputs["pool"]), "--out", str(t / "deg.tsv")])
        pool = t / "broken.jsonl"
        pool.write_text(pipeline_inputs["pool"].read_text() + "{broken\n")
        flags = {"filter-oov": ["--train", str(pipeline_inputs["train"])],
                 "comp-degree": ["--dict", str(t / "d.ngix")],
                 "select-pool": ["--scores", str(t / "deg.tsv")]}[command]
        capsys.readouterr()
        assert main([command, *flags, "--pool", str(pool), "--out", str(t / "out")]) == 3
        assert f"{pool}:61]" in capsys.readouterr().err
        assert not (t / "out").exists() and not (t / "out.partial").exists()

    def test_select_pool_rejects_degrees_of_the_other_side(self, pipeline_inputs, tmp_path,
                                                           capsys):
        # Every source sentence is its target plus one token, so a degree row
        # scored on the source side has the wrong length for the target side.
        t = tmp_path
        pool = t / "sides.jsonl"
        with open(pool, "w", encoding="utf-8") as fh:
            for ex in load_parallel_corpus(pipeline_inputs["pool"]):
                record = {"id": ex.id, "source": " ".join(ex.target + ("w0",)),
                          "target": " ".join(ex.target)}
                fh.write(json.dumps(record) + "\n")
        main(["build-dict", "--train", str(pipeline_inputs["train"]), "--side", "source",
              "--out", str(t / "d.ngix")])
        main(["comp-degree", "--dict", str(t / "d.ngix"), "--side", "source",
              "--pool", str(pool), "--out", str(t / "deg.tsv")])
        capsys.readouterr()
        select = ["select-pool", "--pool", str(pool), "--scores", str(t / "deg.tsv"),
                  "--k", "5", "--out", str(t / "c.jsonl")]
        assert main([*select, "--side", "target"]) == 3
        err = capsys.readouterr().err
        length = len(load_parallel_corpus(pool)[0].target)
        assert (f"example 'p0' has {length} target tokens but its degree row has length "
                f"{length + 1} [{t / 'deg.tsv'}]") in err
        assert not (t / "c.jsonl").exists() and not (t / "c.jsonl.partial").exists()
        assert main([*select, "--side", "source"]) == 0

    @pytest.mark.parametrize("missing, wrong", [("p3", "p7"), ("p7", "p3")])
    def test_select_pool_reports_the_first_bad_score_row(self, pipeline_inputs, tmp_path,
                                                         capsys, missing, wrong):
        # The scores lack one pool id and give another a wrong length: the
        # error is whichever of the two the pool reaches first.
        lengths = {ex.id: len(ex.target) for ex in load_parallel_corpus(pipeline_inputs["pool"])}
        scores, out = tmp_path / "deg.tsv", tmp_path / "c.jsonl"
        scores.write_text("".join(f"{ex_id}\t1\t{n + (ex_id == wrong)}\t0.5\n"
                                  for ex_id, n in lengths.items() if ex_id != missing))
        assert main(["select-pool", "--pool", str(pipeline_inputs["pool"]),
                     "--scores", str(scores), "--k", "5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        if missing == "p3":
            assert err == f"error: pool example 'p3' missing from scores [{scores}]\n"
        else:
            assert err == (f"error: example 'p3' has {lengths['p3']} target tokens but its "
                           f"degree row has length {lengths['p3'] + 1} [{scores}]\n")
        assert not out.exists() and not (tmp_path / "c.jsonl.partial").exists()

    @pytest.mark.parametrize("command, required", [
        ("build-dict", ["--train", "t", "--out", "o"]),
        ("filter-oov", ["--train", "t", "--pool", "p", "--out", "o"]),
        ("comp-degree", ["--dict", "d", "--pool", "p", "--out", "o"]),
        ("select-pool", ["--pool", "p", "--scores", "s", "--out", "o"]),
        ("uncertainty-score", ["--dump", "d", "--out", "o"]),
        ("sample-testset", ["--pool", "p", "--scores", "s", "--out", "o"]),
    ])
    def test_stage_flag_defaults_are_the_pipeline_defaults(self, command, required):
        # Each flag's destination, and the PipelineConfig field it stands for.
        fields = {"min_count": "oov_min_count" if command == "filter-oov" else "dict_min_count",
                  "max_n": "max_n", "side": "side", "k": "pool_k",
                  "discard_top": "discard_top", "window": "window", "sample": "sample",
                  "seed": "seed"}
        defaults = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
        args = vars(cli._build_parser().parse_args([command, *required]))
        assert {dest: args[dest] for dest in fields if dest in args} == {
            dest: defaults[field] for dest, field in fields.items() if dest in args}

    @pytest.mark.parametrize("command", ["build-dict", "uncertainty-score", "sample-testset"])
    def test_failed_write_keeps_earlier_out_file(self, pipeline_inputs, tmp_path, monkeypatch,
                                                 command):
        def half_written(*args):
            Path(args[-1]).write_text("half")
            raise DataError("disk full")

        t = tmp_path
        (t / "u.tsv").write_text("".join(f"p{i}\t0.5\n" for i in range(60)))
        flags, writer = {
            "build-dict": (["--train", str(pipeline_inputs["train"])], (NGramDictionary, "save")),
            "uncertainty-score": (["--dump", str(pipeline_inputs["dump"])],
                                  (cli, "write_uncertainty_tsv")),
            "sample-testset": (["--pool", str(pipeline_inputs["pool"]), "--scores", str(t / "u.tsv"),
                                "--discard-top", "0", "--window", "10", "--sample", "5"],
                               (cli, "save_corpus_jsonl")),
        }[command]
        monkeypatch.setattr(*writer, half_written)
        (t / "out").write_text("earlier run")
        assert main([command, *flags, "--out", str(t / "out")]) == 3
        assert (t / "out").read_text() == "earlier run"
        assert not (t / "out.partial").exists()

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
        main(["build-dict", "--train", str(pipeline_inputs["train"]),
              "--min-count", "2", "--max-n", "4", "--out", str(t / "d.ngix")])
        capsys.readouterr()
        assert main([
            "analyze-novelty",
            "--tagged-train", str(t / "train.tags"), "--tagged-test", str(t / "test.tags"),
            "--dict", str(t / "d.ngix"), "--out", str(t / "report.json"),
        ]) == 0
        report = json.loads((t / "report.json").read_text())
        assert report["n_examples"] == 10
        # test sentences all appear in training: nothing novel
        assert all(v == 0 for v in report["novel_word_ngrams"].values())
        assert json.loads(capsys.readouterr().out) == report

    @pytest.mark.parametrize("line", ["\tTOK", "w1 w2\tTOK"], ids=["tab-led", "space-in-token"])
    def test_analyze_novelty_rejects_a_token_no_corpus_holds(self, reader_inputs, tmp_path,
                                                            capsys, line):
        bad, out = tmp_path / "bad.tags", tmp_path / "report.json"
        bad.write_text(f"w1\tTOK\n{line}\n\n", encoding="utf-8")
        assert main(["analyze-novelty", "--tagged-train", str(reader_inputs["tagged"]),
                     "--tagged-test", str(bad), "--dict", str(reader_inputs["dict"]),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "empty or holds whitespace" in err and f"{bad}:2]" in err
        assert "Traceback" not in err and not out.exists()


def test_simulate_leaves_openssl_unloaded(sim_weights, tmp_path):
    # The weights are saved in this process: numpy.random, which init_weights
    # uses, imports hashlib itself.
    sources = tmp_path / "sources.txt"
    sources.write_text("3 5 7\n")
    code = (
        "import sys, compforge.cli\n"
        "argv = ['simulate', '--weights', sys.argv[1], '--input', sys.argv[2], '--max-len', '4']\n"
        "assert compforge.cli.main(argv) == 0\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(sim_weights["path"]), str(sources)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.splitlines()[-1] == "[]"


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

    @pytest.mark.parametrize("changes", [{"corpus_format": "csv"}, {"train_path": "t.csv"}],
                             ids=["unknown-format", "uninferable-suffix"])
    def test_bad_corpus_format_exits_2(self, pipeline_inputs, tmp_path, capsys, changes):
        (tmp_path / "t.csv").write_bytes(pipeline_inputs["train"].read_bytes())
        if "train_path" in changes:
            changes = {"train_path": str(tmp_path / "t.csv")}
        blob = self.write_config(pipeline_inputs, tmp_path / "out", tmp_path, **changes)
        assert main(["run-pipeline", "--config", str(blob)]) == 2
        err = capsys.readouterr().err
        assert "format" in err and "csv" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exits_2(self, pipeline_inputs, tmp_path, capsys, where):
        out = tmp_path / "out"
        blob = self.write_config(pipeline_inputs, out, tmp_path,
                                 seed=-1 if where == "config" else 0)
        flag = ["--seed", "-1"] if where == "flag" else []
        assert main(["run-pipeline", "--config", str(blob), *flag]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_pool_k_above_pool_warns(self, pipeline_inputs, tmp_path, capsys):
        blob = self.write_config(pipeline_inputs, tmp_path / "out", tmp_path, pool_k=500)
        assert main(["run-pipeline", "--config", str(blob)]) == 0
        assert ("warning: requested k=500 but only 51 deduplicated examples available"
                in capsys.readouterr().err)

    def test_out_dir_naming_a_file_exits_2(self, pipeline_inputs, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory")
        blob = self.write_config(pipeline_inputs, out, tmp_path)
        assert main(["run-pipeline", "--config", str(blob)]) == 2
        err = capsys.readouterr().err
        assert "out_dir is not a directory" in err and "Traceback" not in err
        assert out.read_text() == "not a directory"

    def test_rerun_on_its_own_filtered_pool_exits_2(self, pipeline_inputs, tmp_path, capsys):
        # The second run would replace pool_filtered.jsonl, its own pool.
        out = tmp_path / "out"
        assert main(["run-pipeline", "--config",
                     str(self.write_config(pipeline_inputs, out, tmp_path))]) == 0
        pool = out / "pool_filtered.jsonl"
        before = pool.read_bytes()
        blob = self.write_config(pipeline_inputs, out, tmp_path, pool_path=str(pool),
                                 oov_min_count=40)
        capsys.readouterr()
        assert main(["run-pipeline", "--config", str(blob)]) == 2
        assert f"pool_path {pool} is the same file as {pool}" in capsys.readouterr().err
        assert pool.read_bytes() == before

    @pytest.mark.parametrize("output", [f"{name}{suffix}" for name in (*ARTIFACTS, "manifest.json")
                                        for suffix in ("", ".partial")])
    def test_input_linked_to_an_output_exits_2(self, pipeline_inputs, tmp_path, capsys, output):
        # A run removes its manifest first and writes each artifact to its .partial file.
        out = tmp_path / "out"
        out.mkdir()
        dump = out / output
        dump.write_bytes(pipeline_inputs["dump"].read_bytes())
        link = tmp_path / "dump-link.jsonl"
        link.symlink_to(dump)
        blob = self.write_config(pipeline_inputs, out, tmp_path, ensemble_dump_path=str(link))
        assert main(["run-pipeline", "--config", str(blob)]) == 2
        assert f"ensemble_dump_path {link} is the same file as {dump}" in capsys.readouterr().err
        assert dump.read_bytes() == pipeline_inputs["dump"].read_bytes()

    def test_lone_surrogate_in_pool_exits_3(self, pipeline_inputs, tmp_path, capsys):
        # json.dumps writes the lone surrogate as the escape \ud800.
        pool = pipeline_inputs["pool"]
        lines = pool.read_text().splitlines()
        record = json.loads(lines[2])
        lines[2] = json.dumps({**record, "source": record["source"] + " \ud800"})
        pool.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        blob = self.write_config(pipeline_inputs, out, tmp_path)
        assert main(["run-pipeline", "--config", str(blob)]) == 3
        err = capsys.readouterr().err
        assert "lone surrogate" in err and f"{pool}:3]" in err and "Traceback" not in err
        assert not list(out.glob("*.partial"))

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

    def test_interval_past_float_range_decodes_as_inf(self, sim_weights, tmp_path, capsys):
        # float() of this integer overflows; it is still an interval >= 1.
        huge = "1" + "0" * 400
        src = self.write_sources(tmp_path)
        stored = tmp_path / "stored.npw"
        stored.write_bytes(_with_stored_config(sim_weights["path"].read_bytes(),
                                               interval=int(huge)))
        runs = [["--weights", str(sim_weights["path"]), "--interval", "inf"],
                ["--weights", str(sim_weights["path"]), "--interval", huge],
                ["--weights", str(stored)]]
        outs = []
        for args in runs:
            assert main(["simulate", "--input", str(src), "--max-len", "6", *args]) == 0
            out, err = capsys.readouterr()
            assert "Traceback" not in err
            outs.append(out)
        assert outs[0] == outs[1] == outs[2] and outs[0].strip()

    def test_bad_interval_exits_2(self, sim_weights, tmp_path):
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(sim_weights["path"]),
                     "--input", str(src), "--interval", "soon"]) == 2

    def test_weights_without_config_exit_3(self, sim_weights, tmp_path, capsys):
        raw = sim_weights["path"].read_bytes()
        (size,) = struct.unpack("<I", raw[:4])
        header = json.loads(raw[4:4 + size])
        header["config"] = None
        blob = json.dumps(header).encode()
        bare = tmp_path / "bare.npw"
        bare.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + size:])
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(bare), "--input", str(src)]) == 3
        assert "needs 'config'" in capsys.readouterr().err

    @pytest.mark.parametrize("override", VARIANTS)
    @pytest.mark.parametrize("saved", VARIANTS)
    def test_any_saved_variant_decodes_under_any_variant(self, saved, override, tmp_path,
                                                          capsys):
        # Every config holds every stack, so --variant works on any file.
        cfg = ModelConfig(src_vocab=12, tgt_vocab=10, d_model=16, n_heads=4,
                          max_src_positions=32, max_tgt_positions=32, variant=saved,
                          interval=2)
        weights = init_weights(cfg, seed=0)
        path = tmp_path / "model.npw"
        save_weights(path, weights, cfg)
        rows = ("3 5 7", "2 4")
        assert main(["simulate", "--weights", str(path), "--input",
                     str(self.write_sources(tmp_path, rows)), "--variant", override,
                     "--max-len", "6"]) == 0
        decode_cfg = dataclasses.replace(cfg, variant=override)
        want = []
        for row in rows:
            result = greedy_decode([int(tok) for tok in row.split()], weights, decode_cfg, 6)
            want.append(" ".join(str(tok) for tok in result.tokens))
        assert capsys.readouterr().out.splitlines() == want

    @pytest.mark.parametrize("header", [
        {"seed": 0},
        {"config": {"d_model": 16}},
    ])
    def test_bad_weights_header_exits_3(self, tmp_path, capsys, header):
        blob = json.dumps(header).encode()
        bad = tmp_path / "bad.npw"
        bad.write_bytes(struct.pack("<I", len(blob)) + blob)
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(bad), "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert "weights header" in err and "Traceback" not in err

    def test_weights_in_older_layout_exit_3(self, sim_weights, tmp_path, capsys):
        # Before the format number, files held row-major feed-forward blobs.
        raw = sim_weights["path"].read_bytes()
        (size,) = struct.unpack("<I", raw[:4])
        header = json.loads(raw[4:4 + size])
        del header["format"]
        blob = json.dumps(header).encode()
        old = tmp_path / "old.npw"
        old.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + size:])
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(old), "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert "save it again" in err and "Traceback" not in err

    def test_trailing_weights_bytes_exit_3(self, sim_weights, tmp_path, capsys):
        padded = tmp_path / "padded.npw"
        padded.write_bytes(sim_weights["path"].read_bytes() + b"\0\0\0\0")
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(padded), "--input", str(src)]) == 3
        assert "header and blobs span" in capsys.readouterr().err

    def test_non_finite_logits_exit_3(self, sim_weights, tmp_path, capsys):
        # load_weights does not check values; the decoder's output check does.
        weights = init_weights(sim_weights["cfg"], seed=0)
        weights.data["out_b"][0] = math.nan
        poisoned = tmp_path / "nan.npw"
        save_weights(poisoned, weights, sim_weights["cfg"])
        src = self.write_sources(tmp_path)
        assert main(["simulate", "--weights", str(poisoned), "--input", str(src),
                     "--max-len", "6"]) == 3
        err = capsys.readouterr().err
        assert "non-finite logits in decoder output" in err and "Traceback" not in err

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

    def test_failed_sequence_leaves_no_trace(self, sim_weights, tmp_path):
        # The first sequence decodes and is traced before the second one fails.
        src = self.write_sources(tmp_path, rows=("3 5 7", "3 99"))
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "--weights", str(sim_weights["path"]), "--input", str(src),
                     "--max-len", "5", "--trace", str(trace)]) == 2
        assert not trace.exists() and not (tmp_path / "trace.jsonl.partial").exists()


class TestConsoleScript:
    def test_module_help_exits_0(self):
        out = subprocess.run([sys.executable, "-m", "compforge.cli", "--help"],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.returncode == 0 and "run-pipeline" in out.stdout

    def test_project_script_is_the_entrypoint(self):
        # Python 3.10 has no tomllib, so the one [project.scripts] line is read with a regex.
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
        module, attr = re.fullmatch(r'compforge = "([\w.]+):(\w+)"',
                                    section.group(1).strip()).groups()
        assert getattr(importlib.import_module(module), attr) is cli.entrypoint


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

    def test_negative_max_n_exits_2(self, pipeline_inputs, tmp_path, capsys):
        out = tmp_path / "d.ngix"
        assert main(["build-dict", "--train", str(pipeline_inputs["train"]),
                     "--max-n", "-1", "--out", str(out)]) == 2
        assert "--max-n" in capsys.readouterr().err and not out.exists()

    def test_zero_max_n_builds_uncapped_index(self, pipeline_inputs, tmp_path, capsys):
        out = tmp_path / "d.ngix"
        assert main(["build-dict", "--train", str(pipeline_inputs["train"]),
                     "--max-n", "0", "--out", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("flag, message", [("--min-count", "min_count must be"),
                                               ("--max-n", "--max-n must be")])
    def test_build_dict_checks_counts_before_reading(self, tmp_path, capsys, flag, message):
        # A malformed train file would exit 3; a bad flag is found first.
        train, out = tmp_path / "train.tsv", tmp_path / "d.ngix"
        train.write_text("a b c\n", encoding="utf-8")
        assert main(["build-dict", "--train", str(train), flag, "-1", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err and not out.exists()

    def test_filter_oov_checks_min_count_before_reading(self, tmp_path, capsys):
        # Neither the malformed train file nor the empty pool hides the bad flag.
        train, pool, out = tmp_path / "train.tsv", tmp_path / "pool.jsonl", tmp_path / "f.jsonl"
        train.write_text("a b c\n", encoding="utf-8")
        pool.write_text("", encoding="utf-8")
        assert main(["filter-oov", "--train", str(train), "--pool", str(pool),
                     "--min-count", "-1", "--out", str(out)]) == 2
        assert "min_count must be" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["select-pool", "--pool", "{pool}", "--scores", "{bad}", "--k", "0"],
         "k must be at least 1"),
        (["sample-testset", "--pool", "{bad}", "--scores", "{uncertainty}",
          "--sample", "5", "--window", "2"], "sample 5 exceeds window 2"),
    ], ids=["select-pool", "sample-testset"])
    def test_selection_checks_flags_before_reading(self, reader_inputs, tmp_path, capsys,
                                                   argv, message):
        # The malformed input would exit 3; the bad flag is found first.
        bad, out = tmp_path / "bad.jsonl", tmp_path / "out.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        paths = dict(reader_inputs, bad=bad)
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err and not out.exists()

    def test_comp_degree_has_no_workers_flag(self, pipeline_inputs, tmp_path, capsys):
        assert main(["comp-degree", "--dict", str(tmp_path / "d.ngix"),
                     "--pool", str(pipeline_inputs["pool"]), "--workers", "2",
                     "--out", str(tmp_path / "deg.tsv")]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_sample_testset_has_no_side_flag(self, pipeline_inputs, tmp_path, capsys):
        # The band draw ranks whole examples; no side is read.
        scores = tmp_path / "u.tsv"
        scores.write_text("p0\t0.5\n")
        assert main(["sample-testset", "--pool", str(pipeline_inputs["pool"]),
                     "--scores", str(scores), "--side", "source",
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        assert "--side" in capsys.readouterr().err

    def test_malformed_dictionary_exits_3(self, pipeline_inputs, tmp_path):
        junk = tmp_path / "junk.ngix"
        junk.write_bytes(b"not a dictionary")
        assert main(["comp-degree", "--dict", str(junk),
                     "--pool", str(pipeline_inputs["pool"]),
                     "--out", str(tmp_path / "deg.tsv")]) == 3

    def test_scores_missing_ids_exit_3(self, pipeline_inputs, tmp_path, capsys):
        # Only one of sixty rows, with p0's real length, so the first error is p1's absence.
        length = len(load_parallel_corpus(pipeline_inputs["pool"])[0].target)
        scores = tmp_path / "deg.tsv"
        scores.write_text(f"p0\t1\t{length}\t0.5\n")
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

    def test_negative_sample_seed_exits_2(self, pipeline_inputs, tmp_path, capsys):
        scores = tmp_path / "u.tsv"
        scores.write_text("".join(f"p{i}\t0.5\n" for i in range(60)))
        out = tmp_path / "t.jsonl"
        assert main(["sample-testset", "--pool", str(pipeline_inputs["pool"]),
                     "--scores", str(scores), "--discard-top", "0", "--window", "10",
                     "--sample", "5", "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not out.exists()

    # The exit code is carried by the error type; a stage error is a data
    # error even when a ConfigError caused it.
    @pytest.mark.parametrize("error, code", [
        (ConfigError("bad setting"), 2),
        (DataError("bad record"), 3),
        (StageError("select_pool", "bad setting"), 3),
        (CompforgeError("other"), 3),
    ], ids=["config", "data", "stage", "base"])
    def test_error_type_sets_exit_code(self, monkeypatch, capsys, error, code):
        import compforge.cli as cli

        def fail(args):
            raise error

        monkeypatch.setitem(cli._COMMANDS, "build-dict", fail)
        assert main(["build-dict", "--train", "x.tsv", "--out", "d.ngix"]) == code
        assert capsys.readouterr().err == f"error: {error}\n"


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


class TestDuplicateIds:
    """A score file or dump that lists an id twice exits 3 and names the repeat's line."""

    def test_repeated_degree_row_exits_3(self, pipeline_inputs, tmp_path, capsys):
        scores = tmp_path / "deg.tsv"
        rows = [f"p{i}\t1\t2\t0.5" for i in range(60)] + ["p0\t2\t2\t1"]
        scores.write_text("\n".join(rows) + "\n")
        assert main(["select-pool", "--pool", str(pipeline_inputs["pool"]),
                     "--scores", str(scores), "--k", "1",
                     "--out", str(tmp_path / "c.jsonl")]) == 3
        err = capsys.readouterr().err
        assert "duplicate example id 'p0'" in err and f"{scores}:61]" in err
        assert not (tmp_path / "c.jsonl").exists()

    def test_repeated_uncertainty_row_exits_3(self, pipeline_inputs, tmp_path, capsys):
        scores = tmp_path / "u.tsv"
        rows = [f"p{i}\t0.5" for i in range(60)]
        rows.insert(10, "p3\t9.5")
        scores.write_text("\n".join(rows) + "\n")
        assert main(["sample-testset", "--pool", str(pipeline_inputs["pool"]),
                     "--scores", str(scores), "--discard-top", "0",
                     "--window", "10", "--sample", "5",
                     "--out", str(tmp_path / "t.jsonl")]) == 3
        err = capsys.readouterr().err
        assert "duplicate example id 'p3'" in err and f"{scores}:11]" in err

    def test_repeated_dump_record_exits_3(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        record = {"id": "p0", "tokens": ["a"], "support": [["a", "b"]],
                  "probs": [[[0.5, 0.5]], [[0.25, 0.75]]]}
        other = {**record, "id": "p1"}
        dump.write_text("".join(json.dumps(r) + "\n" for r in (record, other, record)))
        assert main(["uncertainty-score", "--dump", str(dump),
                     "--out", str(tmp_path / "u.tsv")]) == 3
        err = capsys.readouterr().err
        assert "duplicate example id 'p0'" in err and f"{dump}:3]" in err


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

    def test_dictionary_stored_flag_without_count_exits_3(self, pipeline_inputs, tmp_path, capsys):
        index = tmp_path / "d.ngix"
        assert main(["build-dict", "--train", str(pipeline_inputs["train"]),
                     "--out", str(index)]) == 0
        data = index.read_bytes()
        flag = len(data) - 5  # the last node's stored flag, before its u32 child count
        index.write_bytes(data[:flag] + b"\x00" + data[flag + 1 :])
        capsys.readouterr()
        assert main(["comp-degree", "--dict", str(index),
                     "--pool", str(pipeline_inputs["pool"]),
                     "--out", str(tmp_path / "deg.tsv")]) == 3
        err = capsys.readouterr().err
        assert "stored flag" in err and "Traceback" not in err

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
        {"support": ["xy", "z"], "probs": [[[0.5, 0.5], [1.0]], [[0.25, 0.75], [1.0]]]},
        {"support": [{"x": 1, "y": 2}]},
        {"probs": [[[True, False]], [[0.25, 0.75]]]},
        {"support": "ab"},
        {"probs": []},
        {"support": [], "probs": [[], []]},
        {"probs": [[[10 ** 400, 0.5]], [[0.25, 0.75]]]},
    ], ids=["non-numeric-probability", "tokens-not-a-list", "positions-not-a-list",
            "support-of-strings", "support-object", "boolean-probability",
            "support-not-a-list", "no-members", "no-positions", "overflowing-integer"])
    def test_bad_dump_value_exits_3(self, tmp_path, capsys, changes):
        dump = tmp_path / "dump.jsonl"
        record = {"id": "p0", "tokens": ["a"], "support": [["a", "b"]],
                  "probs": [[[0.5, 0.5]], [[0.25, 0.75]]]}
        dump.write_text("\n" + json.dumps({**record, **changes}) + "\n")
        assert main(["uncertainty-score", "--dump", str(dump),
                     "--out", str(tmp_path / "u.tsv")]) == 3
        err = capsys.readouterr().err
        assert f"{dump}:2]" in err and "Traceback" not in err

    def test_lone_surrogate_dump_id_exits_3(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        record = {"id": "p\udc00", "support": [["a", "b"]], "probs": [[[0.5, 0.5]], [[0.25, 0.75]]]}
        dump.write_text(json.dumps(record) + "\n")
        out = tmp_path / "u.tsv"
        assert main(["uncertainty-score", "--dump", str(dump), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "lone surrogate" in err and f"{dump}:1]" in err and "Traceback" not in err
        assert not out.exists() and not Path(f"{out}.partial").exists()

    # A dump id follows the corpus rule: a string or an integer (read as its
    # decimal string); any other JSON value is rejected, not written as "None".
    @pytest.mark.parametrize("value", [None, True, [1], 2.0, {"k": 1}, "p\t1", "p\n1", "p\r1"],
                             ids=["null", "bool", "list", "float", "object", "tab", "lf", "cr"])
    def test_bad_dump_id_exits_3(self, tmp_path, capsys, value):
        dump = tmp_path / "dump.jsonl"
        record = {"id": 7, "support": [["a", "b"]], "probs": [[[0.5, 0.5]], [[0.25, 0.75]]]}
        dump.write_text(json.dumps(record) + "\n" + json.dumps({**record, "id": value}) + "\n")
        out = tmp_path / "u.tsv"
        assert main(["uncertainty-score", "--dump", str(dump), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "id must be a string or an integer" in err and f"{dump}:2]" in err
        assert "Traceback" not in err and not out.exists()

    # String and integer ids and object metas load; any other JSON kind is
    # rejected rather than turned into an id like "None" or dropped.
    @pytest.mark.parametrize("field, value", [
        ("id", None), ("id", True), ("id", 1.5), ("id", [1]), ("id", {"k": 1}),
        ("id", "p\t1"), ("id", "p\n1"), ("id", "p\r1"),
        ("meta", "note"), ("meta", 0), ("meta", None), ("meta", [1]),
    ], ids=["id-null", "id-bool", "id-float", "id-list", "id-object", "id-tab", "id-lf", "id-cr",
            "meta-string", "meta-zero", "meta-null", "meta-list"])
    def test_bad_corpus_id_or_meta_exits_3(self, pipeline_inputs, tmp_path, capsys,
                                           field, value):
        pool = tmp_path / "pool.jsonl"
        record = {"id": 7, "source": "w1 w2", "target": "w1 w2", "meta": {"k": 1}}
        bad = {**record, "id": 8, field: value}
        pool.write_text(json.dumps(record) + "\n" + json.dumps(bad) + "\n")
        assert main(["filter-oov", "--train", str(pipeline_inputs["train"]), "--pool", str(pool),
                     "--out", str(tmp_path / "out.jsonl")]) == 3
        err = capsys.readouterr().err
        assert f"{field} must be" in err and f"{pool}:2]" in err and "Traceback" not in err

    def test_weights_not_matching_their_config_exit_3(self, sim_weights, tmp_path, capsys):
        path = tmp_path / "model.npw"
        path.write_bytes(_with_stored_config(sim_weights["path"].read_bytes(), d_model=32))
        src = tmp_path / "src.txt"
        src.write_text("3 5 7\n")
        assert main(["simulate", "--weights", str(path), "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert "header and blobs span" in err and "Traceback" not in err

    def test_huge_stored_config_exits_3(self, sim_weights, tmp_path, capsys):
        # About 2**40 parameters (4 TiB): rejected by the exact size check, unallocated.
        path = tmp_path / "huge.npw"
        path.write_bytes(_with_stored_config(sim_weights["path"].read_bytes(),
                                             src_vocab=2**36))
        src = tmp_path / "src.txt"
        src.write_text("3 5 7\n")
        assert main(["simulate", "--weights", str(path), "--input", str(src)]) == 3
        err = capsys.readouterr().err
        assert "header and blobs span" in err and "Traceback" not in err

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
        src = tmp_path / "src.txt"
        src.write_text("3 5 7\n")
        for field in ("use_positions", "share_adaptive_encoder"):
            path = tmp_path / "model.npw"
            path.write_bytes(_with_stored_config(sim_weights["path"].read_bytes(),
                                                 **{field: True}))
            assert main(["simulate", "--weights", str(path), "--input", str(src)]) == 3
            err = capsys.readouterr().err
            assert "error:" in err and field in err and "Traceback" not in err

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

    # One command per text reader; {bom} is the row's input with a UTF-8
    # byte-order mark in front. Every reader names the mark in the words
    # json.loads uses, where a bare JSONDecoder would report "Expecting value"
    # and a TSV reader would keep the mark as part of the first token or id.
    @pytest.mark.parametrize("kind, command", [
        ("pool", ["filter-oov", "--train", "{train}", "--pool", "{bom}", "--out", "{out}"]),
        ("dump", ["uncertainty-score", "--dump", "{bom}", "--out", "{out}"]),
        ("train", ["build-dict", "--train", "{bom}", "--out", "{out}"]),
        ("degrees", ["select-pool", "--pool", "{pool}", "--scores", "{bom}", "--out", "{out}"]),
        ("uncertainty", ["sample-testset", "--pool", "{pool}", "--scores", "{bom}",
                         "--out", "{out}"]),
        ("tagged", ["analyze-novelty", "--tagged-train", "{bom}", "--tagged-test", "{tagged}",
                    "--dict", "{dict}", "--out", "{out}"]),
        ("sources", ["simulate", "--weights", "{weights}", "--input", "{bom}"]),
    ], ids=["corpus", "dump", "tsv-corpus", "degree-tsv", "uncertainty-tsv", "tagged",
            "simulate-input"])
    def test_byte_order_mark_is_named(self, reader_inputs, tmp_path, capsys, kind, command):
        bom = tmp_path / f"bom{reader_inputs[kind].suffix}"
        bom.write_bytes(b"\xef\xbb\xbf" + reader_inputs[kind].read_bytes())
        paths = dict(reader_inputs, bom=bom, out=tmp_path / "out")
        assert main([arg.format(**paths) for arg in command]) == 3
        err = capsys.readouterr().err
        assert "Unexpected UTF-8 BOM" in err and f"{bom}:1]" in err and "Traceback" not in err

    # One command per text reader; {bad} is a file holding a non-UTF-8 byte.
    @pytest.mark.parametrize("command", [
        ["filter-oov", "--train", "{bad}", "--pool", "{pool}", "--out", "{out}"],
        ["select-pool", "--pool", "{pool}", "--scores", "{bad}", "--out", "{out}"],
        ["sample-testset", "--pool", "{pool}", "--scores", "{bad}", "--out", "{out}"],
        ["uncertainty-score", "--dump", "{bad}", "--out", "{out}"],
        ["analyze-novelty", "--tagged-train", "{bad}", "--tagged-test", "{bad}",
         "--dict", "{out}", "--out", "{out}"],
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


# Every option naming a file a command reads, and the input it takes.
_READERS = {
    "build-dict": {"--train": "train"},
    "filter-oov": {"--train": "train", "--pool": "pool"},
    "comp-degree": {"--dict": "dict", "--pool": "pool"},
    "select-pool": {"--pool": "pool", "--scores": "degrees"},
    "uncertainty-score": {"--dump": "dump"},
    "sample-testset": {"--pool": "pool", "--scores": "uncertainty"},
    "analyze-novelty": {"--tagged-train": "tagged", "--tagged-test": "tagged", "--dict": "dict"},
    "simulate": {"--weights": "weights", "--input": "sources"},
    "run-pipeline": {"--config": "config"},
}
_READ_OPTIONS = [(command, option) for command, options in _READERS.items() for option in options]


class TestUnreadablePaths:
    # A directory, or a path below a regular file, in place of one input file.
    @pytest.mark.parametrize("kind", ["directory", "below-a-file"])
    @pytest.mark.parametrize("command, option", _READ_OPTIONS,
                             ids=[" ".join(pair) for pair in _READ_OPTIONS])
    def test_unreadable_input_exits_2(self, reader_inputs, tmp_path, capsys, command, option,
                                      kind):
        bad = tmp_path if kind == "directory" else reader_inputs["train"] / "child"
        argv = [command]
        for flag, name in _READERS[command].items():
            argv += [flag, str(bad if flag == option else reader_inputs[name])]
        if command not in ("simulate", "run-pipeline"):
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(bad) in err and "Traceback" not in err
        assert not err.startswith("usage:"), err  # the command ran

    def test_permission_denied_exits_2(self, monkeypatch, capsys):
        import compforge.cli as cli

        def denied(args):
            raise PermissionError(13, "Permission denied", args.train)

        monkeypatch.setitem(cli._COMMANDS, "build-dict", denied)
        assert main(["build-dict", "--train", "locked.tsv", "--out", "d.ngix"]) == 2
        err = capsys.readouterr().err
        assert "Permission denied" in err and "locked.tsv" in err


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


def _assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    assert code == 0 or "error:" in err
    # argparse's usage error: the command line is stale and the command never ran.
    assert not err.startswith("usage:"), err


# select-pool and sample-testset read the corrupted pool against scores for
# its original ids; an id the corruption changed is a data error.
@settings(max_examples=150, deadline=None)
@given(truncate=st.booleans(), at=st.integers(0, len(_POOL_JSONL) - 1),
       byte=st.integers(0, 255))
def test_corrupted_selection_pool_exits_0_2_or_3(truncate, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        pool, degrees, uncertainty = tmp / "pool.jsonl", tmp / "degrees.tsv", tmp / "unc.tsv"
        pool.write_bytes(_corrupt(_POOL_JSONL, truncate, at, byte))
        degrees.write_text("p0\t1\t2\t0.5\np1\t2\t2\t1\np2\t1\t3\t0.3333333333\n")
        uncertainty.write_text("p0\t0.1\np1\t0.2\np2\t0.3\n")
        for argv in (["select-pool", "--scores", str(degrees), "--k", "2"],
                     ["sample-testset", "--scores", str(uncertainty), "--discard-top", "0",
                      "--window", "3", "--sample", "2"]):
            _assert_clean_exit(*_run_quietly(
                argv + ["--pool", str(pool), "--out", str(tmp / "out.jsonl")]))


# One tagged sentence per target of _TRAIN_TSV, the side its dictionary is built from.
_TAGGED = b"".join(
    b"".join(tok + b"\tTOK\n" for tok in line.split(b"\t")[1].split()) + b"\n"
    for line in _TRAIN_TSV.splitlines()
)


@settings(max_examples=150, deadline=None)
@given(test_side=st.booleans(), truncate=st.booleans(), at=st.integers(0, len(_TAGGED) - 1),
       byte=st.integers(0, 255))
def test_corrupted_tagged_file_exits_0_2_or_3(test_side, truncate, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        train, dictionary = tmp / "train.tsv", tmp / "d.ngix"
        good, bad = tmp / "good.tags", tmp / "bad.tags"
        train.write_bytes(_TRAIN_TSV)
        good.write_bytes(_TAGGED)
        bad.write_bytes(_corrupt(_TAGGED, truncate, at, byte))
        assert _run_quietly(["build-dict", "--train", str(train), "--min-count", "1",
                             "--out", str(dictionary)])[0] == 0
        tagged_train, tagged_test = (good, bad) if test_side else (bad, good)
        _assert_clean_exit(*_run_quietly([
            "analyze-novelty",
            "--tagged-train", str(tagged_train), "--tagged-test", str(tagged_test),
            "--dict", str(dictionary), "--out", str(tmp / "report.json")]))


_SOURCES = b"3 5 7\n2 4 6 8\n"


@settings(max_examples=150, deadline=None)
@given(truncate=st.booleans(), at=st.integers(0, len(_SOURCES) - 1), byte=st.integers(0, 255))
def test_corrupted_simulate_sources_exit_0_2_or_3(truncate, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        weights, src = Path(tmp) / "model.bin", Path(tmp) / "src.txt"
        weights.write_bytes(_MODEL)
        src.write_bytes(_corrupt(_SOURCES, truncate, at, byte))
        _assert_clean_exit(*_run_quietly(["simulate", "--weights", str(weights),
                                          "--input", str(src), "--max-len", "4"]))


def _dump_record(ex_id: str) -> bytes:
    support = [["x", "y", "<other>"], ["z", "<other>"]]
    probs = [[[0.5, 0.25, 0.25], [0.75, 0.25]], [[0.25, 0.5, 0.25], [0.5, 0.5]]]
    return json.dumps({"id": ex_id, "support": support, "probs": probs}).encode() + b"\n"


# The output directory comes from --out-dir, so a corrupted out_dir cannot
# send the run's files elsewhere.
@settings(max_examples=100, deadline=None)
@given(truncate=st.booleans(), data=st.data(), byte=st.integers(0, 255))
def test_corrupted_pipeline_config_exits_0_2_or_3(truncate, data, byte):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {"train": tmp / "train.tsv", "pool": tmp / "pool.jsonl",
                 "dump": tmp / "dump.jsonl"}
        paths["train"].write_bytes(_TRAIN_TSV)
        paths["pool"].write_bytes(_POOL_JSONL)
        paths["dump"].write_bytes(b"".join(_dump_record(f"p{i}") for i in range(3)))
        config = make_config(paths, tmp / "out", oov_min_count=1, dict_min_count=1, max_n=3,
                             pool_k=3, discard_top=0, window=2, sample=1)
        raw = json.dumps(config.__dict__, sort_keys=True).encode()
        blob = tmp / "pipeline.json"
        blob.write_bytes(_corrupt(raw, truncate, data.draw(st.integers(0, len(raw) - 1)), byte))
        _assert_clean_exit(*_run_quietly(["run-pipeline", "--config", str(blob),
                                          "--out-dir", str(tmp / "out")]))


def test_interval_parsing_round_trip():
    from compforge.cli import _parse_interval

    assert _parse_interval("3") == 3
    assert _parse_interval("inf") == math.inf
    assert _parse_interval("Infinity") == math.inf
