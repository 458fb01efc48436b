"""Command-line interface.

Exit codes: 0 on success, 2 for configuration errors (bad flags, invalid or
missing paths/settings), 3 for data errors (malformed records, inconsistent
inputs). ``COMPFORGE_THREADS`` caps worker parallelism for scoring stages.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from compforge.corpus import (
    build_vocab_counts,
    filter_oov,
    iter_side,
    load_parallel_corpus,
    save_corpus_jsonl,
    text_lines,
)
from compforge.cover import read_degree_tsv, select_candidate_pool, write_degree_tsv
from compforge.engine import greedy_decode, load_weights
from compforge.errors import CompforgeError, ConfigError, DataError, StageError
from compforge.ngrams import NGramDictionary, build_ngram_dictionary
from compforge.novelty import benchmark_report, read_tagged_file
from compforge.pipeline import PipelineConfig, run_pipeline, score_pool
from compforge.uncertainty import (
    band_select,
    read_ensemble_dump,
    read_uncertainty_tsv,
    token_uncertainties,
    write_uncertainty_tsv,
)


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("tsv", "jsonl"), default=None,
                        help="corpus format (default: inferred from suffix)")
    parser.add_argument("--side", choices=("source", "target"), default="target")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compforge")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dict", help="build a frequent n-gram index")
    p.add_argument("--train", required=True)
    p.add_argument("--min-count", type=int, default=3)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("filter-oov", help="drop pool examples with rare tokens")
    p.add_argument("--train", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--min-count", type=int, default=3)
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("comp-degree", help="score compositional degrees")
    p.add_argument("--dict", required=True, dest="dict_path")
    p.add_argument("--pool", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("select-pool", help="dedup and keep top-k by degree")
    p.add_argument("--pool", required=True)
    p.add_argument("--scores", required=True, help="degree TSV from comp-degree")
    p.add_argument("--k", type=int, default=60_000)
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("uncertainty-score", help="score an ensemble dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample-testset", help="band-sample the final test set")
    p.add_argument("--pool", required=True)
    p.add_argument("--scores", required=True, help="uncertainty TSV")
    p.add_argument("--discard-top", type=int, default=2_000)
    p.add_argument("--window", type=int, default=18_000)
    p.add_argument("--sample", type=int, default=3_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("analyze-novelty", help="novel n-gram / degree report")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--tagged-train", required=True)
    p.add_argument("--tagged-test", required=True)
    p.add_argument("--dict", required=True, dest="dict_path")
    p.add_argument("--tagset", default=None)
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("simulate", help="greedy-decode sources with a saved model")
    p.add_argument("--weights", required=True)
    p.add_argument("--variant", default=None,
                   choices=("vanilla", "dangle", "rdangle_shr", "rdangle_sep"))
    p.add_argument("--interval", default=None, help="re-encoding interval (integer or 'inf')")
    p.add_argument("--input", required=True, help="token-id lines, one source per line")
    p.add_argument("--max-len", type=int, default=32)
    p.add_argument("--trace", default=None, help="write per-step trace JSONL here")

    p = sub.add_parser("run-pipeline", help="run all stages from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=None)

    return parser


def _cmd_build_dict(args) -> int:
    corpus = load_parallel_corpus(args.train, args.format)
    max_n = args.max_n if args.max_n > 0 else None
    dictionary = build_ngram_dictionary(iter_side(corpus, args.side), args.min_count, max_n)
    dictionary.save(args.out)
    print(f"stored {len(dictionary)} n-grams ({dictionary.vocab_size} unigrams) -> {args.out}")
    return 0


def _cmd_filter_oov(args) -> int:
    train = load_parallel_corpus(args.train, args.format)
    pool = load_parallel_corpus(args.pool, args.format)
    counts = build_vocab_counts(train, args.side)
    kept = filter_oov(pool, counts, args.min_count)
    save_corpus_jsonl(kept, args.out)
    print(f"kept {len(kept)}/{len(pool)} examples -> {args.out}")
    return 0


def _cmd_comp_degree(args) -> int:
    dictionary = NGramDictionary.load(args.dict_path)
    pool = load_parallel_corpus(args.pool, args.format)
    scored = score_pool(pool, dictionary, args.side, args.workers)
    write_degree_tsv(((ex.id, degree) for ex, degree in scored), args.out)
    print(f"scored {len(scored)} examples -> {args.out}")
    return 0


def _cmd_select_pool(args) -> int:
    pool = load_parallel_corpus(args.pool, args.format)
    scores = read_degree_tsv(args.scores)
    missing = [ex.id for ex in pool if ex.id not in scores]
    if missing:
        raise DataError(f"{len(missing)} pool examples missing from scores, e.g. {missing[0]!r}")
    selection = select_candidate_pool([(ex, scores[ex.id]) for ex in pool], args.k, args.side)
    if selection.warning:
        print(f"warning: {selection.warning}", file=sys.stderr)
    save_corpus_jsonl(selection.examples, args.out)
    print(f"selected {len(selection.examples)} of {selection.deduplicated} -> {args.out}")
    return 0


def _cmd_uncertainty_score(args) -> int:
    dists = read_ensemble_dump(args.dump)
    write_uncertainty_tsv(
        ((d.example_id, token_uncertainties(d).sequence_score) for d in dists), args.out
    )
    print(f"scored {len(dists)} examples -> {args.out}")
    return 0


def _cmd_sample_testset(args) -> int:
    pool = load_parallel_corpus(args.pool, args.format)
    scores = read_uncertainty_tsv(args.scores)
    missing = [ex.id for ex in pool if ex.id not in scores]
    if missing:
        raise DataError(f"{len(missing)} pool examples missing from scores, e.g. {missing[0]!r}")
    ranked = [(ex, scores[ex.id]) for ex in pool]
    chosen = band_select(ranked, args.discard_top, args.window, args.sample, args.seed)
    save_corpus_jsonl(chosen, args.out)
    print(f"sampled {len(chosen)} examples -> {args.out}")
    return 0


def _cmd_analyze_novelty(args) -> int:
    train = load_parallel_corpus(args.train, args.format)
    test = load_parallel_corpus(args.test, args.format)
    tagged_train = read_tagged_file(args.tagged_train)
    tagged_test = read_tagged_file(args.tagged_test)
    dictionary = NGramDictionary.load(args.dict_path)
    report = benchmark_report(
        train, test, tagged_train, tagged_test, dictionary,
        side=args.side, tagset=args.tagset,
    )
    Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    print(report.to_json())
    return 0


def _parse_interval(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"interval must be an integer or 'inf', got {text!r}")


def _cmd_simulate(args) -> int:
    weights, cfg = load_weights(args.weights)
    if cfg is None:
        raise ConfigError(f"weights file {args.weights} carries no model config")
    updates = {}
    if args.variant is not None:
        updates["variant"] = args.variant
    if args.interval is not None:
        updates["interval"] = _parse_interval(args.interval)
    if updates:
        cfg = dataclasses.replace(cfg, **updates)

    sources = []
    for lineno, line in text_lines(args.input):
        line = line.strip()
        if not line:
            continue
        try:
            sources.append([int(tok) for tok in line.split()])
        except ValueError:
            raise DataError("token ids must be integers", path=args.input, line=lineno)
    if not sources:
        raise DataError("no input sequences", path=args.input)

    trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        for i, src in enumerate(sources):
            result = greedy_decode(src, weights, cfg, args.max_len)
            print(" ".join(str(tok) for tok in result.tokens))
            if trace_fh is not None:
                for step in result.steps:
                    record = {
                        "sequence": i,
                        "step": step.step,
                        "point": step.point,
                        "key_hash": step.key_hash,
                        "value_hash": step.value_hash,
                        "token": step.token,
                    }
                    trace_fh.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if trace_fh is not None:
            trace_fh.close()
    return 0


def _cmd_run_pipeline(args) -> int:
    config = PipelineConfig.from_json(args.config, out_dir=args.out_dir, seed=args.seed)
    manifest = run_pipeline(config)
    for stage in manifest.stages:
        print(f"{stage['name']}: {stage['in']} -> {stage['out']}")
    for warning in manifest.metadata.get("warnings", []):
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {len(manifest.artifacts)} artifacts -> {config.out_dir}")
    return 0


_COMMANDS = {
    "build-dict": _cmd_build_dict,
    "filter-oov": _cmd_filter_oov,
    "comp-degree": _cmd_comp_degree,
    "select-pool": _cmd_select_pool,
    "uncertainty-score": _cmd_uncertainty_score,
    "sample-testset": _cmd_sample_testset,
    "analyze-novelty": _cmd_analyze_novelty,
    "simulate": _cmd_simulate,
    "run-pipeline": _cmd_run_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CompforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
