"""Command-line interface.

Exit codes: 0 on success, 2 for configuration errors (bad flags, invalid,
missing or unreadable paths, bad settings), 3 for data errors (malformed
records, inconsistent inputs).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

from compforge.corpus import (
    FORMATS,
    SIDES,
    batched,
    build_vocab_counts,
    filter_oov,
    id_records,
    iter_parallel_corpus,
    iter_side,
    jsonl_line,
    load_parallel_corpus,
    save_corpus_jsonl,
    side_tokens,
)
from compforge.cover import _CHUNK, degree_line, read_degree_tsv, select_candidate_pool
from compforge.engine import VARIANTS, greedy_decode, load_weights
from compforge.errors import CompforgeError, ConfigError, DataError, require_int
from compforge.ngrams import NGramDictionary, build_ngram_dictionary
from compforge.novelty import benchmark_report, read_tagged_file
from compforge.pipeline import PipelineConfig, join_by_id, replacing, run_pipeline, score_pool
from compforge.uncertainty import (
    band_select,
    read_ensemble_dump,
    read_uncertainty_tsv,
    token_uncertainties,
    write_uncertainty_tsv,
)


# The paper's parameters, whose flag defaults are `PipelineConfig`'s.
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}


def _add_corpus_flags(parser: argparse.ArgumentParser, side: bool = True) -> None:
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="corpus format (default: inferred from suffix)")
    if side:
        parser.add_argument("--side", choices=SIDES, default=_DEFAULTS["side"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compforge")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dict", help="build a frequent n-gram index")
    p.add_argument("--train", required=True)
    p.add_argument("--min-count", type=int, default=_DEFAULTS["dict_min_count"])
    p.add_argument("--max-n", type=int, default=_DEFAULTS["max_n"],
                   help="longest n-gram; 0 means no cap")
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("filter-oov", help="drop pool examples with rare tokens")
    p.add_argument("--train", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--min-count", type=int, default=_DEFAULTS["oov_min_count"])
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("comp-degree", help="score compositional degrees")
    p.add_argument("--dict", required=True, dest="dict_path")
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("select-pool", help="dedup and keep top-k by degree")
    p.add_argument("--pool", required=True)
    p.add_argument("--scores", required=True, help="degree TSV from comp-degree")
    p.add_argument("--k", type=int, default=_DEFAULTS["pool_k"])
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("uncertainty-score", help="score an ensemble dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample-testset", help="band-sample the final test set")
    p.add_argument("--pool", required=True)
    p.add_argument("--scores", required=True, help="uncertainty TSV")
    p.add_argument("--discard-top", type=int, default=_DEFAULTS["discard_top"])
    p.add_argument("--window", type=int, default=_DEFAULTS["window"])
    p.add_argument("--sample", type=int, default=_DEFAULTS["sample"])
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"])
    p.add_argument("--out", required=True)
    _add_corpus_flags(p, side=False)

    p = sub.add_parser("analyze-novelty", help="novel n-gram / degree report")
    p.add_argument("--tagged-train", required=True)
    p.add_argument("--tagged-test", required=True)
    p.add_argument("--dict", required=True, dest="dict_path")
    p.add_argument("--tagset", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="greedy-decode sources with a saved model")
    p.add_argument("--weights", required=True)
    p.add_argument("--variant", default=None, choices=VARIANTS)
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
    require_int("--max-n", args.max_n, 0)  # 0 means no cap
    # The build checks --min-count before it reads the first line.
    corpus = iter_parallel_corpus(args.train, args.format)
    dictionary = build_ngram_dictionary(iter_side(corpus, args.side), args.min_count,
                                        args.max_n or None)
    with replacing(args.out) as out:
        dictionary.save(out)
    print(f"stored {len(dictionary)} n-grams ({dictionary.vocab_size} unigrams) -> {args.out}")
    return 0


def _cmd_filter_oov(args) -> int:
    require_int("min_count", args.min_count, 0)  # filter_oov's own check, before --train is read
    counts = build_vocab_counts(iter_parallel_corpus(args.train, args.format), args.side)
    seen = kept = 0
    with replacing(args.out) as out, open(out, "w", encoding="utf-8") as fh:
        for batch in batched(iter_parallel_corpus(args.pool, args.format), _CHUNK):
            survivors = filter_oov(batch, counts, args.min_count)
            fh.writelines(map(jsonl_line, survivors))
            seen, kept = seen + len(batch), kept + len(survivors)
    print(f"kept {kept}/{seen} examples -> {args.out}")
    return 0


def _cmd_comp_degree(args) -> int:
    dictionary = NGramDictionary.load(args.dict_path)
    scored = 0
    with replacing(args.out) as out, open(out, "w", encoding="utf-8") as fh:
        for batch in batched(iter_parallel_corpus(args.pool, args.format), _CHUNK):
            fh.writelines(degree_line(ex.id, degree)
                          for ex, degree in score_pool(batch, dictionary, args.side))
            scored += len(batch)
    print(f"scored {scored} examples -> {args.out}")
    return 0


def _cmd_select_pool(args) -> int:
    pool = iter_parallel_corpus(args.pool, args.format)

    def scored_on_side():
        """The joined pairs, read once --k is checked; DataError at the first row
        whose length is not the --side token count, as when scored on the other side."""
        table = read_degree_tsv(args.scores)
        for ex, degree in join_by_id(pool, table, "scores", args.scores):
            length = len(side_tokens(ex, args.side))
            if degree.length != length:
                raise DataError(f"example {ex.id!r} has {length} {args.side} tokens but its "
                                f"degree row has length {degree.length}", path=args.scores)
            yield ex, degree

    selection = select_candidate_pool(scored_on_side(), args.k, args.side)
    if selection.warning:
        print(f"warning: {selection.warning}", file=sys.stderr)
    with replacing(args.out) as out:
        save_corpus_jsonl(selection.examples, out)
    print(f"selected {len(selection.examples)} of {selection.scored} scored -> {args.out}")
    return 0


def _cmd_uncertainty_score(args) -> int:
    dists = read_ensemble_dump(args.dump)
    with replacing(args.out) as out:
        write_uncertainty_tsv(
            ((ex_id, token_uncertainties(d).sequence_score) for ex_id, d in dists.items()), out
        )
    print(f"scored {len(dists)} examples -> {args.out}")
    return 0


def _cmd_sample_testset(args) -> int:
    def ranked():  # read once band_select has checked the flags
        pool = load_parallel_corpus(args.pool, args.format)
        yield from join_by_id(pool, read_uncertainty_tsv(args.scores), "scores", args.scores)

    chosen = band_select(ranked(), args.discard_top, args.window, args.sample, args.seed)
    with replacing(args.out) as out:
        save_corpus_jsonl(chosen, out)
    print(f"sampled {len(chosen)} examples -> {args.out}")
    return 0


def _cmd_analyze_novelty(args) -> int:
    report = benchmark_report(read_tagged_file(args.tagged_train),
                              read_tagged_file(args.tagged_test),
                              NGramDictionary.load(args.dict_path), args.tagset)
    with replacing(args.out) as out:
        out.write_text(report.to_json() + "\n", encoding="utf-8")
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
    updates = {}
    if args.variant is not None:
        updates["variant"] = args.variant
    if args.interval is not None:
        updates["interval"] = _parse_interval(args.interval)
    if updates:
        cfg = dataclasses.replace(cfg, **updates)

    def parse(line: str, index: int) -> tuple[str, list[int]]:
        try:
            return str(index), [int(tok) for tok in line.split()]
        except ValueError:
            raise DataError("token ids must be integers")

    sources = [src for _, src in id_records(args.input, parse)]
    if not sources:
        raise DataError("no input sequences", path=args.input)

    with contextlib.ExitStack() as stack:
        trace_fh = None
        if args.trace:
            trace = stack.enter_context(replacing(args.trace))
            trace_fh = stack.enter_context(open(trace, "w", encoding="utf-8"))
        for i, src in enumerate(sources):
            result = greedy_decode(src, weights, cfg, args.max_len)
            print(" ".join(str(tok) for tok in result.tokens))
            if trace_fh is not None:
                for step in result.steps:
                    # The sequence index and every StepTrace field but the logits.
                    record = {f.name: getattr(step, f.name)
                              for f in dataclasses.fields(step) if f.name != "logits"}
                    record["sequence"] = i
                    trace_fh.write(json.dumps(record, sort_keys=True) + "\n")
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
    except CompforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
