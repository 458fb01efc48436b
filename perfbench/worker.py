"""One workload run in its own process: closed loop, output checks, metrics.

    python3 perfbench/worker.py --workload NAME --inputs DIR --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --inputs DIR --setup-only

Run from the repository root. The loop is closed with one client: the next
op starts when the previous one returns. One op is one ``run_pipeline`` or
one ``greedy_decode``. Only the op calls are timed; every output check runs
between or after them, and an op whose output check fails counts as failed.

With ``--setup-only`` the process imports compforge, gets ready to work
(pipeline: ``PipelineConfig.from_json`` plus ``validate``; decode:
``load_weights``), prints the ``time.monotonic()`` at which it was ready and
exits; the caller measures set-up from its own clock at spawn.

The last line of standard output is one JSON object with ``attempted``,
``failed``, ``metrics`` (name -> number) and ``detail``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

DEFAULT_SEED = 0
EXPECTED = Path(__file__).resolve().parent / "expected.json"
ORACLE_ROWS = 20  # uncertainty.tsv rows checked against the naive oracle
MAX_LEN = 64
# Decoded tokens checked against the float64 reference engine, per config.
# Its cost grows with the square of this (8 tokens: 1-4 s per config).
REF_TOKENS = 8
INF = math.inf

# decode-interval: most steps take the incremental kv_decode_step path.
# decode-dangle: every step is a re-encoding point, kv_decode_step never runs.
DECODE_CONFIGS = {
    "decode-interval": [
        ("vanilla", 1), ("rdangle_shr", 2), ("rdangle_shr", 4), ("rdangle_shr", 8),
        ("rdangle_shr", INF), ("rdangle_sep", 4), ("rdangle_sep", INF),
    ],
    "decode-dangle": [("dangle", 1), ("rdangle_sep", 1)],
}


def _label(variant: str, interval: float) -> str:
    if variant == "vanilla":
        return variant
    return f"{variant}.o{'inf' if interval == INF else int(interval)}"


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def closed_loop(op, budget_s: float, round_size: int, min_ops: int, count: int | None = None):
    """Run `op(i)` back to back; returns the per-op (seconds, ok, tokens).

    With `count` set, runs exactly that many ops. Otherwise stops at the
    first whole round of `round_size` ops after at least `min_ops` ops and
    `budget_s` seconds of op time.
    """
    results = []
    busy = 0.0
    while True:
        i = len(results)
        if count is not None:
            if i == count:
                break
        elif i % round_size == 0 and i >= min_ops and busy >= budget_s:
            break
        results.append(op(i))
        busy += results[-1][0]
    return results


def _end_to_end(results, round_size: int, peak_rss: float) -> dict:
    """op_ms_p50 over all ops; tokens_per_s from per-op-kind medians.

    Op i is of kind i % round_size (one kind per decode config). Throughput
    is the tokens of one op of each kind over the sum of their median times,
    which a burst of load on the machine moves less than a plain sum would.
    """
    kinds = [results[k::round_size] for k in range(round_size)]
    tokens = sum(statistics.median(r[2] for r in kind) for kind in kinds)
    seconds = sum(statistics.median(r[0] for r in kind) for kind in kinds)
    return {
        "op_ms_p50": statistics.median(r[0] for r in results) * 1e3,
        "tokens_per_s": tokens / seconds,
        "peak_rss_mb": peak_rss,
    }


def _overhead(traced, untraced) -> float:
    """Traced over untraced median op time, for the same ops in the same order."""
    return (statistics.median(r[0] for r in traced)
            / statistics.median(r[0] for r in untraced))


def _timed(fn, *args, **kwargs):
    """(seconds, result or None) of one call; an exception is reported, not raised."""
    t0 = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - a failing op is counted, the run goes on
        elapsed = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return elapsed, None
    return perf_counter() - t0, result


# -- pipeline workloads --------------------------------------------------------


def _artifact_digests(out_dir: Path) -> dict | None:
    """sha256 of manifest.json and of every artifact, checked against the manifest."""
    from generate import sha256_file

    manifest_path = out_dir / "manifest.json"
    digests = {"manifest.json": sha256_file(manifest_path)}
    for artifact in json.loads(manifest_path.read_text(encoding="utf-8"))["artifacts"]:
        digest = sha256_file(out_dir / artifact["path"])
        if digest != artifact["sha256"]:
            print(f"error: {artifact['path']} does not match its manifest digest",
                  file=sys.stderr)
            return None
        digests[artifact["path"]] = digest
    return digests


def _check_uncertainty(out_dir: Path, dump_path: Path, seed: int) -> bool:
    """A seeded sample of uncertainty.tsv rows against the pure-Python oracle.

    The artifact prints scores with 10 significant digits, so the allowed
    difference is 1e-10 plus half a unit in that last printed digit.
    """
    from oracles import naive_uncertainties

    rows = [line.split("\t") for line in
            (out_dir / "uncertainty.tsv").read_text(encoding="utf-8").splitlines()]
    sample = dict(random.Random(seed).sample(rows, min(ORACLE_ROWS, len(rows))))
    checked = 0
    with open(dump_path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["id"] not in sample:
                continue
            probs = record["probs"]
            positions = len(record["support"])
            rmi = [naive_uncertainties([member[l] for member in probs])[2]
                   for l in range(positions)]
            expected = sum(rmi) / positions
            printed = float(sample[record["id"]])
            digit = 10 ** (math.floor(math.log10(abs(printed))) - 9) if printed else 0.0
            if abs(printed - expected) > 1e-10 + digit / 2:
                print(f"error: uncertainty of {record['id']} is {printed}, oracle {expected}",
                      file=sys.stderr)
                return False
            checked += 1
    return checked == len(sample)


def _stage_counts(out_dir: Path) -> dict:
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    return {stage["name"]: (stage["in"], stage["out"]) for stage in manifest["stages"]}


def _target_tokens(path: Path) -> int:
    """Target-side tokens of a train TSV or pool JSONL file."""
    with open(path, encoding="utf-8") as fh:
        if path.suffix == ".tsv":
            return sum(len(line.split("\t")[1].split()) for line in fh)
        return sum(len(json.loads(line)["target"].split()) for line in fh)


def pipeline_workload(args, inputs: Path, tracer) -> dict:
    from compforge import pipeline

    config = pipeline.PipelineConfig.from_json(inputs / "pipeline.json")
    config.validate()
    out_dir = Path(config.out_dir)
    train_tokens = _target_tokens(Path(config.train_path))
    input_tokens = train_tokens + _target_tokens(Path(config.pool_path))
    reference = None
    if config.seed == DEFAULT_SEED and EXPECTED.is_file():
        reference = json.loads(EXPECTED.read_text(encoding="utf-8")).get(args.workload)
    seen: list[dict] = []

    def op(run):
        def one(i):
            if tracer is not None:
                tracer.op = i
            elapsed, manifest = _timed(run, config)
            digests = _artifact_digests(out_dir) if manifest is not None else None
            if digests is not None and not seen:
                seen.append(digests)
            ok = digests is not None and digests == (reference or seen[0])
            if digests is not None and not ok:
                print(f"error: op {i} artifacts differ from the reference digests",
                      file=sys.stderr)
            return elapsed, ok, input_tokens
        return one

    untraced = closed_loop(op(pipeline.run_pipeline), args.seconds / (1 + args.trace), 1,
                           min_ops=3 - args.trace)
    peak_rss = _peak_rss_mb()
    results = untraced
    if tracer is not None:
        from tracing import PIPELINE_TARGETS, SpanStats

        tracer.install(PIPELINE_TARGETS)
        traced = closed_loop(op(tracer.wrap(pipeline.run_pipeline, "pipeline.run_pipeline")),
                             0, 1, 0, count=len(untraced))
        tracer.uninstall()
        results = untraced + traced
        stats = SpanStats(tracer.spans)
        counts = _stage_counts(out_dir)
        metrics = _pipeline_layers(stats, len(traced), counts, train_tokens, config)
        metrics["trace.overhead_ratio"] = _overhead(traced, untraced)
        metrics["trace.spans"] = len(tracer.spans)
        if args.workload == "pipeline-detect":
            metrics.update(_score_serial_vs_default(out_dir, config))
    else:
        metrics = _end_to_end(results, round_size=1, peak_rss=peak_rss)

    oracle_ok = bool(seen) and _check_uncertainty(
        out_dir, Path(config.ensemble_dump_path), config.seed)
    failed = sum(1 for r in results if not (r[1] and oracle_ok))
    return {
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
        "detail": {"op_ms": [round(r[0] * 1e3, 1) for r in untraced],
                   "digests": seen[0] if seen else None,
                   "reference_digests": "expected.json" if reference else "first op",
                   "uncertainty_oracle_rows": ORACLE_ROWS, "oracle_ok": oracle_ok},
    }


def _pipeline_layers(stats, ops: int, counts: dict, train_tokens: int, config) -> dict:
    def per_op(name):
        return stats.s(name) / ops

    pool_in, pool_out = counts["filter_oov"]
    dump_path = Path(config.ensemble_dump_path)
    records = stats.num("uncertainty.read", "records") / ops
    read_s = per_op("uncertainty.read")
    score_s = per_op("uncertainty.score")
    return {
        "corpus.load_s": per_op("corpus.load"),
        "corpus.filter_s": per_op("corpus.vocab_counts") + per_op("corpus.filter_oov"),
        "corpus.write_s": per_op("corpus.write"),
        "corpus.kept_ratio": pool_out / pool_in,
        "corpus.pool_examples": pool_in,
        "ngrams.build_s": per_op("ngrams.build"),
        "ngrams.train_tokens_per_s": train_tokens / per_op("ngrams.build"),
        "ngrams.save_s": per_op("ngrams.save"),
        "ngrams.entries": counts["build_dictionary"][1],
        "cover.score_s": per_op("cover.score_pool"),
        "cover.sentences_per_s": stats.num("cover.score_pool", "sentences")
        / stats.s("cover.score_pool"),
        "cover.select_s": per_op("cover.select"),
        # Processes of the worker pools score_pool opened, 1 when it scored in-process.
        "cover.workers": max(stats.num("cover.worker_pool", "processes") / ops, 1),
        "uncertainty.read_s": read_s,
        "uncertainty.read_mb_per_s": dump_path.stat().st_size / 1e6 / read_s,
        "uncertainty.score_s": score_s,
        "uncertainty.positions_per_s": stats.num("uncertainty.score", "positions")
        / stats.s("uncertainty.score"),
        "uncertainty.band_s": per_op("uncertainty.band"),
        "uncertainty.records_used_ratio": counts["score_uncertainty"][1] / records,
        "uncertainty.records_parsed": records,
        "pipeline.self_s": stats.self_time["pipeline.run_pipeline"] / ops,
    }


def _score_serial_vs_default(out_dir: Path, config) -> dict:
    """score_pool on the filtered pool, serial and with default workers, alternating."""
    from compforge.corpus import load_parallel_corpus
    from compforge.ngrams import NGramDictionary
    from compforge.pipeline import score_pool

    pool = load_parallel_corpus(out_dir / "pool_filtered.jsonl")
    dictionary = NGramDictionary.load(out_dir / "ngrams.ngix")
    serial, default = [], []
    for _ in range(3):
        for workers, sink in ((1, serial), (config.workers, default)):
            t0 = perf_counter()
            score_pool(pool, dictionary, config.side, workers)
            sink.append(perf_counter() - t0)
    return {"cover.score_serial_s": statistics.median(serial),
            "cover.score_default_s": statistics.median(default)}


# -- decode workloads ----------------------------------------------------------


def _reference_decode(src, weights, cfg, steps: int) -> list[int]:
    """The first `steps` greedy tokens of the float64 reference engine.

    Shared-key configs use the test suite's ``ref_greedy_decode``. vanilla
    and rdangle_sep take their values from ``ref_encode``; rdangle_sep takes
    its keys from ``ref_adaptive_encode`` at the schedule points.
    """
    from reference_engine import (ref_adaptive_encode, ref_decoder_logits, ref_encode,
                                  ref_greedy_decode)

    if cfg.variant in ("dangle", "rdangle_shr"):
        return ref_greedy_decode(src, weights, cfg, steps, cfg.effective_interval)
    values = keys = ref_encode(src, weights, cfg)
    interval = cfg.effective_interval
    prefix, out = [cfg.bos_id], []
    for t in range(1, steps + 1):
        if cfg.variant == "rdangle_sep" and (t - 1) % interval == 0:
            keys = ref_adaptive_encode(src, prefix, weights, cfg)
        token = int(ref_decoder_logits(prefix, keys, values, weights, cfg)[-1].argmax())
        out.append(token)
        if token == cfg.eos_id:
            break
        prefix.append(token)
    return out


def _reference_tokens(cache: Path, key: str, compute) -> list[int]:
    """The reference engine's tokens, cached per input set (the oracle is slow)."""
    table = json.loads(cache.read_text()) if cache.is_file() else {}
    if key not in table:
        table[key] = compute()
        partial = cache.with_name(cache.name + ".partial")
        partial.write_text(json.dumps(table, sort_keys=True))
        partial.replace(cache)
    return table[key]


def decode_workload(args, inputs: Path, tracer) -> dict:
    from compforge import engine

    load = engine.load_weights if tracer is None else tracer.wrap(
        engine.load_weights, "weights.load")
    t0 = perf_counter()
    weights, base = load(inputs / "model.bin")
    load_s = perf_counter() - t0
    sources = json.loads((inputs / "sources.json").read_text())["sources"]
    configs = [(_label(v, o), dataclasses.replace(base, variant=v, interval=o))
               for v, o in DECODE_CONFIGS[args.workload]]
    engine.greedy_decode(sources[0], weights, configs[0][1], max_len=4)  # warm-up
    first: dict[str, tuple[int, tuple[int, ...]]] = {}

    def op(decode):
        def one(i):
            label, cfg = configs[i % len(configs)]
            src_index = i % len(sources)
            if tracer is not None:
                tracer.op = i
            elapsed, result = _timed(decode, sources[src_index], weights, cfg, MAX_LEN)
            ok = (result is not None and len(result.tokens) == MAX_LEN
                  and len(result.steps) == MAX_LEN and cfg.eos_id not in result.tokens)
            if result is not None:
                first.setdefault(label, (src_index, result.tokens))
            return elapsed, ok, len(result.tokens) if result is not None else 0
        return one

    untraced = closed_loop(op(engine.greedy_decode), args.seconds / (1 + args.trace),
                           len(configs), min_ops=len(configs))
    peak_rss = _peak_rss_mb()
    results = untraced
    if tracer is not None:
        from tracing import ENGINE_TARGETS, SpanStats

        tracer.install(ENGINE_TARGETS)
        traced = closed_loop(op(tracer.wrap(engine.greedy_decode, "model.greedy_decode")),
                             0, 1, 0, count=len(untraced))
        tracer.uninstall()
        results = untraced + traced
        metrics = _engine_layers(SpanStats(tracer.spans), len(traced))
        metrics["weights.load_s"] = load_s
        for index, (label, _) in enumerate(configs):
            mine = untraced[index::len(configs)]
            metrics[f"model.tokens_per_s.{label}"] = (sum(r[2] for r in mine)
                                                      / sum(r[0] for r in mine))
        metrics["trace.overhead_ratio"] = _overhead(traced, untraced)
        metrics["trace.spans"] = len(tracer.spans)
    else:
        metrics = _end_to_end(results, round_size=len(configs), peak_rss=peak_rss)

    # The first REF_TOKENS tokens of one source per config must equal the
    # float64 reference engine's greedy decode.
    bad_labels = set()
    for label, cfg in configs:
        if label not in first:
            continue
        src_index, tokens = first[label]
        expected = _reference_tokens(
            inputs / "reference_tokens.json", f"{label}/{src_index}",
            lambda: _reference_decode(sources[src_index], weights, cfg, REF_TOKENS),
        )
        if list(tokens[:REF_TOKENS]) != expected:
            print(f"error: {label} decode differs from the reference engine", file=sys.stderr)
            bad_labels.add(label)
    failed = sum(
        1 for i, r in enumerate(results)
        if not r[1] or configs[i % len(configs)][0] in bad_labels
    )
    return {
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
        "detail": {"op_ms": [round(r[0] * 1e3, 1) for r in untraced],
                   "configs": [label for label, _ in configs],
                   "reference_checked": sorted(first),
                   "reference_failed": sorted(bad_labels)},
    }


def _engine_layers(stats, ops: int) -> dict:
    def per_op(name):
        return stats.s(name) / ops

    steps = stats.n("model.decode_step")
    fulls = stats.n("model.decode_full")
    cross_all = stats.s("ops.cross_attention")
    cross_in_self = stats.under("ops.cross_attention", "ops.attention_block")
    return {
        "model.encode_s": per_op("model.encode"),
        "model.encode_calls": stats.n("model.encode") / ops,
        "model.adaptive_encode_s": per_op("model.adaptive_encode"),
        "model.adaptive_encode_calls": stats.n("model.adaptive_encode") / ops,
        "model.adaptive_encode_rows": stats.num("model.adaptive_encode", "rows") / ops,
        "model.decode_full_s": per_op("model.decode_full"),
        "model.decode_full_calls": fulls / ops,
        "model.decode_full_rows": stats.num("model.decode_full", "rows") / ops,
        "model.decode_step_s": per_op("model.decode_step"),
        "model.decode_step_calls": steps / ops,
        "model.decode_step_ms_p50": stats.median_ms("model.decode_step"),
        "model.steps": (steps + fulls) / ops,
        "model.incremental_share": steps / (steps + fulls),
        "model.greedy_self_s": stats.self_time["model.greedy_decode"] / ops,
        "ops.encoder_layer_s": per_op("ops.encoder_layer"),
        "ops.self_attn_s": per_op("ops.attention_block"),
        "ops.cross_attn_s": (cross_all - cross_in_self) / ops,
        "ops.attention_core_s": cross_all / ops,
        "ops.ffn_s": per_op("ops.ffn"),
        "ops.layer_norm_s": per_op("ops.layer_norm"),
        "ops.attention_flops": stats.num("ops.cross_attention", "flops") / ops,
    }


# -----------------------------------------------------------------------------


def setup_only(workload: str, inputs: Path) -> None:
    if workload.startswith("pipeline"):
        from compforge.pipeline import PipelineConfig

        PipelineConfig.from_json(inputs / "pipeline.json").validate()
    else:
        from compforge.engine import load_weights

        load_weights(inputs / "model.bin")
    print(json.dumps({"ready": time.monotonic()}))


def _blas() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline-detect", *DECODE_CONFIGS))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        setup_only(args.workload, args.inputs)
        return
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    run = pipeline_workload if args.workload.startswith("pipeline") else decode_workload
    result = run(args, args.inputs, tracer)
    if tracer is not None and args.trace_out is not None:
        tracer.write(args.trace_out)
    result["detail"].update(_blas())
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
