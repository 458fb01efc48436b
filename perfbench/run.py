"""The compforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout. The seed makes the inputs
(cached under ``.perfbench_work/``, outside all timing); the program only
ever sees the generated files. Each workload is a closed loop with one
client in one process. Workloads (why each exists is in BENCHMARK.json):

* ``pipeline-detect``: ``run_pipeline`` where the detection stages
  (corpus, ngrams, cover) do most of the work.
* ``decode-interval``: ``greedy_decode`` over vanilla, rdangle_shr with
  o in {2, 4, 8, inf} and rdangle_sep with o in {4, inf}; most steps take
  the incremental ``kv_decode_step`` path.
* ``decode-dangle``: ``greedy_decode`` with dangle and rdangle_sep o=1;
  every step re-encodes and ``kv_decode_step`` never runs.

End-to-end metrics (``--trace 0``), reported on every workload:

* ``op_ms_p50``: median wall time of one op, i.e. one ``run_pipeline``
  (inputs to finished test set) or one ``greedy_decode`` (one translation).
* ``tokens_per_s``: tokens per second of op wall time, one op of each
  config over the sum of their median op times; generated tokens for
  decoding, target-side input tokens (train plus pool) for the pipeline.
* ``setup_s``: median over several fresh processes of the time from process
  spawn to ready to work: import plus ``PipelineConfig.from_json`` plus
  ``validate``, or import plus ``load_weights``.
* ``peak_rss_mb``: peak RSS of the workload process or its largest worker.

``attempted`` and ``failed`` count ops; an op fails if it raises or its
output check fails. ``--trace 1`` runs the same ops untraced and then traced
(see ``tracing.py``) and reports the per-layer metrics instead. Lines before
the last one give provenance, input digests and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("pipeline-detect", "decode-interval", "decode-dangle")
# Set-up is short and noisy; the median of this many fresh processes is reported.
SETUP_PROBES = 9
# One BLAS thread: the box has two cores, pipeline scoring forks one worker
# per core, and single-threaded BLAS keeps decode timings steady.
BLAS_THREADS = 1
TIMEOUT_S = 170


def _kind(workload: str) -> str:
    return "decode" if workload.startswith("decode") else workload


def _child_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def _python(*args: str, timeout: float = TIMEOUT_S) -> str:
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        text=True, timeout=timeout, check=True,
    )
    return done.stdout


def _sources() -> dict[str, list[Path]]:
    """The files whose change invalidates cached inputs and reference tokens."""
    return {
        "src": sorted((ROOT / "src").rglob("*.py")),
        "tests": [ROOT / "tests" / "reference_engine.py"],
        "generator": [HERE / "generate.py"],
    }


def ensure_inputs(workload: str, seed: int, sources: dict) -> tuple[Path, dict]:
    """Generate (once per seed and source tree) and digest the inputs of `workload`.

    The generator runs compforge's own candidate selection and weights
    writer, and the decode check caches the reference engine's tokens next
    to the inputs, so the cache is keyed on all of those sources.
    """
    from generate import sha256_file, sha256_tree

    inputs = WORK / f"{_kind(workload)}-s{seed}"
    key = {name: sha256_tree(paths) for name, paths in sources.items()}
    stamp = inputs / "key.json"
    if not stamp.is_file() or json.loads(stamp.read_text()) != key:
        _python(str(HERE / "generate.py"), "--kind", _kind(workload), "--seed", str(seed),
                "--out", str(inputs), timeout=600)
        stamp.write_text(json.dumps(key, sort_keys=True) + "\n")
    listed = json.loads((inputs / "inputs.json").read_text())
    digests = {}
    for name, recorded in listed.items():
        digests[name] = sha256_file(inputs / name)
        if digests[name] != recorded:
            raise SystemExit(f"error: cached input {inputs / name} changed since generation")
    return inputs, dict(digests, key=key)


def setup_seconds(workload: str, inputs: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        out = _python(str(HERE / "worker.py"), "--workload", workload, "--inputs", str(inputs),
                      "--setup-only")
        samples.append(json.loads(out.strip().splitlines()[-1])["ready"] - spawned)
    return samples


def provenance(sources: dict) -> dict:
    from generate import sha256_tree

    sha = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip()
    return {
        "git_sha": sha,
        "src_sha256": sha256_tree(sources["src"]),
        "src_lines": sum(path.read_bytes().count(b"\n") for path in sources["src"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for needed in ("src/compforge/pipeline.py", "tests/oracles.py",
                   "tests/reference_engine.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            raise SystemExit(f"error: {needed} not found; run from a compforge checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sources = _sources()
    inputs, input_digests = ensure_inputs(args.workload, args.seed, sources)
    setup = [] if args.trace else setup_seconds(args.workload, inputs)
    command = [str(HERE / "worker.py"), "--workload", args.workload, "--inputs", str(inputs),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_out = WORK / "traces" / f"{args.workload}-s{args.seed}.jsonl"
        command += ["--trace-out", str(trace_out)]
    result = json.loads(_python(*command).strip().splitlines()[-1])
    measured = dict(result["metrics"])
    if setup:
        measured["setup_s"] = statistics.median(setup)

    detail = dict(result["detail"], setup_samples=len(setup),
                  ops=result["attempted"], ops_failed=result["failed"])
    print(json.dumps({"provenance": provenance(sources)}, sort_keys=True))
    print(json.dumps({"inputs": input_digests}, sort_keys=True))
    print(json.dumps({"detail": detail}, sort_keys=True))
    metrics = {}
    for metric in wanted:
        # A layer a workload never calls did no work there: it reads 0.
        value = measured.get(metric["name"], 0.0 if args.trace else None)
        if value is None:
            raise SystemExit(f"error: workload did not report {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
