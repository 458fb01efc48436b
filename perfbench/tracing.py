"""Outside-in tracing: spans around the calls into each compforge module.

The program is not instrumented. Instead the tracer replaces the
module-level names that ``compforge.pipeline``, ``compforge.engine.model``
and ``compforge.engine.ops`` look up at call time with wrappers that record
a span per call. Spans stay in memory (name, start, end, parent span, op id
and a few numbers computed from the arguments and result) and are written
out as JSONL when the run ends. Per-layer numbers are derived from them
afterwards.
"""

from __future__ import annotations

import functools
import json
import statistics
from pathlib import Path
from time import perf_counter

import compforge.engine.model as model
import compforge.engine.ops as ops
import compforge.ngrams as ngrams
import compforge.pipeline as pipeline


def _flops(args, kwargs, result):
    q, k = args[0], args[1]
    # Scores and weighted sum: two (Tq x d) @ (d x Tk) products per call.
    return {"flops": 4 * q.shape[0] * k.shape[0] * q.shape[1]}


def _processes(args, kwargs, result):
    # The pool's own resolved count, so a default of None reads as cpu_count.
    return {"processes": result._processes}


# (owner, attribute, span name, numbers taken from the arguments and result)
PIPELINE_TARGETS = [
    (pipeline, "load_parallel_corpus", "corpus.load", None),
    (pipeline, "build_vocab_counts", "corpus.vocab_counts", None),
    (pipeline, "filter_oov", "corpus.filter_oov", None),
    (pipeline, "save_corpus_jsonl", "corpus.write", None),
    (pipeline, "build_ngram_dictionary", "ngrams.build", None),
    (ngrams.NGramDictionary, "save", "ngrams.save", None),
    (pipeline, "score_pool", "cover.score_pool", lambda a, kw, r: {"sentences": len(a[0])}),
    (pipeline, "select_candidate_pool", "cover.select", None),
    (pipeline, "read_ensemble_dump", "uncertainty.read", lambda a, kw, r: {"records": len(r)}),
    (pipeline, "token_uncertainties", "uncertainty.score",
     lambda a, kw, r: {"positions": a[0].positions}),
    (pipeline, "band_select", "uncertainty.band", None),
]
# score_pool's worker pool, if the pipeline still has one: its span records
# how many processes were actually started.
if hasattr(pipeline, "multiprocessing"):
    PIPELINE_TARGETS.append(
        (pipeline.multiprocessing, "Pool", "cover.worker_pool", _processes))

ENGINE_TARGETS = [
    (model, "encode", "model.encode", None),
    (model, "adaptive_encode", "model.adaptive_encode",
     lambda a, kw, r: {"rows": len(a[0]) + len(a[1])}),
    (model, "kv_decode_full", "model.decode_full", lambda a, kw, r: {"rows": len(a[0])}),
    (model, "kv_decode_step", "model.decode_step", None),
]
# model.py calls these ops directly and ops.py calls them from inside
# encoder_layer and attention_block, so both modules' names are wrapped.
_OPS = [
    ("encoder_layer", "ops.encoder_layer", None, (model,)),
    ("attention_block", "ops.attention_block", None, (model, ops)),
    ("cross_attention", "ops.cross_attention", _flops, (model, ops)),
    ("ffn", "ops.ffn", None, (model, ops)),
    ("layer_norm", "ops.layer_norm", None, (model, ops)),
]
ENGINE_TARGETS += [
    (owner, attr, name, attrs) for attr, name, attrs, owners in _OPS for owner in owners
]


class Tracer:
    """Records nested spans; `install` patches targets, `uninstall` restores them."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, op id, numbers]
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if attrs:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        for owner, attr, name, attrs in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, numbers) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                if numbers:
                    record.update(numbers)
                fh.write(json.dumps(record) + "\n")


class SpanStats:
    """Totals per span name, self times, and per-call durations."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.total: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.numbers: dict[str, dict[str, float]] = {}
        self.durations: dict[str, list[float]] = {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, numbers in spans:
            duration = end - start
            self.total[name] = self.total.get(name, 0.0) + duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.durations.setdefault(name, []).append(duration)
            if parent >= 0:
                child_time[parent] += duration
            for key, value in (numbers or {}).items():
                bucket = self.numbers.setdefault(name, {})
                bucket[key] = bucket.get(key, 0) + value
        self.self_time: dict[str, float] = {}
        for (name, start, end, *_), children in zip(spans, child_time):
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start) - children

    def s(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def num(self, name: str, key: str) -> float:
        return self.numbers.get(name, {}).get(key, 0)

    def median_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) * 1e3 if values else 0.0

    def under(self, name: str, parent_name: str) -> float:
        """Time in `name` spans whose direct parent is a `parent_name` span."""
        return sum(
            end - start
            for span_name, start, end, parent, *_ in self.spans
            if span_name == name and parent >= 0 and self.spans[parent][0] == parent_name
        )
