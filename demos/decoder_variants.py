#!/usr/bin/env python3
"""One source, four decoding variants, and what each one re-encodes when.

The trace of a greedy decode records, per step, which re-encoding point the
consumed key/value encodings came from, and their content hashes make "same
encoding" checkable from outside. Below, each distinct encoding gets a
letter, A, B, C, ... in order of first appearance. Every configuration holds
every parameter stack, so one set of weights serves all four variants and
the differences are purely about *when* the source is re-read.
"""

import math
from dataclasses import replace
from string import ascii_uppercase

import numpy as np

from compforge.engine import (
    ModelConfig,
    adaptive_encode,
    greedy_decode,
    init_weights,
    kv_decode_full,
    project_cross,
)

BASE = ModelConfig(
    src_vocab=12,
    tgt_vocab=10,
    d_model=16,
    n_heads=4,
    d_ff=32,
    encoder_layers=2,
    decoder_layers=2,
    k1=1,
    k2=1,
    max_src_positions=48,
    max_tgt_positions=24,
    variant="rdangle_shr",
    interval=3,
)

SRC = [3, 7, 2, 9, 4]
# A strongly negative EOS bias makes every variant decode all 8 steps.
EOS_BIAS = -100.0


def trace_table(result, labels: dict[str, str]) -> None:
    print(f"    {'step':>4}  {'point':>5}  keys  values  token")
    for step in result.steps:
        point = "-" if step.point is None else str(step.point)
        keys, values = (labels.setdefault(h, ascii_uppercase[len(labels)])
                        for h in (step.key_hash, step.value_hash))
        print(f"    {step.step:>4}  {point:>5}  {keys:>4}  {values:>6}  {step.token}")


def main() -> None:
    w = init_weights(BASE, seed=0)
    w.data["out_b"][BASE.eos_id] += EOS_BIAS
    labels: dict[str, str] = {}

    for variant in ("vanilla", "dangle", "rdangle_shr", "rdangle_sep"):
        # dangle ignores the interval: it re-encodes every step.
        cfg = replace(BASE, variant=variant)
        result = greedy_decode(SRC, w, cfg, max_len=8)
        sched = "-" if result.schedule is None else str(tuple(result.schedule))
        print(f"\n{variant}  (re-encoding points: {sched})")
        trace_table(result, labels)

    print("\nvanilla never re-encodes; dangle re-encodes every step;")
    print("rdangle_shr refreshes keys AND values at points 1, 4, 7;")
    print("rdangle_sep keeps vanilla's values throughout and moves keys only.")

    # Between points the decoder extends a cache instead of recomputing.
    # Rebuilding any step from scratch against the same encodings agrees to
    # float32 noise.
    result = greedy_decode(SRC, w, BASE, max_len=8)
    worst = 0.0
    emitted = []
    for step in result.steps:
        enc = adaptive_encode(SRC, [BASE.bos_id] + emitted[: step.point - 1], w, BASE)
        cross = (project_cross(enc, w, BASE, "v"), project_cross(enc, w, BASE, "k"))
        scratch = kv_decode_full([BASE.bos_id] + emitted, cross, w, BASE)[0][-1]
        worst = max(worst, float(np.max(np.abs(scratch - step.logits))))
        emitted.append(step.token)
    verdict = "pass" if worst <= 1e-6 else "FAIL"
    print(f"\ncached vs from-scratch logits over {len(result.steps)} steps, "
          f"worst gap <= 1e-6: {verdict}")

    result = greedy_decode(SRC, w, replace(BASE, interval=math.inf), max_len=8)
    hashes = {step.key_hash for step in result.steps}
    print(f"interval=inf re-encodes once: {len(hashes)} distinct encoding over "
          f"{len(result.steps)} steps")


if __name__ == "__main__":
    main()
