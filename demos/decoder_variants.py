#!/usr/bin/env python3
"""One source, four decoding variants, and what each one re-encodes when.

The trace of a greedy decode records, per step, which re-encoding point the
consumed key/value encodings came from (their content hashes make "same
encoding" checkable from outside). With a shared adaptive encoder the same
weight arrays serve every variant, so the differences below are purely
about *when* the source is re-read, not about different parameters.
"""

import math
from dataclasses import replace

import numpy as np

from compforge.engine import (
    ModelConfig,
    adaptive_encode,
    greedy_decode,
    init_weights,
    kv_decode_full,
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
    share_adaptive_encoder=True,
)

SRC = [3, 7, 2, 9, 4]


def trace_table(result) -> None:
    print(f"    {'step':>4}  {'point':>5}  {'keys':<10}  {'values':<10}  token")
    for step in result.steps:
        point = "-" if step.point is None else str(step.point)
        print(
            f"    {step.step:>4}  {point:>5}  {step.key_hash[:8]}…  "
            f"{step.value_hash[:8]}…  {step.token}"
        )


def main() -> None:
    w = init_weights(BASE, seed=0)

    for variant, interval in (
        ("vanilla", 3),
        ("dangle", 3),  # interval is ignored: it re-encodes every step
        ("rdangle_shr", 3),
        ("rdangle_sep", 3),
    ):
        cfg = replace(BASE, variant=variant, interval=interval)
        result = greedy_decode(SRC, w, cfg, max_len=8)
        sched = "-" if result.schedule is None else str(tuple(result.schedule))
        print(f"\n{variant}  (re-encoding points: {sched})")
        trace_table(result)

    print("\nvanilla never re-encodes; dangle re-encodes every step;")
    print("rdangle_shr refreshes keys AND values at points 1, 4, 7;")
    print("rdangle_sep freezes values (one hash throughout) and moves keys only.")

    # Between points the decoder extends a cache instead of recomputing.
    # Rebuilding any step from scratch against the same encodings agrees to
    # float32 noise.
    cfg = replace(BASE, variant="rdangle_shr", interval=3)
    result = greedy_decode(SRC, w, cfg, max_len=8)
    worst = 0.0
    emitted = []
    for step in result.steps:
        enc = adaptive_encode(SRC, [cfg.bos_id] + emitted[: step.point - 1], w, cfg)
        scratch = kv_decode_full([cfg.bos_id] + emitted, enc, enc, w, cfg)[0][-1]
        worst = max(worst, float(np.max(np.abs(scratch - step.logits))))
        emitted.append(step.token)
    print(f"\ncached vs from-scratch logits, worst gap over 8 steps: {worst:.2e}")

    cfg = replace(BASE, interval=math.inf)
    result = greedy_decode(SRC, w, cfg, max_len=8)
    hashes = {step.key_hash for step in result.steps}
    print(f"interval=inf re-encodes once: {len(hashes)} distinct encoding over 8 steps")


if __name__ == "__main__":
    main()
