"""Scheduled decoding: re-encoding points, incremental memory, greedy traces."""

from __future__ import annotations

import math

import numpy as np
import pytest

from compforge.engine import (
    ModelConfig,
    TargetMemory,
    adaptive_encode,
    build_schedule,
    encode,
    encoding_hash,
    greedy_decode,
    init_weights,
    kv_decode_full,
    kv_decode_step,
)
from compforge.errors import ConfigError

from reference_engine import ref_decoder_logits, ref_greedy_decode


def small_config(**overrides) -> ModelConfig:
    params = dict(
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
        variant="vanilla",
    )
    params.update(overrides)
    return ModelConfig(**params)


class TestSchedule:
    def test_interval_one_hits_every_step(self):
        assert build_schedule(1, 5).points == (1, 2, 3, 4, 5)

    def test_interval_three(self):
        assert build_schedule(3, 7).points == (1, 4, 7)

    def test_interval_larger_than_horizon(self):
        assert build_schedule(10, 4).points == (1,)

    def test_infinite_interval_single_point(self):
        sched = build_schedule(math.inf, 50)
        assert sched.points == (1,)
        assert sched.interval == math.inf

    def test_membership(self):
        sched = build_schedule(3, 7)
        assert 1 in sched and 4 in sched and 7 in sched
        assert 2 not in sched and 6 not in sched

    def test_point_for_latest_at_or_before(self):
        sched = build_schedule(3, 10)  # points 1, 4, 7, 10
        assert sched.point_for(1) == 1
        assert sched.point_for(3) == 1
        assert sched.point_for(4) == 4
        assert sched.point_for(9) == 7
        assert sched.point_for(10) == 10

    def test_point_for_before_first_point_rejected(self):
        with pytest.raises(ConfigError):
            build_schedule(2, 5).point_for(0)

    def test_bad_intervals_rejected(self):
        for interval in (0, -1, 2.5):
            with pytest.raises(ConfigError):
                build_schedule(interval, 5)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigError):
            build_schedule(1, 0)

    def test_dangle_variant_forces_interval_one(self):
        cfg = small_config(variant="dangle", interval=7)
        assert cfg.effective_interval == 1
        cfg = small_config(variant="rdangle_shr", interval=7)
        assert cfg.effective_interval == 7


class TestIncrementalDecode:
    def test_cached_matches_from_scratch(self):
        # Advancing the memory one token at a time must agree with decoding
        # the whole prefix from an empty memory, at every position and in
        # the memory it leaves, for shared and for distinct keys and values.
        cfg = small_config()
        rng = np.random.default_rng(0)
        for seed in range(10):
            w = init_weights(cfg, seed=seed)
            src = list(rng.integers(0, cfg.src_vocab, size=5))
            enc = encode(src, w, cfg)
            enc_k = enc + rng.normal(scale=0.5, size=enc.shape).astype(np.float32)
            prefix = [cfg.bos_id] + list(rng.integers(0, cfg.tgt_vocab, size=6))
            for keys in (enc, enc_k):
                full, full_mem = kv_decode_full(prefix, enc, keys, w, cfg)
                memory = TargetMemory.empty(cfg)
                for t, tok in enumerate(prefix):
                    logits, memory = kv_decode_step(int(tok), memory, enc, keys, w, cfg)
                    np.testing.assert_allclose(logits, full[t], atol=1e-6)
                for stepped, rebuilt in zip(memory.layers, full_mem.layers, strict=True):
                    np.testing.assert_allclose(stepped, rebuilt, atol=1e-6)

    def test_first_step_equals_single_token_full(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4, 6], w, cfg)
        full, full_mem = kv_decode_full([cfg.bos_id], enc, enc, w, cfg)
        step, step_mem = kv_decode_step(cfg.bos_id, TargetMemory.empty(cfg), enc, enc, w, cfg)
        np.testing.assert_array_equal(step, full[0])
        for a, b in zip(step_mem.layers, full_mem.layers):
            np.testing.assert_array_equal(a, b)

    def test_causality(self):
        # Changing a later prefix token must not move logits at earlier
        # positions — the causal mask zeroes that path exactly.
        cfg = small_config()
        w = init_weights(cfg, seed=1)
        enc = encode([2, 4, 6, 8], w, cfg)
        prefix = [1, 3, 5, 7, 9]
        base, _ = kv_decode_full(prefix, enc, enc, w, cfg)
        mutated = list(prefix)
        mutated[4] = 8
        other, _ = kv_decode_full(mutated, enc, enc, w, cfg)
        np.testing.assert_array_equal(base[:4], other[:4])
        assert not np.array_equal(base[4], other[4])

    def test_memory_grows_one_row_per_step(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4], w, cfg)
        memory = TargetMemory.empty(cfg)
        assert memory.length == 0
        for expected in range(1, 4):
            _, memory = kv_decode_step(1, memory, enc, enc, w, cfg)
            assert memory.length == expected
            assert len(memory.layers) == cfg.decoder_layers

    def test_step_does_not_mutate_input_memory(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4], w, cfg)
        _, memory = kv_decode_step(1, TargetMemory.empty(cfg), enc, enc, w, cfg)
        snapshot = [layer.copy() for layer in memory.layers]
        kv_decode_step(3, memory, enc, enc, w, cfg)
        for a, b in zip(memory.layers, snapshot):
            np.testing.assert_array_equal(a, b)

    def test_distinct_keys_and_values_both_matter(self):
        cfg = small_config()
        w = init_weights(cfg, seed=3)
        rng = np.random.default_rng(3)
        enc_v = encode([2, 4, 6], w, cfg)
        enc_k = enc_v + rng.normal(scale=0.5, size=enc_v.shape).astype(np.float32)
        mixed, _ = kv_decode_full([1, 3], enc_v, enc_k, w, cfg)
        shared, _ = kv_decode_full([1, 3], enc_v, enc_v, w, cfg)
        assert not np.array_equal(mixed, shared)

    def test_kv_row_mismatch_rejected(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4, 6], w, cfg)
        with pytest.raises(ConfigError):
            kv_decode_full([1], enc, enc[:2], w, cfg)
        with pytest.raises(ConfigError):
            kv_decode_step(1, TargetMemory.empty(cfg), enc, enc[:2], w, cfg)

    def test_inconsistent_memory_rejected(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4], w, cfg)
        lopsided = TargetMemory(
            layers=(
                np.zeros((2, cfg.d_model), dtype=np.float32),
                np.zeros((1, cfg.d_model), dtype=np.float32),
            )
        )
        with pytest.raises(ConfigError):
            kv_decode_step(1, lopsided, enc, enc, w, cfg)
        wrong_depth = TargetMemory(layers=(np.zeros((0, cfg.d_model), np.float32),))
        with pytest.raises(ConfigError):
            kv_decode_step(1, wrong_depth, enc, enc, w, cfg)

    def test_prefix_length_capped(self):
        cfg = small_config(max_tgt_positions=3)
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4], w, cfg)
        with pytest.raises(ConfigError):
            kv_decode_full([1, 3, 5, 7], enc, enc, w, cfg)
        memory = TargetMemory.empty(cfg)
        for tok in (1, 3, 5):
            _, memory = kv_decode_step(tok, memory, enc, enc, w, cfg)
        with pytest.raises(ConfigError):
            kv_decode_step(7, memory, enc, enc, w, cfg)

    def test_matches_float64_reference(self):
        cfg = small_config()
        rng = np.random.default_rng(4)
        for seed in range(5):
            w = init_weights(cfg, seed=seed)
            src = list(rng.integers(0, cfg.src_vocab, size=4))
            enc = encode(src, w, cfg)
            prefix = [1] + list(rng.integers(0, cfg.tgt_vocab, size=4))
            ours, _ = kv_decode_full(prefix, enc, enc, w, cfg)
            theirs = ref_decoder_logits(prefix, enc, enc, w, cfg)
            np.testing.assert_allclose(ours, theirs, atol=1e-5)


class TestGreedyDecode:
    def test_vanilla_trace_constant_encodings(self):
        cfg = small_config(variant="vanilla")
        w = init_weights(cfg, seed=0)
        src = [2, 4, 6]
        result = greedy_decode(src, w, cfg, max_len=8)
        expected = encoding_hash(encode(src, w, cfg))
        assert result.schedule is None
        for step in result.steps:
            assert step.point is None
            assert step.key_hash == expected
            assert step.value_hash == expected

    def test_shared_trace_key_equals_value_and_tracks_points(self):
        cfg = small_config(variant="rdangle_shr", interval=2)
        w = init_weights(cfg, seed=1)
        src = [2, 4, 6, 8]
        result = greedy_decode(src, w, cfg, max_len=7)
        assert result.schedule is not None
        for step in result.steps:
            assert step.value_hash == step.key_hash
            assert step.point == result.schedule.point_for(step.step)

    def test_consumed_keys_come_from_latest_point(self):
        # Recompute each point's adaptive encoding offline from the emitted
        # tokens and check the trace consumed exactly that matrix.
        cfg = small_config(variant="rdangle_shr", interval=3)
        w = init_weights(cfg, seed=2)
        src = [3, 5, 7, 9, 2]
        result = greedy_decode(src, w, cfg, max_len=9)
        emitted = list(result.tokens)
        for step in result.steps:
            point = result.schedule.point_for(step.step)
            prefix_at_point = [cfg.bos_id] + emitted[: point - 1]
            expected = encoding_hash(adaptive_encode(src, prefix_at_point, w, cfg))
            assert step.key_hash == expected

    def test_key_hash_changes_only_at_points(self):
        cfg = small_config(variant="rdangle_shr", interval=4)
        w = init_weights(cfg, seed=3)
        result = greedy_decode([2, 4, 6], w, cfg, max_len=10)
        for prev, cur in zip(result.steps, result.steps[1:]):
            if cur.step in result.schedule:
                assert cur.point == cur.step
            else:
                assert cur.key_hash == prev.key_hash

    def test_separated_values_constant_keys_move(self):
        cfg = small_config(variant="rdangle_sep", interval=2)
        w = init_weights(cfg, seed=4)
        src = [2, 4, 6, 8]
        result = greedy_decode(src, w, cfg, max_len=8)
        value_hashes = {step.value_hash for step in result.steps}
        assert value_hashes == {encoding_hash(encode(src, w, cfg))}
        # keys are adaptive, values are not: the two streams must diverge
        assert any(step.key_hash != step.value_hash for step in result.steps)
        for prev, cur in zip(result.steps, result.steps[1:]):
            if cur.step not in result.schedule:
                assert cur.key_hash == prev.key_hash

    def test_infinite_interval_reencodes_once(self):
        cfg = small_config(variant="rdangle_shr", interval=math.inf)
        w = init_weights(cfg, seed=5)
        result = greedy_decode([2, 4, 6], w, cfg, max_len=8)
        assert result.schedule.points == (1,)
        assert len({step.key_hash for step in result.steps}) == 1
        assert all(step.point == 1 for step in result.steps)

    def test_dangle_equals_shared_interval_one(self):
        shr = small_config(variant="rdangle_shr", interval=1)
        dng = small_config(variant="dangle", interval=5)  # interval ignored
        w = init_weights(shr, seed=6)
        src = [3, 5, 7]
        a = greedy_decode(src, w, shr, max_len=8)
        b = greedy_decode(src, w, dng, max_len=8)
        assert a.tokens == b.tokens
        for sa, sb in zip(a.steps, b.steps):
            np.testing.assert_array_equal(sa.logits, sb.logits)

    def test_interval_one_equals_stepwise_pipeline(self):
        # With a point at every step, greedy decoding is the plain
        # re-encode-then-decode-from-scratch pipeline.
        cfg = small_config(variant="rdangle_shr", interval=1)
        w = init_weights(cfg, seed=7)
        src = [2, 4, 6, 8]
        result = greedy_decode(src, w, cfg, max_len=8)
        prefix = [cfg.bos_id]
        for step in result.steps:
            enc = adaptive_encode(src, prefix, w, cfg)
            logits, _ = kv_decode_full(prefix, enc, enc, w, cfg)
            np.testing.assert_array_equal(step.logits, logits[-1])
            token = int(np.argmax(logits[-1]))
            assert step.token == token
            prefix.append(token)

    def test_source_plus_prefix_checked_before_encoding(self, monkeypatch):
        # The adaptive encoder at the last point reads len(src) + that point's
        # prefix; a source too long for it is rejected before any encoding.
        import compforge.engine.model as model

        def no_encoding(*args):
            raise AssertionError("source encoded before the length check")

        src = [2, 4, 6, 8, 3]
        for variant in ("dangle", "rdangle_shr", "rdangle_sep"):
            cfg = small_config(variant=variant, interval=3, max_src_positions=12)
            w = init_weights(cfg, seed=0)
            # Points 1, 4, 7: 5 + 7 = 12 fits, and the decode runs to the end.
            greedy_decode(src, w, cfg, max_len=7)
            with monkeypatch.context() as patched:
                for name in ("encode", "adaptive_encode"):
                    patched.setattr(model, name, no_encoding)
                with pytest.raises(ConfigError, match="13 positions"):
                    greedy_decode(src + [5], w, cfg, max_len=7)

    def test_emission_stops_at_eos(self):
        cfg = small_config(variant="vanilla")
        for seed in range(20):
            w = init_weights(cfg, seed=seed)
            result = greedy_decode([2, 4], w, cfg, max_len=6)
            assert 1 <= len(result.tokens) <= 6
            if cfg.eos_id in result.tokens:
                assert result.tokens.index(cfg.eos_id) == len(result.tokens) - 1

    def test_steps_record_emitted_tokens(self):
        cfg = small_config(variant="rdangle_shr", interval=2)
        w = init_weights(cfg, seed=8)
        result = greedy_decode([2, 4, 6], w, cfg, max_len=8)
        assert tuple(step.token for step in result.steps) == result.tokens
        assert [step.step for step in result.steps] == list(
            range(1, len(result.tokens) + 1)
        )

    def test_tokens_are_argmax_of_traced_logits(self):
        cfg = small_config(variant="rdangle_sep", interval=2)
        w = init_weights(cfg, seed=9)
        result = greedy_decode([2, 4, 6], w, cfg, max_len=8)
        for step in result.steps:
            assert step.token == int(np.argmax(step.logits))

    def test_bad_max_len_rejected(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        with pytest.raises(ConfigError):
            greedy_decode([2, 4], w, cfg, max_len=0)
        with pytest.raises(ConfigError):
            greedy_decode([2, 4], w, cfg, max_len=cfg.max_tgt_positions + 1)

    def test_deterministic_across_calls(self):
        cfg = small_config(variant="rdangle_shr", interval=2)
        w = init_weights(cfg, seed=10)
        a = greedy_decode([2, 4, 6], w, cfg, max_len=8)
        b = greedy_decode([2, 4, 6], w, cfg, max_len=8)
        assert a.tokens == b.tokens
        for sa, sb in zip(a.steps, b.steps):
            assert sa.key_hash == sb.key_hash
            np.testing.assert_array_equal(sa.logits, sb.logits)


class TestAgainstNaiveDecoder:
    def test_shared_variant_matches_full_redecode_oracle(self):
        # The oracle re-encodes at schedule points and redecodes the whole
        # prefix every step in float64; greedy emissions must agree.
        for interval in (1, 2, math.inf):
            cfg = small_config(variant="rdangle_shr", interval=interval)
            for seed in range(4):
                w = init_weights(cfg, seed=seed)
                rng = np.random.default_rng(seed)
                src = list(rng.integers(0, cfg.src_vocab, size=4))
                ours = greedy_decode(src, w, cfg, max_len=8)
                theirs = ref_greedy_decode(src, w, cfg, max_len=8, interval=interval)
                assert list(ours.tokens) == theirs
