"""Scheduled decoding: re-encoding points, incremental memory, greedy traces."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from compforge.engine import (
    VARIANTS,
    ModelConfig,
    TargetMemory,
    Weights,
    adaptive_encode,
    encode,
    encoding_hash,
    greedy_decode,
    init_weights,
    kv_decode_full,
    kv_decode_step,
    project_cross,
)
from compforge.errors import ConfigError

from reference_engine import ref_decoder_logits, ref_greedy_decode, ref_greedy_steps


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


def cross_of(values: np.ndarray, keys: np.ndarray, w, cfg: ModelConfig):
    """The decoder's source input: each layer's cross-attention (values, keys)."""
    return project_cross(values, w, cfg, "v"), project_cross(keys, w, cfg, "k")


def shr_points(horizon: int, **overrides) -> tuple[int, ...]:
    """The re-encoding points of an rdangle_shr config, as a tuple."""
    cfg = small_config(variant="rdangle_shr", **overrides)
    return tuple(cfg.reencoding_points(horizon))


class TestSchedule:
    def test_interval_one_hits_every_step(self):
        assert shr_points(5, interval=1) == (1, 2, 3, 4, 5)

    def test_interval_three(self):
        assert shr_points(7, interval=3) == (1, 4, 7)

    def test_interval_larger_than_horizon(self):
        assert shr_points(4, interval=10) == (1,)

    def test_infinite_interval_single_point(self):
        assert shr_points(50, interval=math.inf) == (1,)
        assert shr_points(1, interval=math.inf) == (1,)

    def test_membership(self):
        sched = small_config(variant="rdangle_sep", interval=3).reencoding_points(7)
        assert 1 in sched and 4 in sched and 7 in sched
        assert 2 not in sched and 6 not in sched

    def test_vanilla_has_no_points(self):
        assert small_config(variant="vanilla", interval=3).reencoding_points(7) is None

    def test_point_for_latest_at_or_before(self):
        # Each step consumes the keys of the latest point at or before it.
        cfg = small_config(variant="rdangle_shr", interval=3)
        w = init_weights(cfg, seed=0)
        w.data["out_b"][cfg.eos_id] -= 100.0
        result = greedy_decode([2, 4, 6], w, cfg, max_len=10)
        assert tuple(result.schedule) == (1, 4, 7, 10)
        assert [step.point for step in result.steps] == [1, 1, 1, 4, 4, 4, 7, 7, 7, 10]

    def test_bad_horizon_rejected(self):
        for variant in ("vanilla", "rdangle_shr"):
            for horizon in (0, 5.0, "5", True):
                with pytest.raises(ConfigError, match="horizon"):
                    small_config(variant=variant).reencoding_points(horizon)

    def test_dangle_variant_forces_interval_one(self):
        cfg = small_config(variant="dangle", interval=7)
        assert cfg.effective_interval == 1
        assert tuple(cfg.reencoding_points(3)) == (1, 2, 3)
        cfg = small_config(variant="rdangle_shr", interval=7)
        assert cfg.effective_interval == 7


class TestIncrementalDecode:
    def test_cached_matches_from_scratch(self):
        # Advancing the memory one token at a time must agree with decoding
        # each prefix from an empty memory, at every prefix length and in
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
                cross = cross_of(enc, keys, w, cfg)
                memory = TargetMemory.empty(cfg)
                for t, tok in enumerate(prefix):
                    logits, memory = kv_decode_step(int(tok), memory, cross, w, cfg)
                    full, full_mem = kv_decode_full(prefix[: t + 1], cross, w, cfg)
                    np.testing.assert_allclose(logits, full, atol=1e-6)
                for stepped, rebuilt in zip(
                    memory.keys + memory.values, full_mem.keys + full_mem.values, strict=True
                ):
                    np.testing.assert_allclose(stepped, rebuilt, atol=1e-6)

    def test_first_step_equals_single_token_full(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4, 6], w, cfg)
        cross = cross_of(enc, enc, w, cfg)
        full, full_mem = kv_decode_full([cfg.bos_id], cross, w, cfg)
        step, step_mem = kv_decode_step(cfg.bos_id, TargetMemory.empty(cfg), cross, w, cfg)
        np.testing.assert_array_equal(step, full)
        for a, b in zip(step_mem.keys + step_mem.values, full_mem.keys + full_mem.values):
            np.testing.assert_array_equal(a, b)

    def test_causality(self):
        # Changing a later prefix token must not move any layer's keys or
        # values at earlier positions (the causal mask zeroes that path
        # exactly), but it must move the next-token logits.
        cfg = small_config()
        w = init_weights(cfg, seed=1)
        enc = encode([2, 4, 6, 8], w, cfg)
        cross = cross_of(enc, enc, w, cfg)
        prefix = [1, 3, 5, 7, 9]
        base, base_mem = kv_decode_full(prefix, cross, w, cfg)
        mutated = list(prefix)
        mutated[4] = 8
        other, other_mem = kv_decode_full(mutated, cross, w, cfg)
        for a, b in zip(base_mem.keys + base_mem.values, other_mem.keys + other_mem.values,
                        strict=True):
            np.testing.assert_array_equal(a[:4], b[:4])
        assert not np.array_equal(base, other)

    def test_last_layer_computes_only_the_last_row(self, monkeypatch):
        # Every layer but the last runs its FFN and cross-attention on all m
        # new rows; the last runs them on the one row whose logits are read.
        # Every layer still caches keys and values for all m rows.
        import compforge.engine.model as model

        cfg = small_config(decoder_layers=3)
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4, 6], w, cfg)
        cross = cross_of(enc, enc, w, cfg)
        prefix = [1, 3, 5, 7]
        m, layers = len(prefix), cfg.decoder_layers
        for name in ("ffn", "cross_attention"):
            rows = []
            real = getattr(model, name)

            def counted(x, *args, real=real, rows=rows, **kwargs):
                rows.append(x.shape[0])
                return real(x, *args, **kwargs)

            with monkeypatch.context() as patched:
                patched.setattr(model, name, counted)
                logits, memory = kv_decode_full(prefix, cross, w, cfg)
            assert rows == [m] * (layers - 1) + [1], name
            assert logits.shape == (cfg.tgt_vocab,)
            for stack in memory.keys + memory.values:
                assert stack.shape == (m, cfg.d_model)

    def test_memory_grows_one_row_per_step(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4], w, cfg)
        cross = cross_of(enc, enc, w, cfg)
        memory = TargetMemory.empty(cfg)
        assert memory.length == 0
        for expected in range(1, 4):
            _, memory = kv_decode_step(1, memory, cross, w, cfg)
            assert memory.length == expected
            assert len(memory.keys) == len(memory.values) == cfg.decoder_layers

    def test_step_does_not_mutate_input_memory(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4], w, cfg)
        cross = cross_of(enc, enc, w, cfg)
        _, memory = kv_decode_step(1, TargetMemory.empty(cfg), cross, w, cfg)
        snapshot = [rows.copy() for rows in memory.keys + memory.values]
        kv_decode_step(3, memory, cross, w, cfg)
        for a, b in zip(memory.keys + memory.values, snapshot):
            np.testing.assert_array_equal(a, b)

    def test_distinct_keys_and_values_both_matter(self):
        cfg = small_config()
        w = init_weights(cfg, seed=3)
        rng = np.random.default_rng(3)
        enc_v = encode([2, 4, 6], w, cfg)
        enc_k = enc_v + rng.normal(scale=0.5, size=enc_v.shape).astype(np.float32)
        mixed, _ = kv_decode_full([1, 3], cross_of(enc_v, enc_k, w, cfg), w, cfg)
        shared, _ = kv_decode_full([1, 3], cross_of(enc_v, enc_v, w, cfg), w, cfg)
        assert not np.array_equal(mixed, shared)

    def test_kv_row_mismatch_rejected(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4, 6], w, cfg)
        cross = cross_of(enc, enc[:2], w, cfg)
        with pytest.raises(ConfigError):
            kv_decode_full([1], cross, w, cfg)
        with pytest.raises(ConfigError):
            kv_decode_step(1, TargetMemory.empty(cfg), cross, w, cfg)

    def test_inconsistent_memory_rejected(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4], w, cfg)
        cross = cross_of(enc, enc, w, cfg)
        rows = (
            np.zeros((2, cfg.d_model), dtype=np.float32),
            np.zeros((1, cfg.d_model), dtype=np.float32),
        )
        lopsided = TargetMemory(keys=rows, values=rows)
        with pytest.raises(ConfigError):
            kv_decode_step(1, lopsided, cross, w, cfg)
        empty = (np.zeros((0, cfg.d_model), np.float32),)
        wrong_depth = TargetMemory(keys=empty, values=empty)
        with pytest.raises(ConfigError):
            kv_decode_step(1, wrong_depth, cross, w, cfg)
        narrow = (np.zeros((1, cfg.d_model - 1), np.float32),) * cfg.decoder_layers
        with pytest.raises(ConfigError, match="memory width"):
            kv_decode_step(1, TargetMemory(keys=narrow, values=narrow), cross, w, cfg)

    def test_malformed_cross_rejected(self):
        # The decoder's source input holds one value and one key matrix of
        # width d_model per decoder layer; anything else is a ConfigError.
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4, 6], w, cfg)
        values, keys = cross_of(enc, enc, w, cfg)
        for cross, match in (
            ((values[:1], keys[:1]), "cross has 1 value layers, model has 2"),
            ((values, keys[:1]), "cross has 1 key layers"),
            ((values, keys + keys), "cross has 4 key layers"),
            ((values, tuple(k[:, :-1] for k in keys)), "cross width"),
        ):
            with pytest.raises(ConfigError, match=match):
                kv_decode_full([1, 3], cross, w, cfg)
            with pytest.raises(ConfigError, match=match):
                kv_decode_step(1, TargetMemory.empty(cfg), cross, w, cfg)

    def test_prefix_length_capped(self):
        cfg = small_config(max_tgt_positions=3)
        w = init_weights(cfg, seed=0)
        enc = encode([2, 4], w, cfg)
        cross = cross_of(enc, enc, w, cfg)
        with pytest.raises(ConfigError):
            kv_decode_full([1, 3, 5, 7], cross, w, cfg)
        memory = TargetMemory.empty(cfg)
        for tok in (1, 3, 5):
            _, memory = kv_decode_step(tok, memory, cross, w, cfg)
        with pytest.raises(ConfigError):
            kv_decode_step(7, memory, cross, w, cfg)

    def test_stepped_cache_equals_full_cache(self):
        # Every layer's cached self-attention keys and values, grown a token
        # at a time, equal the ones one full pass over the prefix builds.
        cfg = small_config(decoder_layers=3)
        rng = np.random.default_rng(11)
        for seed in range(5):
            w = init_weights(cfg, seed=seed)
            enc_v = encode(list(rng.integers(0, cfg.src_vocab, size=6)), w, cfg)
            enc_k = enc_v + rng.normal(scale=0.5, size=enc_v.shape).astype(np.float32)
            prefix = [cfg.bos_id] + [int(tok) for tok in rng.integers(0, cfg.tgt_vocab, size=7)]
            cross = cross_of(enc_v, enc_k, w, cfg)
            _, full = kv_decode_full(prefix, cross, w, cfg)
            stepped = TargetMemory.empty(cfg)
            for tok in prefix:
                _, stepped = kv_decode_step(tok, stepped, cross, w, cfg)
            for layer in range(cfg.decoder_layers):
                for got, want in ((stepped.keys[layer], full.keys[layer]),
                                  (stepped.values[layer], full.values[layer])):
                    assert got.shape == want.shape == (len(prefix), cfg.d_model)
                    np.testing.assert_allclose(got, want, atol=1e-6)

    def test_matches_float64_reference(self):
        cfg = small_config()
        rng = np.random.default_rng(4)
        for seed in range(5):
            w = init_weights(cfg, seed=seed)
            src = list(rng.integers(0, cfg.src_vocab, size=4))
            enc = encode(src, w, cfg)
            prefix = [1] + list(rng.integers(0, cfg.tgt_vocab, size=4))
            theirs = ref_decoder_logits(prefix, enc, enc, w, cfg)
            for t in range(len(prefix)):
                ours, _ = kv_decode_full(prefix[: t + 1], cross_of(enc, enc, w, cfg), w, cfg)
                np.testing.assert_allclose(ours, theirs[t], atol=1e-5)


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
            assert step.point == 1 + (step.step - 1) // 2 * 2

    def test_consumed_keys_come_from_latest_point(self):
        # Recompute each point's adaptive encoding offline from the emitted
        # tokens and check the trace consumed exactly that matrix.
        cfg = small_config(variant="rdangle_shr", interval=3)
        w = init_weights(cfg, seed=2)
        src = [3, 5, 7, 9, 2]
        result = greedy_decode(src, w, cfg, max_len=9)
        emitted = list(result.tokens)
        for step in result.steps:
            point = 1 + (step.step - 1) // 3 * 3
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
        assert tuple(result.schedule) == (1,)
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
            logits, _ = kv_decode_full(prefix, cross_of(enc, enc, w, cfg), w, cfg)
            np.testing.assert_array_equal(step.logits, logits)
            token = int(np.argmax(logits))
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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_weights_memory_order_does_not_change_decoding(self, variant):
        # The feed-forward matrices are column-major; C-ordered ones decode alike.
        cfg = small_config(variant=variant, interval=2)
        w = init_weights(cfg, seed=8)
        c_ordered = Weights({name: np.ascontiguousarray(array) for name, array in w.data.items()})
        assert not w["dec.0.ffn.w2"].flags.c_contiguous
        assert c_ordered["dec.0.ffn.w2"].flags.c_contiguous
        for src in ([3, 5, 7, 9], [2, 11, 4, 4, 6, 8, 10, 3]):
            ours = greedy_decode(src, w, cfg, max_len=12)
            theirs = greedy_decode(src, c_ordered, cfg, max_len=12)
            assert ours.tokens == theirs.tokens
            for a, b in zip(ours.steps, theirs.steps):
                np.testing.assert_allclose(a.logits, b.logits, rtol=0, atol=1e-6)

    def test_bad_max_len_rejected(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        with pytest.raises(ConfigError):
            greedy_decode([2, 4], w, cfg, max_len=0)
        with pytest.raises(ConfigError):
            greedy_decode([2, 4], w, cfg, max_len=cfg.max_tgt_positions + 1)

    @pytest.mark.parametrize("max_len", [8.0, "8", True, None])
    def test_non_integer_max_len_rejected(self, max_len, monkeypatch):
        # Checked before anything else: no encoding runs.
        import compforge.engine.model as model

        def no_encoding(*args):
            raise AssertionError("source encoded before the max_len check")

        for name in ("encode", "adaptive_encode"):
            monkeypatch.setattr(model, name, no_encoding)
        for variant in ("vanilla", "rdangle_shr"):
            cfg = small_config(variant=variant)
            with pytest.raises(ConfigError, match="max_len must be an integer"):
                greedy_decode([2, 4], init_weights(cfg, seed=0), cfg, max_len=max_len)

    def test_deterministic_across_calls(self):
        cfg = small_config(variant="rdangle_shr", interval=2)
        w = init_weights(cfg, seed=10)
        a = greedy_decode([2, 4, 6], w, cfg, max_len=8)
        b = greedy_decode([2, 4, 6], w, cfg, max_len=8)
        assert a.tokens == b.tokens
        for sa, sb in zip(a.steps, b.steps):
            assert sa.key_hash == sb.key_hash
            np.testing.assert_array_equal(sa.logits, sb.logits)


class TestDecodeCost:
    @staticmethod
    def no_eos_weights(cfg, seed):
        # A strongly negative EOS bias keeps every decode going to max_len.
        w = init_weights(cfg, seed=seed)
        w.data["out_b"][cfg.eos_id] -= 100.0
        return w

    def test_cross_projections_made_once_per_point(self, monkeypatch):
        import compforge.engine.model as model

        made = []
        project = model.project_cross

        def counted(enc, w, cfg, part):
            made.append(part)
            return project(enc, w, cfg, part)

        monkeypatch.setattr(model, "project_cross", counted)
        # 9 steps; rdangle o=4 re-encodes at steps 1, 5 and 9.
        for variant, interval, keys, values in (
            ("vanilla", 1, 1, 1),
            ("rdangle_shr", 4, 3, 3),
            ("rdangle_sep", 4, 3, 1),
            ("dangle", 1, 9, 9),
        ):
            cfg = small_config(variant=variant, interval=interval)
            made.clear()
            result = greedy_decode([2, 4, 6], self.no_eos_weights(cfg, 0), cfg, max_len=9)
            assert len(result.tokens) == 9
            assert (made.count("k"), made.count("v")) == (keys, values), variant

    def test_reencodings_and_cached_rows(self):
        for variant, interval, reencodings, cached_rows in (
            ("vanilla", 1, 0, sum(range(9))),  # steps read 0..8 cached rows
            ("rdangle_shr", 4, 3, (1 + 2 + 3) + (5 + 6 + 7)),  # full at 1, 5, 9
            ("dangle", 1, 9, 0),
        ):
            cfg = small_config(variant=variant, interval=interval)
            result = greedy_decode([3, 5, 7], self.no_eos_weights(cfg, 1), cfg, max_len=9)
            assert len(result.tokens) == 9
            assert result.reencodings == reencodings, variant
            assert result.cached_rows == cached_rows, variant

    def test_traced_spans_agree_with_decode_counters(self):
        # The benchmark's tracer wraps the engine's module-level names and
        # reads its per-layer numbers from their arguments (decode_full's rows
        # are len(args[0]), adaptive_encode's len(args[0]) + len(args[1])).
        # Those numbers must agree with what each decode reports about itself.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        src, max_len = [3, 5, 7, 9], 8
        for variant in ("vanilla", "dangle", "rdangle_shr", "rdangle_sep"):
            for interval in (3, 1):
                cfg = small_config(variant=variant, interval=interval)
                w = self.no_eos_weights(cfg, 3)
                tracer = tracing.Tracer()
                tracer.install(tracing.ENGINE_TARGETS)
                try:
                    result = greedy_decode(src, w, cfg, max_len=max_len)
                finally:
                    tracer.uninstall()
                stats = tracing.SpanStats(tracer.spans)
                points = list(result.schedule or ())
                label = f"{variant} o={interval}"
                assert len(result.steps) == max_len, label
                assert stats.n("model.decode_full") == result.reencodings == len(points), label
                assert stats.num("model.decode_full", "rows") == sum(points), label
                assert stats.n("model.decode_step") == max_len - result.reencodings, label
                assert stats.num("model.adaptive_encode", "rows") == sum(
                    len(src) + p for p in points), label
                assert stats.n("model.encode") == (variant in ("vanilla", "rdangle_sep")), label

    def test_step_logits_hold_only_their_own_row(self):
        # At o=1 every step decodes the whole prefix; the trace still holds
        # one (tgt_vocab,) row of logits per step and nothing larger.
        cfg = small_config(variant="dangle", interval=1)
        result = greedy_decode([3, 5, 7], self.no_eos_weights(cfg, 2), cfg, max_len=9)
        owners = {}
        for step in result.steps:
            owner = step.logits
            while owner.base is not None:
                owner = owner.base
            owners[id(owner)] = owner
        assert len(result.steps) == 9
        assert sum(a.nbytes for a in owners.values()) == 9 * cfg.tgt_vocab * 4


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
                theirs = ref_greedy_decode(src, w, cfg, max_len=8)
                assert list(ours.tokens) == theirs


@st.composite
def _decode_cases(draw):
    """A random small model, decoding variant and source.

    d_model starts at 4: a layer norm over two features sits near its epsilon
    and roughly triples the float32 gap to the reference.
    """
    d_model = draw(st.sampled_from([4, 8, 16]))
    k1, k2 = draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 1), (1, 2)]))
    cfg = ModelConfig(
        src_vocab=draw(st.integers(3, 12)),
        tgt_vocab=draw(st.integers(3, 12)),
        d_model=d_model,
        n_heads=draw(st.sampled_from([1, 2, 4])),
        encoder_layers=draw(st.integers(1, 3)),
        decoder_layers=draw(st.integers(1, 3)),
        k1=k1,
        k2=k2,
        max_src_positions=16,
        max_tgt_positions=8,
        variant=draw(st.sampled_from(["vanilla", "dangle", "rdangle_shr", "rdangle_sep"])),
        interval=draw(st.sampled_from([1, 2, 3, math.inf])),
        fusion_enabled=draw(st.booleans()),
    )
    src = draw(st.lists(st.integers(0, cfg.src_vocab - 1), min_size=1, max_size=6))
    max_len = draw(st.sampled_from(range(1, 9)))
    return cfg, src, max_len, draw(st.integers(0, 2**16)), draw(st.floats(-1.0, 0.5))


@settings(max_examples=250, deadline=None)
@given(case=_decode_cases())
def test_greedy_decode_matches_float64_reference(case):
    # The engine's cached, scheduled decode against a float64 reference that
    # re-encodes on the same rule and re-decodes the whole prefix every step.
    # Weights keep init_weights' 0.1 scale: the float32 gap grows with it.
    cfg, src, max_len, seed, eos_bias = case
    w = init_weights(cfg, seed=seed)
    w.data["out_b"][cfg.eos_id] += eos_bias
    result = greedy_decode(src, w, cfg, max_len=max_len)
    reference = ref_greedy_steps(src, w, cfg, max_len)
    for ours, (point, logits, token) in zip(result.steps, reference):
        np.testing.assert_allclose(ours.logits, logits, rtol=0, atol=1e-6)
        assert ours.point == point
        second, first = np.sort(logits)[-2:]
        if first - second < 1e-4:
            # Float32 rounding may pick either token; later steps diverge.
            event("near tie: tokens compared up to this step")
            break
        assert ours.token == token
    else:
        assert len(result.steps) == len(reference)
    steps = range(1, len(result.steps) + 1)
    points = [t for t in steps
              if cfg.variant != "vanilla" and (t - 1) % cfg.effective_interval == 0]
    assert result.reencodings == len(points)
    assert result.cached_rows == sum(t - 1 for t in steps if t not in points)
