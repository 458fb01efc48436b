"""Forward-pass primitives against a naive float64 re-implementation.

The float32 engine and the looped float64 oracle in reference_engine.py
share nothing but the parameter naming scheme, so agreement at tight
tolerances is evidence the vectorized math is right.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compforge.engine import (
    VARIANTS,
    ModelConfig,
    Weights,
    adaptive_encode,
    cross_attention,
    encode,
    encoding_hash,
    greedy_decode,
    init_weights,
    layer_norm,
    load_weights,
    param_spec,
    save_weights,
    softmax,
)
from compforge.engine.ops import encoder_layer
from compforge.errors import ConfigError, DataError

from reference_engine import ref_adaptive_encode, ref_attention, ref_encode, ref_layer_norm


def small_config(**overrides) -> ModelConfig:
    params = dict(
        src_vocab=11,
        tgt_vocab=9,
        d_model=16,
        n_heads=4,
        encoder_layers=2,
        decoder_layers=2,
        k1=1,
        k2=1,
        max_src_positions=32,
        max_tgt_positions=32,
        variant="rdangle_shr",
    )
    params.update(overrides)
    return ModelConfig(**params)


def tie_adaptive_encoder(w: Weights, cfg: ModelConfig) -> Weights:
    """Point the adaptive encoder's parameters at the plain encoder's arrays:
    stage 1 at enc.0 .. enc.k1-1, stage 2 at the next k2 layers, aenc.ln_f at
    enc.ln_f. Needs encoder_layers == k1 + k2."""
    assert cfg.encoder_layers == cfg.k1 + cfg.k2
    stage1, stage2 = cfg.adaptive_prefixes()
    pairs = zip(stage1 + stage2 + ["aenc.ln_f"], cfg.encoder_prefixes() + ["enc.ln_f"])
    for adaptive, plain in pairs:
        for name in list(w.data):
            if name.startswith(f"{adaptive}."):
                w.data[name] = w.data[plain + name[len(adaptive):]]
    return w


class TestSoftmaxAndLayerNorm:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7))
        out = softmax(x)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), atol=1e-12)
        assert np.all(out > 0)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)

    def test_softmax_handles_large_magnitudes(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0, 0], 1.0, atol=1e-12)

    def test_softmax_masked_entry_gets_zero(self):
        out = softmax(np.array([[0.0, -np.inf, 0.0]]))
        assert out[0, 1] == 0.0
        np.testing.assert_allclose(out[0, [0, 2]], [0.5, 0.5], atol=1e-12)

    def test_layer_norm_matches_reference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 16))
        g = rng.normal(size=16)
        b = rng.normal(size=16)
        np.testing.assert_allclose(
            layer_norm(x, g, b), ref_layer_norm(x, g, b), atol=1e-12
        )

    def test_wider_operand_is_not_cast_down(self):
        # Float32 activations with float64 parameters or masks give float64
        # results, and no input is written to.
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 8)).astype(np.float32)
        g, b = rng.normal(size=8), rng.normal(size=8)
        mask = np.zeros((3, 3))
        mask[0, 2] = -np.inf
        before = [a.copy() for a in (x, g, b, mask)]
        assert layer_norm(x, g, b).dtype == np.float64
        assert softmax(x + mask[:, :1]).dtype == np.float64
        assert softmax(np.array([[1, 2]])).dtype == np.float64
        assert cross_attention(x, x, x, n_heads=2, mask=mask).dtype == np.float64
        for arr, copy in zip((x, g, b, mask), before):
            np.testing.assert_array_equal(arr, copy)

    def test_layer_norm_output_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.normal(loc=3.0, scale=10.0, size=(4, 32))
        out = layer_norm(x, np.ones(32), np.zeros(32))
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-7)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-3)


class TestCrossAttention:
    def test_single_key_value_row_returns_value(self):
        # With one key there is nothing to weigh: output == value row, exactly.
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 8))
        k = rng.normal(size=(1, 8))
        v = rng.normal(size=(1, 8))
        out = cross_attention(q, k, v, n_heads=2)
        for i in range(4):
            np.testing.assert_array_equal(out[i], v[0])

    def test_identical_keys_give_uniform_weights(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(2, 8))
        k = np.tile(rng.normal(size=(1, 8)), (5, 1))
        v = rng.normal(size=(5, 8))
        out = cross_attention(q, k, v, n_heads=2)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)

    def test_matches_looped_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            t_q = int(rng.integers(1, 7))
            t_k = int(rng.integers(1, 9))
            heads = int(rng.choice([1, 2, 4]))
            q = rng.normal(size=(t_q, 16))
            k = rng.normal(size=(t_k, 16))
            v = rng.normal(size=(t_k, 16))
            np.testing.assert_allclose(
                cross_attention(q, k, v, n_heads=heads),
                ref_attention(q, k, v, heads),
                atol=1e-9,
            )

    def test_matches_looped_oracle_with_mask(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(5, 16))
        k = rng.normal(size=(5, 16))
        v = rng.normal(size=(5, 16))
        mask = np.zeros((5, 5))
        mask[np.triu_indices(5, k=1)] = -np.inf
        np.testing.assert_allclose(
            cross_attention(q, k, v, n_heads=4, mask=mask),
            ref_attention(q, k, v, 4, mask),
            atol=1e-9,
        )

    def test_mask_blocks_information_flow(self):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(3, 8))
        k = rng.normal(size=(4, 8))
        v = rng.normal(size=(4, 8))
        mask = np.zeros((3, 4))
        mask[:, 2:] = -np.inf
        base = cross_attention(q, k, v, n_heads=2, mask=mask)
        k2, v2 = k.copy(), v.copy()
        k2[2:] = rng.normal(size=(2, 8))
        v2[2:] = rng.normal(size=(2, 8))
        np.testing.assert_array_equal(
            base, cross_attention(q, k2, v2, n_heads=2, mask=mask)
        )

    def test_key_value_row_mismatch_rejected(self):
        q = np.zeros((2, 8))
        with pytest.raises(ConfigError):
            cross_attention(q, np.zeros((3, 8)), np.zeros((4, 8)), n_heads=2)

    def test_indivisible_heads_rejected(self):
        q = np.zeros((2, 6))
        with pytest.raises(ConfigError):
            cross_attention(q, q, q, n_heads=4)


class TestEncode:
    def test_matches_reference(self):
        cfg = small_config(variant="vanilla")
        w = init_weights(cfg, seed=0)
        src = [5, 7, 2]
        np.testing.assert_allclose(
            encode(src, w, cfg), ref_encode(src, w, cfg), atol=1e-6
        )

    def test_matches_reference_many_seeds(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            cfg = small_config(variant="vanilla", encoder_layers=int(rng.integers(1, 4)))
            w = init_weights(cfg, seed=seed)
            src = list(rng.integers(0, cfg.src_vocab, size=int(rng.integers(1, 9))))
            np.testing.assert_allclose(
                encode(src, w, cfg), ref_encode(src, w, cfg), atol=1e-6
            )

    def test_output_shape_and_dtype(self):
        cfg = small_config(variant="vanilla")
        w = init_weights(cfg, seed=0)
        out = encode([1, 2, 3, 4], w, cfg)
        assert out.shape == (4, cfg.d_model)
        assert out.dtype == np.float32

    def test_with_positions_order_matters(self):
        cfg = small_config(variant="vanilla")
        w = init_weights(cfg, seed=1)
        a = encode([4, 9], w, cfg)
        b = encode([9, 4], w, cfg)
        assert not np.allclose(a, np.flipud(b), atol=1e-6)

    def test_token_out_of_vocab_rejected(self):
        cfg = small_config(variant="vanilla")
        w = init_weights(cfg, seed=0)
        with pytest.raises(ConfigError):
            encode([cfg.src_vocab], w, cfg)
        with pytest.raises(ConfigError):
            encode([-1], w, cfg)

    @pytest.mark.parametrize("bad", [3.9, 3.0, "3", True, np.float32(3)],
                             ids=["float", "integral-float", "str", "bool", "np-float"])
    def test_non_integer_token_id_rejected(self, bad):
        # int() would read 3.9 as 3, '3' as 3 and True as 1.
        cfg = small_config(variant="rdangle_sep", fusion_enabled=False)
        w = init_weights(cfg, seed=0)
        for call in (lambda: encode([bad, 4, 5], w, cfg),
                     lambda: adaptive_encode([bad, 4, 5], [1], w, cfg),
                     lambda: adaptive_encode([3, 4, 5], [1, bad], w, cfg),
                     lambda: greedy_decode([bad, 4, 5], w, cfg, max_len=4),
                     lambda: greedy_decode([bad, 4, 5], w, replace(cfg, variant="vanilla"), 4)):
            with pytest.raises(ConfigError, match=re.escape(f"token id {bad!r} is not an integer")):
                call()

    def test_numpy_integer_token_ids_accepted(self):
        cfg = small_config(variant="rdangle_sep")
        w = init_weights(cfg, seed=0)
        want = adaptive_encode([3, 4, 5], [1, 2], w, cfg)
        for dtype in (np.int64, np.int32, np.uint8):
            src, prefix = np.array([3, 4, 5], dtype=dtype), np.array([1, 2], dtype=dtype)
            np.testing.assert_array_equal(adaptive_encode(src, prefix, w, cfg), want)
            np.testing.assert_array_equal(encode(src, w, cfg), encode([3, 4, 5], w, cfg))

    def test_empty_source_rejected(self):
        cfg = small_config(variant="vanilla")
        w = init_weights(cfg, seed=0)
        with pytest.raises(ConfigError):
            encode([], w, cfg)

    def test_too_long_source_rejected(self):
        cfg = small_config(variant="vanilla", max_src_positions=4)
        w = init_weights(cfg, seed=0)
        with pytest.raises(ConfigError):
            encode([0] * 5, w, cfg)

    def test_source_that_does_not_fit_has_one_message(self):
        # Every entry point states the source rule with the same words: 7
        # positions, source alone or source + prefix, do not fit in 6.
        message = "source+prefix of 7 positions exceeds max_src_positions=6"
        calls = []
        for variant in ("vanilla", "dangle"):
            cfg = small_config(variant=variant, max_src_positions=6)
            w = init_weights(cfg, seed=0)
            calls.append(lambda w=w, cfg=cfg: encode([1] * 7, w, cfg))
            calls.append(lambda w=w, cfg=cfg: adaptive_encode([1] * 4, [1, 2, 3], w, cfg))
            # vanilla encodes the 7-token source; dangle re-encodes 4 + 3 at step 3.
            src = [1] * 7 if variant == "vanilla" else [1] * 4
            calls.append(lambda src=src, w=w, cfg=cfg: greedy_decode(src, w, cfg, max_len=3))
        for call in calls:
            with pytest.raises(ConfigError) as raised:
                call()
            assert str(raised.value) == message


class TestAdaptiveEncode:
    def test_matches_reference(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        src, prefix = [5, 7, 2], [1, 3]
        np.testing.assert_allclose(
            adaptive_encode(src, prefix, w, cfg),
            ref_adaptive_encode(src, prefix, w, cfg),
            atol=1e-6,
        )

    def test_matches_reference_across_shapes(self):
        rng = np.random.default_rng(9)
        for seed in range(4):
            cfg = small_config(k1=int(rng.integers(1, 3)), k2=int(rng.integers(1, 3)))
            w = init_weights(cfg, seed=seed)
            src = list(rng.integers(0, cfg.src_vocab, size=int(rng.integers(1, 6))))
            prefix = list(rng.integers(0, cfg.tgt_vocab, size=int(rng.integers(1, 6))))
            np.testing.assert_allclose(
                adaptive_encode(src, prefix, w, cfg),
                ref_adaptive_encode(src, prefix, w, cfg),
                atol=1e-6,
            )

    @pytest.mark.parametrize("k1, k2", [(0, 2), (2, 0)])
    def test_matches_reference_with_an_empty_stage(self, k1, k2):
        cfg = small_config(k1=k1, k2=k2)
        w = init_weights(cfg, seed=2)
        src, prefix = [5, 7, 2, 9], [1, 3, 4]
        np.testing.assert_allclose(
            adaptive_encode(src, prefix, w, cfg),
            ref_adaptive_encode(src, prefix, w, cfg),
            atol=1e-6,
        )

    def test_encoder_layer_rows_match_full_layer(self):
        # Keeping the first n rows computes only those queries, over keys and
        # values from every row: the same rows a full layer would give.
        cfg = small_config()
        w = init_weights(cfg, seed=4)
        x = np.random.default_rng(8).normal(size=(7, cfg.d_model)).astype(np.float32)
        full = encoder_layer(x, w, "aenc1.0", cfg.n_heads)
        kept = encoder_layer(x, w, "aenc1.0", cfg.n_heads, rows=4)
        assert kept.shape == (4, cfg.d_model)
        np.testing.assert_allclose(kept, full[:4], atol=1e-6)

    def test_returns_source_rows_only(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        out = adaptive_encode([5, 7, 2], [1, 3, 4, 6], w, cfg)
        assert out.shape == (3, cfg.d_model)

    def test_prefix_changes_output_when_fusion_enabled(self):
        cfg = small_config(fusion_enabled=True)
        w = init_weights(cfg, seed=0)
        a = adaptive_encode([5, 7, 2], [1], w, cfg)
        b = adaptive_encode([5, 7, 2], [1, 3], w, cfg)
        assert not np.array_equal(a, b)

    def test_fusion_disabled_ignores_prefix_exactly(self):
        # Fusion off leaves the prefix rows out of the stack, so the source
        # rows are bitwise independent of what the prefix contains.
        cfg = small_config(fusion_enabled=False)
        w = init_weights(cfg, seed=0)
        a = adaptive_encode([5, 7, 2], [1], w, cfg)
        b = adaptive_encode([5, 7, 2], [1, 3, 8, 8, 4], w, cfg)
        np.testing.assert_array_equal(a, b)

    def test_combined_length_capped(self):
        cfg = small_config(max_src_positions=6)
        w = init_weights(cfg, seed=0)
        with pytest.raises(ConfigError):
            adaptive_encode([0, 1, 2, 3], [1, 2, 3], w, cfg)

    @pytest.mark.parametrize("prefix", [[1], [1, 4, 6]], ids=["prefix1", "prefix3"])
    @pytest.mark.parametrize("k1, k2", [(0, 3), (1, 2), (2, 1), (3, 0)])
    def test_shared_encoder_first_stage_matches_plain_prefix(self, k1, k2, prefix):
        # With the adaptive stacks tied to the plain encoder and an
        # empty-influence setup (fusion off), adaptive encoding of X equals
        # plain encoding of X bit for bit, whichever stage is empty.
        cfg = small_config(fusion_enabled=False, encoder_layers=3, k1=k1, k2=k2)
        w = tie_adaptive_encoder(init_weights(cfg, seed=3), cfg)
        src = [5, 7, 2, 9]
        assert np.array_equal(adaptive_encode(src, prefix, w, cfg), encode(src, w, cfg))


class TestWeights:
    def test_init_is_deterministic(self):
        cfg = small_config()
        a = init_weights(cfg, seed=7)
        b = init_weights(cfg, seed=7)
        assert list(a.data) == list(b.data)
        for name in a.data:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = init_weights(cfg, seed=0)
        b = init_weights(cfg, seed=1)
        assert any(not np.array_equal(a[n], b[n]) for n in a.data)

    def test_layer_norms_start_at_identity(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        np.testing.assert_array_equal(w["aenc1.0.ln1.g"], np.ones(cfg.d_model, np.float32))
        np.testing.assert_array_equal(w["dec.ln_f.b"], np.zeros(cfg.d_model, np.float32))

    def test_spec_shapes_match_arrays(self):
        cfg = small_config()
        spec = param_spec(cfg)
        w = init_weights(cfg, seed=0)
        assert set(spec) == set(w.data)
        for name, shape in spec.items():
            assert w[name].shape == tuple(shape)
            assert w[name].dtype == np.float32

    def test_save_load_round_trip_bit_exact(self, tmp_path):
        cfg = small_config()
        w = init_weights(cfg, seed=11)
        path = tmp_path / "model.npw"
        save_weights(path, w, cfg)
        loaded, loaded_cfg = load_weights(path)
        assert loaded_cfg == cfg
        assert loaded.seed == 11
        assert sorted(loaded.data) == sorted(w.data)
        for name in w.data:
            np.testing.assert_array_equal(loaded[name], w[name])

    def test_load_without_config(self, tmp_path):
        # Files saved before the config was required hold a null one.
        blob = json.dumps({"names": ["a"], "shapes": {"a": [2]}, "config": None}).encode()
        path = tmp_path / "bare.npw"
        path.write_bytes(struct.pack("<I", len(blob)) + blob + np.zeros(2, "<f4").tobytes())
        with pytest.raises(DataError, match="needs 'config'"):
            load_weights(path)

    def test_infinite_interval_saved_as_inf(self, tmp_path):
        cfg = small_config(variant="rdangle_sep", interval=math.inf)
        w = init_weights(cfg, seed=5)
        path = tmp_path / "inf.npw"
        save_weights(path, w, cfg)
        raw = path.read_bytes()
        (size,) = struct.unpack("<I", raw[:4])

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        header = json.loads(raw[4 : 4 + size], parse_constant=reject)
        assert header["config"]["interval"] == "inf"
        loaded, loaded_cfg = load_weights(path)
        assert loaded_cfg.interval == math.inf and loaded_cfg == cfg
        src = [2, 4, 6, 8, 3]
        assert (greedy_decode(src, loaded, loaded_cfg, max_len=10).tokens
                == greedy_decode(src, w, cfg, max_len=10).tokens)

    @pytest.mark.parametrize("header", [
        [],                                                   # not an object
        [{"config": small_config().to_dict()}],               # an array around it
        {},                                                   # no config
        {"seed": 0},                                          # no config
        {"config": 3},                                        # config not an object
        {"config": [small_config().to_dict()]},               # config not an object
        {"config": {"d_model": 16}},                          # fields missing
        {"config": {**small_config().to_dict(), "extra": 1}},  # unknown field
        {"config": {**small_config().to_dict(), "d_model": 16.0}},  # wrongly typed
        {"config": {**small_config().to_dict(), "n_heads": 0}},     # invalid
    ])
    def test_ill_formed_header_rejected(self, tmp_path, header):
        blob = json.dumps(header).encode()
        path = tmp_path / "bad.npw"
        path.write_bytes(struct.pack("<I", len(blob)) + blob + np.zeros(2, "<f4").tobytes())
        with pytest.raises(DataError, match="weights header"):
            load_weights(path)

    def test_huge_stored_config_rejected_without_allocating(self, tmp_path):
        # src_embed alone holds 2**40 parameters, 4 TiB; the size check is exact.
        cfg = small_config()
        path = tmp_path / "huge.npw"
        save_weights(path, init_weights(cfg, seed=0), cfg)
        path.write_bytes(with_stored_config(path.read_bytes(), src_vocab=2**36))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="header and blobs span"):
                load_weights(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_load_peaks_near_parameter_bytes(self, tmp_path):
        # The blobs are read once into one buffer that every parameter views.
        cfg = small_config(src_vocab=200, tgt_vocab=200, d_model=64)
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(cfg, seed=0), cfg)
        tracemalloc.start()
        try:
            loaded, _ = load_weights(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        param_bytes = sum(array.nbytes for array in loaded.data.values())
        assert peak <= 1.25 * param_bytes

    def test_zero_heads_rejected(self):
        with pytest.raises(ConfigError, match="n_heads"):
            small_config(n_heads=0)

    @pytest.mark.parametrize("overrides, match", [
        ({"variant": "beam"}, "unknown variant"),
        ({"d_model": 18}, "multiple of n_heads"),
        ({"tgt_vocab": 2}, "tgt_vocab must be at least 3"),
        ({"encoder_layers": 0}, "encoder_layers"),
        ({"decoder_layers": 0}, "decoder_layers"),
        ({"k1": 0, "k2": 0}, "k1 \\+ k2 >= 1"),
        ({"bos_id": 9}, "bos_id/eos_id"),
        ({"eos_id": -1}, "bos_id/eos_id"),
        ({"d_ff": 0}, "d_ff must be at least 1"),
        ({"d_ff": -1}, "d_ff must be at least 1"),
        ({"max_src_positions": -1}, "max_src_positions must be at least 1"),
        ({"max_tgt_positions": 0}, "max_tgt_positions must be at least 1"),
        ({"interval": 0}, "interval must be an integer >= 1 or inf"),
        ({"interval": -1}, "interval must be an integer >= 1 or inf"),
        ({"interval": 2.5}, "interval must be an integer >= 1 or inf"),
    ], ids=["variant", "d_model", "vocab", "encoder", "decoder", "k1k2", "bos", "eos",
            "d_ff0", "d_ff-1", "max_src", "max_tgt", "interval0", "interval-1", "interval2.5"])
    def test_invalid_geometry_rejected(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            small_config(**overrides)

    @pytest.mark.parametrize("field, value", [
        ("d_model", 16.0), ("n_heads", True), ("k1", "1"), ("src_vocab", None),
        ("d_ff", 32.0), ("fusion_enabled", 1), ("fusion_enabled", None),
        ("interval", True), ("interval", "3"),
    ])
    def test_wrongly_typed_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    def test_integer_interval_past_float_range_accepted(self, tmp_path):
        # float(10**400) overflows; such an interval re-encodes at step 1 only.
        cfg = small_config(variant="rdangle_sep", interval=10**400)
        assert list(cfg.reencoding_points(9)) == [1]
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(cfg, seed=0), cfg)
        loaded, loaded_cfg = load_weights(path)
        assert loaded_cfg == cfg and loaded_cfg.interval == 10**400
        assert (greedy_decode([3, 4, 5], loaded, loaded_cfg, max_len=6).tokens
                == greedy_decode([3, 4, 5], loaded, replace(cfg, interval=math.inf),
                                 max_len=6).tokens)
        for bad in (-(10**400), 0.5, math.nan, -math.inf):
            with pytest.raises(ConfigError, match="interval must be"):
                small_config(interval=bad)

    def test_invalid_stored_config_rejected(self, tmp_path):
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(small_config(), seed=0), small_config())
        path.write_bytes(path.read_bytes().replace(b'"n_heads": 4', b'"n_heads": 0', 1))
        with pytest.raises(DataError, match="not a model config"):
            load_weights(path)

    def test_shapes_must_match_stored_config(self, tmp_path):
        path = tmp_path / "model.npw"
        with pytest.raises(ConfigError, match="src_embed should be"):
            save_weights(path, init_weights(small_config(d_model=16), seed=0),
                         small_config(d_model=32))
        assert not path.exists()
        # A file whose stored d_model was edited no longer spans its blobs.
        save_weights(path, init_weights(small_config(d_model=16), seed=0),
                     small_config(d_model=16))
        path.write_bytes(with_stored_config(path.read_bytes(), d_model=32))
        with pytest.raises(DataError, match="header and blobs span"):
            load_weights(path)

    def test_parameter_missing_from_stored_config_rejected(self, tmp_path):
        cfg = small_config()
        weights = init_weights(cfg, seed=0)
        del weights.data["out_b"]
        path = tmp_path / "model.npw"
        with pytest.raises(ConfigError, match="out_b should be .* got missing"):
            save_weights(path, weights, cfg)
        assert not path.exists()

    def test_save_writes_exactly_param_spec(self, tmp_path):
        cfg = small_config()
        weights = init_weights(cfg, seed=0)
        weights.data["extra.w"] = np.ones((2, 3), np.float32)
        path = tmp_path / "model.npw"
        save_weights(path, weights, cfg)
        raw = path.read_bytes()
        header_end = 4 + struct.unpack_from("<I", raw)[0]
        assert json.loads(raw[4:header_end]) == {"config": cfg.to_dict(), "format": 2,
                                                 "seed": 0}
        spec = param_spec(cfg)
        assert raw[header_end:] == b"".join(weights[name].astype("<f4").tobytes(order="A")
                                            for name in sorted(spec))
        loaded, loaded_cfg = load_weights(path)
        assert loaded_cfg == cfg
        assert set(loaded.data) == set(spec)

    def test_file_in_older_layout_rejected(self, tmp_path):
        # Older files have no format number and row-major feed-forward blobs;
        # some also list the layout in the header.
        cfg = small_config(variant="rdangle_sep", interval=math.inf)
        weights = init_weights(cfg, seed=4)
        names = sorted(param_spec(cfg))
        blobs = b"".join(weights[n].astype("<f4").tobytes() for n in names)
        listed = {"names": names, "shapes": {n: list(weights[n].shape) for n in names},
                  "dtype": "float32"}
        for header in ({"seed": 4, "config": cfg.to_dict()},
                       {**listed, "seed": 4, "config": cfg.to_dict()},
                       {"format": 1, "seed": 4, "config": cfg.to_dict()}):
            blob = json.dumps(header, sort_keys=True).encode()
            path = tmp_path / "old.npw"
            path.write_bytes(struct.pack("<I", len(blob)) + blob + blobs)
            with pytest.raises(DataError, match="older, row-major layout: save it again"):
                load_weights(path)

    def test_huge_layer_count_rejected_without_allocating(self, tmp_path):
        # param_spec would build about 1.6 * 10**8 entries (about 25 GB); a file
        # of about 100 KB cannot hold 10**7 layers, so the header is rejected first.
        cfg = small_config()
        path = tmp_path / "deep.npw"
        save_weights(path, init_weights(cfg, seed=0), cfg)
        path.write_bytes(with_stored_config(path.read_bytes(), encoder_layers=10**7))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="header and blobs span at least"):
                load_weights(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_ffn_matrices_column_major_every_other_array_c(self, tmp_path):
        cfg = small_config(d_ff=24)
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(cfg, seed=0), cfg)
        for weights in (init_weights(cfg, seed=0), load_weights(path)[0]):
            for name, array in weights.data.items():
                if name.endswith((".ffn.w1", ".ffn.w2")):
                    assert array.flags.f_contiguous and not array.flags.c_contiguous, name
                else:
                    assert array.flags.c_contiguous, name

    def test_loaded_arrays_view_one_buffer(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(cfg, seed=0), cfg)
        loaded, _ = load_weights(path)
        buffer = loaded["src_embed"].base
        assert buffer.ndim == 1 and buffer.flags.owndata
        assert buffer.size == sum(array.size for array in loaded.data.values())
        for name, array in loaded.data.items():
            assert np.shares_memory(array, buffer), name

    def test_save_ignores_the_callers_array_order(self, tmp_path):
        cfg = small_config()
        weights = init_weights(cfg, seed=3)
        flipped = Weights({name: np.asfortranarray(array) if array.flags.c_contiguous
                           else np.ascontiguousarray(array)
                           for name, array in weights.data.items()}, seed=3)
        assert flipped["dec.0.ffn.w1"].flags.c_contiguous
        assert flipped["dec.0.self.wq"].flags.f_contiguous
        save_weights(tmp_path / "a.npw", weights, cfg)
        save_weights(tmp_path / "b.npw", flipped, cfg)
        assert (tmp_path / "a.npw").read_bytes() == (tmp_path / "b.npw").read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(cfg, seed=0), cfg)
        load_weights(path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(DataError, match="header and blobs span"):
            load_weights(path)

    def test_unshared_adaptive_encoder_has_own_stacks(self):
        cfg = small_config()
        names = set(param_spec(cfg))
        assert any(n.startswith("aenc1.0.") for n in names)
        assert any(n.startswith("aenc2.0.") for n in names)

    def test_every_variant_has_the_same_layout(self):
        # One file decodes under any variant, so the layout ignores it.
        layouts = {tuple(param_spec(small_config(variant=v)).items()) for v in VARIANTS}
        assert len(layouts) == 1
        names = [name for name, _ in layouts.pop()]
        assert names[4:8] == ["enc.ln_f.g", "enc.ln_f.b", "aenc.ln_f.g", "aenc.ln_f.b"]
        stacks = [name.split(".")[0] for name in names[8:-4]]
        assert stacks == sorted(stacks, key=["enc", "aenc1", "aenc2", "dec"].index)

    def test_aliased_stacks_read_same_arrays(self):
        cfg = small_config(encoder_layers=2)
        w = tie_adaptive_encoder(init_weights(cfg, seed=0), cfg)
        assert w["aenc1.0.attn.wq"] is w["enc.0.attn.wq"]
        assert w["aenc2.0.ffn.w2"] is w["enc.1.ffn.w2"]
        assert w["aenc.ln_f.g"] is w["enc.ln_f.g"]


@st.composite
def weights_geometries(draw) -> ModelConfig:
    heads = draw(st.integers(1, 3))
    k1 = draw(st.integers(0, 2))
    return small_config(
        src_vocab=draw(st.integers(3, 7)), tgt_vocab=draw(st.integers(3, 7)),
        d_model=heads * draw(st.integers(1, 3)), n_heads=heads,
        d_ff=draw(st.none() | st.integers(1, 5)),
        encoder_layers=draw(st.integers(1, 2)), decoder_layers=draw(st.integers(1, 2)),
        k1=k1, k2=draw(st.integers(0 if k1 else 1, 2)),
        max_src_positions=draw(st.integers(1, 4)), max_tgt_positions=draw(st.integers(1, 4)),
        variant=draw(st.sampled_from(VARIANTS)),
        interval=draw(st.integers(1, 5) | st.just(math.inf)),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=weights_geometries(), seed=st.integers(0, 2**32 - 1))
def test_weights_round_trip_property(tmp_path_factory, cfg, seed):
    # Random bit patterns, NaN payloads included, must come back bit for bit.
    rng = np.random.default_rng(seed)
    weights = Weights({name: rng.integers(0, 2**32, size=shape, dtype=np.uint32).view(np.float32)
                       for name, shape in param_spec(cfg).items()}, seed=seed)
    path = tmp_path_factory.mktemp("weights") / "model.npw"
    save_weights(path, weights, cfg)
    raw = path.read_bytes()
    header_len = struct.unpack_from("<I", raw)[0]
    assert len(raw) == 4 + header_len + 4 * sum(a.size for a in weights.data.values())
    loaded, loaded_cfg = load_weights(path)
    assert loaded_cfg == cfg and loaded.seed == seed
    assert sorted(loaded.data) == sorted(weights.data)
    for name, array in weights.data.items():
        assert loaded[name].dtype == np.float32 and loaded[name].shape == array.shape
        assert loaded[name].tobytes() == array.tobytes()
    for bad in (raw[:-1], raw + b"\0"):
        path.write_bytes(bad)
        with pytest.raises(DataError, match="header and blobs span"):
            load_weights(path)


def with_stored_config(raw: bytes, **changes) -> bytes:
    """A saved model whose header config has `changes` applied."""
    end = 4 + struct.unpack_from("<I", raw)[0]
    header = json.loads(raw[4:end])
    header["config"].update(changes)
    blob = json.dumps(header, sort_keys=True).encode()
    return struct.pack("<I", len(blob)) + blob + raw[end:]


class TestNumericalRobustness:
    def test_logits_finite_with_large_weights(self):
        # Scale-10 weights push pre-norm activations hard; layer norms and
        # the stabilized softmax must keep everything finite.
        cfg = small_config(variant="rdangle_sep")
        w = init_weights(cfg, seed=0, scale=10.0)
        out = encode([1, 2, 3], w, cfg)
        assert np.all(np.isfinite(out))
        out = adaptive_encode([1, 2, 3], [1, 4], w, cfg)
        assert np.all(np.isfinite(out))

    def test_encoding_hash_detects_any_change(self):
        rng = np.random.default_rng(10)
        enc = rng.normal(size=(4, 8)).astype(np.float32)
        base = encoding_hash(enc)
        assert encoding_hash(enc.copy()) == base
        bumped = enc.copy()
        bumped[2, 3] = np.nextafter(bumped[2, 3], np.inf, dtype=np.float32)
        assert encoding_hash(bumped) != base
        assert re.fullmatch(r"[0-9a-f]{16}", base)
        # A strided view fingerprints its elements in C order, like a copy.
        wide = rng.normal(size=(8, 8)).astype(np.float32)
        view = wide[::2, 1::2]
        assert not view.flags.c_contiguous
        assert encoding_hash(view) == encoding_hash(view.copy())
        assert encoding_hash(wide.T) == encoding_hash(np.ascontiguousarray(wide.T))
        # The same bytes give the same string in another interpreter, so the
        # fingerprint is not a per-process salted hash such as hash().
        code = ("import sys, numpy as np; from compforge.engine import encoding_hash; "
                "print(encoding_hash(np.frombuffer(bytes.fromhex(sys.argv[1]), np.float32)"
                f".reshape{enc.shape}))")
        out = subprocess.run([sys.executable, "-c", code, enc.tobytes().hex()],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == base

    def test_weights_mapping_interface(self):
        w = Weights(data={"a": np.zeros(2, np.float32)}, seed=None)
        assert w["a"] is w.data["a"]

    def test_missing_parameter_is_config_error(self):
        w = Weights(data={"a": np.zeros(2, np.float32)}, seed=None)
        with pytest.raises(ConfigError, match="no parameter 'b'; they were not made for"):
            w["b"]


def test_engine_import_leaves_detection_unloaded():
    # The package root re-exports nothing, so the engine loads alone.
    code = "import json, sys, compforge.engine; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    detection = {f"compforge.{name}" for name in
                 ("corpus", "cover", "ngrams", "novelty", "pipeline", "uncertainty")}
    assert detection.isdisjoint(json.loads(out.stdout))


def test_decoding_leaves_openssl_unloaded(tmp_path):
    # Saved here: numpy.random, which init_weights uses, imports hashlib itself.
    path = tmp_path / "model.npw"
    cfg = small_config()
    save_weights(path, init_weights(cfg, seed=0), cfg)
    code = (
        "import sys, dataclasses\n"
        "from compforge.engine import VARIANTS, greedy_decode, load_weights\n"
        "w, cfg = load_weights(sys.argv[1])\n"
        "for variant in VARIANTS:\n"
        "    result = greedy_decode([1, 2, 3], w, dataclasses.replace(cfg, variant=variant), 6)\n"
        "    assert result.steps and result.steps[0].key_hash\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"
