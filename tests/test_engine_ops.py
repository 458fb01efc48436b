"""Forward-pass primitives against a naive float64 re-implementation.

The float32 engine and the looped float64 oracle in reference_engine.py
share nothing but the parameter naming scheme, so agreement at tight
tolerances is evidence the vectorized math is right.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from compforge.engine import (
    ModelConfig,
    Weights,
    adaptive_encode,
    cross_attention,
    encode,
    encoding_hash,
    init_weights,
    layer_norm,
    load_weights,
    param_spec,
    save_weights,
    softmax,
)
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
        out, weights = cross_attention(q, k, v, n_heads=2, return_weights=True)
        np.testing.assert_allclose(weights, np.full((2, 2, 5), 0.2), atol=1e-12)
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

    def test_without_positions_identical_tokens_share_rows(self):
        cfg = small_config(variant="vanilla", use_positions=False)
        w = init_weights(cfg, seed=0)
        out = encode([3, 3, 3], w, cfg)
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[1], out[2])

    def test_without_positions_permutation_equivariant(self):
        # Self-attention without position information is a set operation:
        # permuting the tokens permutes the output rows the same way.
        cfg = small_config(variant="vanilla", use_positions=False)
        w = init_weights(cfg, seed=1)
        src = [4, 9, 2, 6]
        perm = [2, 0, 3, 1]
        base = encode(src, w, cfg)
        shuffled = encode([src[i] for i in perm], w, cfg)
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-6)

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
        # Masked prefix columns get exp(-inf) == 0 attention mass, so the
        # source rows are bitwise independent of what the prefix contains.
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

    def test_shared_encoder_first_stage_matches_plain_prefix(self):
        # With the adaptive stacks aliased onto the plain encoder and an
        # empty-influence setup (fusion off), adaptive encoding of X equals
        # plain encoding of X bit for bit.
        cfg = small_config(
            share_adaptive_encoder=True, fusion_enabled=False, encoder_layers=2
        )
        w = init_weights(cfg, seed=3)
        src = [5, 7, 2, 9]
        np.testing.assert_array_equal(
            adaptive_encode(src, [1, 4], w, cfg), encode(src, w, cfg)
        )


class TestWeights:
    def test_init_is_deterministic(self):
        cfg = small_config()
        a = init_weights(cfg, seed=7)
        b = init_weights(cfg, seed=7)
        assert a.names() == b.names()
        for name in a.names():
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = init_weights(cfg, seed=0)
        b = init_weights(cfg, seed=1)
        assert any(not np.array_equal(a[n], b[n]) for n in a.names())

    def test_layer_norms_start_at_identity(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        np.testing.assert_array_equal(w["aenc1.0.ln1.g"], np.ones(cfg.d_model, np.float32))
        np.testing.assert_array_equal(w["dec.ln_f.b"], np.zeros(cfg.d_model, np.float32))

    def test_spec_shapes_match_arrays(self):
        cfg = small_config()
        spec = param_spec(cfg)
        w = init_weights(cfg, seed=0)
        assert set(spec) == set(w.names())
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
        assert sorted(loaded.names()) == sorted(w.names())
        for name in w.names():
            np.testing.assert_array_equal(loaded[name], w[name])

    def test_load_without_config(self, tmp_path):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        path = tmp_path / "bare.npw"
        save_weights(path, w)
        _, loaded_cfg = load_weights(path)
        assert loaded_cfg is None

    @pytest.mark.parametrize("header", [
        [],                                                   # not an object
        {"shapes": {"a": [2]}},                               # no names
        {"names": "a", "shapes": {"a": [2]}},                 # names not a list
        {"names": ["a"]},                                     # no shapes
        {"names": ["a"], "shapes": [[2]]},                    # shapes not an object
        {"names": ["a"], "shapes": {}},                       # no shape for a name
        {"names": ["a"], "shapes": {"a": [2.0]}},             # non-integer dimension
        {"names": ["a"], "shapes": {"a": [-2]}},              # negative dimension
        {"names": ["a"], "shapes": {"a": [2]}, "config": 3},  # config not an object
        {"names": ["a"], "shapes": {"a": [2]}, "config": {"d_model": 16}},
    ])
    def test_ill_formed_header_rejected(self, tmp_path, header):
        blob = json.dumps(header).encode()
        path = tmp_path / "bad.npw"
        path.write_bytes(struct.pack("<I", len(blob)) + blob + np.zeros(2, "<f4").tobytes())
        with pytest.raises(DataError, match="weights header"):
            load_weights(path)

    def test_zero_heads_rejected(self):
        with pytest.raises(ConfigError, match="n_heads"):
            small_config(n_heads=0)

    def test_invalid_stored_config_rejected(self, tmp_path):
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(small_config(), seed=0), small_config())
        path.write_bytes(path.read_bytes().replace(b'"n_heads": 4', b'"n_heads": 0', 1))
        with pytest.raises(DataError, match="not a model config"):
            load_weights(path)

    def test_shapes_must_match_stored_config(self, tmp_path):
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(small_config(d_model=16), seed=0),
                     small_config(d_model=32))
        with pytest.raises(DataError, match="src_embed should be"):
            load_weights(path)

    def test_parameter_missing_from_stored_config_rejected(self, tmp_path):
        cfg = small_config()
        weights = init_weights(cfg, seed=0)
        del weights.data["out_b"]
        path = tmp_path / "model.npw"
        save_weights(path, weights, cfg)
        with pytest.raises(DataError, match="out_b should be .* got missing"):
            load_weights(path)

    def test_extra_parameters_allowed(self, tmp_path):
        superset, cfg = small_config(variant="rdangle_sep"), small_config(variant="rdangle_shr")
        assert set(param_spec(cfg)) < set(param_spec(superset))
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(superset, seed=0), cfg)
        loaded, loaded_cfg = load_weights(path)
        assert loaded_cfg == cfg
        assert set(loaded.names()) == set(param_spec(superset))

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "model.npw"
        save_weights(path, init_weights(cfg, seed=0), cfg)
        load_weights(path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(DataError, match="header and blobs span"):
            load_weights(path)

    def test_shared_adaptive_encoder_has_no_extra_stacks(self):
        shared = small_config(share_adaptive_encoder=True, encoder_layers=2, k1=1, k2=1)
        names = set(param_spec(shared))
        assert not any(n.startswith("aenc") for n in names)

    def test_unshared_adaptive_encoder_has_own_stacks(self):
        cfg = small_config(share_adaptive_encoder=False)
        names = set(param_spec(cfg))
        assert any(n.startswith("aenc1.0.") for n in names)
        assert any(n.startswith("aenc2.0.") for n in names)

    def test_sep_variant_shares_top_value_layers(self):
        cfg = small_config(
            variant="rdangle_sep",
            encoder_layers=3,
            k1=1,
            k2=2,
            shared_top_layers=1,
        )
        stage1, stage2 = cfg.adaptive_prefixes()
        assert stage2[-1] == "enc.2"  # top value-encoder layer, reused
        names = set(param_spec(cfg))
        assert "aenc2.1.attn.wq" not in names
        assert "aenc2.0.attn.wq" in names

    def test_aliased_stacks_read_same_arrays(self):
        cfg = small_config(share_adaptive_encoder=True, encoder_layers=2)
        w = init_weights(cfg, seed=0)
        stage1, stage2 = cfg.adaptive_prefixes()
        assert stage1 == ["enc.0"]
        assert stage2 == ["enc.1"]
        assert w[f"{stage1[0]}.attn.wq"] is w["enc.0.attn.wq"]


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

    def test_weights_mapping_interface(self):
        w = Weights(data={"a": np.zeros(2, np.float32)}, seed=None)
        assert "a" in w
        assert "b" not in w
        assert w.names() == ["a"]
