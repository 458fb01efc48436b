"""Forward-pass engine: plain encoding, adaptive re-encoding, scheduled
greedy decoding with an incrementally grown K/V cache.

Both encoders run one stack, `_encoder`: the plain encoder is the adaptive
encoder's stack with no prefix. `_check_source` states the source rule once.

Full and incremental decoding share one decoder stack, `_decode`, which
runs new target tokens after a memory of earlier positions. The memory is a
per-layer cache of projected self-attention keys and values: new positions
normalise and project only their own rows and attend over the cache plus
those rows. `kv_decode_full` starts the stack from an empty memory
(re-encoding points rebuild the memory from scratch); `kv_decode_step`
feeds it one token, so between points the cache grows by exactly one row
per layer and step. Decoding state is functional: a new memory is returned
and the old one is left untouched. The decoder reads the source only
through each layer's cross-attention (values, keys), `CrossProjections`, so
both entry points take those and no encoding. `greedy_decode` makes them
with `project_cross` once per re-encoding point (the plain encoder's values
once per decode).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from compforge.engine.config import ModelConfig
from compforge.engine.ops import (
    attention_block,
    causal_mask,
    cross_attention,
    encoder_layer,
    ffn,
    layer_norm,
    project,
)
from compforge.engine.weights import Weights
from compforge.errors import CompforgeError, ConfigError, require_int


def encoding_hash(encodings: np.ndarray) -> str:
    """16-hex-digit fingerprint of an encoding's C-ordered bytes (bit-level
    identity): CRC-32, which any change within 32 consecutive bits alters,
    then Adler-32. The same in every process but not a cryptographic digest;
    zlib comes with numpy, so the engine loads no OpenSSL."""
    buf = np.ascontiguousarray(encodings)
    return f"{zlib.crc32(buf):08x}{zlib.adler32(buf):08x}"


def _check_tokens(tokens: Sequence[int], vocab: int, what: str) -> None:
    if len(tokens) == 0:
        raise ConfigError(f"{what} must be non-empty")
    for tok in tokens:
        if not isinstance(tok, (int, np.integer)) or isinstance(tok, bool):
            raise ConfigError(f"{what} token id {tok!r} is not an integer")
        if not 0 <= tok < vocab:
            raise ConfigError(f"{what} token id {tok} outside vocabulary of size {vocab}")


def _check_source(src: Sequence[int], prefix_len: int, cfg: ModelConfig) -> None:
    """The source rule: valid token ids, and room in max_src_positions for the
    source plus a `prefix_len`-token prefix."""
    _check_tokens(src, cfg.src_vocab, "source")
    if len(src) + prefix_len > cfg.max_src_positions:
        raise ConfigError(f"source+prefix of {len(src) + prefix_len} positions exceeds "
                          f"max_src_positions={cfg.max_src_positions}")


def _encoder(src: Sequence[int], prefix: Sequence[int], stage1: list[str], stage2: list[str],
             final: str, w: Weights, cfg: ModelConfig) -> np.ndarray:
    """The encoder stack: (n, d_model) encodings of the n source rows.

    Prefix rows follow the source rows; they embed with the target table and
    continue the source position indices. `stage1` runs over every row, its
    last layer computing only the source rows (keys and values still come
    from every row); `stage2` runs over the source rows, then layer norm `final`.
    """
    n, t = len(src), len(prefix)
    x = w["src_embed"][np.asarray(src, dtype=np.int64)] + w["enc_pos"][:n]
    if t:
        prefix_rows = w["tgt_embed"][np.asarray(prefix, dtype=np.int64)] + w["enc_pos"][n : n + t]
        x = np.concatenate([x, prefix_rows], axis=0)
    for i, layer in enumerate(stage1, start=1):
        x = encoder_layer(x, w, layer, cfg.n_heads, rows=n if i == len(stage1) else None)
    x = x[:n]  # already n rows unless stage 1 is empty
    for layer in stage2:
        x = encoder_layer(x, w, layer, cfg.n_heads)
    return layer_norm(x, w[f"{final}.g"], w[f"{final}.b"])


def encode(src: Sequence[int], w: Weights, cfg: ModelConfig) -> np.ndarray:
    """Plain encoder: (n, d_model) source encodings, the stack with no prefix."""
    _check_source(src, 0, cfg)
    return _encoder(src, (), cfg.encoder_prefixes(), [], "enc.ln_f", w, cfg)


def adaptive_encode(
    src: Sequence[int], prefix: Sequence[int], w: Weights, cfg: ModelConfig
) -> np.ndarray:
    """Source encodings conditioned on the decoded prefix: the stack over the
    source + prefix rows, stage 1 of k1 layers and stage 2 of k2. With fusion
    disabled, the prefix rows are left out, so the prefix cannot influence
    the output at all.
    """
    _check_source(src, len(prefix), cfg)
    _check_tokens(prefix, cfg.tgt_vocab, "prefix")
    stage1, stage2 = cfg.adaptive_prefixes()
    fused = prefix if cfg.fusion_enabled else ()
    return _encoder(src, fused, stage1, stage2, "aenc.ln_f", w, cfg)


# -- target memory and decoding ---------------------------------------------


@dataclass
class TargetMemory:
    """Per-decoder-layer cache of projected self-attention keys and values.

    `keys[l]` and `values[l]` are (t, d_model): row i is decoder layer l's
    self-attention key (value) projection of its normalised input at target
    position i. New positions project only their own rows, append them and
    attend over the whole cache, so a memory built by one full pass over a
    prefix agrees, up to float32 rounding, with one grown a token at a time.
    """

    keys: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]

    @classmethod
    def empty(cls, cfg: ModelConfig) -> "TargetMemory":
        def no_rows() -> tuple[np.ndarray, ...]:
            return tuple(
                np.zeros((0, cfg.d_model), dtype=np.float32) for _ in range(cfg.decoder_layers)
            )

        return cls(keys=no_rows(), values=no_rows())

    @property
    def length(self) -> int:
        return self.keys[0].shape[0]

    def _validate(self, cfg: ModelConfig) -> None:
        _check_stacks("memory", (("key", self.keys), ("value", self.values)), cfg)
        lengths = {rows.shape[0] for rows in self.keys + self.values}
        if len(lengths) != 1:
            raise ConfigError(f"inconsistent memory lengths across layers: {sorted(lengths)}")


def _check_stacks(what: str, stacks, cfg: ModelConfig) -> None:
    """Each (name, rows) of `stacks` holds one (n, d_model) matrix per decoder layer."""
    for name, rows in stacks:
        if len(rows) != cfg.decoder_layers:
            raise ConfigError(
                f"{what} has {len(rows)} {name} layers, model has {cfg.decoder_layers}"
            )
    widths = {layer.shape[1] for _, rows in stacks for layer in rows}
    if widths != {cfg.d_model}:
        raise ConfigError(f"{what} width {sorted(widths)} does not match d_model")


# Per-decoder-layer cross-attention (values, keys), as `project_cross` makes them.
CrossProjections = tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]


def project_cross(
    enc: np.ndarray, w: Weights, cfg: ModelConfig, part: str
) -> tuple[np.ndarray, ...]:
    """Every decoder layer's cross-attention keys (`part` "k") or values ("v")
    of an encoding matrix, each (n, d_model)."""
    return tuple(project(enc, w, f"dec.{i}.cross", part) for i in range(cfg.decoder_layers))


def _finite_or_raise(logits: np.ndarray) -> None:
    if not np.all(np.isfinite(logits)):
        raise CompforgeError("non-finite logits in decoder output")


def _decode(
    tokens: Sequence[int], memory: TargetMemory, cross: CrossProjections,
    w: Weights, cfg: ModelConfig,
) -> tuple[np.ndarray, TargetMemory]:
    """Decode `tokens` at the m positions after the memory's t rows.

    The new rows attend to the cache and to each other through causal-mask
    rows t..t+m-1, and to the source through `cross`, the per-layer
    cross-attention (values, keys) that `project_cross` makes. Returns
    next-token logits (m, tgt_vocab) and the memory grown by m rows; the
    input memory is left untouched.
    """
    _check_tokens(tokens, cfg.tgt_vocab, "prefix")
    memory._validate(cfg)
    cross_v, cross_k = cross
    _check_stacks("cross", (("value", cross_v), ("key", cross_k)), cfg)
    t, m = memory.length, len(tokens)
    if t + m > cfg.max_tgt_positions:
        raise ConfigError(f"prefix of {t + m} tokens exceeds max_tgt_positions")
    x = w["tgt_embed"][np.asarray(tokens, dtype=np.int64)] + w["dec_pos"][t : t + m]
    # A single new row sees every cached position: its mask row is all zeros.
    mask = causal_mask(t + m)[t:] if m > 1 else None
    keys, values = [], []
    for idx in range(cfg.decoder_layers):
        p = f"dec.{idx}"
        normed = layer_norm(x, w[f"{p}.ln1.g"], w[f"{p}.ln1.b"])
        keys.append(np.concatenate([memory.keys[idx], project(normed, w, f"{p}.self", "k")]))
        values.append(np.concatenate([memory.values[idx], project(normed, w, f"{p}.self", "v")]))
        x = x + attention_block(normed, keys[-1], values[-1], w, f"{p}.self", cfg.n_heads, mask)
        normed = layer_norm(x, w[f"{p}.ln2.g"], w[f"{p}.ln2.b"])
        q = project(normed, w, f"{p}.cross", "q")
        x = x + project(cross_attention(q, cross_k[idx], cross_v[idx], cfg.n_heads), w,
                        f"{p}.cross", "o")
        normed = layer_norm(x, w[f"{p}.ln3.g"], w[f"{p}.ln3.b"])
        x = x + ffn(normed, w, f"{p}.ffn")
    x = layer_norm(x, w["dec.ln_f.g"], w["dec.ln_f.b"])
    logits = x @ w["out_w"] + w["out_b"]
    _finite_or_raise(logits)
    return logits, TargetMemory(keys=tuple(keys), values=tuple(values))


def kv_decode_full(
    prefix: Sequence[int], cross: CrossProjections, w: Weights, cfg: ModelConfig
) -> tuple[np.ndarray, TargetMemory]:
    """Run the decoder over a whole prefix with an empty starting memory,
    reading the source through `cross` (as `project_cross` makes it).

    Returns per-position next-token logits (t, tgt_vocab) and the rebuilt
    memory. Used at re-encoding points and as the from-scratch reference.
    """
    return _decode(prefix, TargetMemory.empty(cfg), cross, w, cfg)


def kv_decode_step(
    token: int, memory: TargetMemory, cross: CrossProjections, w: Weights, cfg: ModelConfig
) -> tuple[np.ndarray, TargetMemory]:
    """Advance one step: consume `token` at the next position.

    `cross` is as in `kv_decode_full`. Returns next-token logits
    (tgt_vocab,) and the grown memory; the input memory is left untouched.
    """
    logits, memory = _decode([token], memory, cross, w, cfg)
    return logits[0], memory


# -- greedy decoding ----------------------------------------------------------


@dataclass
class StepTrace:
    """What the decoder consumed and produced at one step."""

    step: int
    point: int | None  # re-encoding point whose key encodings were in effect
    key_hash: str
    value_hash: str
    token: int
    logits: np.ndarray


@dataclass
class DecodeResult:
    """Emitted tokens, the per-step trace and what the decode cost.

    `reencodings` counts the adaptive encodes run (one per schedule point
    reached); `cached_rows` sums, over incremental steps, the target rows
    read from the K/V cache instead of recomputed.
    """

    tokens: tuple[int, ...]
    steps: tuple[StepTrace, ...]
    schedule: range | None  # re-encoding points; None for vanilla
    reencodings: int
    cached_rows: int


def greedy_decode(
    src: Sequence[int], w: Weights, cfg: ModelConfig, max_len: int = 32
) -> DecodeResult:
    """Greedy decoding under the configured variant.

    Emits the argmax token each step (ties resolve to the lowest token id)
    and stops at EOS or after `max_len` steps. The trace records, per step,
    the hashes of the key and value encodings actually consumed and the
    schedule point they came from. A source that breaks the source rule
    (for adaptive variants, with the prefix of the last schedule point) is
    rejected before any encoding.
    """
    require_int("max_len", max_len)
    if max_len < 1:
        raise ConfigError(f"max_len must be at least 1, got {max_len}")
    if max_len > cfg.max_tgt_positions:
        raise ConfigError("max_len exceeds max_tgt_positions")

    shared = cfg.variant in ("dangle", "rdangle_shr")
    points = cfg.reencoding_points(max_len)
    # adaptive_encode at point p reads the source plus a p-token prefix.
    _check_source(src, 0 if points is None else points[-1], cfg)

    # Values come from the plain encoder, except for shared variants, whose
    # values are the keys of the latest re-encoding point. Each side keeps
    # its encoding's fingerprint and projections, made once per encoding.
    value_hash, cross_v, cross_k = "", (), ()
    if not shared:
        value_enc = encode(src, w, cfg)
        value_hash = encoding_hash(value_enc)
        cross_v = project_cross(value_enc, w, cfg, "v")
        if points is None:
            cross_k = project_cross(value_enc, w, cfg, "k")
    key_hash = value_hash

    prefix = [cfg.bos_id]
    memory = TargetMemory.empty(cfg)
    current_point: int | None = None
    tokens: list[int] = []
    steps: list[StepTrace] = []
    reencodings = cached_rows = 0

    for t in range(1, max_len + 1):
        if points is not None and t in points:
            current_point = t
            key_enc = adaptive_encode(src, prefix, w, cfg)
            key_hash = encoding_hash(key_enc)
            cross_k = project_cross(key_enc, w, cfg, "k")
            reencodings += 1
            if shared:
                value_hash = key_hash
                cross_v = project_cross(key_enc, w, cfg, "v")
            all_logits, memory = kv_decode_full(prefix, (cross_v, cross_k), w, cfg)
            # A copy: the row view would keep all t rows of logits alive.
            logits = all_logits[-1].copy()
        else:
            cached_rows += memory.length
            logits, memory = kv_decode_step(prefix[-1], memory, (cross_v, cross_k), w, cfg)
        token = int(np.argmax(logits))
        steps.append(
            StepTrace(
                step=t,
                point=current_point,
                key_hash=key_hash,
                value_hash=value_hash,
                token=token,
                logits=logits,
            )
        )
        tokens.append(token)
        if token == cfg.eos_id:
            break
        prefix.append(token)

    return DecodeResult(
        tokens=tuple(tokens),
        steps=tuple(steps),
        schedule=points,
        reencodings=reencodings,
        cached_rows=cached_rows,
    )
