"""Forward-pass engine: plain encoding, adaptive re-encoding, scheduled
greedy decoding with an incrementally grown target memory.

Full and incremental decoding share one decoder stack, `_decode`, which
runs new target tokens after a memory of earlier positions. `kv_decode_full`
starts it from an empty memory (re-encoding points rebuild the memory from
scratch); `kv_decode_step` feeds it one token, so between points the memory
grows by exactly one position per step. Decoding state is functional: a new
memory is returned and the old one is left untouched. Both entry points
take value encodings and key encodings as distinct matrices; shared-encoding
decoding passes the same matrix twice.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
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
    key_block_mask,
    layer_norm,
)
from compforge.engine.weights import Weights
from compforge.errors import CompforgeError, ConfigError


def encoding_hash(encodings: np.ndarray) -> str:
    """Short content hash of an encoding matrix (bit-level identity)."""
    return hashlib.sha256(np.ascontiguousarray(encodings).tobytes()).hexdigest()[:16]


def _check_tokens(tokens: Sequence[int], vocab: int, what: str) -> None:
    if len(tokens) == 0:
        raise ConfigError(f"{what} must be non-empty")
    for tok in tokens:
        if not 0 <= int(tok) < vocab:
            raise ConfigError(f"{what} token id {tok} outside vocabulary of size {vocab}")


def _embed_source(src: Sequence[int], w: Weights) -> np.ndarray:
    return w["src_embed"][np.asarray(src, dtype=np.int64)] + w["enc_pos"][: len(src)]


def encode(src: Sequence[int], w: Weights, cfg: ModelConfig) -> np.ndarray:
    """Plain encoder: (n, d_model) source encodings."""
    _check_tokens(src, cfg.src_vocab, "source")
    if len(src) > cfg.max_src_positions:
        raise ConfigError(f"source of {len(src)} tokens exceeds max_src_positions")
    x = _embed_source(src, w)
    for prefix in cfg.encoder_prefixes():
        x = encoder_layer(x, w, prefix, cfg.n_heads)
    return layer_norm(x, w["enc.ln_f.g"], w["enc.ln_f.b"])


def adaptive_encode(
    src: Sequence[int], prefix: Sequence[int], w: Weights, cfg: ModelConfig
) -> np.ndarray:
    """Source encodings conditioned on the decoded prefix.

    Stage 1 runs k1 layers over the concatenated source + prefix rows (the
    prefix embeds with the target table and continues the source position
    indices); the result is truncated back to the source rows, and stage 2
    runs k2 layers over those. With fusion disabled, stage-1 attention
    places zero mass on prefix columns, so the prefix cannot influence the
    output at all.
    """
    _check_tokens(src, cfg.src_vocab, "source")
    _check_tokens(prefix, cfg.tgt_vocab, "prefix")
    n, t = len(src), len(prefix)
    if n + t > cfg.max_src_positions:
        raise ConfigError(
            f"source+prefix of {n + t} positions exceeds max_src_positions={cfg.max_src_positions}"
        )
    prefix_rows = w["tgt_embed"][np.asarray(prefix, dtype=np.int64)] + w["enc_pos"][n : n + t]
    x = np.concatenate([_embed_source(src, w), prefix_rows], axis=0)

    stage1, stage2 = cfg.adaptive_prefixes()
    mask = None if cfg.fusion_enabled else key_block_mask(n + t, n, n + t)
    for layer in stage1:
        x = encoder_layer(x, w, layer, cfg.n_heads, mask=mask)
    x = x[:n]
    for layer in stage2:
        x = encoder_layer(x, w, layer, cfg.n_heads)
    final = cfg.adaptive_final_ln()
    return layer_norm(x, w[f"{final}.g"], w[f"{final}.b"])


# -- re-encoding schedule ---------------------------------------------------


@dataclass(frozen=True)
class ReEncodingSchedule:
    """Steps at which the source is re-encoded: 1, 1+o, 1+2o, … <= horizon."""

    interval: float
    points: tuple[int, ...]

    def __contains__(self, step: int) -> bool:
        return step in self.points

    def point_for(self, step: int) -> int:
        """Largest re-encoding point <= `step`."""
        idx = bisect_right(self.points, step)
        if idx == 0:
            raise ConfigError(f"no re-encoding point at or before step {step}")
        return self.points[idx - 1]


def build_schedule(interval: float, horizon: int) -> ReEncodingSchedule:
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1, got {horizon}")
    if interval == math.inf:
        return ReEncodingSchedule(interval=interval, points=(1,))
    if not float(interval).is_integer() or interval < 1:
        raise ConfigError(f"interval must be an integer >= 1 or inf, got {interval}")
    step = int(interval)
    return ReEncodingSchedule(
        interval=step, points=tuple(range(1, horizon + 1, step))
    )


# -- target memory and decoding ---------------------------------------------


@dataclass
class TargetMemory:
    """Per-decoder-layer history of layer-input hidden states (t rows each).

    Row i of layer l is the input of decoder layer l at target position i.
    New positions read these rows as self-attention keys and values and
    append their own inputs, so a memory built by one full pass over a
    prefix agrees, up to float32 rounding, with one grown a token at a time.
    """

    layers: tuple[np.ndarray, ...]

    @classmethod
    def empty(cls, cfg: ModelConfig) -> "TargetMemory":
        return cls(
            layers=tuple(
                np.zeros((0, cfg.d_model), dtype=np.float32)
                for _ in range(cfg.decoder_layers)
            )
        )

    @property
    def length(self) -> int:
        return self.layers[0].shape[0]

    def _validate(self, cfg: ModelConfig) -> None:
        if len(self.layers) != cfg.decoder_layers:
            raise ConfigError(
                f"memory has {len(self.layers)} layers, model has {cfg.decoder_layers}"
            )
        lengths = {layer.shape[0] for layer in self.layers}
        if len(lengths) != 1:
            raise ConfigError(f"inconsistent memory lengths across layers: {sorted(lengths)}")
        widths = {layer.shape[1] for layer in self.layers}
        if widths != {cfg.d_model}:
            raise ConfigError(f"memory width {sorted(widths)} does not match d_model")


def _check_kv(enc_v: np.ndarray, enc_k: np.ndarray) -> None:
    if enc_v.shape[0] != enc_k.shape[0]:
        raise ConfigError(
            f"value encodings have {enc_v.shape[0]} rows but key encodings {enc_k.shape[0]}"
        )


def _finite_or_raise(logits: np.ndarray) -> None:
    if not np.all(np.isfinite(logits)):
        raise CompforgeError("non-finite logits in decoder output")


def _decode(
    tokens: Sequence[int], memory: TargetMemory, enc_v: np.ndarray, enc_k: np.ndarray,
    w: Weights, cfg: ModelConfig,
) -> tuple[np.ndarray, TargetMemory]:
    """Decode `tokens` at the m positions after the memory's t rows.

    The new rows attend to the memory and to each other through causal-mask
    rows t..t+m-1. Returns next-token logits (m, tgt_vocab) and the memory
    grown by m rows; the input memory is left untouched.
    """
    _check_tokens(tokens, cfg.tgt_vocab, "prefix")
    _check_kv(enc_v, enc_k)
    memory._validate(cfg)
    t, m = memory.length, len(tokens)
    if t + m > cfg.max_tgt_positions:
        raise ConfigError(f"prefix of {t + m} tokens exceeds max_tgt_positions")
    x = w["tgt_embed"][np.asarray(tokens, dtype=np.int64)] + w["dec_pos"][t : t + m]
    mask = causal_mask(t + m)[t:]
    layers = []
    for idx in range(cfg.decoder_layers):
        p = f"dec.{idx}"
        inputs = np.concatenate([memory.layers[idx], x], axis=0)
        layers.append(inputs)
        normed = layer_norm(inputs, w[f"{p}.ln1.g"], w[f"{p}.ln1.b"])
        x = x + attention_block(normed[t:], normed, w, f"{p}.self", cfg.n_heads, mask)
        normed = layer_norm(x, w[f"{p}.ln2.g"], w[f"{p}.ln2.b"])
        q = normed @ w[f"{p}.cross.wq"] + w[f"{p}.cross.bq"]
        k = enc_k @ w[f"{p}.cross.wk"] + w[f"{p}.cross.bk"]
        v = enc_v @ w[f"{p}.cross.wv"] + w[f"{p}.cross.bv"]
        x = x + (cross_attention(q, k, v, cfg.n_heads) @ w[f"{p}.cross.wo"] + w[f"{p}.cross.bo"])
        normed = layer_norm(x, w[f"{p}.ln3.g"], w[f"{p}.ln3.b"])
        x = x + ffn(normed, w, f"{p}.ffn")
    x = layer_norm(x, w["dec.ln_f.g"], w["dec.ln_f.b"])
    logits = x @ w["out_w"] + w["out_b"]
    _finite_or_raise(logits)
    return logits, TargetMemory(layers=tuple(layers))


def kv_decode_full(
    prefix: Sequence[int], enc_v: np.ndarray, enc_k: np.ndarray, w: Weights, cfg: ModelConfig
) -> tuple[np.ndarray, TargetMemory]:
    """Run the decoder over a whole prefix with an empty starting memory.

    Returns per-position next-token logits (t, tgt_vocab) and the rebuilt
    memory. Used at re-encoding points and as the from-scratch reference.
    """
    return _decode(prefix, TargetMemory.empty(cfg), enc_v, enc_k, w, cfg)


def kv_decode_step(
    token: int, memory: TargetMemory, enc_v: np.ndarray, enc_k: np.ndarray,
    w: Weights, cfg: ModelConfig,
) -> tuple[np.ndarray, TargetMemory]:
    """Advance one step: consume `token` at the next position.

    Returns next-token logits (tgt_vocab,) and the grown memory; the input
    memory is left untouched.
    """
    logits, memory = _decode([token], memory, enc_v, enc_k, w, cfg)
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
    tokens: tuple[int, ...]
    steps: tuple[StepTrace, ...]
    schedule: ReEncodingSchedule | None


def greedy_decode(
    src: Sequence[int], w: Weights, cfg: ModelConfig, max_len: int = 32
) -> DecodeResult:
    """Greedy decoding under the configured variant.

    Emits the argmax token each step (ties resolve to the lowest token id)
    and stops at EOS or after `max_len` steps. The trace records, per step,
    the hashes of the key and value encodings actually consumed and the
    schedule point they came from. For adaptive variants, a source too long
    to re-encode with the prefix of the last schedule point is rejected
    before any encoding.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be at least 1, got {max_len}")
    if max_len > cfg.max_tgt_positions:
        raise ConfigError("max_len exceeds max_tgt_positions")

    shared = cfg.variant in ("dangle", "rdangle_shr")
    schedule = (
        build_schedule(cfg.effective_interval, max_len) if cfg.variant != "vanilla" else None
    )
    if schedule is not None:
        # adaptive_encode at point p reads the source plus a p-token prefix.
        longest = len(src) + schedule.points[-1]
        if longest > cfg.max_src_positions:
            raise ConfigError(
                f"source+prefix of up to {longest} positions exceeds "
                f"max_src_positions={cfg.max_src_positions}"
            )

    # Values come from the plain encoder, except for shared variants, whose
    # values are the keys of the latest re-encoding point.
    value_enc, value_hash = None, ""
    if not shared:
        value_enc = encode(src, w, cfg)
        value_hash = encoding_hash(value_enc)
    key_enc, key_hash = value_enc, value_hash

    prefix = [cfg.bos_id]
    memory = TargetMemory.empty(cfg)
    current_point: int | None = None
    tokens: list[int] = []
    steps: list[StepTrace] = []

    for t in range(1, max_len + 1):
        if schedule is not None and t in schedule:
            current_point = t
            key_enc = adaptive_encode(src, prefix, w, cfg)
            key_hash = encoding_hash(key_enc)
            if shared:
                value_enc, value_hash = key_enc, key_hash
            all_logits, memory = kv_decode_full(prefix, value_enc, key_enc, w, cfg)
            logits = all_logits[-1]
        else:
            logits, memory = kv_decode_step(prefix[-1], memory, value_enc, key_enc, w, cfg)
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

    return DecodeResult(tokens=tuple(tokens), steps=tuple(steps), schedule=schedule)
