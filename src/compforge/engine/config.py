"""Model geometry and decoding-variant configuration.

Variants:

* ``vanilla``      — encode the source once, decode incrementally.
* ``dangle``       — re-encode the source adaptively at *every* step
                     (equivalent to ``rdangle_shr`` with interval 1).
* ``rdangle_shr``  — adaptive re-encoding only at interval points
                     t = 1, 1+o, 1+2o, …; keys and values both come from the
                     latest re-encoding.
* ``rdangle_sep``  — source *values* are encoded once up front; only the
                     *keys* are re-encoded at interval points.

The adaptive encoder runs ``k1`` layers over the concatenation of source and
decoded prefix (prefix tokens use the target embedding table and continue
the source position index range), truncates back to the source rows, then
runs ``k2`` layers over those. ``interval`` may be ``math.inf``, meaning the
only re-encoding happens at the mandatory first step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

from compforge.errors import ConfigError, require_int

VARIANTS = ("vanilla", "dangle", "rdangle_shr", "rdangle_sep")
_INT_FIELDS = (
    "src_vocab", "tgt_vocab", "d_model", "n_heads", "encoder_layers", "decoder_layers",
    "k1", "k2", "max_src_positions", "max_tgt_positions", "bos_id", "eos_id",
)


@dataclass(frozen=True)
class ModelConfig:
    src_vocab: int
    tgt_vocab: int
    d_model: int = 32
    n_heads: int = 4
    d_ff: int | None = None
    encoder_layers: int = 2
    decoder_layers: int = 2
    k1: int = 1
    k2: int = 1
    max_src_positions: int = 64
    max_tgt_positions: int = 64
    variant: str = "rdangle_shr"
    interval: float = 1
    bos_id: int = 1
    eos_id: int = 2
    share_adaptive_encoder: bool = False
    fusion_enabled: bool = True

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            require_int(name, getattr(self, name))
        require_int("d_ff", self.d_ff, optional=True)
        for name in ("share_adaptive_encoder", "fusion_enabled"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.n_heads < 1:
            raise ConfigError(f"n_heads must be at least 1, got {self.n_heads}")
        if self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be a positive multiple of n_heads ({self.n_heads})"
            )
        if min(self.src_vocab, self.tgt_vocab) < 3:
            raise ConfigError("vocabularies must have at least 3 entries")
        for name in ("encoder_layers", "decoder_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.k1 < 0 or self.k2 < 0 or self.k1 + self.k2 < 1:
            raise ConfigError("adaptive encoder needs k1, k2 >= 0 with k1 + k2 >= 1")
        interval = self.interval
        if isinstance(interval, bool) or not isinstance(interval, (int, float)) or not (
            interval == math.inf or (float(interval).is_integer() and interval >= 1)
        ):
            raise ConfigError(f"interval must be an integer >= 1 or inf, got {interval!r}")
        if not 0 <= self.bos_id < self.tgt_vocab or not 0 <= self.eos_id < self.tgt_vocab:
            raise ConfigError("bos_id/eos_id must lie inside the target vocabulary")
        if self.share_adaptive_encoder and self.encoder_layers != self.k1 + self.k2:
            raise ConfigError(
                "share_adaptive_encoder requires encoder_layers == k1 + k2 "
                f"({self.encoder_layers} != {self.k1} + {self.k2})"
            )

    # -- derived geometry --------------------------------------------------

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ffn_dim(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.d_model

    @property
    def effective_interval(self) -> float:
        """Re-encoding interval implied by the variant."""
        if self.variant == "dangle":
            return 1
        return self.interval

    # -- parameter-stack layout ---------------------------------------------
    #
    # Layers are addressed by string prefixes into the flat weights dict.
    # Weight sharing is expressed by two stacks resolving to the same
    # prefixes, so shared layers are literally the same arrays.

    def encoder_prefixes(self) -> list[str]:
        """The plain encoder (vanilla decoding / value encodings)."""
        return [f"enc.{i}" for i in range(self.encoder_layers)]

    def adaptive_prefixes(self) -> tuple[list[str], list[str]]:
        """(stage-1, stage-2) layer prefixes of the adaptive encoder."""
        if self.share_adaptive_encoder:
            stage1 = [f"enc.{i}" for i in range(self.k1)]
            stage2 = [f"enc.{self.k1 + j}" for j in range(self.k2)]
            return stage1, stage2
        stage1 = [f"aenc1.{i}" for i in range(self.k1)]
        stage2 = [f"aenc2.{j}" for j in range(self.k2)]
        return stage1, stage2

    def adaptive_final_ln(self) -> str:
        return "enc.ln_f" if self.share_adaptive_encoder else "aenc.ln_f"

    def needs_plain_encoder(self) -> bool:
        return self.variant in ("vanilla", "rdangle_sep") or self.share_adaptive_encoder

    def needs_adaptive_encoder(self) -> bool:
        return self.variant in ("dangle", "rdangle_shr", "rdangle_sep")

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        if payload["interval"] == math.inf:
            payload["interval"] = "inf"
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ModelConfig":
        payload = dict(payload)
        if payload.get("interval") == "inf":
            payload["interval"] = math.inf
        return cls(**payload)
