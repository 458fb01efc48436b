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

from compforge.errors import ConfigError

VARIANTS = ("vanilla", "dangle", "rdangle_shr", "rdangle_sep")


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
    use_positions: bool = True
    value_encoder_layers: int | None = None
    shared_top_layers: int = 0

    def __post_init__(self) -> None:
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
        if not (self.interval == math.inf or (float(self.interval).is_integer() and self.interval >= 1)):
            raise ConfigError(f"interval must be an integer >= 1 or inf, got {self.interval}")
        if not 0 <= self.bos_id < self.tgt_vocab or not 0 <= self.eos_id < self.tgt_vocab:
            raise ConfigError("bos_id/eos_id must lie inside the target vocabulary")
        if self.share_adaptive_encoder and self.encoder_layers != self.k1 + self.k2:
            raise ConfigError(
                "share_adaptive_encoder requires encoder_layers == k1 + k2 "
                f"({self.encoder_layers} != {self.k1} + {self.k2})"
            )
        if self.shared_top_layers < 0 or self.shared_top_layers > min(
            self.value_layers, self.k2
        ):
            raise ConfigError(
                f"shared_top_layers ({self.shared_top_layers}) must lie in "
                f"[0, min(value_encoder_layers={self.value_layers}, k2={self.k2})]"
            )

    # -- derived geometry --------------------------------------------------

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ffn_dim(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.d_model

    @property
    def value_layers(self) -> int:
        """Depth of the value/plain encoder (``rdangle_sep`` may override)."""
        if self.value_encoder_layers is not None:
            return self.value_encoder_layers
        return self.encoder_layers

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
        return [f"enc.{i}" for i in range(self.value_layers)]

    def adaptive_prefixes(self) -> tuple[list[str], list[str]]:
        """(stage-1, stage-2) layer prefixes of the adaptive encoder."""
        if self.share_adaptive_encoder:
            stage1 = [f"enc.{i}" for i in range(self.k1)]
            stage2 = [f"enc.{self.k1 + j}" for j in range(self.k2)]
            return stage1, stage2
        stage1 = [f"aenc1.{i}" for i in range(self.k1)]
        stage2 = []
        first_shared = self.k2 - self.shared_top_layers
        for j in range(self.k2):
            if self.variant == "rdangle_sep" and j >= first_shared:
                stage2.append(f"enc.{self.value_layers - self.k2 + j}")
            else:
                stage2.append(f"aenc2.{j}")
        return stage1, stage2

    def adaptive_final_ln(self) -> str:
        return "enc.ln_f" if self.share_adaptive_encoder else "aenc.ln_f"

    def needs_plain_encoder(self) -> bool:
        return (
            self.variant in ("vanilla", "rdangle_sep")
            or self.share_adaptive_encoder
            or self.shared_top_layers > 0
        )

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
