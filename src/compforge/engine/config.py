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

Every configuration has every parameter stack (the plain encoder, both
adaptive stages and the decoder), whatever its variant, so one set of
weights decodes under any variant and interval.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

from compforge.errors import ConfigError, require_int

VARIANTS = ("vanilla", "dangle", "rdangle_shr", "rdangle_sep")
# Each integer field and its least value; bos_id and eos_id lie below tgt_vocab.
_INT_FIELDS = {
    "src_vocab": 3, "tgt_vocab": 3, "d_model": 1, "n_heads": 1, "encoder_layers": 1,
    "decoder_layers": 1, "k1": 0, "k2": 0, "max_src_positions": 1, "max_tgt_positions": 1,
    "bos_id": None, "eos_id": None,
}


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
    fusion_enabled: bool = True

    def __post_init__(self) -> None:
        for name, least in _INT_FIELDS.items():
            require_int(name, getattr(self, name), least)
        require_int("d_ff", self.d_ff, 1, optional=True)
        if not isinstance(self.fusion_enabled, bool):
            raise ConfigError(f"fusion_enabled must be true or false, got {self.fusion_enabled!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model ({self.d_model}) must be a multiple of n_heads "
                              f"({self.n_heads})")
        if self.k1 + self.k2 < 1:
            raise ConfigError("adaptive encoder needs k1 + k2 >= 1")
        # An int is never passed to float(): one past float range is still valid.
        interval = self.interval
        if isinstance(interval, bool) or not isinstance(interval, (int, float)) or not (
            interval == math.inf
            or ((isinstance(interval, int) or interval.is_integer()) and interval >= 1)
        ):
            raise ConfigError(f"interval must be an integer >= 1 or inf, got {interval!r}")
        if not 0 <= self.bos_id < self.tgt_vocab or not 0 <= self.eos_id < self.tgt_vocab:
            raise ConfigError("bos_id/eos_id must lie inside the target vocabulary")

    # -- derived geometry --------------------------------------------------

    @property
    def ffn_dim(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.d_model

    @property
    def effective_interval(self) -> float:
        """Re-encoding interval implied by the variant."""
        if self.variant == "dangle":
            return 1
        return self.interval

    def reencoding_points(self, horizon: int) -> range | None:
        """Steps 1, 1+o, 1+2o, … <= `horizon` at which the source is
        re-encoded, o being `effective_interval` (only step 1 for inf);
        None for vanilla, which never re-encodes."""
        require_int("horizon", horizon, 1)
        if self.variant == "vanilla":
            return None
        interval = self.effective_interval
        return range(1, horizon + 1, horizon if interval == math.inf else int(interval))

    # -- parameter-stack layout ---------------------------------------------
    #
    # Layers are addressed by string prefixes into the flat weights dict.

    def encoder_prefixes(self) -> list[str]:
        """The plain encoder (vanilla decoding / value encodings)."""
        return [f"enc.{i}" for i in range(self.encoder_layers)]

    def adaptive_prefixes(self) -> tuple[list[str], list[str]]:
        """(stage-1, stage-2) layer prefixes of the adaptive encoder."""
        return [f"aenc1.{i}" for i in range(self.k1)], [f"aenc2.{j}" for j in range(self.k2)]

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
