"""Deterministic numpy transformer decoding engine with interval re-encoding."""

from compforge.engine.config import VARIANTS, ModelConfig
from compforge.engine.model import (
    DecodeResult,
    StepTrace,
    TargetMemory,
    adaptive_encode,
    encode,
    encoding_hash,
    greedy_decode,
    kv_decode_full,
    kv_decode_step,
    project_cross,
)
from compforge.engine.weights import Weights, init_weights, load_weights, param_spec, save_weights

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "DecodeResult",
    "StepTrace",
    "TargetMemory",
    "adaptive_encode",
    "encode",
    "encoding_hash",
    "greedy_decode",
    "kv_decode_full",
    "kv_decode_step",
    "project_cross",
    "Weights",
    "init_weights",
    "load_weights",
    "param_spec",
    "save_weights",
]
