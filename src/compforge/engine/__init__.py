"""Deterministic numpy transformer decoding engine with interval re-encoding."""

from compforge.engine.config import VARIANTS, ModelConfig
from compforge.engine.model import (
    DecodeResult,
    ReEncodingSchedule,
    StepTrace,
    TargetMemory,
    adaptive_encode,
    build_schedule,
    encode,
    encoding_hash,
    greedy_decode,
    kv_decode_full,
    kv_decode_step,
)
from compforge.engine.ops import cross_attention, layer_norm, softmax
from compforge.engine.weights import Weights, init_weights, load_weights, param_spec, save_weights

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "DecodeResult",
    "ReEncodingSchedule",
    "StepTrace",
    "TargetMemory",
    "adaptive_encode",
    "build_schedule",
    "encode",
    "encoding_hash",
    "greedy_decode",
    "kv_decode_full",
    "kv_decode_step",
    "cross_attention",
    "layer_norm",
    "softmax",
    "Weights",
    "init_weights",
    "load_weights",
    "param_spec",
    "save_weights",
]
