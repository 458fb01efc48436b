"""Parameter initialization and the on-disk weights format.

All parameters live in one flat ``name -> float32 array`` mapping. Attention
and feed-forward weights are drawn uniformly from (-0.1, 0.1) with a seeded
generator; layer norms start at the identity (gain 1, bias 0). Every
configuration has the same stacks, so one file decodes under any variant.

The file format is a small JSON header (the model config and the init seed)
followed by the raw little-endian float32 blobs of ``param_spec(config)`` in
sorted-name order. The config alone fixes every name and shape, so a decoder
is rebuilt from the file alone and the layout is stated nowhere else.
Round-tripping is bit-exact. ``save_weights`` writes exactly those
parameters and raises ConfigError if one is missing or in another shape.
Loading requires the file to be exactly header plus blobs long, then reads
the blob region once into one float32 buffer; every parameter is a reshaped
view of it, so a loaded model holds its parameter bytes once. Loading raises
DataError when the header or its stored config is missing or invalid, or the
file size differs from what the config needs (so a file holding extra
arrays is rejected and must be saved again).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from compforge.engine.config import ModelConfig
from compforge.errors import ConfigError, DataError

_ATTN_PARTS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


@dataclass
class Weights:
    """Flat parameter store; indexing delegates to the underlying dict."""

    data: dict[str, np.ndarray]
    seed: int | None = None

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.data[name]
        except KeyError:
            raise ConfigError(
                f"model weights have no parameter {name!r}; they were not made "
                "for this model config"
            ) from None


def _attention_shapes(d_model: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for part in _ATTN_PARTS:
        shapes[part] = (d_model, d_model) if part.startswith("w") else (d_model,)
    return shapes


def _layer_shapes(cfg: ModelConfig, prefix: str, cross: bool) -> dict[str, tuple[int, ...]]:
    d, f = cfg.d_model, cfg.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {
        f"{prefix}.ln1.g": (d,),
        f"{prefix}.ln1.b": (d,),
        f"{prefix}.ln2.g": (d,),
        f"{prefix}.ln2.b": (d,),
    }
    for part, shape in _attention_shapes(d).items():
        shapes[f"{prefix}.self.{part}" if cross else f"{prefix}.attn.{part}"] = shape
    if cross:
        for part, shape in _attention_shapes(d).items():
            shapes[f"{prefix}.cross.{part}"] = shape
        shapes[f"{prefix}.ln3.g"] = (d,)
        shapes[f"{prefix}.ln3.b"] = (d,)
    shapes[f"{prefix}.ffn.w1"] = (d, f)
    shapes[f"{prefix}.ffn.b1"] = (f,)
    shapes[f"{prefix}.ffn.w2"] = (f, d)
    shapes[f"{prefix}.ffn.b2"] = (d,)
    return shapes


def param_spec(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Deterministically ordered name -> shape map for a configuration; every
    configuration holds every stack, whatever its variant."""
    d = cfg.d_model
    spec: dict[str, tuple[int, ...]] = {
        "src_embed": (cfg.src_vocab, d),
        "tgt_embed": (cfg.tgt_vocab, d),
        "enc_pos": (cfg.max_src_positions, d),
        "dec_pos": (cfg.max_tgt_positions, d),
        "enc.ln_f.g": (d,),
        "enc.ln_f.b": (d,),
        "aenc.ln_f.g": (d,),
        "aenc.ln_f.b": (d,),
    }
    stage1, stage2 = cfg.adaptive_prefixes()
    for prefix in cfg.encoder_prefixes() + stage1 + stage2:
        spec.update(_layer_shapes(cfg, prefix, cross=False))
    for i in range(cfg.decoder_layers):
        spec.update(_layer_shapes(cfg, f"dec.{i}", cross=True))
    spec["dec.ln_f.g"] = (d,)
    spec["dec.ln_f.b"] = (d,)
    spec["out_w"] = (d, cfg.tgt_vocab)
    spec["out_b"] = (cfg.tgt_vocab,)
    return spec


def init_weights(cfg: ModelConfig, seed: int = 0, scale: float = 0.1) -> Weights:
    """Seeded uniform(-scale, scale) init; layer norms at the identity."""
    rng = np.random.default_rng(seed)
    data: dict[str, np.ndarray] = {}
    for name, shape in param_spec(cfg).items():
        if name.endswith(".g"):
            data[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(".b") and ".ln" in name:
            data[name] = np.zeros(shape, dtype=np.float32)
        else:
            data[name] = rng.uniform(-scale, scale, size=shape).astype(np.float32)
    return Weights(data=data, seed=seed)


def save_weights(path: str | Path, weights: Weights, cfg: ModelConfig) -> None:
    """Write `cfg`'s parameters, by sorted name, after a header holding `cfg`
    and the seed; ConfigError, before the file is opened, if `weights` lacks
    a parameter of `cfg` or holds one in another shape."""
    spec = param_spec(cfg)
    for name, shape in spec.items():
        array = weights.data.get(name)
        if array is None or array.shape != shape:
            found = "missing" if array is None else array.shape
            raise ConfigError(
                f"weights do not match their config: {name} should be {shape}, got {found}"
            )
    header = {"seed": weights.seed, "config": cfg.to_dict()}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in sorted(spec):
            fh.write(np.ascontiguousarray(weights.data[name], dtype="<f4").tobytes())


def load_weights(path: str | Path) -> tuple[Weights, ModelConfig]:
    path = str(path)
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        if file_size < 4:
            raise DataError("truncated weights file", path=path)
        (header_len,) = struct.unpack("<I", fh.read(4))
        try:
            # A header length past the end reads what is there, never more.
            header = json.loads(fh.read(min(header_len, file_size - 4)).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting, huge ints
            raise DataError(f"unreadable weights header ({exc})", path=path)
        if not isinstance(header, dict):
            raise DataError("weights header is not a JSON object", path=path)
        if not isinstance(header.get("config"), dict):
            raise DataError("weights header needs 'config', a model config object", path=path)
        try:
            cfg = ModelConfig.from_dict(header["config"])
        except (TypeError, ValueError, ConfigError) as exc:
            raise DataError(f"weights header 'config' is not a model config ({exc})", path=path)
        layout = sorted(param_spec(cfg).items())
        sizes = [math.prod(shape) for _, shape in layout]  # exact: a huge config never wraps
        span = 4 + header_len + 4 * sum(sizes)
        if span != file_size:
            raise DataError(
                f"weights file has {file_size} bytes but its header and blobs span {span}",
                path=path,
            )
        flat = np.empty(sum(sizes), dtype="<f4")
        if fh.readinto(flat) != flat.nbytes:
            raise DataError("weights file shrank while it was read", path=path)
    parts = np.split(flat.astype(np.float32, copy=False), np.cumsum(sizes)[:-1])
    data = {name: part.reshape(shape) for (name, shape), part in zip(layout, parts)}
    return Weights(data=data, seed=header.get("seed")), cfg
