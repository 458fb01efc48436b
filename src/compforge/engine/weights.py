"""Parameter initialization and the on-disk weights format.

All parameters live in one flat ``name -> float32 array`` mapping. Attention
and feed-forward weights are drawn uniformly from (-0.1, 0.1) with a seeded
generator; layer norms start at the identity (gain 1, bias 0). Every
configuration has the same stacks, so one file decodes under any variant.

The file format is a small JSON header (names, shapes, seed, and the model
config so a decoder can be rebuilt from the file alone) followed by the raw
little-endian float32 blobs in header order. Round-tripping is bit-exact.
Loading checks the blob sizes the header gives against the file size, then
reads the whole blob region once into one float32 buffer; every parameter
is a reshaped view of it, so a loaded model holds its parameter bytes once.
Loading raises DataError when the header does not describe the blobs, bytes
follow the last one, or the stored config is missing, invalid or needs a
parameter the file lacks or holds in another shape (extra parameters are
allowed).
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
    names = sorted(weights.data)
    header = {
        "names": names,
        "shapes": {name: list(weights.data[name].shape) for name in names},
        "dtype": "float32",
        "seed": weights.seed,
        "config": cfg.to_dict(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(weights.data[name], dtype="<f4").tobytes())


def _header_layout(header, path: str) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) per blob, in file order; DataError if the header is ill-formed."""
    if not isinstance(header, dict):
        raise DataError("weights header is not a JSON object", path=path)
    names, shapes = header.get("names"), header.get("shapes")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise DataError("weights header needs 'names', a list of strings", path=path)
    if not isinstance(shapes, dict):
        raise DataError("weights header needs 'shapes', an object", path=path)
    layout = []
    for name in names:
        shape = shapes.get(name)
        if not isinstance(shape, list) or not all(
            type(dim) is int and dim >= 0 for dim in shape
        ):
            raise DataError(f"weights header has no valid shape for {name!r}", path=path)
        layout.append((name, tuple(shape)))
    return layout


def load_weights(path: str | Path) -> tuple[Weights, ModelConfig]:
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        if file_size < 4:
            raise DataError("truncated weights file", path=str(path))
        (header_len,) = struct.unpack("<I", fh.read(4))
        try:
            # A header length past the end reads what is there, never more.
            header = json.loads(fh.read(min(header_len, file_size - 4)).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting, huge ints
            raise DataError(f"unreadable weights header ({exc})", path=str(path))
        offset = 4 + header_len
        blobs = []  # (name, shape, first element, element count)
        count = 0
        for name, shape in _header_layout(header, str(path)):
            size = math.prod(shape)  # exact: a huge shape reads as truncated, not as 0
            if offset + 4 * (count + size) > file_size:
                raise DataError(f"weights blob truncated at {name}", path=str(path))
            blobs.append((name, shape, count, size))
            count += size
        if offset + 4 * count != file_size:
            raise DataError(
                f"weights file has {file_size} bytes but its header and blobs span "
                f"{offset + 4 * count}",
                path=str(path),
            )
        flat = np.empty(count, dtype="<f4")
        if fh.readinto(flat) != flat.nbytes:
            raise DataError("weights file shrank while it was read", path=str(path))
    flat = flat.astype(np.float32, copy=False)
    data = {name: flat[start : start + size].reshape(shape)
            for name, shape, start, size in blobs}
    config = header.get("config")
    if not isinstance(config, dict):
        raise DataError("weights header needs 'config', a model config object", path=str(path))
    try:
        cfg = ModelConfig.from_dict(config)
    except (TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"weights header 'config' is not a model config ({exc})", path=str(path))
    for name, shape in param_spec(cfg).items():
        if name not in data or data[name].shape != shape:
            found = data[name].shape if name in data else "missing"
            raise DataError(
                f"weights do not match their config: {name} should be {shape}, got {found}",
                path=str(path),
            )
    return Weights(data=data, seed=header.get("seed")), cfg
