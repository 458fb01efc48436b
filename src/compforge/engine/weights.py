"""Parameter initialization and the on-disk weights format.

All parameters live in one flat ``name -> float32 array`` mapping. Attention
and feed-forward weights are drawn uniformly from (-0.1, 0.1) with a seeded
generator; layer norms start at the identity (gain 1, bias 0). Weight
sharing between stacks happens upstream, in how layer prefixes resolve — a
shared layer simply appears under a single name.

The file format is a small JSON header (names, shapes, seed, and the model
config so a decoder can be rebuilt from the file alone) followed by the raw
little-endian float32 blobs in header order. Round-tripping is bit-exact.
Loading raises DataError when the header does not describe the blobs, bytes
follow the last one, or the stored config is invalid or needs a parameter
the file lacks or holds in another shape (extra parameters are allowed).
"""

from __future__ import annotations

import json
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
                f"model weights have no parameter {name!r} — the file was saved "
                "for a configuration that does not allocate it"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.data

    def names(self) -> list[str]:
        return list(self.data)


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
    """Deterministically ordered name -> shape map for a configuration."""
    d = cfg.d_model
    spec: dict[str, tuple[int, ...]] = {
        "src_embed": (cfg.src_vocab, d),
        "tgt_embed": (cfg.tgt_vocab, d),
        "enc_pos": (cfg.max_src_positions, d),
        "dec_pos": (cfg.max_tgt_positions, d),
    }
    encoder_prefixes: list[str] = []
    if cfg.needs_plain_encoder():
        encoder_prefixes.extend(cfg.encoder_prefixes())
        spec["enc.ln_f.g"] = (d,)
        spec["enc.ln_f.b"] = (d,)
    if cfg.needs_adaptive_encoder():
        stage1, stage2 = cfg.adaptive_prefixes()
        encoder_prefixes.extend(stage1)
        encoder_prefixes.extend(stage2)
        final = cfg.adaptive_final_ln()
        spec[f"{final}.g"] = (d,)
        spec[f"{final}.b"] = (d,)
    seen: set[str] = set()
    for prefix in encoder_prefixes:
        if prefix in seen:
            continue  # shared layer, already spec'd
        seen.add(prefix)
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


def save_weights(path: str | Path, weights: Weights, cfg: ModelConfig | None = None) -> None:
    names = sorted(weights.data)
    header = {
        "names": names,
        "shapes": {name: list(weights.data[name].shape) for name in names},
        "dtype": "float32",
        "seed": weights.seed,
        "config": cfg.to_dict() if cfg is not None else None,
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


def load_weights(path: str | Path) -> tuple[Weights, ModelConfig | None]:
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise DataError("truncated weights file", path=str(path))
    (header_len,) = struct.unpack_from("<I", raw)
    try:
        header = json.loads(raw[4 : 4 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting, huge ints
        raise DataError(f"unreadable weights header ({exc})", path=str(path))
    offset = 4 + header_len
    data: dict[str, np.ndarray] = {}
    for name, shape in _header_layout(header, str(path)):
        size = int(np.prod(shape)) * 4
        chunk = raw[offset : offset + size]
        if len(chunk) != size:
            raise DataError(f"weights blob truncated at {name}", path=str(path))
        data[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).astype(np.float32)
        offset += size
    if offset != len(raw):
        raise DataError(
            f"weights file has {len(raw)} bytes but its header and blobs span {offset}",
            path=str(path),
        )
    config = header.get("config")
    if config and not isinstance(config, dict):
        raise DataError("weights header 'config' is not an object", path=str(path))
    if not config:
        return Weights(data=data, seed=header.get("seed")), None
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
