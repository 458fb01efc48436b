"""Numeric primitives for the forward pass. Everything here is functional
and dtype-preserving; the decode pipeline feeds float32 through."""

from __future__ import annotations

import math

import numpy as np

from compforge.errors import ConfigError


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtraction stabilized softmax. Tolerates -inf masked entries."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


def causal_mask(n: int, dtype=np.float32) -> np.ndarray:
    """(n, n) additive mask: -inf strictly above the diagonal."""
    mask = np.zeros((n, n), dtype=dtype)
    mask[np.triu_indices(n, k=1)] = -np.inf
    return mask


def key_block_mask(n_keys: int, visible: int, n_queries: int, dtype=np.float32) -> np.ndarray:
    """(n_queries, n_keys) additive mask hiding key columns >= `visible`."""
    mask = np.zeros((n_queries, n_keys), dtype=dtype)
    mask[:, visible:] = -np.inf
    return mask


def cross_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    n_heads: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Multi-head scaled dot-product attention on pre-projected inputs.

    `q` is (T_q, d_model); `k` and `v` are (T_k, d_model) and must agree on
    row count. `mask`, if given, is an additive (T_q, T_k) matrix (0 keeps,
    -inf hides). Returns the concatenated head outputs (T_q, d_model); the
    output projection is the caller's business.
    """
    if k.shape[0] != v.shape[0]:
        raise ConfigError(f"key rows ({k.shape[0]}) != value rows ({v.shape[0]})")
    d_model = q.shape[-1]
    if d_model % n_heads != 0:
        raise ConfigError(f"d_model {d_model} not divisible by n_heads {n_heads}")
    head_dim = d_model // n_heads
    # Plain-float scale so float32 inputs stay float32 (a numpy scalar
    # would promote the whole score matrix to float64).
    scale = 1.0 / math.sqrt(head_dim)

    outputs = []
    for h in range(n_heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        scores = (q[:, lo:hi] @ k[:, lo:hi].T) * scale
        if mask is not None:
            scores = scores + mask
        attn = softmax(scores, axis=-1)
        outputs.append(attn @ v[:, lo:hi])
    return np.concatenate(outputs, axis=-1)


def attention_block(
    x_q: np.ndarray,
    x_kv: np.ndarray,
    w,
    prefix: str,
    n_heads: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Projected attention sublayer output (pre-norm residual not included)."""
    q = x_q @ w[f"{prefix}.wq"] + w[f"{prefix}.bq"]
    k = x_kv @ w[f"{prefix}.wk"] + w[f"{prefix}.bk"]
    v = x_kv @ w[f"{prefix}.wv"] + w[f"{prefix}.bv"]
    out = cross_attention(q, k, v, n_heads, mask=mask)
    return out @ w[f"{prefix}.wo"] + w[f"{prefix}.bo"]


def ffn(x: np.ndarray, w, prefix: str) -> np.ndarray:
    hidden = np.maximum(x @ w[f"{prefix}.w1"] + w[f"{prefix}.b1"], 0.0)
    return hidden @ w[f"{prefix}.w2"] + w[f"{prefix}.b2"]


def encoder_layer(
    x: np.ndarray, w, prefix: str, n_heads: int, mask: np.ndarray | None = None
) -> np.ndarray:
    """One pre-norm self-attention encoder layer."""
    normed = layer_norm(x, w[f"{prefix}.ln1.g"], w[f"{prefix}.ln1.b"])
    x = x + attention_block(normed, normed, w, f"{prefix}.attn", n_heads, mask)
    normed = layer_norm(x, w[f"{prefix}.ln2.g"], w[f"{prefix}.ln2.b"])
    return x + ffn(normed, w, f"{prefix}.ffn")
