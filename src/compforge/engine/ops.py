"""Numeric primitives for the forward pass. Everything here is functional
and dtype-preserving; the decode pipeline feeds float32 through. Inputs are
never written to: each sublayer allocates its result once and updates that
temporary in place, unless the update needs a wider dtype."""

from __future__ import annotations

import math

import numpy as np

from compforge.errors import ConfigError


def _update(ufunc, temp: np.ndarray, other) -> np.ndarray:
    """`ufunc(temp, other)`, written into `temp` (an array this module made)
    when the result keeps its dtype; a wider operand gets a new array."""
    out = temp if np.result_type(temp, other) == temp.dtype else None
    return ufunc(temp, other, out=out)


def softmax(x: np.ndarray) -> np.ndarray:
    """Max-subtraction stabilized softmax over the last axis; tolerates -inf entries."""
    # An integer input gets a float result, as np.exp would give it.
    out = np.subtract(x, np.max(x, axis=-1, keepdims=True), dtype=np.result_type(x, 1.0))
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Layer normalisation over the last axis with epsilon 1e-5."""
    width = x.shape[-1]
    out = x - np.add.reduce(x, axis=-1, keepdims=True) / width
    var = np.add.reduce(np.square(out), axis=-1, keepdims=True)
    var /= width
    var += 1e-5
    out /= np.sqrt(var, out=var)
    return _update(np.add, _update(np.multiply, out, gain), bias)


def causal_mask(n: int) -> np.ndarray:
    """(n, n) float32 additive mask: -inf strictly above the diagonal."""
    mask = np.zeros((n, n), dtype=np.float32)
    mask[np.triu_indices(n, k=1)] = -np.inf
    return mask


def project(x: np.ndarray, w, prefix: str, part: str) -> np.ndarray:
    """One attention projection: `x @ {prefix}.w{part} + {prefix}.b{part}`,
    `part` being q, k, v or o."""
    return _update(np.add, x @ w[f"{prefix}.w{part}"], w[f"{prefix}.b{part}"])


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(T, d_model) -> (n_heads, T, d_model / n_heads), a view."""
    return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)


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
    -inf hides). All heads run as one batched (H, T_q, d/H) @ (H, d/H, T_k)
    product. Returns the concatenated head outputs (T_q, d_model); the
    output projection is the caller's business.
    """
    if k.shape[0] != v.shape[0]:
        raise ConfigError(f"key rows ({k.shape[0]}) != value rows ({v.shape[0]})")
    t_q, d_model = q.shape
    if d_model % n_heads != 0:
        raise ConfigError(f"d_model {d_model} not divisible by n_heads {n_heads}")
    # Plain-float scale so float32 inputs stay float32 (a numpy scalar
    # would promote the whole score matrix to float64).
    scale = 1.0 / math.sqrt(d_model // n_heads)
    keys_t = _split_heads(k, n_heads).transpose(0, 2, 1)
    scores = _split_heads(q, n_heads) @ keys_t
    scores *= scale
    if mask is not None:
        scores = _update(np.add, scores, mask)
    out = softmax(scores) @ _split_heads(v, n_heads)
    return out.transpose(1, 0, 2).reshape(t_q, d_model)


def attention_block(
    x_q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    w,
    prefix: str,
    n_heads: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Attention sublayer output over projected keys and values: projects
    the queries, attends and projects the result (pre-norm residual not
    included)."""
    out = cross_attention(project(x_q, w, prefix, "q"), k, v, n_heads, mask=mask)
    return project(out, w, prefix, "o")


def ffn(x: np.ndarray, w, prefix: str) -> np.ndarray:
    """`relu(x @ w1 + b1) @ w2 + b2`, computed transposed.

    The (in, out) matrices are column-major (see weights.py), so `.T` is
    their C-ordered (out, in) form: BLAS reads each of its rows with unit
    stride, where it would pack a row-major (256, 1024) matrix by 4 KB
    strides that the prefetcher cannot follow once the weights are out of
    cache. The product stays correct for matrices in any order.
    """
    hidden = _update(np.add, w[f"{prefix}.w1"].T @ x.T, w[f"{prefix}.b1"][:, None])
    np.maximum(hidden, 0.0, out=hidden)
    return _update(np.add, (w[f"{prefix}.w2"].T @ hidden).T, w[f"{prefix}.b2"])


def encoder_layer(
    x: np.ndarray, w, prefix: str, n_heads: int, rows: int | None = None
) -> np.ndarray:
    """One pre-norm self-attention encoder layer; every row attends to every row.

    With `rows`, only the first `rows` positions are computed and returned:
    keys and values still come from every row of `x`, but queries,
    attention output and FFN run on the kept rows alone.
    """
    normed = layer_norm(x, w[f"{prefix}.ln1.g"], w[f"{prefix}.ln1.b"])
    attn = f"{prefix}.attn"
    k, v = project(normed, w, attn, "k"), project(normed, w, attn, "v")
    if rows is not None:
        x, normed = x[:rows], normed[:rows]
    x = _update(np.add, attention_block(normed, k, v, w, attn, n_heads), x)
    normed = layer_norm(x, w[f"{prefix}.ln2.g"], w[f"{prefix}.ln2.b"])
    return _update(np.add, x, ffn(normed, w, f"{prefix}.ffn"))
