"""A second, deliberately naive implementation of the forward pass.

Used as the oracle for the engine: same layer equations, but written with
explicit per-row / per-head / per-query loops in float64, sharing nothing
with the package implementation except the parameter naming scheme (which
is configuration, not math). Differences against the float32 engine stay
within ~1e-6 at the toy sizes used in tests.
"""

from __future__ import annotations

import math

import numpy as np


def _f64(w, name: str) -> np.ndarray:
    return np.asarray(w[name], dtype=np.float64)


def ref_layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mean = float(row.sum()) / row.size
        var = float(((row - mean) ** 2).sum()) / row.size
        out[i] = (row - mean) / math.sqrt(var + eps) * g + b
    return out


def ref_attention(q, k, v, n_heads: int, mask=None) -> np.ndarray:
    """Per-head, per-query attention with explicit loops."""
    t_q, d_model = q.shape
    t_k = k.shape[0]
    head_dim = d_model // n_heads
    out = np.zeros((t_q, d_model))
    for h in range(n_heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        for i in range(t_q):
            scores = []
            for j in range(t_k):
                s = float(np.dot(q[i, lo:hi], k[j, lo:hi])) / math.sqrt(head_dim)
                if mask is not None:
                    s += mask[i, j]
                scores.append(s)
            peak = max(scores)
            exps = [math.exp(s - peak) if s != -math.inf else 0.0 for s in scores]
            total = sum(exps)
            for j in range(t_k):
                out[i, lo:hi] += (exps[j] / total) * v[j, lo:hi]
    return out


def _attn_sublayer(x_q, x_kv, w, prefix, n_heads, mask=None):
    q = x_q @ _f64(w, f"{prefix}.wq") + _f64(w, f"{prefix}.bq")
    k = x_kv @ _f64(w, f"{prefix}.wk") + _f64(w, f"{prefix}.bk")
    v = x_kv @ _f64(w, f"{prefix}.wv") + _f64(w, f"{prefix}.bv")
    att = ref_attention(q, k, v, n_heads, mask)
    return att @ _f64(w, f"{prefix}.wo") + _f64(w, f"{prefix}.bo")


def _ffn(x, w, prefix):
    hidden = x @ _f64(w, f"{prefix}.w1") + _f64(w, f"{prefix}.b1")
    hidden = np.where(hidden > 0, hidden, 0.0)
    return hidden @ _f64(w, f"{prefix}.w2") + _f64(w, f"{prefix}.b2")


def _encoder_layer(x, w, prefix, n_heads, mask=None):
    normed = ref_layer_norm(x, _f64(w, f"{prefix}.ln1.g"), _f64(w, f"{prefix}.ln1.b"))
    x = x + _attn_sublayer(normed, normed, w, f"{prefix}.attn", n_heads, mask)
    normed = ref_layer_norm(x, _f64(w, f"{prefix}.ln2.g"), _f64(w, f"{prefix}.ln2.b"))
    return x + _ffn(normed, w, f"{prefix}.ffn")


def _embed_src(src, w):
    return _f64(w, "src_embed")[np.asarray(src, dtype=np.int64)] + _f64(w, "enc_pos")[: len(src)]


def ref_encode(src, w, cfg) -> np.ndarray:
    x = _embed_src(src, w)
    for prefix in cfg.encoder_prefixes():
        x = _encoder_layer(x, w, prefix, cfg.n_heads)
    return ref_layer_norm(x, _f64(w, "enc.ln_f.g"), _f64(w, "enc.ln_f.b"))


def ref_adaptive_encode(src, prefix_tokens, w, cfg) -> np.ndarray:
    n, t = len(src), len(prefix_tokens)
    rows = _f64(w, "tgt_embed")[np.asarray(prefix_tokens, dtype=np.int64)]
    rows = rows + _f64(w, "enc_pos")[n : n + t]
    x = np.concatenate([_embed_src(src, w), rows], axis=0)
    mask = None
    if not cfg.fusion_enabled:
        mask = np.zeros((n + t, n + t))
        mask[:, n:] = -math.inf
    stage1, stage2 = cfg.adaptive_prefixes()
    for layer in stage1:
        x = _encoder_layer(x, w, layer, cfg.n_heads, mask)
    x = x[:n]
    for layer in stage2:
        x = _encoder_layer(x, w, layer, cfg.n_heads)
    final = cfg.adaptive_final_ln()
    return ref_layer_norm(x, _f64(w, f"{final}.g"), _f64(w, f"{final}.b"))


def ref_decoder_logits(prefix_tokens, enc_k, enc_v, w, cfg) -> np.ndarray:
    """Next-token logits at every prefix position, (t, tgt_vocab)."""
    t = len(prefix_tokens)
    x = _f64(w, "tgt_embed")[np.asarray(prefix_tokens, dtype=np.int64)]
    x = x + _f64(w, "dec_pos")[:t]
    causal = np.zeros((t, t))
    for i in range(t):
        for j in range(i + 1, t):
            causal[i, j] = -math.inf
    enc_k = np.asarray(enc_k, dtype=np.float64)
    enc_v = np.asarray(enc_v, dtype=np.float64)
    for idx in range(cfg.decoder_layers):
        p = f"dec.{idx}"
        normed = ref_layer_norm(x, _f64(w, f"{p}.ln1.g"), _f64(w, f"{p}.ln1.b"))
        x = x + _attn_sublayer(normed, normed, w, f"{p}.self", cfg.n_heads, causal)
        normed = ref_layer_norm(x, _f64(w, f"{p}.ln2.g"), _f64(w, f"{p}.ln2.b"))
        q = normed @ _f64(w, f"{p}.cross.wq") + _f64(w, f"{p}.cross.bq")
        k = enc_k @ _f64(w, f"{p}.cross.wk") + _f64(w, f"{p}.cross.bk")
        v = enc_v @ _f64(w, f"{p}.cross.wv") + _f64(w, f"{p}.cross.bv")
        att = ref_attention(q, k, v, cfg.n_heads)
        x = x + (att @ _f64(w, f"{p}.cross.wo") + _f64(w, f"{p}.cross.bo"))
        normed = ref_layer_norm(x, _f64(w, f"{p}.ln3.g"), _f64(w, f"{p}.ln3.b"))
        x = x + _ffn(normed, w, f"{p}.ffn")
    x = ref_layer_norm(x, _f64(w, "dec.ln_f.g"), _f64(w, "dec.ln_f.b"))
    return x @ _f64(w, "out_w") + _f64(w, "out_b")


def ref_greedy_decode(src, w, cfg, max_len: int, interval) -> list[int]:
    """Greedy decoding that re-encodes and re-decodes everything at every
    step, consuming the encodings of the latest schedule point <= t."""
    points = [1]
    if interval != math.inf:
        points = list(range(1, max_len + 1, int(interval)))
    snapshots: dict[int, np.ndarray] = {}
    prefix = [cfg.bos_id]
    out: list[int] = []
    for t in range(1, max_len + 1):
        if t in points:
            snapshots[t] = ref_adaptive_encode(src, prefix, w, cfg)
        latest = max(p for p in points if p <= t)
        enc = snapshots[latest]
        logits = ref_decoder_logits(prefix, enc, enc, w, cfg)[-1]
        token = int(np.argmax(logits))
        out.append(token)
        if token == cfg.eos_id:
            break
        prefix.append(token)
    return out
