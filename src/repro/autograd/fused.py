"""Fused autograd kernels for the transformer hot path.

The eager engine in :mod:`repro.autograd.tensor` records one graph node
per primitive op, so a single attention costs ~10 nodes (matmul, scale,
bias add, softmax, dropout, matmul, transpose, reshape, ...) — each with
its own Python dispatch, closure allocation and intermediate ndarray.
This module provides hand-fused kernels that compute the same math as
the composed ops (bit-identical forward, analytically identical
backward) in a *single* graph node:

- :func:`scaled_dot_product_attention` — ``softmax(QKᵀ·scale + bias)V``
  with optional attention dropout and head merging folded in;
- :func:`linear_gelu` — ``gelu(xW + b)``, the first half of the
  transformer MLP;
- :func:`mask_bias` — the boolean-mask → additive-bias conversion,
  cached per mask object so repeated forwards (every layer, every step)
  reuse one materialised bias.

``repro.obs.instrument`` patches timed wrappers over the kernels named
by :data:`PROFILED_KERNELS` while telemetry is enabled, so the per-op
timers keep seeing the hot path after fusion.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.autograd.tensor import Tensor, _unbroadcast, is_grad_enabled

NEG_INF = -1e9

#: Kernels patched by ``repro.obs.instrument``: attribute name → op label
#: (module-attribute access only — ``fused.<kernel>(...)`` style).
PROFILED_KERNELS = {
    "scaled_dot_product_attention": "sdpa",
    "linear_gelu": "linear_gelu",
}

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_GELU_C = 0.044715

_BIAS_CACHE: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}


def mask_bias(mask: Union[np.ndarray, "np.typing.ArrayLike"]) -> np.ndarray:
    """Additive attention bias for a boolean *allowed* mask.

    ``(N, N)`` masks map to an ``(N, N)`` bias, ``(B, N, N)`` masks to a
    ``(B, 1, N, N)`` bias (broadcast over heads); allowed pairs get 0,
    blocked pairs ``NEG_INF``.  The result is cached keyed on the mask
    *object* (id + shape) and evicted when the mask is garbage
    collected, so passing the same mask array every forward — the
    common encoder pattern — materialises the bias once instead of
    per call.
    """
    key = (id(mask), np.shape(mask))
    cached = _BIAS_CACHE.get(key)
    if cached is not None:
        return cached
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim == 2:
        bias = np.where(arr, 0.0, NEG_INF).astype(np.float32)
    elif arr.ndim == 3:
        bias = np.where(arr[:, None], 0.0, NEG_INF).astype(np.float32)
    else:
        raise ValueError("mask must be (N, N) or (B, N, N)")
    try:
        # Evict on mask death; an id is unique while its object lives.
        weakref.finalize(mask, _BIAS_CACHE.pop, key, None)
    except TypeError:
        return bias  # not weakref-able: unsafe to key on id, don't cache
    _BIAS_CACHE[key] = bias
    return bias


def mask_bias_cache_size() -> int:
    """Number of live cached biases (test/introspection hook)."""
    return len(_BIAS_CACHE)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
    dropout_p: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    training: bool = False,
    merge_heads: bool = False,
    return_weights: bool = False,
):
    """``softmax(q kᵀ · scale + bias) v`` as one autograd node.

    ``q``/``k``/``v`` are ``(..., N, head_dim)`` (typically
    ``(B, H, N, hd)``).  ``bias`` is an additive ndarray broadcast over
    the score shape (see :func:`mask_bias`).  With ``training`` and
    ``dropout_p > 0`` inverted dropout is applied to the attention
    weights, drawing from ``rng`` exactly like ``F.dropout`` so fused
    and composed paths consume the generator identically.  With
    ``merge_heads`` the ``(B, H, N, hd) → (B, N, H·hd)`` transpose +
    reshape is folded into the node.  With ``return_weights`` returns
    ``(out, weights)`` where ``weights`` is the pre-dropout softmax
    ndarray ``(..., N, N)`` — the attention-rollout hook.
    """
    qd, kd, vd = q.data, k.data, v.data
    if scale is None:
        scale = 1.0 / float(np.sqrt(qd.shape[-1]))
    # float32 like the composed path (which coerces the scalar through
    # Tensor), keeping fused and composed outputs bit-identical.
    scale = qd.dtype.type(scale)
    scores = (qd @ kd.swapaxes(-1, -2)) * scale
    if bias is not None:
        scores = scores + bias
    # Numerically-stable softmax, matching F.softmax bit for bit.
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    attn = exp / exp.sum(axis=-1, keepdims=True)

    drop_mask = None
    if training and dropout_p > 0.0:
        if rng is None:
            raise ValueError("dropout_p > 0 in training mode requires rng")
        keep = 1.0 - dropout_p
        drop_mask = (rng.random(attn.shape) < keep).astype(attn.dtype) / keep
        attn_used = attn * drop_mask
    else:
        attn_used = attn
    out = attn_used @ vd
    if merge_heads:
        b, h, n, hd = out.shape
        out_data = out.transpose(0, 2, 1, 3).reshape(b, n, h * hd)
    else:
        out_data = out

    if not (is_grad_enabled()
            and (q.requires_grad or k.requires_grad or v.requires_grad)):
        result = Tensor(out_data)
        return (result, attn) if return_weights else result

    def backward(g: np.ndarray) -> None:
        if merge_heads:
            g = g.reshape(b, n, h, hd).transpose(0, 2, 1, 3)
        if v.requires_grad:
            v._accumulate(_unbroadcast(attn_used.swapaxes(-1, -2) @ g,
                                       vd.shape))
        if q.requires_grad or k.requires_grad:
            g_attn = g @ vd.swapaxes(-1, -2)
            if drop_mask is not None:
                g_attn = g_attn * drop_mask
            # Softmax backward, then the scale factor of the scores.
            g_scores = attn * (g_attn
                               - (g_attn * attn).sum(axis=-1, keepdims=True))
            g_scores *= scale
            if q.requires_grad:
                q._accumulate(_unbroadcast(g_scores @ kd, qd.shape))
            if k.requires_grad:
                k._accumulate(_unbroadcast(g_scores.swapaxes(-1, -2) @ qd,
                                           kd.shape))

    result = Tensor._make(out_data, (q, k, v), backward)
    return (result, attn) if return_weights else result


def linear_gelu(x: Tensor, weight: Tensor,
                bias: Optional[Tensor] = None) -> Tensor:
    """``gelu(x @ weight + bias)`` (tanh approximation) as one node.

    ``x`` is ``(..., in_features)``; the affine map is applied over the
    last axis like :class:`~repro.nn.layers.Linear` and the GELU matches
    ``F.gelu`` bit for bit.
    """
    xd = x.data
    in_features, out_features = weight.data.shape
    flat = xd.reshape(-1, in_features) if xd.ndim != 2 else xd
    z = flat @ weight.data
    if bias is not None:
        z = z + bias.data
    inner = _SQRT_2_OVER_PI * (z + _GELU_C * (z * z * z))
    t = np.tanh(inner)
    out_flat = 0.5 * z * (1.0 + t)
    out_data = out_flat.reshape(xd.shape[:-1] + (out_features,))

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
        return Tensor(out_data)

    def backward(g: np.ndarray) -> None:
        gf = g.reshape(out_flat.shape)
        dinner = _SQRT_2_OVER_PI * (1.0 + 3 * _GELU_C * (z * z))
        dt = (1.0 - t * t) * dinner
        dz = gf * (0.5 * (1.0 + t) + 0.5 * z * dt)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(dz, bias.data.shape))
        if weight.requires_grad:
            weight._accumulate(flat.T @ dz)
        if x.requires_grad:
            x._accumulate((dz @ weight.data.T).reshape(xd.shape))

    return Tensor._make(out_data, parents, backward)
