"""Fused autograd kernels for the transformer hot path.

The eager engine in :mod:`repro.autograd.tensor` records one graph node
per primitive op, so a single attention costs ~10 nodes (matmul, scale,
softmax, dropout, matmul, transpose, reshape, ...) — each with its own
Python dispatch, closure allocation and intermediate ndarray.  This
module wraps the shared :mod:`repro.autograd.kernels` into single graph
nodes that compute the same math as the composed ops (bit-identical
forward, analytically identical backward):

- :func:`scaled_dot_product_attention` — ``softmax(QKᵀ·scale)V`` with
  optional attention dropout and head merging folded in;
- :func:`linear_gelu` — ``gelu(xW + b)``, the first half of the
  transformer MLP.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import kernels
from repro.autograd.tensor import Tensor, _unbroadcast, is_grad_enabled


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: Optional[float] = None,
    dropout_p: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    training: bool = False,
    merge_heads: bool = False,
) -> Tensor:
    """``softmax(q kᵀ · scale) v`` as one autograd node.

    ``q``/``k``/``v`` are ``(..., N, head_dim)`` (typically
    ``(B, H, N, hd)``); ``scale`` defaults to ``1/√head_dim``.  With
    ``training`` and ``dropout_p > 0`` inverted dropout is applied to
    the attention weights, drawing from ``rng`` exactly like
    ``F.dropout`` so fused and composed paths consume the generator
    identically.  With ``merge_heads`` the ``(B, H, N, hd) → (B, N,
    H·hd)`` transpose + reshape is folded into the node.
    """
    qd, kd, vd = q.data, k.data, v.data
    if scale is None:
        scale = kernels.inv_sqrt(qd.shape[-1])
    # float32 like the composed path (which coerces the scalar through
    # Tensor), keeping fused and composed outputs bit-identical.
    scale = qd.dtype.type(scale)
    attn = kernels.attention_weights(qd, kd, scale)

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
        return Tensor(out_data)

    def backward(g: np.ndarray) -> None:
        if merge_heads:
            g = g.reshape(b, n, h, hd).transpose(0, 2, 1, 3)
        if v.requires_grad:
            v._accumulate(_unbroadcast(attn_used.swapaxes(-1, -2) @ g,
                                       vd.shape), fresh=True)
        if q.requires_grad or k.requires_grad:
            g_attn = g @ vd.swapaxes(-1, -2)
            if drop_mask is not None:
                g_attn = g_attn * drop_mask
            # Softmax backward, then the scale factor of the scores.
            g_scores = kernels.softmax_grad(attn, g_attn)
            g_scores *= scale
            if q.requires_grad:
                q._accumulate(_unbroadcast(g_scores @ kd, qd.shape),
                              fresh=True)
            if k.requires_grad:
                k._accumulate(_unbroadcast(g_scores.swapaxes(-1, -2) @ qd,
                                           kd.shape), fresh=True)

    return Tensor._make(out_data, (q, k, v), backward)


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
    z = kernels.affine(flat, weight.data,
                       None if bias is None else bias.data)
    out_flat = kernels.gelu(z)
    out_data = out_flat.reshape(xd.shape[:-1] + (out_features,))

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
        return Tensor(out_data)

    def backward(g: np.ndarray) -> None:
        dz = kernels.gelu_grad(z, g.reshape(out_flat.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(dz, bias.data.shape), fresh=True)
        if weight.requires_grad:
            weight._accumulate(flat.T @ dz, fresh=True)
        if x.requires_grad:
            x._accumulate((dz @ weight.data.T).reshape(xd.shape), fresh=True)

    return Tensor._make(out_data, parents, backward)
