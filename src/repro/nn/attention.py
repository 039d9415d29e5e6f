"""Multi-head scaled dot-product attention."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import fused, no_grad
from repro.autograd.kernels import attention_weights, inv_sqrt
from repro.autograd.tensor import Tensor
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.obs import span


class MultiHeadAttention(Module):
    """Self-attention over token sequences ``(B, N, D)``.

    Splits ``dim`` into ``num_heads`` heads, computes scaled dot-product
    attention per head, and projects back.

    The attention core runs through the fused
    :func:`~repro.autograd.fused.scaled_dot_product_attention` kernel —
    one autograd node instead of ~10.

    ``name`` labels this instance in telemetry traces — the divided
    video transformer names its two attentions ``"temporal"`` and
    ``"spatial"`` so the factorization split shows up per stage.
    """

    def __init__(self, dim: int, num_heads: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "self") -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng if rng is not None else np.random.default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.scale = inv_sqrt(self.head_dim)
        self.qkv = Linear(dim, 3 * dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)
        self.span_name = f"nn/attention/{name}"

    def forward(self, x: Tensor) -> Tensor:
        with span(self.span_name):
            q, k, v = self._qkv(x)
            out = fused.scaled_dot_product_attention(
                q, k, v, scale=self.scale,
                dropout_p=self.attn_dropout.p, rng=self.attn_dropout.rng,
                training=self.training, merge_heads=True,
            )  # (B, N, D)
            return self.proj(out)

    def _qkv(self, x: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        """Project to per-head queries/keys/values ``(B, H, N, hd)``.

        The single helper both :meth:`forward` and
        :meth:`attention_map` route through, so the two paths cannot
        drift.
        """
        batch, n_tokens, _ = x.shape
        qkv = self.qkv(x)  # (B, N, 3D)
        qkv = qkv.reshape(batch, n_tokens, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, N, hd)
        return qkv[0], qkv[1], qkv[2]

    def attention_map(self, x: Tensor) -> np.ndarray:
        """Return the softmax attention weights ``(B, H, N, N)`` without
        recording the graph — used for attention-rollout analysis."""
        with no_grad():
            q, k, _ = self._qkv(x)
        return attention_weights(q.data, k.data, self.scale)
