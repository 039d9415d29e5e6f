"""Pre-LN transformer encoder blocks."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import fused
from repro.autograd.tensor import Tensor
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module, ModuleList


class MLP(Module):
    """Transformer feed-forward block: Linear → GELU → Dropout → Linear.

    The first Linear and the GELU run through the fused
    :func:`~repro.autograd.fused.linear_gelu` kernel (one autograd node).
    """

    def __init__(self, dim: int, hidden_dim: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)
        self.fc2 = Linear(hidden_dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        hidden = fused.linear_gelu(x, self.fc1.weight, self.fc1.bias)
        return self.fc2(self.drop(hidden))


class TransformerEncoderLayer(Module):
    """Pre-LN encoder layer: ``x + Attn(LN(x))`` then ``x + MLP(LN(x))``."""

    def __init__(self, dim: int, num_heads: int, mlp_ratio: float = 4.0,
                 dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = MLP(dim, int(dim * mlp_ratio), dropout=dropout, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.drop(self.attn(self.norm1(x)))
        x = x + self.drop(self.mlp(self.norm2(x)))
        return x


class TransformerEncoder(Module):
    """A stack of encoder layers with a final LayerNorm."""

    def __init__(self, dim: int, depth: int, num_heads: int,
                 mlp_ratio: float = 4.0, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.layers = ModuleList([
            TransformerEncoderLayer(dim, num_heads, mlp_ratio, dropout, rng=rng)
            for _ in range(depth)
        ])
        self.norm = LayerNorm(dim)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return self.norm(x)
