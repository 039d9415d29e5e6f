"""Video transformers for scenario description extraction.

Three attention factorizations, matching the families compared in the
video-transformer literature (and reconstructed Figure 4):

- ``joint`` — ViViT-style joint space-time attention over tubelet
  tokens: every token attends to every other token in the clip.
- ``divided`` — TimeSformer-style divided space-time attention: each
  block applies temporal attention (same patch across frames) followed
  by spatial attention (same frame).
- ``factorized`` — ViViT factorized encoder: a spatial transformer
  summarises each frame, a temporal transformer fuses frame summaries.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.autograd.kernels import inv_sqrt
from repro.autograd.tensor import Tensor
from repro.obs import span
from repro.nn import (
    Dropout,
    LayerNorm,
    MLP,
    Module,
    ModuleList,
    MultiHeadAttention,
    Parameter,
    PatchEmbed2D,
    TransformerEncoder,
    TubeletEmbed,
)
from repro.nn import init
from repro.models.config import ModelConfig
from repro.models.heads import SDLHead
from repro.sdl.codec import LabelCodec

ATTENTION_MODES = ("joint", "divided", "factorized")


class DividedSTBlock(Module):
    """One TimeSformer block: temporal attention → spatial attention →
    MLP, each with a pre-LN residual, on ``(B, T, N, D)`` token grids."""

    def __init__(self, dim: int, num_heads: int, mlp_ratio: float,
                 dropout: float, rng: np.random.Generator) -> None:
        super().__init__()
        self.norm_t = LayerNorm(dim)
        self.attn_t = MultiHeadAttention(dim, num_heads, dropout, rng=rng,
                                         name="temporal")
        self.norm_s = LayerNorm(dim)
        self.attn_s = MultiHeadAttention(dim, num_heads, dropout, rng=rng,
                                         name="spatial")
        self.norm_m = LayerNorm(dim)
        self.mlp = MLP(dim, int(dim * mlp_ratio), dropout, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        batch, frames, patches, dim = x.shape
        # Temporal attention: tokens of the same patch across frames.
        xt = x.transpose(0, 2, 1, 3).reshape(batch * patches, frames, dim)
        yt = self.drop(self.attn_t(self.norm_t(xt)))
        yt = yt.reshape(batch, patches, frames, dim).transpose(0, 2, 1, 3)
        x = x + yt
        # Spatial attention: tokens within each frame.
        xs = x.reshape(batch * frames, patches, dim)
        ys = self.drop(self.attn_s(self.norm_s(xs)))
        x = x + ys.reshape(batch, frames, patches, dim)
        # Feed-forward.
        x = x + self.drop(self.mlp(self.norm_m(x)))
        return x


class VideoTransformer(Module):
    """A video transformer with a selectable attention factorization and
    a multi-task SDL head.  Input: ``(B, T, C, H, W)`` clips."""

    def __init__(self, config: Optional[ModelConfig] = None,
                 attention: str = "divided",
                 codec: Optional[LabelCodec] = None) -> None:
        super().__init__()
        if attention not in ATTENTION_MODES:
            raise ValueError(
                f"attention must be one of {ATTENTION_MODES}, got {attention!r}"
            )
        cfg = config or ModelConfig()
        rng = np.random.default_rng(cfg.seed)
        self.config = cfg
        self.attention = attention
        self.drop = Dropout(cfg.dropout, rng=rng)

        n_patches = cfg.patches_per_frame

        if attention == "joint":
            if cfg.frames % cfg.tubelet_size:
                raise ValueError("frames must be divisible by tubelet_size")
            self.embed = TubeletEmbed(cfg.channels, cfg.patch_size,
                                      cfg.tubelet_size, cfg.dim, rng=rng)
            n_tokens = (cfg.frames // cfg.tubelet_size) * n_patches
            self.cls_token = Parameter(init.trunc_normal((1, 1, cfg.dim), rng))
            self.pos_embed = Parameter(
                init.trunc_normal((1, n_tokens + 1, cfg.dim), rng)
            )
            self.encoder = TransformerEncoder(
                cfg.dim, cfg.depth, cfg.num_heads, cfg.mlp_ratio,
                cfg.dropout, rng=rng,
            )
        elif attention == "divided":
            self.embed = PatchEmbed2D(cfg.channels, cfg.patch_size, cfg.dim,
                                      rng=rng)
            self.pos_spatial = Parameter(
                init.trunc_normal((1, 1, n_patches, cfg.dim), rng)
            )
            self.pos_temporal = Parameter(
                init.trunc_normal((1, cfg.frames, 1, cfg.dim), rng)
            )
            self.blocks = ModuleList([
                DividedSTBlock(cfg.dim, cfg.num_heads, cfg.mlp_ratio,
                               cfg.dropout, rng)
                for _ in range(cfg.depth)
            ])
            self.norm = LayerNorm(cfg.dim)
            if cfg.pool == "attention":
                self.pool_query = Parameter(
                    init.trunc_normal((cfg.dim,), rng)
                )
        else:  # factorized
            self.embed = PatchEmbed2D(cfg.channels, cfg.patch_size, cfg.dim,
                                      rng=rng)
            self.pos_spatial = Parameter(
                init.trunc_normal((1, n_patches + 1, cfg.dim), rng)
            )
            self.pos_temporal = Parameter(
                init.trunc_normal((1, cfg.frames + 1, cfg.dim), rng)
            )
            self.cls_spatial = Parameter(init.trunc_normal((1, 1, cfg.dim), rng))
            self.cls_temporal = Parameter(
                init.trunc_normal((1, 1, cfg.dim), rng)
            )
            self.spatial_encoder = TransformerEncoder(
                cfg.dim, cfg.depth, cfg.num_heads, cfg.mlp_ratio,
                cfg.dropout, rng=rng,
            )
            self.temporal_encoder = TransformerEncoder(
                cfg.dim, cfg.depth, cfg.num_heads, cfg.mlp_ratio,
                cfg.dropout, rng=rng,
            )

        self.head = SDLHead(cfg.dim, codec=codec, rng=rng)

    # -- feature extraction -------------------------------------------------
    def feature(self, video: Tensor) -> Tensor:
        """Pooled clip representation ``(B, dim)``."""
        if video.ndim != 5:
            raise ValueError("expected (B, T, C, H, W) input")
        batch = video.shape[0]
        if self.attention == "joint":
            tokens = self.embed(video)  # (B, N, D)
            cls = self.cls_token * Tensor(
                np.ones((batch, 1, 1), dtype=np.float32)
            )
            from repro.autograd import functional as F
            x = F.concat([cls, tokens], axis=1) + self.pos_embed
            x = self.drop(x)
            with span("nn/encoder/joint"):
                x = self.encoder(x)
            return x[:, 0]
        if self.attention == "divided":
            return self._divided_from_tokens(self.embed(video))
        # factorized
        frames = video.shape[1]
        x = self.embed(video)  # (B, T, N, D)
        dim = x.shape[-1]
        n_patches = x.shape[2]
        summaries = self._spatial_summaries(
            x.reshape(batch * frames, n_patches, dim)
        ).reshape(batch, frames, dim)
        return self._temporal_from_summaries(summaries)

    # -- shared stages (full forward + frame-reuse hooks) ---------------
    def _divided_from_tokens(self, tokens: Tensor) -> Tensor:
        """Divided-attention feature from patch tokens ``(B, T, N, D)``."""
        batch = tokens.shape[0]
        x = tokens + self.pos_spatial + self.pos_temporal
        x = self.drop(x)
        for block in self.blocks:
            x = block(x)
        x = self.norm(x)
        if self.config.pool == "attention":
            from repro.autograd import functional as F
            frames, patches, dim = x.shape[1], x.shape[2], x.shape[3]
            flat = x.reshape(batch, frames * patches, dim)
            scores = (flat * self.pool_query.reshape(1, 1, dim)) \
                .sum(axis=-1) * inv_sqrt(dim)
            weights = F.softmax(scores, axis=-1)
            return (flat
                    * weights.reshape(batch, frames * patches, 1)) \
                .sum(axis=1)
        return x.mean(axis=(1, 2))

    def _spatial_summaries(self, tokens: Tensor) -> Tensor:
        """Factorized spatial stage: ``(rows, N, D)`` patch tokens →
        ``(rows, D)`` per-frame summaries.  Row-independent — each
        frame's summary does not depend on what else is in the batch —
        which is what makes frame summaries reusable across windows."""
        from repro.autograd import functional as F
        rows = tokens.shape[0]
        cls_s = self.cls_spatial * Tensor(
            np.ones((rows, 1, 1), dtype=np.float32)
        )
        x = F.concat([cls_s, tokens], axis=1) + self.pos_spatial
        x = self.drop(x)
        with span("nn/encoder/spatial"):
            x = self.spatial_encoder(x)
        return x[:, 0]

    def _temporal_from_summaries(self, summaries: Tensor) -> Tensor:
        """Factorized temporal stage: ``(B, T, D)`` frame summaries →
        pooled clip feature ``(B, D)``."""
        from repro.autograd import functional as F
        batch = summaries.shape[0]
        cls_t = self.cls_temporal * Tensor(
            np.ones((batch, 1, 1), dtype=np.float32)
        )
        y = F.concat([cls_t, summaries], axis=1) + self.pos_temporal
        with span("nn/encoder/temporal"):
            y = self.temporal_encoder(y)
        return y[:, 0]

    # -- frame-level reuse hooks ----------------------------------------
    @property
    def supports_frame_reuse(self) -> bool:
        """Whether per-frame activations are window-independent.

        True for ``divided`` (patch tokens are per-frame; positional
        embeddings and all attention come after) and ``factorized``
        (whole spatial-encoder summaries are per-frame).  ``joint``
        tubelets span frames, so there is nothing window-independent to
        memoize."""
        return self.attention in ("divided", "factorized")

    def frame_features(self, frames: np.ndarray) -> np.ndarray:
        """Window-independent per-frame features for ``(F, C, H, W)``
        frames — patch tokens ``(F, N, D)`` under divided attention,
        spatial-encoder summaries ``(F, D)`` under factorized.

        numpy in/out; run under ``no_grad`` by the caller.  Computing a
        frame here and splicing it into any window is bit-identical to
        the full forward, because :meth:`feature` runs these exact
        stages and every one is row-independent."""
        if not self.supports_frame_reuse:
            raise ValueError(
                f"{self.attention!r} attention has no per-frame stage")
        video = Tensor(np.ascontiguousarray(frames)[None])
        tokens = self.embed(video)  # (1, F, N, D)
        if self.attention == "divided":
            return tokens.data[0]
        count, patches, dim = (tokens.shape[1], tokens.shape[2],
                               tokens.shape[3])
        return self._spatial_summaries(
            tokens.reshape(count, patches, dim)).data

    def head_logits_from_frame_features(self, feats: np.ndarray
                                        ) -> Dict[str, np.ndarray]:
        """Head logits for windows assembled from memoized
        :meth:`frame_features` output ``(B, T, ...)`` — the remaining,
        window-dependent part of the forward pass."""
        if not self.supports_frame_reuse:
            raise ValueError(
                f"{self.attention!r} attention has no per-frame stage")
        x = Tensor(np.ascontiguousarray(feats))
        if self.attention == "divided":
            feature = self._divided_from_tokens(x)
        else:
            feature = self._temporal_from_summaries(x)
        return {k: v.data for k, v in self.head(feature).items()}

    def forward(self, video: Tensor) -> Dict[str, Tensor]:
        return self.head(self.feature(video))
