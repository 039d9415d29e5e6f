"""Model efficiency accounting: parameters, FLOP estimates, throughput.

FLOP numbers are analytic *estimates* of forward multiply-add pairs
(counted as 2 FLOPs), good to within the usual factor used for
architecture comparison plots; they deliberately ignore softmax,
normalisation and activation costs.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.models.baselines import C3D, FrameDiffMLP, PerFrameViT
from repro.models.config import ModelConfig
from repro.models.video_transformer import VideoTransformer
from repro.nn.module import Module


def _attention_flops(tokens: int, dim: int) -> float:
    qkv_proj = 2 * tokens * dim * 4 * dim        # qkv (3D) + output proj (D)
    scores = 2 * tokens * tokens * dim * 2       # QK^T and attn·V
    return qkv_proj + scores


def _mlp_flops(tokens: int, dim: int, ratio: float) -> float:
    hidden = int(dim * ratio)
    return 2 * tokens * dim * hidden * 2


def estimate_flops(model: Module) -> float:
    """Estimated forward FLOPs for one clip."""
    cfg: ModelConfig = model.config
    n_patches = cfg.patches_per_frame
    if isinstance(model, VideoTransformer):
        if model.attention == "joint":
            tokens = (cfg.frames // cfg.tubelet_size) * n_patches + 1
            per_block = _attention_flops(tokens, cfg.dim) \
                + _mlp_flops(tokens, cfg.dim, cfg.mlp_ratio)
            return cfg.depth * per_block
        if model.attention == "divided":
            temporal = n_patches * _attention_flops(cfg.frames, cfg.dim)
            spatial = cfg.frames * _attention_flops(n_patches, cfg.dim)
            mlp = _mlp_flops(cfg.frames * n_patches, cfg.dim, cfg.mlp_ratio)
            return cfg.depth * (temporal + spatial + mlp)
        # factorized
        spatial_tokens = n_patches + 1
        spatial = cfg.frames * cfg.depth * (
            _attention_flops(spatial_tokens, cfg.dim)
            + _mlp_flops(spatial_tokens, cfg.dim, cfg.mlp_ratio)
        )
        temporal_tokens = cfg.frames + 1
        temporal = cfg.depth * (
            _attention_flops(temporal_tokens, cfg.dim)
            + _mlp_flops(temporal_tokens, cfg.dim, cfg.mlp_ratio)
        )
        return spatial + temporal
    if isinstance(model, C3D):
        flops = 0.0
        shape = (cfg.frames, cfg.height, cfg.width)
        for conv, pool in ((model.conv1, 2), (model.conv2, 2),
                           (model.conv3, 1)):
            cout, cin = conv.weight.shape[:2]
            kernel = int(np.prod(conv.weight.shape[2:]))
            voxels = int(np.prod(shape))
            flops += 2 * voxels * cout * cin * kernel
            shape = tuple(s // pool for s in shape)
        return flops
    if isinstance(model, PerFrameViT):
        tokens = n_patches + 1
        per_frame = cfg.depth * (
            _attention_flops(tokens, cfg.dim)
            + _mlp_flops(tokens, cfg.dim, cfg.mlp_ratio)
        )
        return cfg.frames * per_frame
    if isinstance(model, FrameDiffMLP):
        feat = 2 * cfg.channels * model.grid * model.grid
        return 2 * (feat * cfg.dim * 2 + cfg.dim * 2 * cfg.dim)
    raise TypeError(f"no FLOP model for {type(model).__name__}")


def measure_throughput(model: Module, batch_size: int = 16,
                       repeats: int = 3,
                       seed: int = 0) -> Dict[str, float]:
    """Measured inference throughput (clips/s) and per-clip latency.

    Times :meth:`ScenarioExtractor.logits`, the forward production runs:
    the fused inference engine for video transformers, the autograd
    ``no_grad`` forward for baselines.
    """
    from repro.core.pipeline import ScenarioExtractor

    cfg: ModelConfig = model.config
    rng = np.random.default_rng(seed)
    clips = rng.random(
        (batch_size, cfg.frames, cfg.channels, cfg.height, cfg.width)
    ).astype(np.float32)
    extractor = ScenarioExtractor(model, batch_size=batch_size)
    extractor.logits(clips)  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        extractor.logits(clips)
    elapsed = time.perf_counter() - start
    per_clip = elapsed / (repeats * batch_size)
    return {
        "clips_per_s": 1.0 / per_clip,
        "ms_per_clip": per_clip * 1000.0,
    }

