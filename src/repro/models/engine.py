"""No-grad inference engine for video transformers.

:class:`InferenceEngine` is a straight-line numpy forward pass over a
trained :class:`~repro.models.video_transformer.VideoTransformer` —
no autograd ``Tensor`` wrappers, no graph bookkeeping, in-place
residuals.  :class:`~repro.core.pipeline.ScenarioExtractor` runs every
video transformer through it.  The affine maps, layer norms, softmaxes,
GELUs and attention weights are the :mod:`repro.autograd.kernels` that
the autograd forward calls too, so logits and frame features are
bit-identical to ``VideoTransformer.forward`` by construction (pinned
by ``tests/test_engine.py``); the engine only composes them, and
the autograd forward remains the training path and the parity
reference.  Weights are the model's own parameter arrays, never
copies.  The engine exposes the same frame-level reuse hooks as the
model (``frame_features`` / ``head_logits_from_frame_features``), so
the sliding-window overlap-reuse path runs on it too.

Rows the output reads: every joint or factorized encoder is read only
at its CLS row, so the last encoder layer carries only that row past
attention.  It still runs the qkv projection, the scores, the softmax
and ``scores @ v`` over all rows (keys and values need them all, and a
one-query ``q_cls @ kᵀ`` is not bit-identical to row 0 of the full
product), then runs the output projection, both residuals, ``norm2``,
the MLP and the final norm on the CLS row alone.  A lone sequence
keeps rows 0 and 1: BLAS multiplies a single row by another path,
whose row 0 differs in the last bits.  Earlier layers and the divided
path run all rows.

Chunks on the CPUs BLAS leaves free: :meth:`InferenceEngine.logits`
splits its clips into ``batch_size`` chunks and, when there are two or
more, runs them on ``min(chunks, usable CPUs // BLAS threads)``
threads that live only for that call (numpy and BLAS release the GIL
at these array sizes).  BLAS threads come from ``OPENBLAS_NUM_THREADS``,
``MKL_NUM_THREADS`` or ``OMP_NUM_THREADS``, else every usable CPU, so
an unpinned BLAS keeps the one-thread pass: on two CPUs, two engine
threads over a two-thread BLAS ran ~18% slower than one.  Each
chunk runs the unchanged :meth:`InferenceEngine._forward` and the
results are joined in chunk order, so logits are byte-identical to a
one-thread pass.  No thread outlives the call, so a later ``fork`` (the
serving pool's) never copies a lock an engine thread holds.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.autograd.kernels import (
    affine,
    attention_weights,
    gelu,
    inv_sqrt,
    layer_norm,
    softmax,
)
from repro.models.video_transformer import VideoTransformer
from repro.nn.layers import LayerNorm, Linear


class _Site:
    """One Linear projection: the model's own weight and bias arrays
    through the shared affine kernel."""

    def __init__(self, name: str, linear: Linear) -> None:
        self.name = name
        self.weight = linear.weight.data
        self.bias = linear.bias.data if linear.bias is not None else None
        self.in_features, self.out_features = self.weight.shape

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return affine(x, self.weight, self.bias)


def _norm(x: np.ndarray, norm: LayerNorm) -> np.ndarray:
    """``norm(x)`` through the shared layer-norm kernel."""
    return layer_norm(x, norm.weight.data, norm.bias.data, norm.eps)[0]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_threads(cpus: int) -> int:
    """Threads each BLAS call runs on: the first positive of BLAS's own
    thread variables, else ``cpus`` (OpenBLAS's and MKL's default)."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def _map_chunks(fn: Callable[[np.ndarray], Dict[str, np.ndarray]],
                chunks: Sequence[np.ndarray]
                ) -> List[Dict[str, np.ndarray]]:
    """``[fn(c) for c in chunks]`` on one thread per chunk, up to the
    usable CPUs that BLAS's own threads leave free, in an executor that
    lives only for this call.  One thread's worth of work runs in the
    caller and starts no thread.  If a chunk raises, unstarted chunks
    are cancelled, every thread is joined, then the earliest failed
    chunk's exception is re-raised."""
    cpus = _usable_cpus()
    workers = min(len(chunks), max(1, cpus // _blas_threads(cpus)))
    if workers == 1:
        return [fn(chunk) for chunk in chunks]
    with ThreadPoolExecutor(workers,
                            thread_name_prefix="engine-chunk") as pool:
        return list(pool.map(fn, chunks))


class InferenceEngine:
    """Fused no-grad forward for one :class:`VideoTransformer`.

    Construction wraps every Linear/attention projection (including the
    patch/tubelet embedding and the SDL head) around the model's own
    parameter arrays, so a built engine is ready and follows in-place
    weight changes.
    """

    def __init__(self, model: VideoTransformer) -> None:
        if not isinstance(model, VideoTransformer):
            raise ValueError(
                "the inference engine runs only a VideoTransformer; got "
                f"{type(model).__name__}"
            )
        model.eval()
        self.model = model
        self.attention = model.attention
        self.config = model.config
        self.embed = _Site("embed.proj", model.embed.proj)
        if self.attention == "joint":
            self._enc_joint = self._encoder_sites("encoder", model.encoder)
        elif self.attention == "divided":
            self._blocks = [
                {
                    "attn_t": self._attn_sites(f"blocks.{i}.attn_t",
                                               blk.attn_t),
                    "attn_s": self._attn_sites(f"blocks.{i}.attn_s",
                                               blk.attn_s),
                    "mlp": self._mlp_sites(f"blocks.{i}.mlp", blk.mlp),
                    "block": blk,
                }
                for i, blk in enumerate(model.blocks)
            ]
        else:  # factorized
            self._enc_spatial = self._encoder_sites(
                "spatial_encoder", model.spatial_encoder)
            self._enc_temporal = self._encoder_sites(
                "temporal_encoder", model.temporal_encoder)
        self.heads = {
            key: _Site(f"head.{key}", getattr(model.head, key))
            for key in ("scene", "ego_action", "actors", "actor_actions")
        }

    # -- site wiring ---------------------------------------------------
    def _attn_sites(self, name: str, attn) -> Dict[str, object]:
        return {
            "qkv": _Site(f"{name}.qkv", attn.qkv),
            "proj": _Site(f"{name}.proj", attn.proj),
            "heads": attn.num_heads,
            "head_dim": attn.head_dim,
            "scale": np.float32(attn.scale),
        }

    def _mlp_sites(self, name: str, mlp) -> Dict[str, _Site]:
        return {"fc1": _Site(f"{name}.fc1", mlp.fc1),
                "fc2": _Site(f"{name}.fc2", mlp.fc2)}

    def _encoder_sites(self, name: str, encoder) -> Dict[str, object]:
        return {
            "layers": [
                {
                    "attn": self._attn_sites(f"{name}.layers.{i}.attn",
                                             layer.attn),
                    "mlp": self._mlp_sites(f"{name}.layers.{i}.mlp",
                                           layer.mlp),
                    "layer": layer,
                }
                for i, layer in enumerate(encoder.layers)
            ],
            "encoder": encoder,
        }

    # -- composition ---------------------------------------------------
    def _attention(self, x: np.ndarray, spec: Dict[str, object],
                   rows: slice = slice(None)) -> np.ndarray:
        """Attention over every row of ``x``; the output projection runs
        on query ``rows`` only (keys and values always span them all)."""
        batch, tokens, dim = x.shape
        qkv = spec["qkv"](x).reshape(
            batch, tokens, 3, spec["heads"], spec["head_dim"]
        ).transpose(2, 0, 3, 1, 4)
        weights = attention_weights(qkv[0], qkv[1], spec["scale"])
        out = (weights @ qkv[2])[:, :, rows]
        out = out.transpose(0, 2, 1, 3).reshape(batch, -1, dim)
        return spec["proj"](out)

    def _mlp(self, x: np.ndarray, spec: Dict[str, _Site]) -> np.ndarray:
        return spec["fc2"](gelu(spec["fc1"](x)))

    def _readout_rows(self, batch: int) -> slice:
        """Rows of each sequence the last encoder layer carries past
        attention: the CLS row — plus row 1 for a lone sequence, so no
        projection multiplies a single row (BLAS takes another path for
        one row and row 0 would not be bit-identical)."""
        return slice(0, 1 if batch > 1 else 2)

    def _encoder(self, x: np.ndarray, enc: Dict[str, object]
                 ) -> np.ndarray:
        """``(B, N, D)`` tokens → ``(B, D)`` normalised CLS rows; past
        attention the last layer runs on :meth:`_readout_rows` only."""
        layers = enc["layers"]
        for i, entry in enumerate(layers):
            layer = entry["layer"]
            rows = (self._readout_rows(len(x)) if i == len(layers) - 1
                    else slice(None))
            x = x[:, rows] + self._attention(_norm(x, layer.norm1),
                                             entry["attn"], rows)
            x += self._mlp(_norm(x, layer.norm2), entry["mlp"])
        return _norm(x, enc["encoder"].norm)[:, 0]

    def _patch_tokens(self, clips: np.ndarray) -> np.ndarray:
        """(B, T, C, H, W) → (B, T, N, D) per-frame patch tokens."""
        batch, frames, channels, height, width = clips.shape
        p = self.model.embed.patch_size
        nh, nw = height // p, width // p
        x = clips.reshape(batch, frames, channels, nh, p, nw, p)
        x = x.transpose(0, 1, 3, 5, 2, 4, 6)
        x = np.ascontiguousarray(x).reshape(
            batch, frames, nh * nw, channels * p * p)
        return self.embed(x)

    def _tubelet_tokens(self, clips: np.ndarray) -> np.ndarray:
        batch, frames, channels, height, width = clips.shape
        t = self.model.embed.tubelet_size
        p = self.model.embed.patch_size
        nt, nh, nw = frames // t, height // p, width // p
        x = clips.reshape(batch, nt, t, channels, nh, p, nw, p)
        x = x.transpose(0, 1, 4, 6, 3, 2, 5, 7)
        x = np.ascontiguousarray(x).reshape(
            batch, nt * nh * nw, channels * t * p * p)
        return self.embed(x)

    # -- forwards ------------------------------------------------------
    def _head_logits(self, feat: np.ndarray) -> Dict[str, np.ndarray]:
        return {key: site(feat) for key, site in self.heads.items()}

    def _forward_joint(self, clips: np.ndarray) -> Dict[str, np.ndarray]:
        m = self.model
        tokens = self._tubelet_tokens(clips)
        batch, _, dim = tokens.shape
        cls = np.broadcast_to(m.cls_token.data, (batch, 1, dim))
        x = np.concatenate([cls, tokens], axis=1) + m.pos_embed.data
        return self._head_logits(self._encoder(x, self._enc_joint))

    def _divided_from_tokens(self, tokens: np.ndarray
                             ) -> Dict[str, np.ndarray]:
        m = self.model
        x = tokens + m.pos_spatial.data + m.pos_temporal.data
        batch, frames, patches, dim = x.shape
        for entry in self._blocks:
            blk = entry["block"]
            xt = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(
                batch * patches, frames, dim)
            yt = self._attention(_norm(xt, blk.norm_t),
                                 entry["attn_t"])
            x += yt.reshape(batch, patches, frames,
                            dim).transpose(0, 2, 1, 3)
            xs = x.reshape(batch * frames, patches, dim)
            ys = self._attention(_norm(xs, blk.norm_s),
                                 entry["attn_s"])
            x += ys.reshape(batch, frames, patches, dim)
            x += self._mlp(_norm(x, blk.norm_m), entry["mlp"])
        x = _norm(x, m.norm)
        # Pooling mirrors VideoTransformer._divided_from_tokens op for
        # op (``Tensor.mean`` multiplies the sum by the reciprocal).
        if self.config.pool == "attention":
            flat = x.reshape(batch, frames * patches, dim)
            scores = (flat * m.pool_query.data).sum(axis=-1)
            scores *= np.float32(inv_sqrt(dim))
            weights = softmax(scores)
            feat = (flat * weights[..., None]).sum(axis=1)
        else:
            feat = x.sum(axis=(1, 2))
            feat *= np.float32(1.0 / (frames * patches))
        return self._head_logits(feat)

    def _frame_summaries(self, tokens: np.ndarray) -> np.ndarray:
        """(F, N, D) patch tokens → (F, D) spatial-encoder summaries."""
        m = self.model
        rows, _, dim = tokens.shape
        cls = np.broadcast_to(m.cls_spatial.data, (rows, 1, dim))
        x = np.concatenate([cls, tokens], axis=1) + m.pos_spatial.data
        return self._encoder(x, self._enc_spatial)

    def _factorized_from_summaries(self, summaries: np.ndarray
                                   ) -> Dict[str, np.ndarray]:
        m = self.model
        batch, _, dim = summaries.shape
        cls = np.broadcast_to(m.cls_temporal.data, (batch, 1, dim))
        y = np.concatenate([cls, summaries], axis=1) + m.pos_temporal.data
        return self._head_logits(self._encoder(y, self._enc_temporal))

    def _forward(self, clips: np.ndarray) -> Dict[str, np.ndarray]:
        clips = np.ascontiguousarray(clips, dtype=np.float32)
        if self.attention == "joint":
            return self._forward_joint(clips)
        tokens = self._patch_tokens(clips)
        if self.attention == "divided":
            return self._divided_from_tokens(tokens)
        batch, frames, patches, dim = tokens.shape
        summaries = self._frame_summaries(
            tokens.reshape(batch * frames, patches, dim)
        ).reshape(batch, frames, dim)
        return self._factorized_from_summaries(summaries)

    # -- public API ----------------------------------------------------
    def logits(self, clips: np.ndarray,
               batch_size: int = 16) -> Dict[str, np.ndarray]:
        """Batched head logits for ``(N, T, C, H, W)`` clips: one
        :meth:`_forward` per ``batch_size`` chunk, the chunks spread over
        the usable CPUs (see the module docstring).  Zero clips give
        zero-row logits for every head.

        The engine is exported on its own, so it checks its input like
        :meth:`ScenarioExtractor.logits` does rather than relying on
        that caller: it would otherwise return ``{}`` for zero clips and
        raise range()'s error for ``batch_size=0``."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(clips) == 0:
            return {key: np.zeros((0, site.out_features), dtype=np.float32)
                    for key, site in self.heads.items()}
        chunks = [clips[start:start + batch_size]
                  for start in range(0, len(clips), batch_size)]
        outs = _map_chunks(self._forward, chunks)
        return {key: np.concatenate([out[key] for out in outs])
                for key in outs[0]}

    # -- frame-level reuse hooks (mirror VideoTransformer's) ----------
    @property
    def supports_frame_reuse(self) -> bool:
        return self.attention in ("divided", "factorized")

    def frame_features(self, frames: np.ndarray) -> np.ndarray:
        """Window-independent per-frame features for ``(F, C, H, W)``
        frames: patch tokens ``(F, N, D)`` for divided attention,
        spatial-encoder summaries ``(F, D)`` for factorized."""
        frames = np.ascontiguousarray(frames, dtype=np.float32)
        tokens = self._patch_tokens(frames[None])[0]
        if self.attention == "divided":
            return tokens
        return self._frame_summaries(tokens)

    def head_logits_from_frame_features(self, feats: np.ndarray
                                        ) -> Dict[str, np.ndarray]:
        """Window logits from stacked per-frame features ``(B, T, ...)``
        as produced by :meth:`frame_features`."""
        if self.attention == "divided":
            return self._divided_from_tokens(feats)
        return self._factorized_from_summaries(feats)


__all__ = ["InferenceEngine"]
