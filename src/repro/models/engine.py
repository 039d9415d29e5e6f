"""No-grad inference engine for video transformers.

:class:`InferenceEngine` is a straight-line numpy forward pass over a
trained :class:`~repro.models.video_transformer.VideoTransformer` —
no autograd ``Tensor`` wrappers, no graph bookkeeping, in-place
softmax/GELU/residuals.  :class:`~repro.core.pipeline.\
ScenarioExtractor` runs every video transformer through it, at the
``precision`` it was built with:

- ``"fp32"`` — the default.  Every kernel performs the autograd
  forward's float32 operations in the same order, so logits and frame
  features are bit-identical to ``VideoTransformer.forward`` (pinned
  by ``tests/test_quantized.py``); the autograd forward remains the
  training path and the parity reference.  The in-place softmax takes
  its last-axis max with ``repro.autograd.functional._row_max``, the
  same short-row kernel as ``F.softmax``, ``F.log_softmax`` and the
  fused attention: one row max for training and inference.  Weights are the model's
  own parameter arrays, never copies.
- ``"fp16"`` — weights stored in half precision and widened to fp32
  once for BLAS (numpy has no half BLAS), at fp32 speed.  It saves no
  memory: each projection keeps its half-precision weights *and* the
  widened fp32 copy, and :attr:`InferenceEngine.model` keeps the fp32
  parameters, so resident weight memory is about 2.5x fp32.
- ``"int8"`` — per-output-channel symmetric weight quantization for
  every Linear/attention projection (3.7x smaller codes) plus *static*
  per-site activation scales fixed by a small calibration pass.
  Quantized operands stay integer-valued float32 so the matmul runs on
  BLAS and is exact integer arithmetic at these accumulation depths;
  it is no faster than fp32.  It saves no memory either: the int8
  codes sit next to their float32 staging copy and the model's fp32
  parameters, about 2.25x fp32 resident weight memory.

Static (rather than dynamic per-batch) activation scales are load-
bearing: they make every quantized output independent of how rows are
batched together, which the sliding-window overlap-reuse path relies
on when it assembles per-frame activations computed across different
windows.  The engine exposes the same frame-level reuse hooks as the
model (``frame_features`` / ``head_logits_from_frame_features``), so
reuse composes with any precision.

Rows the output reads: every joint or factorized encoder is read only
at its CLS row, so the last encoder layer carries only that row past
attention.  It still runs the qkv projection, the scores, the softmax
and ``scores @ v`` over all rows (keys and values need them all, and a
one-query ``q_cls @ kᵀ`` is not bit-identical to row 0 of the full
product), then runs the output projection, both residuals, ``norm2``,
the MLP and the final norm on the CLS row alone.  A lone sequence
keeps rows 0 and 1: BLAS multiplies a single row by another path,
whose row 0 differs in the last bits.  Calibration keeps every row,
so int8 activation scales still see the whole layer.  Earlier layers
and the divided path run all rows.

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
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

# The softmax row max is the autograd one; its limit is re-exported for
# the engine's tests.
from repro.autograd.functional import _COLUMN_MAX_LIMIT, _row_max  # noqa: F401
from repro.models.video_transformer import VideoTransformer
from repro.nn.layers import LayerNorm, Linear
from repro.nn.quant import (
    activation_scale,
    dequantize_per_channel,
    quantize_activations,
    quantize_fp16,
    quantize_per_channel,
)

PRECISIONS = ("fp32", "fp16", "int8")

_SQRT_2_OVER_PI = np.float32(np.sqrt(2.0 / np.pi))
_GELU_C = np.float32(0.044715)

#: Synthetic calibration defaults: a handful of uniform [0, 1) clips is
#: enough to pin activation ranges for these shallow models, and keeps
#: engine construction deterministic when no sample clips are passed.
CALIBRATION_SEED = 0
CALIBRATION_CLIPS = 4


class _Site:
    """One Linear projection in the quantized network.

    Holds the precision-specific weight representation and performs the
    matmul; for int8 it also owns the calibration state (observed input
    absmax → static activation scale).
    """

    def __init__(self, name: str, linear: Linear, precision: str) -> None:
        self.name = name
        self.precision = precision
        weight = linear.weight.data
        bias = linear.bias.data if linear.bias is not None else None
        self.in_features, self.out_features = weight.shape
        self.bias = bias
        self.act_scale: Optional[float] = None
        self.observing = False
        self.absmax = 0.0
        if precision == "int8":
            self.codes, self.w_scales = quantize_per_channel(weight)
            self.weight = None
            # Integer codes staged as float32 once, so the hot path is
            # a straight BLAS matmul (exact: operands stay integers).
            self._codes_f32 = self.codes.astype(np.float32)
        elif precision == "fp16":
            self.w16 = quantize_fp16(weight)
            self.weight = None
            # fp16 is the *stored* representation; compute uses a
            # widened copy staged once (numpy has no half BLAS).
            self._w16_f32 = self.w16.astype(np.float32)
        else:
            self.weight = weight

    # -- storage accounting -------------------------------------------
    def stored_bytes(self) -> int:
        if self.precision == "int8":
            return self.codes.nbytes + self.w_scales.nbytes
        if self.precision == "fp16":
            return self.w16.nbytes
        return self.weight.nbytes

    def fp32_bytes(self) -> int:
        if self.precision == "int8":
            return self.codes.size * 4
        if self.precision == "fp16":
            return self.w16.size * 4
        return self.weight.nbytes

    # -- compute ------------------------------------------------------
    def _dequantized(self) -> np.ndarray:
        if self.precision == "int8":
            return dequantize_per_channel(self.codes, self.w_scales)
        if self.precision == "fp16":
            return self._w16_f32
        return self.weight

    def __call__(self, x: np.ndarray) -> np.ndarray:
        shape = x.shape
        flat = x.reshape(-1, self.in_features) if x.ndim != 2 else x
        if self.precision == "int8" and not self.observing \
                and self.act_scale is not None:
            xq = quantize_activations(flat, self.act_scale)
            out = xq @ self._codes_f32
            out *= self.w_scales * np.float32(self.act_scale)
        else:
            if self.observing:
                peak = float(np.abs(flat).max()) if flat.size else 0.0
                if peak > self.absmax:
                    self.absmax = peak
            out = flat @ self._dequantized()
        if self.bias is not None:
            out += self.bias
        if x.ndim != 2:
            out = out.reshape(shape[:-1] + (out.shape[-1],))
        return out


# -- fused kernels -------------------------------------------------------
def _layer_norm(x: np.ndarray, norm: LayerNorm) -> np.ndarray:
    """``norm(x)`` in the op order of ``autograd.functional.layer_norm``,
    so fp32 results are bit-identical to the training forward."""
    c = x - x.mean(axis=-1, keepdims=True)
    var = np.square(c).mean(axis=-1, keepdims=True)
    c *= 1.0 / np.sqrt(var + np.float32(norm.eps))
    c *= norm.weight.data
    c += norm.bias.data
    return c


def _softmax_inplace(scores: np.ndarray) -> np.ndarray:
    scores -= _row_max(scores)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _gelu_inplace(z: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU computed with one scratch array."""
    inner = z * z
    inner *= z
    inner *= _GELU_C
    inner += z
    inner *= _SQRT_2_OVER_PI
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= 0.5
    inner *= z
    return inner


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

    Construction quantizes every Linear/attention projection (including
    the patch/tubelet embedding and the SDL head) and — for int8 —
    immediately runs the calibration pass, so a built engine is ready
    and deterministic.  Pass ``calibration`` clips ``(N, T, C, H, W)``
    to calibrate on real footage; otherwise a seeded synthetic batch is
    used.
    """

    def __init__(self, model: VideoTransformer, precision: str,
                 calibration: Optional[np.ndarray] = None,
                 calibration_seed: int = CALIBRATION_SEED) -> None:
        if precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {precision!r}"
            )
        if not isinstance(model, VideoTransformer):
            raise ValueError(
                "quantized inference requires a VideoTransformer; got "
                f"{type(model).__name__}"
            )
        model.eval()
        self.model = model
        self.precision = precision
        self.attention = model.attention
        self.config = model.config
        self._sites: List[_Site] = []
        self._calibrating = False
        self.embed = self._site("embed.proj", model.embed.proj)
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
            key: self._site(f"head.{key}", getattr(model.head, key))
            for key in ("scene", "ego_action", "actors", "actor_actions")
        }
        self.calibration: Dict[str, object] = {"calibrated": False}
        if precision == "int8":
            self.calibrate(calibration, seed=calibration_seed)

    # -- site wiring ---------------------------------------------------
    def _site(self, name: str, linear: Linear) -> _Site:
        site = _Site(name, linear, self.precision)
        self._sites.append(site)
        return site

    def _attn_sites(self, name: str, attn) -> Dict[str, object]:
        return {
            "qkv": self._site(f"{name}.qkv", attn.qkv),
            "proj": self._site(f"{name}.proj", attn.proj),
            "heads": attn.num_heads,
            "head_dim": attn.head_dim,
            "scale": np.float32(attn.scale),
        }

    def _mlp_sites(self, name: str, mlp) -> Dict[str, _Site]:
        return {"fc1": self._site(f"{name}.fc1", mlp.fc1),
                "fc2": self._site(f"{name}.fc2", mlp.fc2)}

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

    # -- calibration ---------------------------------------------------
    def calibrate(self, clips: Optional[np.ndarray] = None,
                  seed: int = CALIBRATION_SEED,
                  samples: int = CALIBRATION_CLIPS) -> Dict[str, object]:
        """Fix static activation scales from sample clips.

        With ``clips=None`` a deterministic synthetic batch (uniform
        [0, 1) pixels under ``seed``) is used — same seed, same model
        ⇒ bit-identical scales and therefore bit-identical quantized
        logits.  Observation runs the *quantized-weight* network in
        fp32, so the scales see the distributions inference will see.
        """
        cfg = self.config
        if clips is None:
            rng = np.random.default_rng(seed)
            clips = rng.random(
                (samples, cfg.frames, cfg.channels, cfg.height,
                 cfg.width), dtype=np.float32)
            source = "synthetic"
        else:
            clips = np.asarray(clips, dtype=np.float32)
            source = "provided"
        for site in self._sites:
            site.observing = True
            site.absmax = 0.0
        self._calibrating = True
        try:
            self._forward(clips)
        finally:
            self._calibrating = False
            for site in self._sites:
                site.observing = False
        for site in self._sites:
            site.act_scale = activation_scale(site.absmax)
        self.calibration = {
            "calibrated": True,
            "source": source,
            "clips": int(len(clips)),
            "seed": int(seed) if source == "synthetic" else None,
        }
        return self.calibration

    def activation_scales(self) -> Dict[str, float]:
        """Per-site static activation scales (empty before calibration)."""
        return {s.name: s.act_scale for s in self._sites
                if s.act_scale is not None}

    def weight_bytes(self) -> Dict[str, int]:
        """Stored-weight footprint of the quantized projections vs fp32."""
        return {
            "stored": sum(s.stored_bytes() for s in self._sites),
            "fp32": sum(s.fp32_bytes() for s in self._sites),
        }

    # -- kernels -------------------------------------------------------
    def _attention(self, x: np.ndarray, spec: Dict[str, object],
                   rows: slice = slice(None)) -> np.ndarray:
        """Attention over every row of ``x``; the output projection runs
        on query ``rows`` only (keys and values always span them all)."""
        batch, tokens, dim = x.shape
        qkv = spec["qkv"](x).reshape(
            batch, tokens, 3, spec["heads"], spec["head_dim"]
        ).transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = q @ k.swapaxes(-1, -2)
        scores *= spec["scale"]
        _softmax_inplace(scores)
        out = (scores @ v)[:, :, rows]
        out = out.transpose(0, 2, 1, 3).reshape(batch, -1, dim)
        return spec["proj"](out)

    def _mlp(self, x: np.ndarray, spec: Dict[str, _Site]) -> np.ndarray:
        return spec["fc2"](_gelu_inplace(spec["fc1"](x)))

    def _readout_rows(self, batch: int) -> slice:
        """Rows of each sequence the last encoder layer carries past
        attention: all of them while calibrating (activation scales see
        every row), else the CLS row — plus row 1 for a lone sequence,
        so no projection multiplies a single row (BLAS takes another
        path for one row and row 0 would not be bit-identical)."""
        if self._calibrating:
            return slice(None)
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
            x = x[:, rows] + self._attention(_layer_norm(x, layer.norm1),
                                             entry["attn"], rows)
            x += self._mlp(_layer_norm(x, layer.norm2), entry["mlp"])
        return _layer_norm(x, enc["encoder"].norm)[:, 0]

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
            yt = self._attention(_layer_norm(xt, blk.norm_t),
                                 entry["attn_t"])
            x += yt.reshape(batch, patches, frames,
                            dim).transpose(0, 2, 1, 3)
            xs = x.reshape(batch * frames, patches, dim)
            ys = self._attention(_layer_norm(xs, blk.norm_s),
                                 entry["attn_s"])
            x += ys.reshape(batch, frames, patches, dim)
            x += self._mlp(_layer_norm(x, blk.norm_m), entry["mlp"])
        x = _layer_norm(x, m.norm)
        # Pooling mirrors VideoTransformer._divided_from_tokens op for
        # op (``Tensor.mean`` multiplies the sum by the reciprocal).
        if self.config.pool == "attention":
            flat = x.reshape(batch, frames * patches, dim)
            scores = (flat * m.pool_query.data).sum(axis=-1)
            scores *= np.float32(1.0 / np.sqrt(dim))
            _softmax_inplace(scores)
            feat = (flat * scores[..., None]).sum(axis=1)
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


__all__ = ["CALIBRATION_CLIPS", "CALIBRATION_SEED", "InferenceEngine",
           "PRECISIONS"]
