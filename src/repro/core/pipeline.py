"""End-to-end scenario description extraction from video clips."""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.models.engine import InferenceEngine
from repro.models.video_transformer import VideoTransformer
from repro.nn.module import Module
from repro.obs import get_logger, is_enabled, metrics, span
from repro.sdl.codec import LabelCodec
from repro.sdl.description import ScenarioDescription

#: Inference precisions a :class:`ScenarioExtractor` accepts.  Every
#: :class:`VideoTransformer` runs the fused
#: :class:`~repro.models.engine.InferenceEngine` at any precision; at
#: ``fp32`` its logits are bit-identical to the autograd forward.
#: ``fp16``/``int8`` are weight *memory* formats (2x / 3.7x smaller
#: stored weights), not speedups.  Baseline models run the autograd
#: no-grad path at fp32 only.
PRECISIONS = ("fp32", "fp16", "int8")

#: Default capacity of the sliding-window frame memo (frames, LRU).
FRAME_MEMO_SIZE = 2048

_logger = get_logger("core.pipeline")


def _frame_hasher(video: np.ndarray) -> "hashlib._Hash":
    """SHA-256 state seeded with the dtype/shape header that every frame
    of ``video`` ``(T, C, H, W)`` shares — built once per video."""
    header = str(video.dtype) + str(video.shape[1:])
    return hashlib.sha256(header.encode())


def _frame_digest(hasher: "hashlib._Hash", frame: np.ndarray) -> bytes:
    """Content hash of one frame ``(C, H, W)`` of the video ``hasher``
    was built for — dtype/shape-aware, so two frames collide only when
    they are byte-identical."""
    digest = hasher.copy()
    digest.update(np.ascontiguousarray(frame))
    return digest.digest()


@dataclass(frozen=True)
class ExtractionResult:
    """One extracted description with its confidence scores.

    ``confidences`` is the per-head summary (max probability);
    ``tag_confidences`` the full per-tag probabilities under each head
    — softmax class probabilities for the categorical heads, sigmoid
    activations for the multi-label heads — stamped at decode time so
    downstream monitors never re-run the decode.
    """

    description: ScenarioDescription
    sentence: str
    confidences: Dict[str, float]
    frame_range: Tuple[int, int]
    tag_confidences: Dict[str, Dict[str, float]] = field(
        default_factory=dict)


class ScenarioExtractor:
    """Video → SDL description, the system the paper's title promises.

    Wraps a trained clip model: handles batching, sliding windows over
    longer videos, decoding logits into :class:`ScenarioDescription`
    objects and rendering template sentences.
    """

    def __init__(self, model: Module, codec: Optional[LabelCodec] = None,
                 threshold: float = 0.5, batch_size: int = 16,
                 precision: str = "fp32",
                 calibration: Optional[np.ndarray] = None,
                 frame_memo_size: int = FRAME_MEMO_SIZE) -> None:
        if precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {precision!r}"
            )
        self.model = model
        self.codec = codec or LabelCodec()
        self.threshold = threshold
        self.batch_size = batch_size
        self.precision = precision
        self.calibration = calibration
        self.frame_memo_size = frame_memo_size
        self._engine: Optional[InferenceEngine] = None
        if precision != "fp32" or isinstance(model, VideoTransformer):
            self._engine = InferenceEngine(model, precision,
                                           calibration=calibration)
        # Sliding-window overlap reuse: LRU of per-frame activations
        # keyed by frame content hash (see extract_sliding).
        self._frame_memo: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._reuse_hits = 0
        self._reuse_misses = 0
        metrics.gauge("extractor.precision", precision=precision).set(1.0)

    # -- primitives -----------------------------------------------------
    def logits(self, clips: np.ndarray,
               batch_size: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Batched no-grad logits for clips ``(N, T, C, H, W)``.

        ``batch_size`` overrides the extractor's default for this call —
        larger batches amortise per-forward Python dispatch (see
        ``docs/performance.md``).
        """
        if clips.ndim != 5:
            raise ValueError("expected (N, T, C, H, W) clips")
        if batch_size is None:
            batch_size = self.batch_size
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(clips) == 0:
            sizes = self.codec.head_sizes
            return {k: np.zeros((0, n), dtype=np.float32)
                    for k, n in sizes.items()}
        if self._engine is not None:
            return self._engine.logits(clips, batch_size=batch_size)
        self.model.eval()
        pieces: Dict[str, List[np.ndarray]] = {}
        with no_grad():
            for start in range(0, len(clips), batch_size):
                chunk = Tensor(clips[start:start + batch_size])
                for key, value in self.model(chunk).items():
                    pieces.setdefault(key, []).append(value.data)
        return {k: np.concatenate(v) for k, v in pieces.items()}

    def _head_probs(self, logits: Dict[str, np.ndarray]
                    ) -> Dict[str, np.ndarray]:
        """Per-head probabilities for the whole batch in one pass.

        Softmax over the categorical heads, sigmoid over the
        multi-label heads — computed once and shared by the summary
        confidences and the per-tag stamping, so adding the latter
        costs only dict construction, not a second decode.
        """
        return {
            "scene": _softmax_rows(logits["scene"]),
            "ego_action": _softmax_rows(logits["ego_action"]),
            "actors": _sigmoid(logits["actors"]),
            "actor_actions": _sigmoid(logits["actor_actions"]),
        }

    @staticmethod
    def _confidences(probs: Dict[str, np.ndarray],
                     index: int) -> Dict[str, float]:
        return {
            "scene": float(probs["scene"][index].max()),
            "ego_action": float(probs["ego_action"][index].max()),
            "actors": float(probs["actors"][index].max(initial=0.0)),
            "actor_actions": float(
                probs["actor_actions"][index].max(initial=0.0)),
        }

    def _tag_confidences(self, probs: Dict[str, np.ndarray],
                         index: int) -> Dict[str, Dict[str, float]]:
        """Per-tag probabilities under every head, named by vocabulary."""
        vocab = self.codec.vocab
        return {
            "scene": dict(zip(vocab.scenes,
                              probs["scene"][index].tolist())),
            "ego_action": dict(zip(vocab.ego_actions,
                                   probs["ego_action"][index].tolist())),
            "actors": dict(zip(vocab.actor_types,
                               probs["actors"][index].tolist())),
            "actor_actions": dict(zip(
                vocab.actor_actions,
                probs["actor_actions"][index].tolist())),
        }

    def clone_with_model(self, model: Module) -> "ScenarioExtractor":
        """A new extractor on ``model`` keeping codec/threshold/batching
        and the precision mode.

        Used by the serving layer's checkpoint hot-reload: the swapped-in
        extractor inherits every decoding knob, so only the weights
        change.  A quantized extractor cloned onto a model that can't be
        quantized (e.g. the circuit breaker's frame-mlp fallback)
        downgrades to fp32 with a logged warning instead of failing —
        degraded service beats no service."""
        precision = self.precision
        if precision != "fp32" and not isinstance(model,
                                                  VideoTransformer):
            _logger.warning(
                "clone_with_model: %s model %s cannot run %s — "
                "downgrading clone to fp32",
                type(model).__name__, getattr(model, "name", "?"),
                precision,
            )
            precision = "fp32"
        return ScenarioExtractor(model, codec=self.codec,
                                 threshold=self.threshold,
                                 batch_size=self.batch_size,
                                 precision=precision,
                                 calibration=self.calibration,
                                 frame_memo_size=self.frame_memo_size)

    # -- public API -------------------------------------------------------
    def extract(self, clip: np.ndarray) -> ExtractionResult:
        """Extract the description of a single clip ``(T, C, H, W)``."""
        if clip.ndim != 4:
            raise ValueError("expected a single (T, C, H, W) clip")
        results = self.extract_batch(clip[None])
        return results[0]

    def extract_batch(self, clips: np.ndarray,
                      batch_size: Optional[int] = None
                      ) -> List[ExtractionResult]:
        """Extract descriptions for ``(N, T, C, H, W)`` clips.

        All clips run through the inference engine (baseline models:
        the model under ``no_grad``) in ``batch_size`` chunks —
        substantially faster per clip than repeated :meth:`extract`
        calls."""
        start = time.perf_counter()
        with span("pipeline/forward"):
            logits = self.logits(clips, batch_size=batch_size)
        return self._finalize_batch(logits, clips.shape[1], start)

    def _finalize_batch(self, logits: Dict[str, np.ndarray], frames: int,
                        started: float) -> List[ExtractionResult]:
        """Decode + render + account a batch of logits — shared by the
        direct batch path and the memoized sliding path, so both decode
        identically (row-wise ops only; chunking never changes output)."""
        with span("pipeline/decode"):
            descriptions = self.codec.decode_batch(logits,
                                                   threshold=self.threshold)
        with span("pipeline/render"):
            probs = self._head_probs(logits)
            results = [
                ExtractionResult(
                    description=desc,
                    sentence=desc.to_sentence(),
                    confidences=self._confidences(probs, i),
                    frame_range=(0, frames),
                    tag_confidences=self._tag_confidences(probs, i),
                )
                for i, desc in enumerate(descriptions)
            ]
        if is_enabled() and results:
            per_clip = (time.perf_counter() - started) / len(results)
            latency = metrics.histogram("pipeline.clip_seconds")
            for _ in results:
                latency.observe(per_clip)
            metrics.counter("pipeline.clips").inc(len(results))
        return results

    # -- sliding-window geometry ---------------------------------------
    @staticmethod
    def window_starts(video: np.ndarray, window: int,
                      stride: int) -> List[int]:
        """Window start frames for a video ``(T, C, H, W)``."""
        if video.ndim != 4:
            raise ValueError("expected (T, C, H, W) video")
        if window <= 0 or stride <= 0:
            raise ValueError("window and stride must be positive")
        total = video.shape[0]
        if total < window:
            raise ValueError(
                f"video has {total} frames, shorter than window {window}"
            )
        return list(range(0, total - window + 1, stride))

    @staticmethod
    def window_clips(video: np.ndarray, window: int,
                     stride: int) -> Tuple[List[int], np.ndarray]:
        """Window start frames and stacked window clips for a video
        ``(T, C, H, W)``.

        Materialises *every* window at once — ``n_windows × window``
        frames.  Fine for short videos and tests; long-video paths use
        :meth:`iter_window_clips` to keep memory bounded."""
        starts = ScenarioExtractor.window_starts(video, window, stride)
        return starts, np.stack([video[s:s + window] for s in starts])

    @staticmethod
    def iter_window_clips(video: np.ndarray, window: int, stride: int,
                          chunk_windows: int
                          ) -> Iterator[Tuple[List[int], np.ndarray]]:
        """Yield ``(starts, stacked_clips)`` in bounded chunks of at most
        ``chunk_windows`` windows, so a 10k-frame video never allocates
        all its windows at once.  Concatenating the chunks reproduces
        :meth:`window_clips` exactly."""
        if chunk_windows <= 0:
            raise ValueError("chunk_windows must be positive")
        starts = ScenarioExtractor.window_starts(video, window, stride)
        for i in range(0, len(starts), chunk_windows):
            chunk = starts[i:i + chunk_windows]
            yield chunk, np.stack([video[s:s + window] for s in chunk])

    # -- sliding-window extraction ---------------------------------------
    def extract_sliding(self, video: np.ndarray, window: int,
                        stride: int,
                        reuse: Optional[bool] = None
                        ) -> List[ExtractionResult]:
        """Slide a window over a long video ``(T, C, H, W)`` and extract
        a description per window — scenario *timeline* extraction.

        Windows are processed in bounded chunks (``batch_size`` windows
        at a time), so memory stays flat however long the video is.

        ``reuse`` controls temporal-overlap memoization.  When engaged
        (and the stride overlaps), each frame's window-independent
        activations are computed once and memoized by content hash: a
        new window runs the per-frame stage only on its novel frames,
        then the window-dependent remainder.  Bit-identical to the
        naive path at fp32 (see ``docs/performance.md``).

        - ``None`` (default): memoize where it pays — ``factorized``
          attention, whose per-frame spatial-encoder summaries are the
          dominant cost.  ``divided`` attention only has reusable patch
          embeddings (its blocks run temporal attention first, so every
          later activation is window-dependent); memoized it measures
          a median 1.01-1.07x (see ``docs/performance.md``), too little
          to engage by default, so auto mode leaves it naive.
        - ``True``: force memoization on any supporting mode.
        - ``False``: always naive.  ``joint`` attention has no
          per-frame stage and is always naive."""
        starts = self.window_starts(video, window, stride)
        backend = self._reuse_backend()
        if reuse is None:
            reuse = (backend is not None
                     and backend.attention == "factorized")
        if reuse and backend is not None and stride < window:
            return self._extract_sliding_reuse(video, starts, window,
                                               backend)
        results: List[ExtractionResult] = []
        for chunk_starts, clips in self.iter_window_clips(
                video, window, stride, self.batch_size):
            for start, r in zip(chunk_starts, self.extract_batch(clips)):
                results.append(ExtractionResult(
                    description=r.description,
                    sentence=r.sentence,
                    confidences=r.confidences,
                    frame_range=(start, start + window),
                    tag_confidences=r.tag_confidences,
                ))
        return results

    def _reuse_backend(self) -> Optional[InferenceEngine]:
        """The engine, if its attention mode supports frame reuse."""
        engine = self._engine
        if engine is not None and engine.supports_frame_reuse:
            return engine
        return None

    def _extract_sliding_reuse(self, video: np.ndarray,
                               starts: List[int], window: int,
                               backend: InferenceEngine
                               ) -> List[ExtractionResult]:
        """Memoized sliding extraction: per-frame features from an LRU
        keyed on frame content hash; only novel frames run the
        per-frame stage."""
        results: List[ExtractionResult] = []
        digests: Dict[int, bytes] = {}
        hasher = _frame_hasher(video)
        memo = self._frame_memo
        chunk = self.batch_size
        for i in range(0, len(starts), chunk):
            started = time.perf_counter()
            chunk_starts = starts[i:i + chunk]
            # Unique frames this chunk needs, in first-use order.
            needed: List[int] = []
            seen = set()
            for s in chunk_starts:
                for f in range(s, s + window):
                    if f not in seen:
                        seen.add(f)
                        needed.append(f)
            novel: List[int] = []
            pending = set()
            for f in needed:
                digest = digests.get(f)
                if digest is None:
                    digest = _frame_digest(hasher, video[f])
                    digests[f] = digest
                if digest in memo:
                    memo.move_to_end(digest)
                elif digest not in pending:
                    pending.add(digest)
                    novel.append(f)
            # A "hit" is any window-frame slot served without
            # running the per-frame stage — whether the frame came
            # from a previous chunk or is shared by several windows
            # of this one.  hits + misses = windows × window.
            hits = len(chunk_starts) * window - len(novel)
            if novel:
                with span("pipeline/frame_features"):
                    feats = backend.frame_features(video[novel])
                for f, feat in zip(novel, feats):
                    memo[digests[f]] = feat
            self._reuse_hits += hits
            self._reuse_misses += len(novel)
            metrics.counter("pipeline.reuse.frame_hits").inc(hits)
            metrics.counter("pipeline.reuse.frame_misses") \
                .inc(len(novel))
            sample = memo[digests[needed[0]]]
            assembled = np.empty(
                (len(chunk_starts), window) + sample.shape,
                dtype=sample.dtype)
            for wi, s in enumerate(chunk_starts):
                for t in range(window):
                    assembled[wi, t] = memo[digests[s + t]]
            with span("pipeline/forward"):
                logits = backend.head_logits_from_frame_features(
                    assembled)
            for start, r in zip(
                    chunk_starts,
                    self._finalize_batch(logits, window, started)):
                results.append(ExtractionResult(
                    description=r.description,
                    sentence=r.sentence,
                    confidences=r.confidences,
                    frame_range=(start, start + window),
                    tag_confidences=r.tag_confidences,
                ))
            # Evict only after assembly so a tiny capacity can
            # never drop a frame the current chunk still needs.
            floor = max(self.frame_memo_size, len(needed))
            while len(memo) > floor:
                memo.popitem(last=False)
        return results

    def reuse_stats(self) -> Dict[str, object]:
        """Sliding-window frame-memo accounting for this extractor."""
        lookups = self._reuse_hits + self._reuse_misses
        return {
            "supported": self._reuse_backend() is not None,
            "frame_hits": self._reuse_hits,
            "frame_misses": self._reuse_misses,
            "hit_rate": (self._reuse_hits / lookups if lookups else 0.0),
            "memo_frames": len(self._frame_memo),
        }


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax over ``(N, K)`` logits — bit-identical per row
    to :func:`_softmax` on that row."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))
