"""End-to-end scenario description extraction from video clips."""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.models.engine import InferenceEngine
from repro.models.video_transformer import VideoTransformer
from repro.nn.module import Module
from repro.obs import is_enabled, metrics, span
from repro.sdl.codec import LabelCodec
from repro.sdl.description import ScenarioDescription

#: Default capacity of the sliding-window frame memo (frames, LRU).
FRAME_MEMO_SIZE = 2048

#: The model's output heads, in decode order.
_HEADS = ("scene", "ego_action", "actors", "actor_actions")


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
                 frame_memo_size: int = FRAME_MEMO_SIZE) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.codec = codec or LabelCodec()
        self.threshold = threshold
        self.batch_size = batch_size
        self.frame_memo_size = frame_memo_size
        self._engine: Optional[InferenceEngine] = None
        if isinstance(model, VideoTransformer):
            self._engine = InferenceEngine(model)
        # Sliding-window overlap reuse: LRU of per-frame activations
        # keyed by frame content hash (see extract_sliding).
        self._frame_memo: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._memo_version: Optional[bytes] = None
        self._reuse_hits = 0
        self._reuse_misses = 0

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
    def _confidences(probs: Dict[str, np.ndarray]
                     ) -> List[Dict[str, float]]:
        """Per-head summary confidence (max probability) of every row."""
        peaks = zip(
            probs["scene"].max(axis=-1).tolist(),
            probs["ego_action"].max(axis=-1).tolist(),
            probs["actors"].max(axis=-1, initial=0.0).tolist(),
            probs["actor_actions"].max(axis=-1, initial=0.0).tolist(),
        )
        return [dict(zip(_HEADS, row)) for row in peaks]

    def _tag_confidences(self, probs: Dict[str, np.ndarray]
                         ) -> List[Dict[str, Dict[str, float]]]:
        """Per-tag probabilities under every head of every row, named
        by vocabulary."""
        vocab = self.codec.vocab
        names = (vocab.scenes, vocab.ego_actions, vocab.actor_types,
                 vocab.actor_actions)
        columns = [[dict(zip(tags, row)) for row in probs[head].tolist()]
                   for head, tags in zip(_HEADS, names)]
        return [dict(zip(_HEADS, heads)) for heads in zip(*columns)]

    def clone_with_model(self, model: Module) -> "ScenarioExtractor":
        """A new extractor on ``model`` keeping codec/threshold/batching.

        Used by the serving layer's checkpoint hot-reload: the swapped-in
        extractor inherits every decoding knob, so only the weights
        change."""
        return ScenarioExtractor(model, codec=self.codec,
                                 threshold=self.threshold,
                                 batch_size=self.batch_size,
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
        return self._extract_clips(clips, [0] * len(clips), batch_size)

    def _extract_clips(self, clips: np.ndarray, starts: Sequence[int],
                       batch_size: Optional[int] = None
                       ) -> List[ExtractionResult]:
        """Forward + finalize clips ``(N, T, C, H, W)`` whose row ``i``
        covers frames ``starts[i]`` to ``starts[i] + T`` of its video."""
        with span("pipeline/forward"):
            logits = self.logits(clips, batch_size=batch_size)
        return self._finalize_batch(logits, starts, clips.shape[1])

    def _finalize_batch(self, logits: Dict[str, np.ndarray],
                        starts: Sequence[int], frames: int
                        ) -> List[ExtractionResult]:
        """Decode, render, stamp and account a batch of logits in one
        vectorised pass; row ``i`` covers frames ``starts[i]`` to
        ``starts[i] + frames``.

        Every extraction path ends here, so all decode identically
        (row-wise ops only; batching never changes output).  Each
        distinct sentence is rendered once per batch."""
        with span("pipeline/decode"):
            descriptions = self.codec.decode_batch(logits,
                                                   threshold=self.threshold)
        with span("pipeline/render"):
            probs = self._head_probs(logits)
            sentences = {d: d.to_sentence() for d in set(descriptions)}
            results = [
                ExtractionResult(
                    description=desc,
                    sentence=sentences[desc],
                    confidences=confidences,
                    frame_range=(start, start + frames),
                    tag_confidences=tags,
                )
                for desc, confidences, tags, start in zip(
                    descriptions, self._confidences(probs),
                    self._tag_confidences(probs), starts)
            ]
        if is_enabled() and results:
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
        return starts, _gather_windows(video, starts, window)

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
            yield chunk, _gather_windows(video, chunk, window)

    # -- sliding-window extraction ---------------------------------------
    def extract_sliding(self, video: np.ndarray, window: int,
                        stride: int,
                        reuse: Optional[bool] = None
                        ) -> List[ExtractionResult]:
        """Slide a window over a long video ``(T, C, H, W)`` and extract
        a description per window — scenario *timeline* extraction.

        No engine call takes more input than one naive forward of
        ``batch_size`` clips, so memory stays flat however long the
        video is; all windows are decoded and stamped in one vectorised
        pass (per memo block when memoized).

        ``reuse`` controls temporal-overlap memoization.  When engaged
        (and the stride overlaps), each frame's window-independent
        activations are computed once and memoized by content hash: the
        per-frame stage runs only on novel frames, then the
        window-dependent remainder runs over whole blocks of windows.
        Bit-identical to the naive path at fp32 (see
        ``docs/performance.md``).

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
                                               stride, backend)
        pieces = []
        for _, clips in self.iter_window_clips(video, window, stride,
                                               self.batch_size):
            with span("pipeline/forward"):
                pieces.append(self.logits(clips))
        return self._finalize_batch(_concat_logits(pieces), starts, window)

    def _reuse_backend(self) -> Optional[InferenceEngine]:
        """The engine, if its attention mode supports frame reuse."""
        engine = self._engine
        if engine is not None and engine.supports_frame_reuse:
            return engine
        return None

    def _weights_version(self) -> bytes:
        """Content hash of the model's parameters.  ``load_state_dict``
        and the optimizers write weights in place, so object identity
        cannot tell that memoized frame features went stale."""
        digest = hashlib.sha256()
        for param in self.model.parameters():
            digest.update(np.ascontiguousarray(param.data))
        return digest.digest()

    def _call_rows(self, video: np.ndarray, window: int,
                   row_size: int) -> int:
        """Rows (frames, or windows of ``row_size`` elements) per engine
        call on the memo path: at most ``2 × batch_size``, and no more
        input than one naive forward of ``batch_size`` clips.  Per-row
        cost stops falling near 32 rows while peak memory keeps rising
        (``docs/performance.md`` §5)."""
        naive = self.batch_size * window * video[0].size
        return max(1, min(2 * self.batch_size, naive // row_size))

    def _extract_sliding_reuse(self, video: np.ndarray,
                               starts: List[int], window: int, stride: int,
                               backend: InferenceEngine
                               ) -> List[ExtractionResult]:
        """Memoized sliding extraction, one block at a time.

        A block is the run of consecutive windows whose frames fit in
        ``frame_memo_size``.  Every frame of the video is hashed once;
        per block, the frames the memo lacks run the per-frame stage,
        one per-frame feature table is gathered into all the block's
        windows with a single fancy index, the window head runs over
        them, and the block is decoded and stamped in one pass.  Both
        engine stages run in calls of at most :meth:`_call_rows`
        rows."""
        version = self._weights_version()
        if version != self._memo_version:
            self._frame_memo.clear()
            self._memo_version = version
        memo = self._frame_memo
        hasher = _frame_hasher(video)
        digests = [_frame_digest(hasher, frame)
                   for frame in video[:starts[-1] + window]]
        per_block = max(1, (self.frame_memo_size - window) // stride + 1)
        frame_call = self._call_rows(video, window, video[0].size)
        offsets = np.arange(window)
        results: List[ExtractionResult] = []
        for b in range(0, len(starts), per_block):
            block = starts[b:b + per_block]
            first = block[0]
            # One table row per distinct frame content in the block;
            # memo hits are captured now, so eviction cannot drop them.
            rows: Dict[bytes, int] = {}
            table_of_frame: List[int] = []
            feats: List[Optional[np.ndarray]] = []
            novel: List[int] = []
            for f in range(first, block[-1] + window):
                digest = digests[f]
                row = rows.get(digest)
                if row is None:
                    row = rows[digest] = len(feats)
                    feat = memo.get(digest)
                    if feat is None:
                        novel.append(f)
                    else:
                        memo.move_to_end(digest)
                    feats.append(feat)
                table_of_frame.append(row)
            # A "hit" is any window-frame slot served without running
            # the per-frame stage — whether the frame came from an
            # earlier block or is shared by several windows of this
            # one.  hits + misses = windows × window.
            hits = len(block) * window - len(novel)
            for i in range(0, len(novel), frame_call):
                part = novel[i:i + frame_call]
                with span("pipeline/frame_features"):
                    computed = backend.frame_features(video[part])
                for f, feat in zip(part, computed):
                    feats[rows[digests[f]]] = memo[digests[f]] = feat
            self._reuse_hits += hits
            self._reuse_misses += len(novel)
            metrics.counter("pipeline.reuse.frame_hits").inc(hits)
            metrics.counter("pipeline.reuse.frame_misses") \
                .inc(len(novel))
            table = np.stack(feats)
            window_rows = np.asarray(table_of_frame)[
                (np.asarray(block) - first)[:, None] + offsets]
            head_call = self._call_rows(video, window,
                                        window * table[0].size)
            pieces = []
            for i in range(0, len(block), head_call):
                with span("pipeline/forward"):
                    pieces.append(backend.head_logits_from_frame_features(
                        table[window_rows[i:i + head_call]]))
            results += self._finalize_batch(_concat_logits(pieces), block,
                                            window)
            floor = max(self.frame_memo_size, len(feats))
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


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax over ``(N, K)`` logits, each row shifted by its
    own max."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _gather_windows(video: np.ndarray, starts: Sequence[int],
                    window: int) -> np.ndarray:
    """Stacked clips ``(len(starts), window, C, H, W)`` in one gather."""
    return video[np.asarray(starts)[:, None] + np.arange(window)]


def _concat_logits(pieces: List[Dict[str, np.ndarray]]
                   ) -> Dict[str, np.ndarray]:
    if len(pieces) == 1:
        return pieces[0]
    return {k: np.concatenate([p[k] for p in pieces]) for k in pieces[0]}
