"""Persistent, content-addressed cache of extraction results.

Scenario mining and retrieval are query-over-corpus workloads: the same
fleet clips get re-described for every query, and the extractor forward
pass dominates the cost.  :class:`ExtractionCache` stores each decoded
:class:`~repro.core.pipeline.ExtractionResult` keyed by what actually
determines it:

- the **clip content hash** (dtype + shape + raw bytes),
- the **model version** — a fingerprint of the checkpoint's
  self-describing metadata plus its weights, so a hot-reload to
  different weights can never serve stale descriptions,
- the **vocabulary hash** (tag order defines the label index space),
- the decode **threshold**.

The store is a JSONL file under ``cache_dir`` (one record per line,
appended with a single atomic ``write``), loaded lazily and tolerant of
corruption: a torn or garbled line is skipped and logged, never fatal.
With ``cache_dir=None`` the cache is memory-only.  ``cache.hit`` /
``cache.miss`` / ``cache.evict`` / ``cache.corrupt`` counters go through
the ``repro.obs`` registry.  See ``docs/caching.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import ExtractionResult, ScenarioExtractor
from repro.durable import append_record, atomic_open, read_records, torn_tail
from repro.nn.module import Module
from repro.obs import events as obs_events
from repro.obs import get_logger, metrics
from repro.sdl.description import ScenarioDescription

#: Schema tag written into every cache record.
CACHE_FORMAT = "repro.cache/v1"

#: On-disk file name inside ``cache_dir``.
CACHE_FILE = "extractions.jsonl"

_logger = get_logger("core.cache")


# -- key components -----------------------------------------------------
def clip_content_hash(clip: np.ndarray) -> str:
    """Stable digest of one clip's pixel content (dtype/shape-aware)."""
    clip = np.ascontiguousarray(clip)
    digest = hashlib.sha256()
    digest.update(str(clip.dtype).encode())
    digest.update(str(clip.shape).encode())
    digest.update(clip.tobytes())
    return digest.hexdigest()[:24]


def model_fingerprint(model: Module) -> str:
    """Version id of a model: checkpoint metadata plus weight bytes.

    Two models agree iff they would produce the same checkpoint — the
    PR 3 self-describing metadata (architecture, registry name, vocab
    hash) and every parameter value.  A served hot-reload to new weights
    therefore changes the fingerprint and invalidates cached entries.
    """
    digest = hashlib.sha256()
    digest.update(json.dumps(model.checkpoint_meta(),
                             sort_keys=True).encode())
    for name, param in sorted(model.named_parameters()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()[:16]


def extractor_version(extractor: ScenarioExtractor) -> str:
    """The cache-relevant version of an extractor's model.

    Beyond the weight/metadata fingerprint this includes the inference
    precision: an int8 extractor decodes from quantized logits, so its
    results must never alias an fp32 (or fp16) entry for the same clip
    and weights.  fp32 keeps the bare fingerprint — existing caches
    stay valid."""
    version = model_fingerprint(extractor.model)
    precision = getattr(extractor, "precision", "fp32")
    if precision != "fp32":
        version = f"{version}-{precision}"
    return version


def cache_key(clip_hash: str, model_version: str, vocab_hash: str,
              threshold: float) -> str:
    """Compose the full content-addressed key.

    The decode threshold rides along because it changes which multi-label
    tags survive decoding — same logits, different description.
    """
    return f"{clip_hash}:{model_version}:{vocab_hash}:t{threshold:g}"


def shard_cache_dir(cache_dir: str, rank: int, world_size: int) -> str:
    """The per-shard store directory of one serving-pool worker.

    The pool router (:mod:`repro.serve.router`) sends each clip to the
    worker picked by its content hash, so shard ``rank`` of
    ``world_size`` is the *only* process that ever reads or writes this
    directory — cache coherence across the pool falls out of the
    routing function, with no cross-process locking.  The directory
    name carries the world size because resharding (changing the worker
    count) changes every assignment: a ``3``-wide pool must never serve
    from a ``2``-wide pool's shards.
    """
    if rank < 0 or rank >= world_size:
        raise ValueError(f"rank {rank} outside world of {world_size}")
    return os.path.join(os.fspath(cache_dir),
                        f"shard-{rank:02d}-of-{world_size:02d}")


class ExtractionCache:
    """On-disk (or in-memory) store of extraction results by cache key.

    Parameters
    ----------
    cache_dir:
        Directory for the JSONL store; created on demand.  ``None``
        keeps the cache in memory only.
    max_entries:
        Optional capacity; inserting past it evicts the oldest entries
        (insertion order) and compacts the on-disk file atomically.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.cache_dir = os.fspath(cache_dir) if cache_dir else None
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, ExtractionResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        self._sep = ""
        if self.cache_dir is not None:
            self._load()

    # -- persistence ---------------------------------------------------
    @property
    def path(self) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, CACHE_FILE)

    def _load(self) -> None:
        path = self.path
        if path is None or not os.path.exists(path):
            return

        def corrupt(lineno: int, exc: Exception) -> None:  # torn, drift
            self.corrupt += 1
            metrics.counter("cache.corrupt").inc()
            _logger.warning("skipping corrupt cache record %s:%d (%s)",
                            path, lineno, exc)

        self._entries.update(read_records(
            path, lambda r: (r["key"], _record_to_result(r)), corrupt))
        self._sep = "\n" if torn_tail(path) else ""
        if (self.max_entries is not None
                and len(self._entries) > self.max_entries):
            self._evict_locked()
            self._compact()

    def _append(self, key: str, result: ExtractionResult) -> None:
        path = self.path
        if path is None:
            return
        # One append write per record: concurrent writers interleave
        # whole lines, a crash can only tear the final line (which _load
        # skips), and the first record after a torn tail starts afresh.
        append_record(path, self._sep + json.dumps(
            _result_to_record(key, result), sort_keys=True) + "\n")
        self._sep = ""

    def _compact(self) -> None:
        """Rewrite the store to match memory (atomic publish)."""
        if self.path is None:
            return
        with atomic_open(self.path) as handle:
            for key, result in self._entries.items():
                handle.write(json.dumps(_result_to_record(key, result),
                                        sort_keys=True) + "\n")
        self._sep = ""

    # -- store API -----------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[ExtractionResult]:
        """The cached result for ``key``, counting the hit or miss.

        When an event log is active (:mod:`repro.obs.events`) the
        lookup also emits a ``cache_hit`` / ``cache_miss`` event,
        stamped with the request ids of the bound correlation context
        — which is how a cached serve outcome joins its lifecycle.
        """
        with self._lock:
            result = self._entries.get(key)
        if result is None:
            self.misses += 1
            metrics.counter("cache.miss").inc()
            obs_events.emit("cache_miss", key=key)
            return None
        self.hits += 1
        metrics.counter("cache.hit").inc()
        obs_events.emit("cache_hit", key=key)
        return result

    def put(self, key: str, result: ExtractionResult) -> None:
        """Insert ``key``; a no-op when already present (idempotent)."""
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = result
            self._append(key, result)
            if (self.max_entries is not None
                    and len(self._entries) > self.max_entries):
                self._evict_locked()
                self._compact()

    def _evict_locked(self) -> None:
        while (self.max_entries is not None
               and len(self._entries) > self.max_entries):
            self._entries.popitem(last=False)
            self.evictions += 1
            metrics.counter("cache.evict").inc()

    def clear(self) -> None:
        """Drop every entry (and the on-disk store, if any)."""
        with self._lock:
            self._entries.clear()
            self._compact()

    def stats(self) -> Dict[str, float]:
        """Hit/miss accounting since this instance was constructed."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt_records": self.corrupt,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


# -- record (de)serialisation -------------------------------------------
def _result_to_record(key: str, result: ExtractionResult) -> dict:
    return {
        "schema": CACHE_FORMAT,
        "key": key,
        "description": result.description.to_dict(),
        "sentence": result.sentence,
        "confidences": {k: float(v)
                        for k, v in result.confidences.items()},
        "frame_range": list(result.frame_range),
        # Additive in v1: the cache key is content-addressed (clip ×
        # model × vocab × threshold), so payload fields never key.
        "tag_confidences": {
            head: {tag: float(v) for tag, v in tags.items()}
            for head, tags in result.tag_confidences.items()
        },
    }


def _record_to_result(record: dict) -> ExtractionResult:
    if record.get("schema") != CACHE_FORMAT:
        raise ValueError(f"unknown cache record schema "
                         f"{record.get('schema')!r}")
    description = ScenarioDescription.from_dict(record["description"])
    return ExtractionResult(
        description=description,
        sentence=record["sentence"],
        confidences={k: float(v)
                     for k, v in record["confidences"].items()},
        frame_range=tuple(record["frame_range"]),
        # Absent in records written before per-tag stamping; tolerate.
        tag_confidences={
            head: {tag: float(v) for tag, v in tags.items()}
            for head, tags in record.get("tag_confidences", {}).items()
        },
    )


# -- cache-backed extraction --------------------------------------------
def cached_extract_batch(extractor: ScenarioExtractor, clips: np.ndarray,
                         cache: Optional[ExtractionCache],
                         batch_size: Optional[int] = None,
                         ) -> List[ExtractionResult]:
    """``extractor.extract_batch`` with cache lookup per clip.

    Cache hits are answered from the store; only misses run a forward
    pass (as one batched call), and their results are written back.
    With ``cache=None`` this is exactly ``extract_batch``.  Results come
    back in clip order either way.
    """
    clips = np.asarray(clips)
    if cache is None:
        return extractor.extract_batch(clips, batch_size=batch_size)
    if clips.ndim != 5:
        raise ValueError("expected (N, T, C, H, W) clips")
    version = extractor_version(extractor)
    vocab_hash = extractor.codec.vocab.content_hash
    keys = [cache_key(clip_content_hash(clip), version, vocab_hash,
                      extractor.threshold) for clip in clips]
    results: List[Optional[ExtractionResult]] = [cache.get(k)
                                                 for k in keys]
    miss_indices = [i for i, r in enumerate(results) if r is None]
    if miss_indices:
        fresh = extractor.extract_batch(clips[miss_indices],
                                        batch_size=batch_size)
        for index, result in zip(miss_indices, fresh):
            cache.put(keys[index], result)
            results[index] = result
    return results  # type: ignore[return-value]


def cached_extract_sliding(extractor: ScenarioExtractor,
                           video: np.ndarray, window: int, stride: int,
                           cache: Optional[ExtractionCache],
                           ) -> List[ExtractionResult]:
    """Cache-backed sliding-window timeline extraction.

    Mirrors :meth:`ScenarioExtractor.extract_sliding` (same windowing,
    same frame ranges) but each window clip goes through the cache, so
    overlapping re-analyses of the same footage reuse prior windows.
    Windows are materialised in bounded chunks (``batch_size`` windows
    at a time), never all at once.
    """
    if cache is None:
        return extractor.extract_sliding(video, window=window,
                                         stride=stride)
    results: List[ExtractionResult] = []
    for starts, clips in ScenarioExtractor.iter_window_clips(
            video, window, stride, extractor.batch_size):
        chunk = cached_extract_batch(extractor, clips, cache)
        results.extend(
            ExtractionResult(
                description=r.description,
                sentence=r.sentence,
                confidences=r.confidences,
                frame_range=(start, start + window),
                tag_confidences=r.tag_confidences,
            )
            for start, r in zip(starts, chunk)
        )
    return results


__all__ = [
    "CACHE_FORMAT",
    "ExtractionCache",
    "cache_key",
    "cached_extract_batch",
    "cached_extract_sliding",
    "clip_content_hash",
    "extractor_version",
    "model_fingerprint",
    "shard_cache_dir",
]
