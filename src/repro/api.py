"""Stable public facade — the only import surface callers need.

Notebooks, examples and downstream code use these functions instead of
reaching into ``repro.core.*`` / ``repro.models.*`` internals, so those
layers stay free to refactor::

    import repro

    extractor = repro.load_extractor("checkpoint.npz")
    result = repro.extract_clip(extractor, clip)        # one clip
    timeline = repro.extract_video(extractor, video, window=8, stride=4)
    hits = repro.mine(extractor, corpus, ego_action="stop",
                      actors={"pedestrian"})
    ranked = repro.retrieve(extractor, corpus, query)

Every entry point accepts a *source* that is either a ready
:class:`~repro.core.pipeline.ScenarioExtractor`, a trained model
(:class:`~repro.nn.Module`), or a path to a self-describing checkpoint
(see :func:`repro.models.factory.load_model`); strings/paths are loaded
on the fly.  For a long-lived concurrent deployment, wrap the extractor
in :func:`serve` instead (see ``docs/serving.md``).
"""

from __future__ import annotations

import itertools
import os
import warnings
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cache import ExtractionCache, cached_extract_sliding
from repro.core.fleet import FleetStats
from repro.core.fleet import mine_corpus as _fleet_mine_corpus
from repro.core.fleet import write_corpus as _fleet_write_corpus
from repro.core.mining import MiningHit, ScenarioMiner
from repro.core.pipeline import ExtractionResult, ScenarioExtractor
from repro.core.retrieval import RetrievalIndex, retrieval_metrics
from repro.nn.module import Module
from repro.obs import context as _obs_context
from repro.obs.drift import DriftConfig
from repro.obs.events import EventLog
from repro.obs.quality import (
    CanaryRefusedError,
    QualityConfig,
    QualityMonitor,
)
from repro.obs.slo import SLOConfig, SLOTracker
from repro.sdl.codec import LabelCodec
from repro.sdl.description import ScenarioDescription
from repro.serve.client import ServiceClient
from repro.serve.config import ServiceConfig
from repro.serve.pool import ServicePool
from repro.serve.service import ExtractionService

#: Anything the facade can turn into an extractor.
ExtractorSource = Union[ScenarioExtractor, Module, str, "os.PathLike"]

#: Polymorphic cache parameter: a prebuilt store or a directory path.
CacheLike = Union[ExtractionCache, str, "os.PathLike", None]

#: Polymorphic event-log parameter: a prebuilt log or a directory path.
EventsLike = Union[EventLog, str, "os.PathLike", None]

#: Request ids for direct facade calls (``extract_clip`` /
#: ``extract_video``) — same correlation machinery as the service, so
#: one-shot extractions are also joinable in logs and event streams.
_api_request_ids = itertools.count(1)


def load_extractor(checkpoint: Optional[ExtractorSource] = None, *,
                   model: Optional[Module] = None,
                   codec: Optional[LabelCodec] = None,
                   threshold: float = 0.5,
                   batch_size: int = 16,
                   precision: str = "fp32",
                   calibration: Optional[np.ndarray] = None
                   ) -> ScenarioExtractor:
    """Build a ready-to-use extractor.

    Pass a checkpoint path (the model architecture is reconstructed
    from the checkpoint's own metadata — no shape flags), an already
    constructed model via ``model=``, or an existing extractor (returned
    as-is, ignoring the keyword knobs).

    ``precision`` selects the weight format of the fused inference
    engine every video transformer runs on: ``"fp32"`` (default,
    bit-identical to the autograd forward), or the smaller ``"fp16"`` /
    ``"int8"`` memory formats — int8 optionally with ``calibration``
    sample clips ``(N, T, C, H, W)`` to fix its activation scales on
    real footage (a seeded synthetic batch is used otherwise).  See
    ``docs/performance.md``.
    """
    if (checkpoint is None) == (model is None):
        raise ValueError("pass exactly one of checkpoint or model")
    if isinstance(checkpoint, ScenarioExtractor):
        return checkpoint
    if isinstance(checkpoint, Module):
        model = checkpoint
    elif checkpoint is not None:
        from repro.models.factory import load_model

        model = load_model(os.fspath(checkpoint), codec=codec)
    return ScenarioExtractor(model, codec=codec, threshold=threshold,
                             batch_size=batch_size, precision=precision,
                             calibration=calibration)


def _as_extractor(source: ExtractorSource) -> ScenarioExtractor:
    if isinstance(source, ScenarioExtractor):
        return source
    if isinstance(source, Module):
        return load_extractor(model=source)
    return load_extractor(source)


def _coerce(value, legacy, cls, name: str, legacy_name: str):
    """Shared coercer behind the polymorphic store parameters.

    Every facade entry point takes ``cache=`` / ``events=`` as *either*
    a prebuilt instance *or* a directory path (str / PathLike) — one
    parameter instead of the historical ``cache``/``cache_dir`` and
    ``events``/``events_dir`` either-or pairs.  The old ``*_dir``
    spellings still work (routed through here) but raise a
    ``DeprecationWarning``.
    """
    if legacy is not None:
        warnings.warn(
            f"{legacy_name}= is deprecated; pass {name}= "
            f"(a directory path or a {cls.__name__})",
            DeprecationWarning, stacklevel=3)
        if value is not None:
            raise ValueError(
                f"pass either {name} or {legacy_name}, not both")
        value = legacy
    if value is None or isinstance(value, cls):
        return value
    return cls(os.fspath(value))


def _as_cache(cache: CacheLike,
              cache_dir: Optional[str]) -> Optional[ExtractionCache]:
    return _coerce(cache, cache_dir, ExtractionCache,
                   "cache", "cache_dir")


def _as_events(events: EventsLike,
               events_dir: Optional[str]) -> Optional[EventLog]:
    return _coerce(events, events_dir, EventLog, "events", "events_dir")


def _as_config(config: Union[ServiceConfig, dict, None],
               config_kwargs: dict) -> ServiceConfig:
    """``config`` is a prebuilt :class:`ServiceConfig`, a mapping of its
    fields, or ``None`` with the fields given as keyword arguments."""
    if config is not None and config_kwargs:
        raise ValueError("pass either config or keyword fields, not both")
    if config is None:
        return ServiceConfig(**config_kwargs)
    if isinstance(config, ServiceConfig):
        return config
    return ServiceConfig(**dict(config))


def extract_clip(source: ExtractorSource,
                 clip: np.ndarray) -> ExtractionResult:
    """Scenario description of a single clip ``(T, C, H, W)``.

    The call runs under a fresh correlation context
    (:mod:`repro.obs.context`): structured log records, cache events
    and request-scoped spans emitted underneath carry its
    ``request_id`` / ``trace_id``.
    """
    with _obs_context.bind(next(_api_request_ids)):
        return _as_extractor(source).extract(np.asarray(clip))


def extract_video(source: ExtractorSource, video: np.ndarray,
                  window: int, stride: int,
                  cache: CacheLike = None,
                  cache_dir: Optional[str] = None
                  ) -> List[ExtractionResult]:
    """Sliding-window description timeline over a long video
    ``(T, C, H, W)`` — one result per window with its frame range.

    ``cache`` is a prebuilt :class:`ExtractionCache` or a directory
    path; windows whose content was described before (under the same
    model version / vocabulary / threshold) skip the forward pass.
    (``cache_dir=`` is the deprecated spelling of ``cache=<path>``.)
    The whole timeline shares one correlation context (one trace id for
    the video; see :func:`extract_clip`).
    """
    with _obs_context.bind(next(_api_request_ids)):
        return cached_extract_sliding(_as_extractor(source),
                                      np.asarray(video), window=window,
                                      stride=stride,
                                      cache=_as_cache(cache, cache_dir))


def mine(source: ExtractorSource, clips: np.ndarray,
         query: Optional[ScenarioDescription] = None,
         top_k: int = 5, min_score: float = 0.0,
         cache: CacheLike = None,
         cache_dir: Optional[str] = None,
         **tags) -> List[MiningHit]:
    """Search a corpus ``(N, T, C, H, W)`` for a scenario.

    The query is either a full :class:`ScenarioDescription` or keyword
    tags (``ego_action="stop"``, ``actors={"pedestrian"}`` ...).  Clips
    are ranked by SDL similarity between the query and each clip's
    *extracted* description.  Pass ``cache=`` (an
    :class:`ExtractionCache` or a directory path; ``cache_dir=`` is the
    deprecated spelling) to reuse descriptions across calls: mining an
    already-cached corpus performs zero extractor forward passes (see
    ``docs/caching.md``).
    """
    if query is not None and tags:
        raise ValueError("pass either query or tags, not both")
    extractor = _as_extractor(source)
    miner = ScenarioMiner(extractor, cache=_as_cache(cache, cache_dir))
    miner.index(np.asarray(clips))
    if query is not None:
        return miner.query(query, top_k=top_k, min_score=min_score)
    return miner.query_tags(top_k=top_k, min_score=min_score, **tags)


def build_corpus(clips: np.ndarray, corpus_dir: Union[str, "os.PathLike"],
                 shard_size: int = 64,
                 families: Optional[Sequence[str]] = None
                 ) -> Dict[str, int]:
    """Materialise clips ``(N, T, C, H, W)`` as a sharded on-disk corpus
    (one memory-mappable ``shard-NNNN/clips.npy`` float32 array per
    shard, plus ``families.json`` when ``families`` is given) for
    out-of-core mining.  ``corpus_dir`` must not already hold shards.

    The layout :func:`mine_corpus` and ``repro mine --corpus-dir``
    consume; see ``docs/mining.md``.  Returns ``{"shards", "clips"}``.
    """
    return _fleet_write_corpus(np.asarray(clips), os.fspath(corpus_dir),
                               shard_size=shard_size, families=families)


def mine_corpus(source: ExtractorSource,
                corpus_dir: Union[str, "os.PathLike"],
                query: Optional[ScenarioDescription] = None,
                top_k: int = 5, min_score: float = 0.0,
                store_dir: Optional[str] = None,
                cache: CacheLike = None,
                heartbeat_s: float = 5.0,
                on_progress=None,
                **tags) -> Tuple[List[MiningHit], FleetStats]:
    """Out-of-core :func:`mine` over a sharded corpus directory.

    Walks the corpus shard by shard (one shard's clips in memory at a
    time), persists per-shard tag stores keyed on the extractor
    fingerprint, and answers the query from the stacked SDL vectors of
    those stores — top-k results are bit-identical to :func:`mine` over the
    same clips.  Re-running skips every already-persisted shard, so an
    interrupted run resumes with zero repeat forward passes.  Returns
    ``(hits, stats)`` where ``stats`` reports shards scanned / skipped
    / extracted.  ``fleet_progress`` heartbeats (event log, the
    store's telemetry ring, ``on_progress``) fire every
    ``heartbeat_s`` seconds (see ``docs/mining.md``).
    """
    extractor = _as_extractor(source)
    return _fleet_mine_corpus(extractor, os.fspath(corpus_dir),
                              query=query, top_k=top_k,
                              min_score=min_score, store_dir=store_dir,
                              cache=_as_cache(cache, None),
                              heartbeat_s=heartbeat_s,
                              on_progress=on_progress, **tags)


def retrieve(source: ExtractorSource, clips: np.ndarray,
             query: ScenarioDescription, top_k: int = 5,
             cache: CacheLike = None,
             cache_dir: Optional[str] = None) -> List[int]:
    """Text→video retrieval: clip indices of ``(N, T, C, H, W)`` ranked
    by SDL-embedding similarity between ``query`` and each clip's
    extracted description.  ``cache=`` (instance or directory path)
    reuses descriptions exactly as in :func:`mine`."""
    extractor = _as_extractor(source)
    index = RetrievalIndex(extractor=extractor,
                           cache=_as_cache(cache, cache_dir))
    index.add_clips(np.asarray(clips))
    return index.query(query, top_k=top_k)


def serve(source: ExtractorSource,
          config: Union[ServiceConfig, dict, None] = None,
          *,
          workers: int = 1,
          cache: CacheLike = None,
          cache_dir: Optional[str] = None,
          events: EventsLike = None,
          events_dir: Optional[str] = None,
          slo: Optional[Union[SLOConfig, SLOTracker]] = None,
          quality: Optional[Union[QualityConfig, QualityMonitor]] = None,
          precision: Optional[str] = None,
          **config_kwargs) -> Union[ExtractionService, ServicePool]:
    """A started extraction service over ``source``.

    ``workers=1`` (default) returns an in-process
    :class:`ExtractionService`; ``workers=N`` returns a
    :class:`~repro.serve.pool.ServicePool` of N process-based replicas
    behind a deterministic content-hash shard router — a drop-in with
    the same ``submit`` / ``extract`` / ``reload`` / ``health`` /
    ``stop`` surface (see ``docs/serving.md``).

    ``config`` is a prebuilt :class:`ServiceConfig`, a dict of its
    fields, or omitted with the fields passed as keyword arguments
    (``max_batch``, ``max_wait_s``, ``max_queue`` ...).  ``cache``
    attaches an extraction cache — pass a prebuilt
    :class:`ExtractionCache` or a directory path; with a pool, each
    worker opens its own shard store under that directory.  ``events``
    (an :class:`~repro.obs.events.EventLog` or a directory path)
    records request lifecycles (``repro top --from-events`` reads it
    live); ``slo`` configures the burn-rate objectives reported by
    ``health()``; ``quality`` (a
    :class:`~repro.obs.quality.QualityConfig` or prebuilt monitor)
    turns on model-quality observability — scorecards, drift alerts
    and the canary gate on ``reload()`` (refusals raise
    :class:`~repro.obs.quality.CanaryRefusedError`).  The old
    ``cache_dir=`` / ``events_dir=`` spellings still work with a
    ``DeprecationWarning``.

    ``precision`` selects the inference path of the served model and
    only applies when the service builds the extractor (model or
    checkpoint source); passing it alongside a prebuilt
    :class:`ScenarioExtractor` whose precision differs raises
    ``ValueError`` instead of silently serving the extractor's own.

    Use as a context manager or call ``.stop()``; pair with
    :class:`ServiceClient` for bursts.
    """
    config = _as_config(config, config_kwargs)
    events = _as_events(events, events_dir)
    resolved_cache = _as_cache(cache, cache_dir)
    if isinstance(source, ScenarioExtractor):
        if (precision is not None
                and precision != getattr(source, "precision", "fp32")):
            raise ValueError(
                f"precision={precision!r} conflicts with the prebuilt "
                f"extractor's precision="
                f"{getattr(source, 'precision', 'fp32')!r}; rebuild it "
                f"via load_extractor(..., precision={precision!r}) or "
                f"pass the model/checkpoint instead"
            )
    elif precision is not None:
        source = load_extractor(source, precision=precision)
    extractor = _as_extractor(source)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    common = dict(cache=resolved_cache, events=events, slo=slo,
                  quality=quality)
    if workers > 1:
        return ServicePool(extractor, config, workers=workers,
                           **common).start()
    return ExtractionService(extractor, config, **common).start()


__all__ = [
    "CanaryRefusedError",
    "DriftConfig",
    "EventLog",
    "ExtractionCache",
    "ExtractionResult",
    "ExtractionService",
    "QualityConfig",
    "QualityMonitor",
    "SLOConfig",
    "MiningHit",
    "RetrievalIndex",
    "ScenarioDescription",
    "ScenarioExtractor",
    "ScenarioMiner",
    "ServiceClient",
    "ServiceConfig",
    "ServicePool",
    "build_corpus",
    "extract_clip",
    "extract_video",
    "load_extractor",
    "mine",
    "mine_corpus",
    "retrieve",
    "retrieval_metrics",
    "serve",
]
