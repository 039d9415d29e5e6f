"""Model efficiency accounting: parameters, FLOP estimates, throughput.

FLOP numbers are analytic *estimates* of forward multiply-add pairs
(counted as 2 FLOPs), good to within the usual factor used for
architecture comparison plots; they deliberately ignore softmax,
normalisation and activation costs.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
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
    """Measured inference throughput (clips/s) and per-clip latency."""
    cfg: ModelConfig = model.config
    rng = np.random.default_rng(seed)
    clips = rng.random(
        (batch_size, cfg.frames, cfg.channels, cfg.height, cfg.width)
    ).astype(np.float32)
    model.eval()
    with no_grad():
        model(Tensor(clips))  # warm-up
        start = time.perf_counter()
        for _ in range(repeats):
            model(Tensor(clips))
        elapsed = time.perf_counter() - start
    per_clip = elapsed / (repeats * batch_size)
    return {
        "clips_per_s": 1.0 / per_clip,
        "ms_per_clip": per_clip * 1000.0,
    }


def batch_scaling(model: Module, batch_sizes=(1, 4, 16),
                  repeats: int = 2, seed: int = 0
                  ) -> Dict[int, Dict[str, float]]:
    """Inference throughput as a function of batch size.

    Maps each batch size to its :func:`measure_throughput` dict —
    the curve behind ``extract_batch``'s batching win: per-clip latency
    falls as fixed per-forward Python dispatch amortises over more
    clips (see ``docs/performance.md``).
    """
    return {
        int(bs): measure_throughput(model, batch_size=int(bs),
                                    repeats=repeats, seed=seed)
        for bs in batch_sizes
    }


def service_scaling(model: Module, requests: int = 32,
                    concurrency=(1, 4, 8), max_batch: int = 8,
                    max_wait_s: float = 0.002,
                    seed: int = 0, workers=()) -> Dict[str, object]:
    """Served throughput/latency as a function of caller concurrency.

    Compares the serving stack (micro-batched
    :class:`~repro.serve.service.ExtractionService` behind concurrent
    :class:`~repro.serve.client.ServiceClient` callers) against serial
    one-clip-at-a-time ``extract`` — the extraction-as-a-service
    counterpart of :func:`batch_scaling`.  At concurrency 1 the service
    adds queue/handoff overhead; as concurrency grows the micro-batcher
    coalesces requests and per-clip latency approaches the batched
    floor.

    ``workers`` additionally measures the sharded
    :class:`~repro.serve.pool.ServicePool` at each listed width — the
    horizontal-scaling curve.  Each width serves the *same* burst of
    distinct random clips (distinct content hashes spread evenly over
    the shards; cycling a handful of clips would starve some ranks),
    after a warm-up burst excluded from timing, and ``speedup`` is
    reported against the first listed width — so passing ``(1, 2, 4)``
    measures pool-vs-pool with the IPC overhead in both numerator and
    denominator, which is the number the CI near-linear gate bounds.

    Returns ``{"serial": {...}, "service": {level: {...}}}`` (plus
    ``"pool": {width: {...}}`` when ``workers`` is non-empty) where
    each entry reports ``clips_per_s`` / ``ms_per_clip`` (and per-level
    ``mean_batch_size`` plus latency percentiles for the service).
    """
    from repro.core.pipeline import ScenarioExtractor
    from repro.serve import (
        BATCH_SIZE_BUCKETS,
        ExtractionService,
        ServiceClient,
        ServiceConfig,
    )

    cfg: ModelConfig = model.config
    rng = np.random.default_rng(seed)
    clips = rng.random(
        (requests, cfg.frames, cfg.channels, cfg.height, cfg.width)
    ).astype(np.float32)
    extractor = ScenarioExtractor(model)
    extractor.extract(clips[0])  # warm-up

    start = time.perf_counter()
    for clip in clips:
        extractor.extract(clip)
    serial_elapsed = time.perf_counter() - start
    serial = {
        "clips_per_s": requests / serial_elapsed,
        "ms_per_clip": serial_elapsed / requests * 1000.0,
    }

    from repro.obs import metrics

    per_level: Dict[int, Dict[str, float]] = {}
    for level in concurrency:
        batch_hist = metrics.histogram("serve.batch_size",
                                       bounds=BATCH_SIZE_BUCKETS)
        batches_before = batch_hist.count
        size_before = batch_hist.sum
        config = ServiceConfig(max_batch=max_batch,
                               max_wait_s=max_wait_s,
                               max_queue=max(requests, 1))
        with ExtractionService(extractor, config) as service:
            client = ServiceClient(service)
            start = time.perf_counter()
            results = client.extract_many(list(clips),
                                          concurrency=int(level))
            elapsed = time.perf_counter() - start
        latencies = sorted(r.latency_s for r in results)
        batches = batch_hist.count - batches_before
        per_level[int(level)] = {
            "clips_per_s": requests / elapsed,
            "ms_per_clip": elapsed / requests * 1000.0,
            "p50_latency_ms": latencies[len(latencies) // 2] * 1000.0,
            "p95_latency_ms":
                latencies[int(0.95 * (len(latencies) - 1))] * 1000.0,
            "mean_batch_size": ((batch_hist.sum - size_before) / batches
                                if batches else 0.0),
        }
    report: Dict[str, object] = {"serial": serial, "service": per_level}
    if workers:
        from repro.serve.pool import ServicePool

        pool_rng = np.random.default_rng(seed + 1)
        pool_clips = pool_rng.random(
            (requests, cfg.frames, cfg.channels, cfg.height, cfg.width)
        ).astype(np.float32)
        burst_concurrency = min(requests, 32)
        per_width: Dict[int, Dict[str, float]] = {}
        baseline = None
        for width in workers:
            config = ServiceConfig(max_batch=max_batch,
                                   max_wait_s=max_wait_s,
                                   max_queue=max(requests, 1))
            with ServicePool(model, config, workers=int(width)) as pool:
                client = ServiceClient(pool)
                # Warm-up burst (first forward pays one-time numpy
                # initialisation per process) — excluded from timing.
                warm = pool_clips[:min(requests, 4 * int(width))]
                client.extract_many(list(warm),
                                    concurrency=burst_concurrency)
                start = time.perf_counter()
                client.extract_many(list(pool_clips),
                                    concurrency=burst_concurrency)
                elapsed = time.perf_counter() - start
            entry = {
                "clips_per_s": requests / elapsed,
                "ms_per_clip": elapsed / requests * 1000.0,
            }
            if baseline is None:
                baseline = entry["clips_per_s"]
            entry["speedup"] = (entry["clips_per_s"] / baseline
                                if baseline else 0.0)
            per_width[int(width)] = entry
        report["pool"] = per_width
    return report


def observability_overhead(model: Module, requests: int = 32,
                           concurrency: int = 8, max_batch: int = 8,
                           max_wait_s: float = 0.002,
                           seed: int = 0) -> Dict[str, object]:
    """Serving throughput with observability off vs. on.

    Runs the same burst through :class:`ExtractionService` three times
    — bare, with an :class:`~repro.obs.events.EventLog` recording
    every request lifecycle to disk, and with the full
    :class:`~repro.obs.quality.QualityMonitor` on top (scorecards,
    drift windows, canary reservoir) — and reports the throughput of
    each arm plus the measured overhead ratios and per-request event
    count.  These are the numbers behind the "observability is cheap
    enough to leave on" claim in ``docs/observability.md``; the bare
    arm doubles as the <5% disabled-overhead guard in CI.
    """
    import tempfile

    from repro.core.pipeline import ScenarioExtractor
    from repro.obs.events import EventLog
    from repro.obs.quality import QualityConfig
    from repro.serve import ExtractionService, ServiceClient, ServiceConfig

    cfg: ModelConfig = model.config
    rng = np.random.default_rng(seed)
    clips = rng.random(
        (requests, cfg.frames, cfg.channels, cfg.height, cfg.width)
    ).astype(np.float32)
    extractor = ScenarioExtractor(model)
    extractor.extract(clips[0])  # warm-up
    config = ServiceConfig(max_batch=max_batch, max_wait_s=max_wait_s,
                           max_queue=max(requests, 1))

    def run(events, quality=None) -> float:
        with ExtractionService(extractor, config, events=events,
                               quality=quality) as service:
            client = ServiceClient(service)
            start = time.perf_counter()
            client.extract_many(list(clips), concurrency=concurrency)
            return time.perf_counter() - start

    bare_elapsed = run(None)
    with tempfile.TemporaryDirectory() as tmp:
        log = EventLog(tmp)
        events_elapsed = run(log)
        emitted = log.stats()["events"]
    quality_config = QualityConfig(window=max(requests // 2, 1))
    with tempfile.TemporaryDirectory() as tmp:
        quality_elapsed = run(EventLog(tmp), quality=quality_config)
    return {
        "requests": requests,
        "bare_clips_per_s": requests / bare_elapsed,
        "events_clips_per_s": requests / events_elapsed,
        "quality_clips_per_s": requests / quality_elapsed,
        "overhead_ratio": (events_elapsed / bare_elapsed
                           if bare_elapsed else 0.0),
        "quality_overhead_ratio": (quality_elapsed / bare_elapsed
                                   if bare_elapsed else 0.0),
        "events_emitted": emitted,
        "events_per_request": emitted / requests if requests else 0.0,
    }


def telemetry_overhead(model: Module, requests: int = 24,
                       workers: int = 2, max_batch: int = 8,
                       max_wait_s: float = 0.002,
                       telemetry_interval_s: float = 0.25,
                       seed: int = 0) -> Dict[str, object]:
    """Pool throughput with the telemetry plane off vs. on.

    Runs the same burst of distinct random clips through a
    :class:`~repro.serve.pool.ServicePool` twice — once with
    ``telemetry_interval_s=None`` (workers ship nothing home) and once
    at the given shipping cadence (workers snapshot their registry,
    drain their event ring and put ``("telemetry", ...)`` frames on the
    result queue; the parent merges them under ``worker=<rank>``
    labels) — and reports both throughputs plus the overhead ratio.
    A warm-up burst per arm is excluded from timing, mirroring
    :func:`service_scaling`.  This is the number behind the "shipping
    worker metrics home is cheap enough to leave on" claim in
    ``docs/observability.md``; CI gates it below 5%.
    """
    from repro.core.pipeline import ScenarioExtractor  # noqa: F401
    from repro.serve import ServiceClient, ServiceConfig
    from repro.serve.pool import ServicePool

    cfg: ModelConfig = model.config
    rng = np.random.default_rng(seed)
    clips = rng.random(
        (requests, cfg.frames, cfg.channels, cfg.height, cfg.width)
    ).astype(np.float32)
    config = ServiceConfig(max_batch=max_batch, max_wait_s=max_wait_s,
                           max_queue=max(requests, 1))
    burst_concurrency = min(requests, 32)

    def run(interval) -> float:
        with ServicePool(model, config, workers=workers,
                         telemetry_interval_s=interval) as pool:
            client = ServiceClient(pool)
            warm = clips[:min(requests, 4 * workers)]
            client.extract_many(list(warm),
                                concurrency=burst_concurrency)
            start = time.perf_counter()
            client.extract_many(list(clips),
                                concurrency=burst_concurrency)
            return time.perf_counter() - start

    off_elapsed = run(None)
    on_elapsed = run(telemetry_interval_s)
    return {
        "requests": requests,
        "workers": workers,
        "telemetry_interval_s": telemetry_interval_s,
        "off_clips_per_s": requests / off_elapsed,
        "on_clips_per_s": requests / on_elapsed,
        "overhead_ratio": (on_elapsed / off_elapsed
                           if off_elapsed else 0.0),
    }


def cache_reuse_curve(model: Module, corpus_size: int = 12,
                      reuse_fractions=(0.0, 0.5, 1.0),
                      seed: int = 0) -> Dict[float, Dict[str, float]]:
    """Cache hit rate and extraction throughput vs. corpus reuse.

    The mining workload re-describes largely overlapping corpora: each
    query-over-corpus pass shares most clips with the last.  This curve
    quantifies the payoff of the persistent extraction cache
    (``docs/caching.md``): a base corpus is described once to prime an
    :class:`~repro.core.cache.ExtractionCache`, then for each reuse
    fraction ``f`` a new corpus containing ``f * corpus_size`` primed
    clips (rest fresh) is extracted through the cache.

    Maps each fraction to ``hit_rate`` (measured, equals ``f``),
    ``clips_per_s`` and ``ms_per_clip`` — at full reuse no forward pass
    runs at all, the regime the second identical ``repro mine``
    invocation hits.
    """
    from repro.core.cache import ExtractionCache, cached_extract_batch
    from repro.core.pipeline import ScenarioExtractor

    cfg: ModelConfig = model.config
    rng = np.random.default_rng(seed)
    shape = (corpus_size, cfg.frames, cfg.channels, cfg.height,
             cfg.width)
    base = rng.random(shape).astype(np.float32)
    extractor = ScenarioExtractor(model)
    cache = ExtractionCache()
    cached_extract_batch(extractor, base, cache)  # prime

    curve: Dict[float, Dict[str, float]] = {}
    for fraction in reuse_fractions:
        reused = int(round(float(fraction) * corpus_size))
        fresh = rng.random(shape).astype(np.float32)[reused:]
        corpus = np.concatenate([base[:reused], fresh]) if reused \
            else fresh
        hits_before, misses_before = cache.hits, cache.misses
        start = time.perf_counter()
        cached_extract_batch(extractor, corpus, cache)
        elapsed = time.perf_counter() - start
        lookups = (cache.hits - hits_before
                   + cache.misses - misses_before)
        curve[float(fraction)] = {
            "hit_rate": ((cache.hits - hits_before) / lookups
                         if lookups else 0.0),
            "clips_per_s": corpus_size / elapsed if elapsed else 0.0,
            "ms_per_clip": elapsed / corpus_size * 1000.0,
        }
    return curve


def measured_profile(model: Module, batch_size: int = 8,
                     repeats: int = 2, seed: int = 0,
                     autograd_ops: bool = False) -> Dict[str, object]:
    """Measured per-stage forward breakdown via ``repro.obs`` spans.

    Complements :func:`estimate_flops` (analytic) and
    :func:`measure_throughput` (end-to-end measured) with the *measured
    split* across instrumented stages — e.g. spatial vs. temporal
    attention of a divided video transformer.  Resets the global
    telemetry state and leaves telemetry in the enabled/disabled state
    it found.  With ``autograd_ops=True`` per-op timers are patched in
    too (slower, but adds an op-level breakdown).
    """
    from repro import obs

    cfg: ModelConfig = model.config
    rng = np.random.default_rng(seed)
    clips = rng.random(
        (batch_size, cfg.frames, cfg.channels, cfg.height, cfg.width)
    ).astype(np.float32)
    model.eval()
    was_enabled = obs.is_enabled()
    obs.enable(autograd=autograd_ops)
    try:
        with no_grad():
            model(Tensor(clips))  # warm-up
            obs.reset()
            start = time.perf_counter()
            for _ in range(repeats):
                model(Tensor(clips))
            elapsed = time.perf_counter() - start
        stages = obs.flatten_trace()
        ops = obs.instrument.op_totals() if autograd_ops else {}
    finally:
        if not was_enabled:
            obs.disable()
        obs.reset()
    per_clip = elapsed / (repeats * batch_size)
    return {
        "clips_per_s": 1.0 / per_clip,
        "ms_per_clip": per_clip * 1000.0,
        "stages": {
            name: {
                "calls": int(info["count"]),
                "ms_total": info["total_seconds"] * 1e3,
                "share": (info["total_seconds"] / elapsed
                          if elapsed > 0 else 0.0),
            }
            for name, info in sorted(stages.items())
        },
        "autograd_ops": ops,
    }


def precision_profile(model: Module, batch_size: int = 16,
                      repeats: int = 3, seed: int = 0,
                      precisions=("fp32", "fp16", "int8")
                      ) -> Dict[str, object]:
    """Per-precision no-grad extraction latency for one model.

    Times :meth:`ScenarioExtractor.logits` end to end for each
    requested precision on the same synthetic clips — all three run
    the fused inference engine, fp16/int8 with smaller stored weights —
    and reports the stored-weight footprint of the projections.
    Speedups are relative to fp32.
    """
    from repro.core.pipeline import ScenarioExtractor

    cfg: ModelConfig = model.config
    rng = np.random.default_rng(seed)
    clips = rng.random(
        (batch_size, cfg.frames, cfg.channels, cfg.height, cfg.width)
    ).astype(np.float32)
    report: Dict[str, object] = {"batch_size": batch_size}
    for precision in precisions:
        extractor = ScenarioExtractor(model, precision=precision,
                                      batch_size=batch_size)
        extractor.logits(clips)  # warm-up
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            extractor.logits(clips)
            best = min(best, time.perf_counter() - start)
        per_clip = best / batch_size
        report[f"{precision}_ms_per_clip"] = per_clip * 1e3
        if extractor._engine is not None:
            size = extractor._engine.weight_bytes()
            report[f"{precision}_weight_bytes"] = size["stored"]
            report.setdefault("fp32_weight_bytes", size["fp32"])
    fp32 = report.get("fp32_ms_per_clip")
    if fp32:
        for precision in precisions:
            key = f"{precision}_ms_per_clip"
            if precision != "fp32" and key in report:
                report[f"{precision}_speedup"] = fp32 / report[key]
    if "int8_weight_bytes" in report:
        report["int8_weight_compression"] = (
            report["fp32_weight_bytes"] / report["int8_weight_bytes"])
    return report


def sliding_reuse_profile(model: Module, video_frames: int = 192,
                          stride: Optional[int] = None,
                          precision: str = "fp32", repeats: int = 1,
                          seed: int = 0) -> Dict[str, object]:
    """Naive vs memoized sliding-window extraction on a long video.

    Times :meth:`ScenarioExtractor.extract_sliding` with ``reuse=False``
    (bounded chunks, no memo) against ``reuse=True`` (per-frame
    activations memoized by content hash) at the given overlap, checks
    that the two timelines decode identically, and reports the frame
    memo accounting.  Default stride is ``window / 4`` — the overlap
    the CI perf gate asserts.
    """
    from repro.core.pipeline import ScenarioExtractor

    cfg: ModelConfig = model.config
    window = cfg.frames
    if stride is None:
        stride = max(1, window // 4)
    rng = np.random.default_rng(seed)
    video = rng.random(
        (video_frames, cfg.channels, cfg.height, cfg.width)
    ).astype(np.float32)
    extractor = ScenarioExtractor(model, precision=precision)
    n_windows = len(ScenarioExtractor.window_starts(video, window,
                                                    stride))

    def _time(reuse: bool) -> float:
        extractor._frame_memo.clear()
        extractor.extract_sliding(video, window, stride, reuse=reuse)
        best = float("inf")
        for _ in range(repeats):
            extractor._frame_memo.clear()
            start = time.perf_counter()
            extractor.extract_sliding(video, window, stride,
                                      reuse=reuse)
            best = min(best, time.perf_counter() - start)
        return best

    naive_s = _time(reuse=False)
    memo_s = _time(reuse=True)
    extractor._frame_memo.clear()
    extractor._reuse_hits = extractor._reuse_misses = 0
    naive = extractor.extract_sliding(video, window, stride,
                                      reuse=False)
    memoized = extractor.extract_sliding(video, window, stride,
                                         reuse=True)
    identical = all(
        a.description == b.description
        and a.sentence == b.sentence
        and a.confidences == b.confidences
        and a.frame_range == b.frame_range
        and a.tag_confidences == b.tag_confidences
        for a, b in zip(naive, memoized)
    ) and len(naive) == len(memoized)
    stats = extractor.reuse_stats()
    return {
        "precision": precision,
        "video_frames": video_frames,
        "window": window,
        "stride": stride,
        "windows": n_windows,
        "naive_seconds": naive_s,
        "memoized_seconds": memo_s,
        "reuse_speedup": naive_s / memo_s if memo_s > 0 else 0.0,
        "frame_hits": stats["frame_hits"],
        "frame_misses": stats["frame_misses"],
        "frame_hit_rate": stats["hit_rate"],
        "bitwise_identical": bool(identical),
    }


def fleet_scaling(model: Module, corpus_sizes=(8, 16, 32),
                  shard_size: int = 8, top_k: int = 5,
                  seed: int = 0) -> Dict[int, Dict[str, object]]:
    """Out-of-core mining cost as a function of corpus size.

    For each corpus size, materialises a sharded on-disk corpus
    (:func:`~repro.core.fleet.write_corpus`), times the shard-by-shard
    extraction pass (:func:`~repro.core.fleet.extract_corpus`), a
    resumed re-run of the same pass (pure skip — the resumability cost
    floor), and a query through the memory-mapped
    :class:`~repro.core.fleet.FleetIndex`, and checks the fleet top-k
    against the in-memory :class:`~repro.core.mining.ScenarioMiner` on
    the same clips.  The interesting shape: extraction scales linearly
    with corpus size while the resumed pass and per-query cost stay
    near-flat — the curve behind the "corpus never needs to fit in
    memory" claim of ``docs/mining.md``.
    """
    import shutil
    import tempfile

    from repro.core import fleet
    from repro.core.mining import ScenarioMiner
    from repro.core.pipeline import ScenarioExtractor
    from repro.sdl.description import ScenarioDescription

    cfg: ModelConfig = model.config
    rng = np.random.default_rng(seed)
    extractor = ScenarioExtractor(model)
    query = ScenarioDescription(scene="intersection",
                                ego_action="turn-left",
                                actors=frozenset({"pedestrian"}),
                                actor_actions=frozenset({"crossing"}))
    curve: Dict[int, Dict[str, object]] = {}
    for size in corpus_sizes:
        clips = rng.random(
            (int(size), cfg.frames, cfg.channels, cfg.height, cfg.width)
        ).astype(np.float32)
        tmp = tempfile.mkdtemp(prefix="repro-fleet-scaling-")
        try:
            fleet.write_corpus(clips, tmp, shard_size=shard_size)
            start = time.perf_counter()
            stats = fleet.extract_corpus(extractor, tmp)
            extract_s = time.perf_counter() - start
            start = time.perf_counter()
            resumed = fleet.extract_corpus(extractor, tmp)
            resume_s = time.perf_counter() - start
            index = fleet.FleetIndex.open(tmp, extractor)
            start = time.perf_counter()
            fleet_hits = index.query(query, top_k=top_k)
            query_s = time.perf_counter() - start
            miner = ScenarioMiner(extractor)
            miner.index(clips)
            memory_hits = miner.query(query, top_k=top_k)
            curve[int(size)] = {
                "shards": stats.shards,
                "extract_s": extract_s,
                "extract_clips_per_s": (size / extract_s
                                        if extract_s else 0.0),
                "resume_s": resume_s,
                "resume_shards_skipped": resumed.shards_skipped,
                "query_ms": query_s * 1000.0,
                "parity": ([(h.clip_id, h.score) for h in fleet_hits]
                           == [(h.clip_id, h.score)
                               for h in memory_hits]),
            }
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return curve


def quantized_accuracy_delta(model: Module, dataset,
                             threshold: float = 0.5,
                             precisions=("fp16", "int8"),
                             calibration: Optional[np.ndarray] = None
                             ) -> Dict[str, object]:
    """Table-1-style accuracy of quantized extraction vs fp32.

    Runs the full extractor (not the trainer) over ``dataset`` at each
    precision and scores the same metric suite as
    :meth:`Trainer.evaluate`; reports per-precision metrics plus the
    macro-F1 drop in *points* (×100) against fp32 — the number the CI
    accuracy gate bounds.  ``calibration`` defaults to a slice of the
    evaluated clips, mimicking a deployment calibrating on sample
    footage.
    """
    from repro.core.pipeline import ScenarioExtractor
    from repro.train.metrics import (
        accuracy,
        multilabel_prf,
    )

    def _sigmoid(x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    if calibration is None:
        calibration = dataset.videos[:4]
    targets = dataset.targets
    report: Dict[str, object] = {}
    scores: Dict[str, Dict[str, float]] = {}
    for precision in ("fp32",) + tuple(precisions):
        extractor = ScenarioExtractor(
            model, threshold=threshold, precision=precision,
            calibration=None if precision == "fp32" else calibration)
        logits = extractor.logits(dataset.videos)
        actors = multilabel_prf(_sigmoid(logits["actors"]),
                                targets["actors"], threshold)
        actions = multilabel_prf(_sigmoid(logits["actor_actions"]),
                                 targets["actor_actions"], threshold)
        scores[precision] = {
            "scene_acc": accuracy(logits["scene"], targets["scene"]),
            "ego_acc": accuracy(logits["ego_action"],
                                targets["ego_action"]),
            "actors_macro_f1": actors["macro_f1"],
            "actions_macro_f1": actions["macro_f1"],
        }
    report["metrics"] = scores
    base = scores["fp32"]
    for precision in precisions:
        cur = scores[precision]
        report[f"{precision}_macro_f1_drop_pts"] = 100.0 * max(
            base["actors_macro_f1"] - cur["actors_macro_f1"],
            base["actions_macro_f1"] - cur["actions_macro_f1"],
        )
        report[f"{precision}_scene_acc_drop_pts"] = 100.0 * (
            base["scene_acc"] - cur["scene_acc"])
        report[f"{precision}_ego_acc_drop_pts"] = 100.0 * (
            base["ego_acc"] - cur["ego_acc"])
    return report
