"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
- ``generate`` — build a SynthDrive dataset and save it to ``.npz``, or
  (``--corpus-dir``) materialise it as a sharded on-disk corpus layout
  for out-of-core mining (see ``docs/mining.md``).
- ``train`` — train a model on a dataset file and save a checkpoint.
- ``extract`` — run a trained model over a dataset and print sentences.
- ``evaluate`` — full SDL metric suite of a checkpoint on a dataset.
- ``mine`` — cache-backed corpus mining: JSONL export ranked by
  criticality plus optional tag queries; ``--cache-dir`` persists the
  extraction cache so re-runs skip the model entirely
  (see ``docs/caching.md``).  With ``--corpus-dir`` instead of
  ``--data``, mining runs **out of core** over a sharded corpus layout:
  shards are extracted one at a time into per-shard tag stores, re-runs
  skip every already-persisted shard, and queries go through one
  stacked SDL-vector matrix (see ``docs/mining.md``).
- ``serve`` — run the fault-tolerant micro-batching extraction service
  against a dataset burst and report per-status accounting; with
  ``--events-dir`` every request lifecycle is recorded to a structured
  event log (see ``docs/serving.md``); ``--quality`` adds streaming
  quality scorecards + drift alerts, and ``--canary-checkpoint``
  attempts a canary-gated hot reload after the burst.
- ``top`` — dashboard over a recorded (or live, ``--follow``) event
  log: throughput, queue depth, batching, breaker state, cache hit
  rate, firing SLO alerts and the quality panel (windows, drift
  alerts, canary verdicts); ``--json`` prints one ``repro.top/v1``
  snapshot for CI (see ``docs/observability.md``).

Checkpoints are self-describing (``repro.checkpoint/v1``): ``extract``,
``evaluate``, ``mine`` and ``serve`` rebuild the model from checkpoint
metadata alone.  The ``--model/--dim/--depth/--heads`` flags remain as
deprecated overrides for those commands — validated against the
metadata when both are present — and still define the architecture for
legacy weights-only checkpoints.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from repro.core import ScenarioExtractor
from repro.data import SynthDriveConfig, SynthDriveDataset, generate_dataset
from repro.models import MODEL_REGISTRY, ModelConfig, build_model
from repro.train import TrainConfig, Trainer

#: Historical architecture defaults, applied only to legacy checkpoints
#: saved before checkpoint metadata existed.
_LEGACY_DEFAULTS = {"model": "vt-divided", "dim": 48, "depth": 2,
                    "heads": 4}


def _add_precision_arg(parser: argparse.ArgumentParser) -> None:
    """``--precision`` for extraction commands (docs/performance.md):
    video transformers run the fused inference engine at every
    precision — fp32 bit-identical to the autograd forward, fp16/int8
    as smaller weight memory formats."""
    from repro.core.pipeline import PRECISIONS

    parser.add_argument("--precision", choices=PRECISIONS,
                        default="fp32",
                        help="no-grad inference precision; int8 "
                             "calibrates activation scales on synthetic "
                             "clips at load time")


def _add_model_args(parser: argparse.ArgumentParser,
                    for_training: bool = False) -> None:
    """Model-shape flags.

    For ``train`` they define the architecture (with defaults).  For
    checkpoint-consuming commands they default to ``None``: the
    checkpoint's own metadata wins, and explicit values are deprecated,
    validated overrides.
    """
    if for_training:
        parser.add_argument("--model", default=_LEGACY_DEFAULTS["model"],
                            choices=sorted(MODEL_REGISTRY))
        parser.add_argument("--dim", type=int,
                            default=_LEGACY_DEFAULTS["dim"])
        parser.add_argument("--depth", type=int,
                            default=_LEGACY_DEFAULTS["depth"])
        parser.add_argument("--heads", type=int,
                            default=_LEGACY_DEFAULTS["heads"])
        return
    help_suffix = ("(deprecated: self-describing checkpoints make this "
                   "unnecessary; validated against metadata if given)")
    parser.add_argument("--model", default=None,
                        choices=sorted(MODEL_REGISTRY),
                        help=f"model family {help_suffix}")
    parser.add_argument("--dim", type=int, default=None,
                        help=f"embedding dim {help_suffix}")
    parser.add_argument("--depth", type=int, default=None,
                        help=f"encoder depth {help_suffix}")
    parser.add_argument("--heads", type=int, default=None,
                        help=f"attention heads {help_suffix}")


def _model_config(args, frames: int) -> ModelConfig:
    return ModelConfig(frames=frames, dim=args.dim, depth=args.depth,
                       num_heads=args.heads, seed=args.seed)


def cmd_generate(args) -> int:
    """``generate``: build a SynthDrive dataset and save it either as
    one ``.npz`` file (``--out``) or as a sharded on-disk corpus layout
    (``--corpus-dir``, consumed by ``mine --corpus-dir``)."""
    if bool(args.out) == bool(args.corpus_dir):
        print("error: pass exactly one of --out or --corpus-dir",
              file=sys.stderr)
        return 2
    config = SynthDriveConfig(num_clips=args.clips, frames=args.frames,
                              seed=args.seed, view=args.view,
                              ambient_traffic=args.ambient)
    dataset = generate_dataset(config, workers=args.workers)
    if args.corpus_dir:
        from repro.core.fleet import write_corpus

        info = write_corpus(dataset.videos, args.corpus_dir,
                            shard_size=args.shard_size,
                            families=dataset.families)
        print(f"wrote {info['clips']} clips "
              f"({dataset.videos.shape[1:]} each) to {info['shards']} "
              f"shards under {args.corpus_dir}")
        return 0
    dataset.save(args.out)
    print(f"wrote {len(dataset)} clips "
          f"({dataset.videos.shape[1:]} each) to {args.out}")
    return 0


def cmd_train(args) -> int:
    """``train``: fit a model on a dataset file, save a checkpoint."""
    dataset = SynthDriveDataset.load(args.data)
    train_set, val_set, _ = dataset.split(seed=args.seed)
    frames = dataset.videos.shape[1]
    model = build_model(args.model, _model_config(args, frames))
    trainer = Trainer(model, TrainConfig(epochs=args.epochs,
                                         batch_size=args.batch_size,
                                         lr=args.lr, seed=args.seed,
                                         verbose=True))
    trainer.fit(train_set, val_set=val_set if len(val_set) else None)
    model.save(args.out)
    metrics = trainer.evaluate(val_set) if len(val_set) else {}
    print(f"checkpoint written to {args.out}")
    if metrics:
        print("val metrics:",
              json.dumps({k: round(v, 4) for k, v in metrics.items()}))
    return 0


def _load_model(args, frames: int):
    """Rebuild the checkpointed model, preferring checkpoint metadata.

    Self-describing checkpoints need no flags; explicit flags are
    deprecation-warned and must agree with the metadata.  Legacy
    weights-only checkpoints fall back to the flags (or their historical
    defaults)."""
    from repro.models.factory import load_model
    from repro.nn.module import read_checkpoint_meta

    meta = read_checkpoint_meta(args.checkpoint)
    overrides = {name: value for name, value in
                 (("model", args.model), ("dim", args.dim),
                  ("depth", args.depth), ("heads", args.heads))
                 if value is not None}
    if meta is not None and "model" in meta:
        if overrides:
            warnings.warn(
                "--model/--dim/--depth/--heads are deprecated for "
                "self-describing checkpoints; the checkpoint metadata "
                "defines the architecture",
                DeprecationWarning, stacklevel=2,
            )
            config = meta.get("config", {})
            expected = {"model": meta["model"], "dim": config.get("dim"),
                        "depth": config.get("depth"),
                        "heads": config.get("num_heads")}
            conflicts = [
                f"--{name}={value} but checkpoint has {expected[name]}"
                for name, value in overrides.items()
                if expected.get(name) is not None
                and value != expected[name]
            ]
            if conflicts:
                print("error: model flags conflict with checkpoint "
                      "metadata: " + "; ".join(conflicts),
                      file=sys.stderr)
                raise SystemExit(2)
        return load_model(args.checkpoint)
    settings = dict(_LEGACY_DEFAULTS, **overrides)
    config = ModelConfig(frames=frames, dim=settings["dim"],
                         depth=settings["depth"],
                         num_heads=settings["heads"], seed=args.seed)
    model = build_model(settings["model"], config)
    model.load(args.checkpoint)
    return model


def cmd_extract(args) -> int:
    """``extract``: print descriptions for clips in a dataset."""
    dataset = SynthDriveDataset.load(args.data)
    model = _load_model(args, dataset.videos.shape[1])
    extractor = ScenarioExtractor(model, threshold=args.threshold,
                                  precision=args.precision)
    clips = dataset.videos[:args.limit] if args.limit else dataset.videos
    for i, result in enumerate(extractor.extract_batch(clips)):
        print(f"clip {i}: {result.sentence}")
        if args.json:
            print("  " + result.description.to_json())
    return 0


def cmd_evaluate(args) -> int:
    """``evaluate``: full SDL metric suite of a checkpoint."""
    dataset = SynthDriveDataset.load(args.data)
    model = _load_model(args, dataset.videos.shape[1])
    trainer = Trainer(model)
    metrics = trainer.evaluate(dataset)
    print(json.dumps({k: round(v, 4) for k, v in metrics.items()},
                     indent=2))
    return 0


def _mine_tags(args) -> dict:
    """Tag query assembled from the ``mine`` flags (empty = no query)."""
    tags = {}
    if args.scene:
        tags["scene"] = args.scene
    if args.ego_action:
        tags["ego_action"] = args.ego_action
    if args.actor:
        tags["actors"] = set(args.actor)
    if args.actor_action:
        tags["actor_actions"] = set(args.actor_action)
    return tags


def _mine_fleet(args) -> int:
    """``mine --corpus-dir``: out-of-core mining over a sharded corpus.

    Shards are extracted one at a time into per-shard tag stores keyed
    on the extractor fingerprint; a re-run (including after an
    interruption) skips every already-persisted shard, performing zero
    repeat forward passes.  Queries rank through the stacked SDL
    vectors and are bit-identical to in-memory mining over the same
    clips (see ``docs/mining.md``).
    """
    import os

    from repro.core import fleet
    from repro.core.cache import ExtractionCache
    from repro.obs import events as obs_events
    from repro.obs.events import EventLog

    shape = fleet.corpus_clip_shape(args.corpus_dir)
    model = _load_model(args, shape[0])
    extractor = ScenarioExtractor(model, precision=args.precision)
    cache = ExtractionCache(args.cache_dir or None)
    events = None
    previous_events = None
    if getattr(args, "events_dir", ""):
        events = EventLog(args.events_dir)
        previous_events = obs_events.set_active(events)

    def _progress(progress: dict) -> None:
        eta = progress["eta_s"]
        line = (f"fleet {progress['shards_done']}/"
                f"{progress['shards_total']} shards  "
                f"{progress['clips_done']} clips  "
                f"{progress['clips_per_s']:.1f} clips/s"
                + (f"  eta {eta:.0f}s" if eta is not None else ""))
        end = "\n" if progress["final"] else "\r"
        print("\r" + line + (" [done]" if progress["final"] else ""),
              end=end, file=sys.stderr, flush=True)

    try:
        stats = fleet.extract_corpus(
            extractor, args.corpus_dir, cache=cache,
            heartbeat_s=args.heartbeat_interval, on_progress=_progress)
    finally:
        if events is not None:
            obs_events.set_active(previous_events)
    index = fleet.FleetIndex.open(args.corpus_dir, extractor)
    tags = _mine_tags(args)
    hits = (index.query_tags(top_k=args.top_k, min_score=args.min_score,
                             **tags) if tags else [])
    summary = {
        "schema": "repro.mine/v1",
        "clips": len(index),
        "records_path": None,
        "fleet": stats.to_dict(),
        "telemetry_ring": os.path.join(stats.store_root,
                                       fleet.TELEMETRY_FILE),
        "events_dir": args.events_dir or None,
        "cache": cache.stats(),
        "extracted_clips": stats.clips_extracted,
        "top_criticality": fleet.top_criticality(index, args.top),
        "query": {k: sorted(v) if isinstance(v, set) else v
                  for k, v in tags.items()} or None,
        "hits": [
            {"clip_id": h.clip_id, "score": round(h.score, 4),
             "sentence": h.sentence}
            for h in hits
        ],
    }
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"corpus {args.corpus_dir}: {stats.shards} shards / "
          f"{stats.clips} clips (extracted {stats.shards_extracted}, "
          f"skipped {stats.shards_skipped} already persisted)")
    print(f"tag store: {stats.store_root}")
    print(f"top {args.top} by criticality:")
    for record in summary["top_criticality"]:
        print(f"  clip {record['clip_id']:3d} "
              f"crit={record['criticality']:.3f} {record['sentence']}")
    if tags:
        print(f"query {summary['query']} -> {len(hits)} hits:")
        for hit in hits:
            print(f"  clip {hit.clip_id:3d} score={hit.score:.3f} "
                  f"{hit.sentence}")
    return 0


def cmd_mine(args) -> int:
    """``mine``: cache-backed corpus mining.

    Extracts the corpus through an :class:`ExtractionCache` (persistent
    under ``--cache-dir``, in-memory otherwise, so each clip runs at
    most one forward pass per invocation either way), exports the JSONL
    records ranked by criticality, optionally answers a tag query
    (``--ego-action`` / ``--actor`` ...), and reports a cache-stats
    summary.  Re-running over an already-cached corpus performs zero
    extractor forward passes and returns bit-identical records/hits.
    ``--corpus-dir`` switches to the out-of-core path
    (:func:`_mine_fleet`).
    """
    from repro.core.cache import ExtractionCache
    from repro.core.export import export_corpus
    from repro.core.mining import ScenarioMiner

    if bool(args.data) == bool(args.corpus_dir):
        print("error: pass exactly one of --data or --corpus-dir",
              file=sys.stderr)
        return 2
    if args.corpus_dir:
        return _mine_fleet(args)
    if not args.out:
        print("error: --out is required with --data", file=sys.stderr)
        return 2
    dataset = SynthDriveDataset.load(args.data)
    model = _load_model(args, dataset.videos.shape[1])
    extractor = ScenarioExtractor(model, precision=args.precision)
    cache = ExtractionCache(args.cache_dir or None)
    records = export_corpus(extractor, dataset.videos, args.out,
                            families=dataset.families, cache=cache)
    ranked = sorted(records, key=lambda r: -r["criticality"])

    tags = _mine_tags(args)
    hits = []
    if tags:
        miner = ScenarioMiner(extractor, cache=cache)
        miner.add_clips(dataset.videos)  # pure cache hits by now
        hits = miner.query_tags(top_k=args.top_k,
                                min_score=args.min_score, **tags)

    stats = cache.stats()
    summary = {
        "schema": "repro.mine/v1",
        "clips": len(records),
        "records_path": args.out,
        "cache": stats,
        "extracted_clips": stats["misses"],
        "top_criticality": [
            {"clip_id": r["clip_id"], "criticality": r["criticality"],
             "sentence": r["sentence"]}
            for r in ranked[:args.top]
        ],
        "query": {k: sorted(v) if isinstance(v, set) else v
                  for k, v in tags.items()} or None,
        "hits": [
            {"clip_id": h.clip_id, "score": round(h.score, 4),
             "sentence": h.sentence}
            for h in hits
        ],
    }
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"wrote {len(records)} records to {args.out}")
    print(f"top {args.top} by criticality:")
    for record in ranked[:args.top]:
        print(f"  clip {record['clip_id']:3d} "
              f"crit={record['criticality']:.3f} {record['sentence']}")
    if tags:
        print(f"query {summary['query']} -> {len(hits)} hits:")
        for hit in hits:
            print(f"  clip {hit.clip_id:3d} score={hit.score:.3f} "
                  f"{hit.sentence}")
    print(f"cache: {stats['hits']} hits / {stats['misses']} misses "
          f"(hit rate {stats['hit_rate']:.0%}, "
          f"{stats['entries']} entries"
          + (f", dir {args.cache_dir})" if args.cache_dir
             else ", in-memory)"))
    return 0


def cmd_serve(args) -> int:
    """``serve``: run the extraction service against a request burst.

    Loads a checkpoint, starts the micro-batching service —
    ``--workers N`` (N > 1) scales it out to an N-process sharded
    :class:`~repro.serve.pool.ServicePool` — drives ``--requests``
    concurrent extractions from the dataset through a
    :class:`~repro.serve.client.ServiceClient`, and prints the
    per-status accounting plus batching/latency metrics.  Optional
    ``--inject-*`` flags exercise the retry / shedding / degradation
    paths; ``--quality`` turns on the streaming quality monitor
    (scorecards + drift alerts), ``--shift-after N`` inverts clip
    pixels from the N-th request on (an injected distribution shift),
    and ``--canary-checkpoint PATH`` attempts a canary-gated hot
    reload after the burst, reporting the verdict.  Exit code 0 when
    every request produced a result (primary or degraded); 1 otherwise
    unless ``--allow-failures``.
    """
    import threading
    import time
    from collections import Counter

    import numpy as np

    from repro.obs import metrics, write_prometheus
    from repro.obs.drift import DriftConfig
    from repro.obs.events import EventLog
    from repro.obs.slo import SLOConfig
    from repro.serve import (
        BATCH_SIZE_BUCKETS,
        CanaryRefusedError,
        ExtractionService,
        FaultInjector,
        QualityConfig,
        ServiceClient,
        ServiceConfig,
        ServicePool,
    )

    dataset = SynthDriveDataset.load(args.data)
    model = _load_model(args, dataset.videos.shape[1])
    extractor = ScenarioExtractor(model, threshold=args.threshold,
                                  precision=args.precision)
    config = ServiceConfig(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        max_queue=args.max_queue,
        default_timeout_s=args.timeout,
        max_retries=args.max_retries,
    )
    injector = None
    if (args.inject_failure_rate > 0
            or (args.inject_latency_ms > 0 and args.inject_latency_rate > 0)):
        injector = FaultInjector(
            failure_rate=args.inject_failure_rate,
            latency_s=args.inject_latency_ms / 1000.0,
            latency_rate=args.inject_latency_rate,
            seed=args.seed,
        )
    events = EventLog(args.events_dir) if args.events_dir else None
    slo = None
    if args.slo_latency_ms > 0 or args.confidence_floor > 0:
        slo = SLOConfig(
            latency_threshold_s=(args.slo_latency_ms / 1000.0
                                 if args.slo_latency_ms > 0 else None),
            confidence_floor=(args.confidence_floor
                              if args.confidence_floor > 0 else None),
        )
    quality = None
    if args.quality or args.canary_checkpoint:
        quality = QualityConfig(
            window=args.quality_window,
            drift=DriftConfig(
                reference_size=args.drift_reference,
                window_size=args.drift_window,
                min_samples=args.drift_min_samples,
                psi_threshold=args.drift_psi_threshold,
            ),
            canary_sample=args.canary_sample,
            canary_min_samples=min(4, args.canary_sample),
            canary_min_agreement=args.canary_floor,
            seed=args.seed,
        )
    common = dict(fault_injector=injector, cache=(args.cache_dir or None),
                  events=events, slo=slo, quality=quality)
    if args.workers > 1:
        # Sharded process pool: each worker rebuilds the injector from
        # its picklable spec with a per-rank seed offset.
        service = ServicePool(extractor, config, workers=args.workers,
                              telemetry_interval_s=(
                                  args.telemetry_interval
                                  if args.telemetry_interval > 0
                                  else None),
                              **common)
    else:
        service = ExtractionService(extractor, config, **common)
    clips = [dataset.videos[i % len(dataset.videos)]
             for i in range(args.requests)]
    if args.shift_after > 0:
        # Injected distribution shift: invert pixel intensities for the
        # tail of the burst — off-distribution input the drift windows
        # must notice.
        clips = [
            np.ascontiguousarray(1.0 - clip).astype(clip.dtype)
            if i >= args.shift_after else clip
            for i, clip in enumerate(clips)
        ]
    canary_summary = None
    prom_stop = threading.Event()
    with service:
        if args.prometheus_out:
            # Periodic atomic exposition (repro.durable): a crash
            # mid-burst leaves the last complete scrape on disk, never
            # a truncated file.  Started only now, so pool workers fork
            # before any parent thread exists.
            def _prom_loop() -> None:
                while not prom_stop.wait(1.0):
                    write_prometheus(args.prometheus_out, metrics)

            threading.Thread(target=_prom_loop, name="repro-prom-writer",
                             daemon=True).start()
        client = ServiceClient(service)
        start = time.perf_counter()
        results = client.extract_many(clips, concurrency=args.concurrency,
                                      timeout=args.timeout)
        elapsed = time.perf_counter() - start
        if args.canary_checkpoint:
            version_before = service.model_version
            try:
                version_after = service.reload(args.canary_checkpoint)
                canary_summary = {
                    "attempted": True,
                    "accepted": True,
                    "model_version_before": version_before,
                    "model_version_after": version_after,
                }
            except CanaryRefusedError as exc:
                canary_summary = {
                    "attempted": True,
                    "accepted": False,
                    "model_version_before": version_before,
                    "model_version_after": service.model_version,
                    "verdict": exc.verdict,
                }
        health = service.health()

    counts = Counter(r.status for r in results)
    served = sum(1 for r in results if r.ok)
    batch_hist = metrics.histogram("serve.batch_size",
                                   bounds=BATCH_SIZE_BUCKETS)
    summary = {
        "schema": "repro.serve/v1",
        "requests": args.requests,
        "workers": args.workers,
        "concurrency": args.concurrency,
        "elapsed_s": elapsed,
        "served_clips_per_s": served / elapsed if elapsed > 0 else 0.0,
        "statuses": {status: counts.get(status, 0)
                     for status in ("ok", "degraded", "shed", "timeout",
                                    "error")},
        "silent_failures": args.requests - sum(counts.values()),
        "retried_requests": sum(1 for r in results if r.retries > 0),
        "health": health,
    }
    if args.workers <= 1:
        # Micro-batch sizes are a per-replica statistic; pool workers
        # batch in their own processes, so the parent histogram would
        # read zero — per-worker health carries their state instead.
        summary["batches"] = {
            "count": batch_hist.count,
            "mean_size": batch_hist.mean,
            "max_size": batch_hist.max if batch_hist.count else 0.0,
        }
    quality_report = health.get("quality")
    if quality_report is not None:
        summary["quality"] = {
            "windows": quality_report["windows"],
            "drift_alerts": quality_report["drift"]["alert_count"],
            "drift_scores": quality_report["drift"]["scores"],
            "canary": canary_summary,
        }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"served {args.requests} requests in {elapsed:.2f}s "
              f"({summary['served_clips_per_s']:.1f} ok-clips/s, "
              f"concurrency {args.concurrency})")
        for status, n in summary["statuses"].items():
            if n:
                print(f"  {status:9s} {n}")
        if args.workers <= 1:
            print(f"  batches: {batch_hist.count} "
                  f"(mean size {batch_hist.mean:.1f}, "
                  f"max {summary['batches']['max_size']:.0f})")
        else:
            workers_up = health.get("workers_up", args.workers)
            print(f"  pool: {workers_up}/{args.workers} workers up")
        print(f"  breaker: {health['breaker']}, "
              f"model v{health['model_version']}")
        if quality_report is not None:
            alerts = quality_report["drift"]["alert_count"]
            print(f"  quality: {quality_report['windows']} windows, "
                  f"{alerts} drift alert{'s' if alerts != 1 else ''}")
            if canary_summary is not None:
                outcome = ("accepted" if canary_summary["accepted"]
                           else "REFUSED")
                print(f"  canary: reload {outcome} (model "
                      f"v{canary_summary['model_version_before']} -> "
                      f"v{canary_summary['model_version_after']})")
    if args.metrics_out:
        n = metrics.export_jsonl(args.metrics_out)
        print(f"wrote {n} metric series to {args.metrics_out}",
              file=sys.stderr)
    if args.prometheus_out:
        prom_stop.set()
        write_prometheus(args.prometheus_out, metrics)
        print(f"wrote Prometheus exposition to {args.prometheus_out}",
              file=sys.stderr)
    if events is not None:
        print(f"wrote {events.stats()['events']} events to "
              f"{args.events_dir}", file=sys.stderr)
    accounted = summary["silent_failures"] == 0
    all_served = served == args.requests
    if not accounted:
        return 1
    return 0 if all_served or args.allow_failures else 1


def cmd_top(args) -> int:
    """``top``: dashboard over a recorded or live event log.

    Computes a ``repro.top/v1`` snapshot purely from ``repro.events/v1``
    records — the same numbers a live tracker would have reported —
    including the lifecycle join check CI relies on (every request id
    enqueued exactly once and resolved exactly once).
    """
    from repro.obs.slo import SLOConfig
    from repro.obs.top import run_top

    slo = None
    if args.slo_latency_ms > 0 or args.confidence_floor > 0:
        slo = SLOConfig(
            latency_threshold_s=(args.slo_latency_ms / 1000.0
                                 if args.slo_latency_ms > 0 else None),
            confidence_floor=(args.confidence_floor
                              if args.confidence_floor > 0 else None),
        )
    return run_top(args.from_events, json_mode=args.json,
                   follow=args.follow, interval_s=args.interval,
                   iterations=args.iterations, slo_config=slo)


def cmd_stats(args) -> int:
    """``stats``: print tag frequencies and imbalance of a dataset."""
    from repro.sdl.statistics import format_statistics

    dataset = SynthDriveDataset.load(args.data)
    print(format_statistics(dataset.descriptions))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Traffic scenario description extraction"
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a SynthDrive dataset")
    gen.add_argument("--clips", type=int, default=240)
    gen.add_argument("--frames", type=int, default=8)
    gen.add_argument("--view", choices=("bev", "camera"), default="bev")
    gen.add_argument("--ambient", type=int, default=0,
                     help="background vehicles per clip")
    gen.add_argument("--workers", type=int, default=0,
                     help="process-pool workers for clip generation "
                          "(0/1 = serial; output is identical either way)")
    gen.add_argument("--out", default="",
                     help="write the dataset as one .npz file")
    gen.add_argument("--corpus-dir", default="",
                     help="instead of --out: materialise the clips as a "
                          "sharded corpus layout for out-of-core mining "
                          "(one shard-NNNN/clips.npy array per shard)")
    gen.add_argument("--shard-size", type=int, default=64,
                     help="clips per shard for --corpus-dir")
    gen.set_defaults(fn=cmd_generate)

    train = sub.add_parser("train", help="train a model")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--batch-size", type=int, default=16)
    train.add_argument("--lr", type=float, default=3e-3)
    _add_model_args(train, for_training=True)
    train.set_defaults(fn=cmd_train)

    extract = sub.add_parser("extract", help="extract descriptions")
    extract.add_argument("--data", required=True)
    extract.add_argument("--checkpoint", required=True)
    extract.add_argument("--threshold", type=float, default=0.5)
    extract.add_argument("--limit", type=int, default=0)
    extract.add_argument("--json", action="store_true")
    _add_precision_arg(extract)
    _add_model_args(extract)
    extract.set_defaults(fn=cmd_extract)

    evaluate = sub.add_parser("evaluate", help="evaluate a checkpoint")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--checkpoint", required=True)
    _add_model_args(evaluate)
    evaluate.set_defaults(fn=cmd_evaluate)

    stats = sub.add_parser("stats", help="dataset label statistics")
    stats.add_argument("--data", required=True)
    stats.set_defaults(fn=cmd_stats)

    serve = sub.add_parser(
        "serve", help="run the micro-batching extraction service "
                      "against a concurrent request burst"
    )
    serve.add_argument("--data", required=True)
    serve.add_argument("--checkpoint", required=True)
    serve.add_argument("--threshold", type=float, default=0.5)
    serve.add_argument("--requests", type=int, default=64)
    serve.add_argument("--concurrency", type=int, default=8)
    serve.add_argument("--workers", type=int, default=1,
                       help="extraction worker processes; >1 runs the "
                            "sharded ServicePool (clips route to workers "
                            "by content hash; see docs/serving.md)")
    serve.add_argument("--cache-dir", default="",
                       help="extraction cache directory; with --workers "
                            "each worker opens its own shard store "
                            "under it")
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--max-wait-ms", type=float, default=5.0,
                       help="micro-batch flush deadline")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission limit; beyond it requests are shed")
    serve.add_argument("--timeout", type=float, default=10.0,
                       help="per-request deadline in seconds")
    serve.add_argument("--max-retries", type=int, default=2)
    serve.add_argument("--inject-failure-rate", type=float, default=0.0,
                       help="fault injection: probability a primary "
                            "batch attempt fails")
    serve.add_argument("--inject-latency-ms", type=float, default=0.0,
                       help="fault injection: latency spike duration")
    serve.add_argument("--inject-latency-rate", type=float, default=0.0,
                       help="fault injection: probability of a spike")
    serve.add_argument("--json", action="store_true",
                       help="print a JSON summary instead of text")
    serve.add_argument("--telemetry-interval", type=float, default=0.25,
                       help="pool worker telemetry cadence in seconds "
                            "(metric deltas + internal events shipped "
                            "to the parent); <= 0 disables")
    serve.add_argument("--metrics-out", default="",
                       help="also export the metrics registry as JSONL")
    serve.add_argument("--prometheus-out", default="",
                       help="also export the metrics registry in "
                            "Prometheus text format (written "
                            "periodically and atomically during the "
                            "burst)")
    serve.add_argument("--events-dir", default="",
                       help="record request lifecycle events to this "
                            "directory (read back with `repro top`)")
    serve.add_argument("--slo-latency-ms", type=float, default=0.0,
                       help="enable the latency SLO objective with "
                            "this threshold")
    serve.add_argument("--confidence-floor", type=float, default=0.0,
                       help="enable the confidence SLO objective: "
                            "served results should have mean decode "
                            "confidence of at least this")
    serve.add_argument("--quality", action="store_true",
                       help="enable the streaming quality monitor "
                            "(scorecards, drift alerts, canary gate)")
    serve.add_argument("--quality-window", type=int, default=32,
                       help="quality_window event cadence (requests)")
    serve.add_argument("--drift-reference", type=int, default=64,
                       help="observations pinned as the drift "
                            "reference window")
    serve.add_argument("--drift-window", type=int, default=64,
                       help="rolling current-window size for drift "
                            "scoring")
    serve.add_argument("--drift-min-samples", type=int, default=24,
                       help="minimum current-window samples before "
                            "drift is scored")
    serve.add_argument("--drift-psi-threshold", type=float, default=0.25,
                       help="PSI above this (any head, or confidence) "
                            "fires a drift alert")
    serve.add_argument("--canary-sample", type=int, default=8,
                       help="live clips reservoir-sampled for the "
                            "canary slice")
    serve.add_argument("--canary-floor", type=float, default=0.8,
                       help="minimum candidate/serving tag agreement "
                            "for a reload to be accepted")
    serve.add_argument("--shift-after", type=int, default=0,
                       help="invert clip pixels from this request on "
                            "(injected distribution shift)")
    serve.add_argument("--canary-checkpoint", default="",
                       help="after the burst, attempt a canary-gated "
                            "hot reload of this checkpoint")
    serve.add_argument("--allow-failures", action="store_true",
                       help="exit 0 as long as every request is "
                            "accounted for (e.g. under fault injection)")
    _add_precision_arg(serve)
    _add_model_args(serve)
    serve.set_defaults(fn=cmd_serve)

    top = sub.add_parser(
        "top", help="dashboard over a recorded or live event log"
    )
    top.add_argument("--from-events", required=True,
                     help="event-log directory (or one JSONL segment) "
                          "written by `repro serve --events-dir`")
    top.add_argument("--json", action="store_true",
                     help="print one repro.top/v1 JSON snapshot and exit")
    top.add_argument("--follow", action="store_true",
                     help="refresh the dashboard until interrupted")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh interval for --follow, seconds")
    top.add_argument("--iterations", type=int, default=None,
                     help="bound the --follow loop (mainly for tests)")
    top.add_argument("--slo-latency-ms", type=float, default=0.0,
                     help="evaluate the latency SLO objective with this "
                          "threshold during replay")
    top.add_argument("--confidence-floor", type=float, default=0.0,
                     help="evaluate the confidence SLO objective with "
                          "this floor during replay")
    top.set_defaults(fn=cmd_top)

    mine = sub.add_parser(
        "mine", help="cache-backed corpus mining: JSONL export ranked "
                     "by criticality plus optional tag queries"
    )
    mine.add_argument("--data", default="",
                      help="dataset .npz for in-memory mining")
    mine.add_argument("--corpus-dir", default="",
                      help="instead of --data: sharded corpus directory "
                           "for out-of-core mining (resumable; re-runs "
                           "skip already-persisted shards)")
    mine.add_argument("--checkpoint", required=True)
    mine.add_argument("--out", default="",
                      help="JSONL records path (required with --data; "
                           "--corpus-dir persists per-shard stores "
                           "instead)")
    mine.add_argument("--top", type=int, default=5,
                      help="print this many most-critical clips")
    mine.add_argument("--cache-dir", default="",
                      help="persistent extraction cache directory; "
                          "re-runs over cached clips skip the model "
                          "forward pass entirely")
    mine.add_argument("--events-dir", default="",
                      help="with --corpus-dir: record fleet_progress "
                           "heartbeat events to this directory (read "
                           "back with `repro top --from-events`)")
    mine.add_argument("--heartbeat-interval", type=float, default=5.0,
                      help="with --corpus-dir: wall-clock seconds "
                           "between fleet_progress heartbeats")
    mine.add_argument("--scene", default="",
                      help="tag query: scene")
    mine.add_argument("--ego-action", default="",
                      help="tag query: ego manoeuvre")
    mine.add_argument("--actor", action="append", default=[],
                      help="tag query: actor type (repeatable)")
    mine.add_argument("--actor-action", action="append", default=[],
                      help="tag query: actor behaviour (repeatable)")
    mine.add_argument("--top-k", type=int, default=5,
                      help="hits to return for a tag query")
    mine.add_argument("--min-score", type=float, default=0.0,
                      help="inclusive minimum SDL similarity for hits")
    mine.add_argument("--json", action="store_true",
                      help="print a repro.mine/v1 JSON summary "
                           "(includes cache stats)")
    _add_precision_arg(mine)
    _add_model_args(mine)
    mine.set_defaults(fn=cmd_mine)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
