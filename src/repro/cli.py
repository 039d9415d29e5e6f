"""Command-line interface: ``repro <command>`` (or ``python -m repro.cli``).

Each command that loads a model is a thin shell over :mod:`repro.api`:
it parses its flags, calls the facade (``load_extractor``, ``mine``,
``mine_corpus``, ``build_corpus``, ``serve``) and formats the result, so
the CLI assembles extractors, services and fleet indexes exactly the
way library callers do.  ``repro <command> --help`` lists the flags;
``docs/`` covers mining, caching, serving and observability.

Checkpoints are self-describing (``repro.checkpoint/v1``): a consumer
(``extract``, ``evaluate``, ``serve``, ``mine``) takes the architecture
from the checkpoint alone, and only ``train`` has model-shape flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading
import time
from collections import Counter

import numpy as np

from repro import api
from repro.core import fleet
from repro.core.export import export_corpus
from repro.core.pipeline import ScenarioExtractor
from repro.data import SynthDriveConfig, SynthDriveDataset, generate_dataset
from repro.models import MODEL_REGISTRY, ModelConfig, build_model
from repro.obs import metrics, write_prometheus
from repro.serve import BATCH_SIZE_BUCKETS, FaultInjector
from repro.train import TrainConfig, Trainer

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
        info = api.build_corpus(dataset.videos, args.corpus_dir,
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
    model = build_model(args.model, ModelConfig(
        frames=dataset.videos.shape[1], dim=args.dim, depth=args.depth,
        num_heads=args.heads, seed=args.seed))
    trainer = Trainer(model, TrainConfig(epochs=args.epochs,
                                         batch_size=args.batch_size,
                                         lr=args.lr, seed=args.seed,
                                         verbose=True))
    trainer.fit(train_set, val_set=val_set if len(val_set) else None)
    model.save(args.out)
    scores = trainer.evaluate(val_set) if len(val_set) else {}
    print(f"checkpoint written to {args.out}")
    if scores:
        print("val metrics:",
              json.dumps({k: round(v, 4) for k, v in scores.items()}))
    return 0


def _load_extractor(args) -> ScenarioExtractor:
    """The checkpoint's extractor at the command's ``--threshold``,
    built by :func:`repro.api.load_extractor`.  A weights-only
    checkpoint (no ``repro.checkpoint/v1`` metadata) is a usage error:
    ``load_model``'s remedy goes to stderr, exit code 2."""
    try:
        return api.load_extractor(
            args.checkpoint, threshold=getattr(args, "threshold", 0.5))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def cmd_extract(args) -> int:
    """``extract``: print descriptions for clips in a dataset."""
    dataset = SynthDriveDataset.load(args.data)
    extractor = _load_extractor(args)
    clips = dataset.videos[:args.limit] if args.limit else dataset.videos
    for i, result in enumerate(extractor.extract_batch(clips)):
        print(f"clip {i}: {result.sentence}")
        if args.json:
            print("  " + result.description.to_json())
    return 0


def cmd_evaluate(args) -> int:
    """``evaluate``: full SDL metric suite of a checkpoint."""
    dataset = SynthDriveDataset.load(args.data)
    model = _load_extractor(args).model
    scores = Trainer(model).evaluate(dataset)
    print(json.dumps({k: round(v, 4) for k, v in scores.items()},
                     indent=2))
    return 0


def _mine_data(args, cache, tags: dict):
    """``mine --data``: export every record, then query through
    :func:`repro.api.mine`, which only hits the cache by then."""
    dataset = SynthDriveDataset.load(args.data)
    extractor = _load_extractor(args)
    records = export_corpus(extractor, dataset.videos, args.out,
                            families=dataset.families, cache=cache)
    hits = (api.mine(extractor, dataset.videos, top_k=args.top_k,
                     min_score=args.min_score, cache=cache, **tags)
            if tags else [])
    ranked = sorted(records, key=lambda r: -r["criticality"])
    return hits, {
        "clips": len(records),
        "records_path": args.out,
        "cache": cache.stats(),
        "extracted_clips": cache.misses,
        "top_criticality": [
            {key: r[key] for key in ("clip_id", "criticality", "sentence")}
            for r in ranked[:args.top]
        ],
    }


def _print_fleet_progress(progress: dict) -> None:
    eta = progress["eta_s"]
    line = (f"fleet {progress['shards_done']}/"
            f"{progress['shards_total']} shards  "
            f"{progress['clips_done']} clips  "
            f"{progress['clips_per_s']:.1f} clips/s"
            + (f"  eta {eta:.0f}s" if eta is not None else ""))
    end = "\n" if progress["final"] else "\r"
    print("\r" + line + (" [done]" if progress["final"] else ""),
          end=end, file=sys.stderr, flush=True)


def _mine_fleet(args, cache, tags: dict):
    """``mine --corpus-dir``: out-of-core mining through
    :func:`repro.api.mine_corpus` (resumable: a re-run skips every
    already-persisted shard; see ``docs/mining.md``)."""
    extractor = _load_extractor(args)
    hits, stats = api.mine_corpus(
        extractor, args.corpus_dir, top_k=args.top_k,
        min_score=args.min_score, cache=cache,
        heartbeat_s=args.heartbeat_interval,
        on_progress=_print_fleet_progress,
        events=args.events_dir or None, **tags)
    index = fleet.FleetIndex.open(args.corpus_dir, extractor)
    return hits, {
        "clips": len(index),
        "records_path": None,
        "fleet": stats.to_dict(),
        "telemetry_ring": os.path.join(stats.store_root,
                                       fleet.TELEMETRY_FILE),
        "events_dir": args.events_dir or None,
        "cache": cache.stats(),
        "extracted_clips": stats.clips_extracted,
        "top_criticality": fleet.top_criticality(index, args.top),
    }


def _print_mine(args, summary: dict, hits: list) -> None:
    """Text report of either mining path."""
    stats = summary.get("fleet")
    if stats is not None:
        print(f"corpus {args.corpus_dir}: {stats['shards']} shards / "
              f"{stats['clips']} clips (extracted "
              f"{stats['shards_extracted']}, skipped "
              f"{stats['shards_skipped']} already persisted)")
        print(f"tag store: {stats['store_root']}")
    else:
        print(f"wrote {summary['clips']} records to {args.out}")
    print(f"top {args.top} by criticality:")
    for record in summary["top_criticality"]:
        print(f"  clip {record['clip_id']:3d} "
              f"crit={record['criticality']:.3f} {record['sentence']}")
    if summary["query"]:
        print(f"query {summary['query']} -> {len(hits)} hits:")
        for hit in hits:
            print(f"  clip {hit.clip_id:3d} score={hit.score:.3f} "
                  f"{hit.sentence}")
    if stats is None:
        cache = summary["cache"]
        print(f"cache: {cache['hits']} hits / {cache['misses']} misses "
              f"(hit rate {cache['hit_rate']:.0%}, "
              f"{cache['entries']} entries"
              + (f", dir {args.cache_dir})" if args.cache_dir
                 else ", in-memory)"))


def cmd_mine(args) -> int:
    """``mine``: rank a corpus by criticality and answer a tag query
    through one :class:`ExtractionCache` (on disk under ``--cache-dir``),
    so each clip runs at most one forward pass per invocation and a
    re-run over a cached corpus runs none."""
    if bool(args.data) == bool(args.corpus_dir):
        print("error: pass exactly one of --data or --corpus-dir",
              file=sys.stderr)
        return 2
    if args.data and not args.out:
        print("error: --out is required with --data", file=sys.stderr)
        return 2
    tags = {"scene": args.scene, "ego_action": args.ego_action,
            "actors": set(args.actor),
            "actor_actions": set(args.actor_action)}
    tags = {name: value for name, value in tags.items() if value}
    cache = api.ExtractionCache(args.cache_dir or None)
    hits, fields = (_mine_fleet if args.corpus_dir
                    else _mine_data)(args, cache, tags)
    summary = {
        "schema": "repro.mine/v1",
        **fields,
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
    else:
        _print_mine(args, summary, hits)
    return 0


def _slo_config(args):
    """The SLO objectives ``--slo-latency-ms`` / ``--confidence-floor``
    turn on; ``None`` (availability only) when neither is set."""
    if args.slo_latency_ms <= 0 and args.confidence_floor <= 0:
        return None
    return api.SLOConfig(
        latency_threshold_s=(args.slo_latency_ms / 1000.0
                             if args.slo_latency_ms > 0 else None),
        confidence_floor=(args.confidence_floor
                          if args.confidence_floor > 0 else None),
    )


@contextlib.contextmanager
def _prometheus_writer(path: str):
    """Rewrite the Prometheus exposition at ``path`` every second while
    the block runs; the writer thread stops however the block exits.
    Writes are atomic, so a crash leaves the last complete scrape."""
    stop = threading.Event()

    def _loop() -> None:
        while not stop.wait(1.0):
            write_prometheus(path, metrics)

    thread = threading.Thread(target=_loop, name="repro-prom-writer",
                              daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def cmd_serve(args) -> int:
    """``serve``: drive a concurrent request burst through
    :func:`repro.api.serve` (a pool when ``--workers`` > 1), optionally
    followed by a canary-gated reload, and print the per-status
    accounting.  Exit code 0 when every request produced a result
    (primary or degraded); 1 otherwise unless ``--allow-failures``."""
    dataset = SynthDriveDataset.load(args.data)
    extractor = _load_extractor(args)
    injector = None
    if (args.inject_failure_rate > 0
            or (args.inject_latency_ms > 0 and args.inject_latency_rate > 0)):
        injector = FaultInjector(
            failure_rate=args.inject_failure_rate,
            latency_s=args.inject_latency_ms / 1000.0,
            latency_rate=args.inject_latency_rate,
            seed=args.seed,
        )
    quality = None
    if args.quality or args.canary_checkpoint:
        quality = api.QualityConfig(
            window=args.quality_window,
            drift=api.DriftConfig(
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
    # ``--workers`` 0 or 1 both mean the in-process service.
    service = api.serve(
        extractor, workers=max(args.workers, 1), fault_injector=injector,
        cache=args.cache_dir or None, events=args.events_dir or None,
        slo=_slo_config(args), quality=quality,
        telemetry_interval_s=(args.telemetry_interval
                              if args.telemetry_interval > 0 else None),
        max_batch=args.max_batch, max_wait_s=args.max_wait_ms / 1000.0,
        max_queue=args.max_queue, default_timeout_s=args.timeout,
        max_retries=args.max_retries)
    # api.serve returns with the pool workers forked, so the writer
    # thread starts after them and no fork copies a lock it holds.
    with service, (_prometheus_writer(args.prometheus_out)
                   if args.prometheus_out else contextlib.nullcontext()):
        client = api.ServiceClient(service)
        start = time.perf_counter()
        results = client.extract_many(clips, concurrency=args.concurrency,
                                      timeout=args.timeout)
        elapsed = time.perf_counter() - start
        if args.canary_checkpoint:
            version_before = service.model_version
            try:
                service.reload(args.canary_checkpoint)
                verdict = None
            except api.CanaryRefusedError as exc:
                verdict = {"verdict": exc.verdict}
            canary_summary = {
                "attempted": True,
                "accepted": verdict is None,
                "model_version_before": version_before,
                "model_version_after": service.model_version,
                **(verdict or {}),
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
            print(f"  pool: {health.get('workers_up', args.workers)}/"
                  f"{args.workers} workers up")
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
        write_prometheus(args.prometheus_out, metrics)
        print(f"wrote Prometheus exposition to {args.prometheus_out}",
              file=sys.stderr)
    if service.events is not None:
        print(f"wrote {service.events.stats()['events']} events to "
              f"{args.events_dir}", file=sys.stderr)
    if summary["silent_failures"]:
        return 1
    return 0 if served == args.requests or args.allow_failures else 1


def cmd_top(args) -> int:
    """``top``: a ``repro.top/v1`` dashboard replayed from (or
    following) a ``repro.events/v1`` log; see ``docs/observability.md``."""
    from repro.obs.top import run_top

    if not os.path.exists(args.from_events):
        print(f"error: no event log at {args.from_events}",
              file=sys.stderr)
        return 2
    return run_top(args.from_events, json_mode=args.json,
                   follow=args.follow, interval_s=args.interval,
                   iterations=args.iterations, slo_config=_slo_config(args))


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
    train.add_argument("--model", default="vt-divided",
                       choices=sorted(MODEL_REGISTRY))
    train.add_argument("--dim", type=int, default=48)
    train.add_argument("--depth", type=int, default=2)
    train.add_argument("--heads", type=int, default=4)
    train.set_defaults(fn=cmd_train)

    extract = sub.add_parser("extract", help="extract descriptions")
    extract.add_argument("--data", required=True)
    extract.add_argument("--checkpoint", required=True)
    extract.add_argument("--threshold", type=float, default=0.5)
    extract.add_argument("--limit", type=int, default=0)
    extract.add_argument("--json", action="store_true")
    extract.set_defaults(fn=cmd_extract)

    evaluate = sub.add_parser("evaluate", help="evaluate a checkpoint")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--checkpoint", required=True)
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
    mine.set_defaults(fn=cmd_mine)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
