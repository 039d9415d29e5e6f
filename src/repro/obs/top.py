"""``repro top`` — live terminal dashboard over the serving stack.

Renders a refreshing view of throughput, queue depth, batch-size
distribution, circuit-breaker state, cache hit rate, firing SLO
alerts and — when quality monitoring is on — a quality panel
(``quality_window`` cadence, drift alerts, canary verdicts).  Pool
runs (``repro serve --workers N``) add a per-worker panel: routed /
shed / per-status counts replayed from the ``worker``-stamped events —
plus each worker's *internal* cache / flush / forward / breaker
activity, shipped home by the telemetry plane
(:mod:`repro.obs.telemetry`) — or the live ``repro.health/v1`` pool
rollup's worker sub-documents (:func:`snapshot_from_service` consumes
only that versioned schema).  ``fleet_progress`` heartbeats from
``extract_corpus`` render as a fleet progress panel (shards / clips /
throughput / ETA).
Two sources:

- **a recorded event log** (``--from-events DIR``): the snapshot is
  computed purely from ``repro.events/v1`` records, so the dashboard
  replays any burst after the fact — and with ``--follow`` it tails
  the directory a running ``repro serve --events-dir`` is writing,
  which is the live mode;
- **a running in-process service** (:func:`snapshot_from_service`),
  for notebooks and tests.

``--json`` prints one ``repro.top/v1`` snapshot and exits — the mode
CI uses to assert that the event log fully accounts for a burst
(per-status counts, unique ids, every lifecycle joined
enqueue → terminal).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter as _Counter
from typing import Dict, List, Optional

from repro.obs import events as events_mod
from repro.obs.slo import SLOConfig, SLOTracker, quantile

SCHEMA = "repro.top/v1"

#: Request statuses that mean "a result was served".
_SERVED = ("ok", "degraded")

#: Per-request lifecycle terminal event.
_TERMINAL = "result"


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def snapshot_from_events(source, slo_config: Optional[SLOConfig] = None
                         ) -> Dict[str, object]:
    """A ``repro.top/v1`` snapshot computed from recorded events.

    ``source`` is an event-log directory / JSONL path, or an already
    loaded list of event records.  Results are replayed through an
    :class:`SLOTracker` using the events' own monotonic timestamps, so
    the burn-rate alerts are exactly what a live tracker would have
    reported at the end of the recording.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        records = events_mod.read_event_log(source)
    else:
        records = list(source)

    statuses: "_Counter[str]" = _Counter()
    per_worker: Dict[int, Dict[str, object]] = {}
    pool_workers: Optional[int] = None
    batch_sizes: List[float] = []
    retried_ids = set()
    cache_hits = cache_misses = 0
    queue_depth = 0
    breaker_state = "closed"
    breaker_trips = 0
    reloads = 0
    flight_dumps = 0
    model_forwards = {"primary": 0, "fallback": 0}
    quality_windows = 0
    last_window: Optional[Dict[str, object]] = None
    drift_alerts: List[Dict[str, object]] = []
    canary = {"starts": 0, "accepted": 0, "refused": 0}
    last_verdict: Optional[Dict[str, object]] = None
    tracker = SLOTracker(slo_config)
    first_mono = last_mono = None
    fleet_beats = 0
    fleet_monotone = True
    fleet_last: Optional[Dict[str, object]] = None

    enqueued = set()
    terminals: "_Counter[int]" = _Counter()
    seen_ids = set()
    trace_ids: Dict[int, set] = {}

    def _worker_stats(rank) -> Dict[str, object]:
        return per_worker.setdefault(int(rank), {
            "routed": 0, "statuses": _Counter(), "shed": 0,
            "drains": 0, "reloads": 0, "restarts": 0, "dead": False,
            # Worker-internal activity, replayed from events the
            # telemetry plane shipped home (stamped with ``worker``).
            "cache_hits": 0, "cache_misses": 0, "flushes": 0,
            "forwards": 0, "retries": 0, "breaker_trips": 0,
        })

    def _internal(record, key) -> None:
        if record.get("worker") is not None:
            _worker_stats(record["worker"])[key] += 1

    for record in records:
        mono = record.get("mono")
        if isinstance(mono, (int, float)):
            first_mono = mono if first_mono is None else first_mono
            last_mono = mono
        event = record.get("event")
        rid = record.get("request_id")
        if rid is not None:
            seen_ids.add(rid)
            if record.get("trace_id") is not None:
                trace_ids.setdefault(rid, set()).add(record["trace_id"])
        if event == "enqueue":
            enqueued.add(rid)
            queue_depth = int(record.get("queue_depth", queue_depth))
        elif event == "flush":
            batch_sizes.append(float(record.get("batch_size", 0)))
            for member in record.get("request_ids", ()):
                seen_ids.add(member)
            _internal(record, "flushes")
        elif event == "cache_hit":
            cache_hits += 1
            tracker.record_cache(True, now=mono)
            _internal(record, "cache_hits")
        elif event == "cache_miss":
            cache_misses += 1
            tracker.record_cache(False, now=mono)
            _internal(record, "cache_misses")
        elif event == "retry":
            for member in record.get("request_ids", ()):
                retried_ids.add(member)
            _internal(record, "retries")
        elif event == "model_forward":
            model = record.get("model", "primary")
            model_forwards[model] = model_forwards.get(model, 0) + 1
            _internal(record, "forwards")
        elif event == "breaker_open":
            breaker_state = "open"
            breaker_trips += 1
            _internal(record, "breaker_trips")
        elif event == "breaker_close":
            breaker_state = "closed"
        elif event == "reload":
            reloads += 1
        elif event == "flight_dump":
            flight_dumps += 1
        elif event == "route" and record.get("worker") is not None:
            _worker_stats(record["worker"])["routed"] += 1
        elif event == "shed" and record.get("worker") is not None:
            _worker_stats(record["worker"])["shed"] += 1
        elif event == "worker_drain":
            _worker_stats(record.get("worker", 0))["drains"] += 1
        elif event == "worker_reload":
            _worker_stats(record.get("worker", 0))["reloads"] += 1
        elif event == "worker_dead":
            _worker_stats(record.get("worker", 0))["dead"] = True
        elif event == "worker_restart":
            stats = _worker_stats(record.get("worker", 0))
            stats["restarts"] += 1
            stats["dead"] = False
        elif event == "pool_start":
            pool_workers = record.get("workers")
        elif event == "fleet_progress":
            fleet_beats += 1
            clips_done = record.get("clips_done", 0)
            if (fleet_last is not None
                    and clips_done < fleet_last.get("clips_done", 0)):
                fleet_monotone = False
            fleet_last = {key: record.get(key) for key in (
                "fingerprint", "shards_done", "shards_total",
                "shards_skipped", "shards_extracted", "clips_done",
                "clips_extracted", "forwards", "elapsed_s",
                "clips_per_s", "eta_s", "final")}
        elif event == "quality_window":
            quality_windows += 1
            last_window = {
                "window": record.get("window"),
                "requests": record.get("requests"),
                "mean_confidence": record.get("mean_confidence"),
                "model_version": record.get("model_version"),
            }
        elif event == "drift_alert":
            drift_alerts.append({
                "tag_psi_max": record.get("tag_psi_max"),
                "confidence_psi": record.get("confidence_psi"),
                "confidence_kl": record.get("confidence_kl"),
                "model_version": record.get("model_version"),
            })
        elif event == "canary_start":
            canary["starts"] += 1
        elif event == "canary_verdict":
            outcome = ("accepted" if record.get("accepted")
                       else "refused")
            canary[outcome] += 1
            last_verdict = {
                "accepted": bool(record.get("accepted")),
                "agreement": record.get("agreement"),
                "confidence_shift": record.get("confidence_shift"),
                "agreement_floor": record.get("agreement_floor"),
                "samples": record.get("samples"),
            }
        elif event == _TERMINAL:
            status = record.get("status", "unknown")
            statuses[status] += 1
            if record.get("worker") is not None:
                _worker_stats(record["worker"])["statuses"][status] += 1
            terminals[rid] += 1
            tracker.record_request(
                status in _SERVED,
                float(record.get("latency_s", 0.0)), now=mono)
            confidence = record.get("mean_confidence")
            if isinstance(confidence, (int, float)):
                tracker.record_confidence(float(confidence), now=mono)

    elapsed = ((last_mono - first_mono)
               if first_mono is not None and last_mono is not None
               else 0.0)
    total_results = sum(statuses.values())
    incomplete = sorted(
        rid for rid in seen_ids
        if rid is not None
        and (rid not in enqueued or terminals.get(rid, 0) == 0)
    )
    duplicate_terminals = sorted(rid for rid, n in terminals.items()
                                 if n > 1)
    multi_trace = sorted(rid for rid, tids in trace_ids.items()
                         if len(tids) > 1)
    pool = None
    if per_worker or pool_workers is not None:
        pool = {
            "workers": (pool_workers if pool_workers is not None
                        else len(per_worker)),
            "per_worker": {
                str(rank): {**stats,
                            "statuses": dict(sorted(
                                stats["statuses"].items()))}
                for rank, stats in sorted(per_worker.items())
            },
        }
    return {
        "schema": SCHEMA,
        "source": "events",
        "events": len(records),
        "elapsed_s": elapsed,
        "requests": {
            "total": total_results,
            "statuses": dict(sorted(statuses.items())),
            "served": sum(statuses.get(s, 0) for s in _SERVED),
            "retried": len(retried_ids),
        },
        "throughput_rps": (total_results / elapsed if elapsed > 0
                           else 0.0),
        "queue_depth": queue_depth,
        "batches": {
            "count": len(batch_sizes),
            "mean_size": (sum(batch_sizes) / len(batch_sizes)
                          if batch_sizes else 0.0),
            "max_size": max(batch_sizes, default=0.0),
            "p95_size": (quantile(batch_sizes, 0.95)
                         if batch_sizes else 0.0),
        },
        "model_forwards": model_forwards,
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_rate": (cache_hits / (cache_hits + cache_misses)
                         if cache_hits + cache_misses else 0.0),
        },
        "breaker": {
            "state": breaker_state,
            "trips": breaker_trips,
        },
        "reloads": reloads,
        "flight_dumps": flight_dumps,
        "pool": pool,
        "fleet": ({"heartbeats": fleet_beats,
                   "monotone": fleet_monotone,
                   "last": fleet_last}
                  if fleet_beats else None),
        "quality": {
            "windows": quality_windows,
            "last_window": last_window,
            "drift_alerts": len(drift_alerts),
            "last_drift": drift_alerts[-1] if drift_alerts else None,
            "canary": {**canary, "last_verdict": last_verdict},
        },
        "slo": tracker.report(now=last_mono),
        "lifecycles": {
            "ids_seen": len(seen_ids),
            "complete": sum(1 for rid in seen_ids
                            if rid in enqueued
                            and terminals.get(rid, 0) == 1),
            "incomplete_ids": incomplete[:20],
            "duplicate_terminal_ids": duplicate_terminals[:20],
            "multi_trace_ids": multi_trace[:20],
            "fully_joined": (not incomplete and not duplicate_terminals
                             and not multi_trace),
        },
    }


def snapshot_from_service(service,
                          slo_report: Optional[Dict[str, object]] = None
                          ) -> Dict[str, object]:
    """A ``repro.top/v1`` snapshot of a running, in-process
    :class:`~repro.serve.service.ExtractionService` or
    :class:`~repro.serve.pool.ServicePool`.

    Consumes only the versioned ``repro.health/v1`` document — any
    other (or missing) schema is rejected, so the dashboard never
    renders from an unversioned payload.  A health document with
    ``workers`` (a pool's) additionally populates the per-worker panel
    from those replica sub-documents; a worker's ``requests`` is its
    ``routed`` count, the number the event replay shows.
    """
    from repro.obs import metrics
    from repro.serve.service import BATCH_SIZE_BUCKETS

    health = service.health()
    schema = health.get("schema")
    if schema != "repro.health/v1":
        raise ValueError(
            f"unsupported health schema {schema!r}; "
            "expected repro.health/v1")
    counts = service.status_counts()
    pool = None
    if health.get("workers"):
        per_worker = {}
        for rank, doc in sorted(health["workers"].items(),
                                key=lambda item: int(item[0])):
            per_worker[str(rank)] = {
                "status": doc.get("status"),
                "breaker": doc.get("breaker"),
                "queue_depth": doc.get("queue_depth"),
                "model_version": doc.get("model_version"),
                "requests": doc.get("routed", 0),
                "cache_hit_rate": (doc.get("cache") or {}).get(
                    "hit_rate"),
            }
        pool = {"workers": health.get("world_size"),
                "per_worker": per_worker}
    quality_report = health.get("quality")
    if quality_report is not None:
        canary = quality_report["canary"]
        models = quality_report.get("models", {})
        latest = (models[max(models)] if models else None)
        quality = {
            "windows": quality_report["windows"],
            "last_window": (
                {"requests": latest["requests"],
                 "mean_confidence": latest["mean_confidence"]}
                if latest else None),
            "drift_alerts": quality_report["drift"]["alert_count"],
            "last_drift": (quality_report["drift"]["alerts"][-1]
                           if quality_report["drift"]["alerts"]
                           else None),
            "canary": {
                "starts": canary["starts"],
                "accepted": canary["accepted"],
                "refused": canary["refused"],
                "last_verdict": canary["last_verdict"],
            },
        }
    else:
        quality = None
    batch_hist = metrics.histogram("serve.batch_size",
                                   bounds=BATCH_SIZE_BUCKETS)
    total = sum(counts.values())
    uptime = float(health.get("uptime_s") or 0.0)
    cache = health.get("cache") or {}
    return {
        "schema": SCHEMA,
        "source": "service",
        "events": None,
        "elapsed_s": uptime,
        "requests": {
            "total": total,
            "statuses": {k: v for k, v in sorted(counts.items()) if v},
            "served": counts.get("ok", 0) + counts.get("degraded", 0),
            "retried": int(metrics.counter("serve.retries").value),
        },
        "throughput_rps": total / uptime if uptime > 0 else 0.0,
        "queue_depth": health["queue_depth"],
        "batches": {
            "count": batch_hist.count,
            "mean_size": batch_hist.mean,
            "max_size": batch_hist.max if batch_hist.count else 0.0,
            "p95_size": 0.0,
        },
        "model_forwards": {},
        "cache": {
            "hits": cache.get("hits", 0),
            "misses": cache.get("misses", 0),
            "hit_rate": cache.get("hit_rate", 0.0),
        },
        "breaker": {
            "state": health["breaker"],
            "trips": int(metrics.counter("serve.breaker_trips").value),
        },
        "reloads": int(metrics.counter("serve.reloads").value),
        "flight_dumps": 0,
        "pool": pool,
        "fleet": None,
        "extractor": {
            "precision": health.get("precision", "fp32"),
            "reuse": health.get("reuse"),
        },
        "quality": quality,
        "slo": slo_report if slo_report is not None
        else health.get("slo", {"objectives": {}, "alerts": []}),
        "lifecycles": None,
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render(snapshot: Dict[str, object]) -> str:
    """Terminal rendering of one snapshot (fixed-width, ANSI-free)."""
    req = snapshot["requests"]
    batches = snapshot["batches"]
    cache = snapshot["cache"]
    breaker = snapshot["breaker"]
    slo = snapshot.get("slo") or {}
    alerts = slo.get("alerts", [])
    lines = [
        f"repro top — {snapshot['source']}"
        + (f" ({snapshot['events']} events)"
           if snapshot.get("events") is not None else ""),
        "",
        f"  requests   {req['total']:6d} total   "
        f"{snapshot['throughput_rps']:8.1f} req/s   "
        f"retried {req['retried']}",
    ]
    statuses = req["statuses"]
    if statuses:
        lines.append("  statuses   " + "  ".join(
            f"{status}={n}" for status, n in statuses.items()))
    lines += [
        f"  queue      depth {snapshot['queue_depth']}",
        f"  batches    {batches['count']:6d}        "
        f"mean {batches['mean_size']:.1f}  "
        f"max {batches['max_size']:.0f}  p95 {batches['p95_size']:.0f}",
        f"  cache      {cache['hits']} hits / {cache['misses']} misses "
        f"(hit rate {cache['hit_rate']:.0%})",
        f"  breaker    {breaker['state']} ({breaker['trips']} trips)",
    ]
    pool = snapshot.get("pool")
    if pool:
        lines.append(f"  pool       {pool.get('workers')} workers")
        for rank, stats in pool["per_worker"].items():
            if "statuses" in stats:  # replayed from events
                status_text = "  ".join(
                    f"{status}={n}" for status, n
                    in stats["statuses"].items()) or "-"
                flags = []
                if stats.get("reloads"):
                    flags.append(f"reloads {stats['reloads']}")
                if stats.get("restarts"):
                    flags.append(f"restarts {stats['restarts']}")
                if stats.get("dead"):
                    flags.append("DEAD")
                internals = []
                if stats.get("cache_hits") or stats.get("cache_misses"):
                    internals.append(
                        f"cache {stats['cache_hits']}h/"
                        f"{stats['cache_misses']}m")
                if stats.get("forwards"):
                    internals.append(f"fwd {stats['forwards']}")
                if stats.get("retries"):
                    internals.append(f"retries {stats['retries']}")
                if stats.get("breaker_trips"):
                    internals.append(f"trips {stats['breaker_trips']}")
                lines.append(
                    f"    worker {rank}  routed {stats['routed']:4d}  "
                    f"shed {stats['shed']}  {status_text}"
                    + (f"  {' '.join(internals)}" if internals else "")
                    + (f"  [{', '.join(flags)}]" if flags else ""))
            else:  # live pool health rollup
                hit_rate = stats.get("cache_hit_rate")
                lines.append(
                    f"    worker {rank}  {stats.get('status', '?'):8s}"
                    f"  breaker {stats.get('breaker', '?'):9s}"
                    f"  depth {stats.get('queue_depth', 0)}"
                    f"  v{stats.get('model_version', '?')}"
                    f"  req {stats.get('requests', 0)}"
                    + (f"  cache {hit_rate:.0%}"
                       if isinstance(hit_rate, (int, float)) else ""))
    fleet = snapshot.get("fleet")
    if fleet:
        last = fleet.get("last") or {}
        eta = last.get("eta_s")
        rate = last.get("clips_per_s") or 0.0
        lines.append(
            f"  fleet      shards {last.get('shards_done', 0)}/"
            f"{last.get('shards_total', 0)}  "
            f"clips {last.get('clips_done', 0)}  "
            f"forwards {last.get('forwards', 0)}  "
            f"{rate:.1f} clips/s"
            + (f"  eta {eta:.0f}s"
               if isinstance(eta, (int, float)) else "")
            + ("  [done]" if last.get("final") else "")
            + ("" if fleet.get("monotone") else "  [NON-MONOTONE]"))
    extractor = snapshot.get("extractor")
    if extractor is not None:
        line = f"  extractor  precision={extractor['precision']}"
        reuse = extractor.get("reuse") or {}
        if reuse.get("supported") and (reuse.get("frame_hits", 0)
                                       or reuse.get("frame_misses", 0)):
            line += (f"   frame reuse {reuse['frame_hits']} hits / "
                     f"{reuse['frame_misses']} misses "
                     f"({reuse['hit_rate']:.0%})")
        lines.append(line)
    p95 = slo.get("p95_latency_s")
    if p95 is not None:
        lines.append(f"  latency    p95 {p95 * 1e3:.1f} ms")
    quality = snapshot.get("quality")
    if quality is not None and (quality["windows"] or
                                quality["drift_alerts"] or
                                quality["canary"]["starts"]):
        window = quality.get("last_window") or {}
        confidences = window.get("mean_confidence") or {}
        conf_text = "  ".join(
            f"{head}={value:.2f}"
            for head, value in sorted(confidences.items()))
        lines.append(
            f"  quality    {quality['windows']} windows"
            + (f"   conf {conf_text}" if conf_text else ""))
        drift_flag = ("DRIFTING" if quality["drift_alerts"] else "stable")
        lines.append(
            f"  drift      {quality['drift_alerts']} alerts [{drift_flag}]")
        canary = quality["canary"]
        if canary["starts"]:
            verdict = canary.get("last_verdict") or {}
            agreement = verdict.get("agreement")
            lines.append(
                f"  canary     {canary['starts']} runs: "
                f"{canary['accepted']} accepted, "
                f"{canary['refused']} refused"
                + (f"   last agreement {agreement:.2f}"
                   if isinstance(agreement, (int, float)) else ""))
        for alert in (quality.get("last_drift"),):
            if alert:
                lines.append(
                    f"  ALERT drift: tag PSI "
                    f"{alert.get('tag_psi_max', 0.0):.2f}, confidence "
                    f"PSI {alert.get('confidence_psi', 0.0):.2f}, KL "
                    f"{alert.get('confidence_kl', 0.0):.2f}")
    objectives = slo.get("objectives", {})
    for name, obj in sorted(objectives.items()):
        observed = obj.get("observed")
        observed_text = (f"{observed:.4f}" if observed is not None
                         else "n/a")
        flag = "FIRING" if obj.get("firing") else "ok"
        lines.append(f"  slo        {name:<15} target "
                     f"{obj['target']:.3f}  observed {observed_text}  "
                     f"[{flag}]")
    if alerts:
        lines.append("")
        for alert in alerts:
            lines.append(
                f"  ALERT {alert['objective']}: burn rate "
                f"{alert['long_burn_rate']:.1f}x over "
                f"{alert['long_window_s']:.0f}s "
                f"(>{alert['factor']:.1f}x budget)")
    lifecycles = snapshot.get("lifecycles")
    if lifecycles is not None:
        joined = "yes" if lifecycles["fully_joined"] else "NO"
        lines += [
            "",
            f"  lifecycle  {lifecycles['complete']}/"
            f"{lifecycles['ids_seen']} complete, fully joined: {joined}",
        ]
    return "\n".join(lines)


def run_top(from_events: str, json_mode: bool = False,
            follow: bool = False, interval_s: float = 1.0,
            iterations: Optional[int] = None, stream=None,
            slo_config: Optional[SLOConfig] = None) -> int:
    """CLI driver: snapshot (and optionally follow) an event log.

    ``iterations`` bounds the follow loop (for tests); ``None`` runs
    until interrupted.
    """
    stream = stream or sys.stdout
    count = 0
    while True:
        snapshot = snapshot_from_events(from_events,
                                        slo_config=slo_config)
        if json_mode:
            stream.write(json.dumps(snapshot, indent=2) + "\n")
        else:
            if follow:
                stream.write("\x1b[2J\x1b[H")  # clear + home
            stream.write(render(snapshot) + "\n")
        count += 1
        if not follow or (iterations is not None and count >= iterations):
            break
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            break
    return 0


__all__ = [
    "SCHEMA",
    "render",
    "run_top",
    "snapshot_from_events",
    "snapshot_from_service",
]
