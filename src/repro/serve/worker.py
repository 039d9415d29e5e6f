"""Process entrypoint for one serving-pool worker.

Each worker of a :class:`~repro.serve.pool.ServicePool` is its own OS
process hosting one :class:`~repro.serve.service.Replica` — its own
model replica, micro-batch queue, retry/backoff machinery, circuit
breaker, fallback model and (when caching is on) its own
:class:`~repro.core.cache.ExtractionCache` shard — and nothing above
it: request ids, trace ids, SLO, quality and lifecycle events live in
the parent.  The pool's router guarantees a clip only ever reaches the
worker that owns its content hash, so the shard cache needs no
cross-process coordination, and the parent sends the hash it routed by
so the worker never hashes a clip again.

The rank/world-size orchestration mirrors the DDP-trainer idiom (and
the bit-identical process plan of ``generate_dataset(workers=N)``):
every per-rank input is computed up front in a plain picklable
:class:`WorkerSpec`, and the worker's behaviour is a pure function of
that spec plus the requests routed to it.

Protocol
--------
Parent → worker, tuples on the per-rank request queue::

    ("extract", request_id, clip, clip_hash, timeout_s)
    ("reload",  probe_id, extractor)          # the canary-gated candidate
    ("health",  probe_id)
    ("stop",)

Worker → parent, tuples on the rank's result channel (the write end of
a one-way pipe that only this worker holds, so its exit — even halfway
through a message — reads as EOF in the parent)::

    ("up",         rank)                      # replica started
    ("result",     rank, request_id, ServeResult)
    ("reload_ok",  rank, probe_id, version)
    ("reload_err", rank, probe_id, message)
    ("health",     rank, probe_id, fields)    # model_version + replica
    ("telemetry",  rank, frame)               # repro.telemetry/v1 dict
    ("worker_error", rank, message)           # fatal; process exits

A result's ``latency_s`` is worker-local (receipt to resolution); the
parent re-stamps it end to end.

Telemetry frames (when ``spec.telemetry_interval_s`` is set) ship on a
wall-clock cadence from the intake loop — the blocking ``get`` becomes
a timed one — plus one forced flush after the final drain, so even a
burst shorter than the interval reaches the parent in full.  The
frame's ``epoch`` is the rank's spawn count: a restarted worker ships
deltas from its fresh registry under a higher epoch and the parent's
merger drops anything older (see ``repro.obs.telemetry``).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.cache import ExtractionCache, shard_cache_dir
from repro.core.pipeline import ScenarioExtractor
from repro.obs import events as obs_events
from repro.serve.config import ServiceConfig
from repro.serve.faults import FaultInjector
from repro.serve.service import Replica, _Job, _record

#: Capacity of a worker's in-memory event ring drained into frames.
_TELEMETRY_EVENTS = 512


@dataclass
class WorkerSpec:
    """Everything a worker needs to build its replica — plain data.

    ``extractor`` is the serving :class:`ScenarioExtractor` itself, with
    its decoding settings; it rides through pickle (pure
    numpy / pure python) when the worker is spawned.  Thread-locked
    objects like a live :class:`~repro.serve.faults.FaultInjector` must
    be passed as their :meth:`~repro.serve.faults.FaultInjector.spec`
    dict instead.
    """

    rank: int
    world_size: int
    extractor: ScenarioExtractor
    config: ServiceConfig = field(default_factory=ServiceConfig)
    fault_spec: Optional[dict] = None
    cache_dir: Optional[str] = None
    cache_memory: bool = False
    #: Wall-clock seconds between telemetry frames; ``None`` disables
    #: shipping entirely (no ring, no timed get).
    telemetry_interval_s: Optional[float] = None
    #: Spawn count of this rank; restarted workers get a higher epoch
    #: so their fresh-baseline deltas can never double-count.
    epoch: int = 0
    #: The pool's serving model version: a worker restarted after a
    #: reload stamps its results with it, not with 1.
    model_version: int = 1


def _build_replica(spec: WorkerSpec, on_result) -> Replica:
    """Construct the replica for one rank."""
    cache = None
    if spec.cache_dir is not None:
        cache = ExtractionCache(shard_cache_dir(
            spec.cache_dir, spec.rank, spec.world_size))
    elif spec.cache_memory:
        cache = ExtractionCache(None)
    injector = None
    if spec.fault_spec is not None:
        # Per-rank seed offset: ranks draw independent fault sequences
        # while the whole pool stays reproducible from one seed.
        fault_spec = dict(spec.fault_spec)
        fault_spec["seed"] = int(fault_spec.get("seed", 0)) + spec.rank
        injector = FaultInjector.from_spec(fault_spec)
    events = None
    if spec.telemetry_interval_s is not None:
        # Memory-mode ring of the replica's batch and breaker events;
        # the shipper drains it into frames.  Not process-wide active:
        # the shard cache's hit/miss events would only fill the ring,
        # the parent's ``result`` carries the verdict.
        events = obs_events.EventLog(
            None, recorder_size=_TELEMETRY_EVENTS)
    return Replica(spec.extractor, spec.config, on_result,
                   fault_injector=injector, cache=cache, events=events,
                   model_version=spec.model_version)


def worker_main(spec: WorkerSpec, request_q, result_conn) -> None:
    """Run one pool worker until a ``("stop",)`` message arrives.

    ``result_conn`` is the write end of the rank's result channel;
    results come from the replica's batch thread and replies from this
    loop, so sends are serialised by a lock."""
    rank = spec.rank
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:
            result_conn.send(message)

    def post(job: _Job, result) -> None:
        # The per-rank serve.* series the parent merges by rank.
        _record(result, replica.breaker)
        send(("result", rank, job.request_id, result))

    try:
        replica = _build_replica(spec, post)
        replica.start()
    except Exception as exc:  # construction failed: report and die
        send(("worker_error", rank, f"{type(exc).__name__}: {exc}"))
        return

    shipper = None
    if spec.telemetry_interval_s is not None:
        from repro.obs.registry import get_registry
        from repro.obs.telemetry import TelemetryShipper

        # Baseline at construction: whatever this (possibly forked)
        # process inherited in the registry is never shipped.
        shipper = TelemetryShipper(get_registry(), events=replica.events,
                                   rank=rank, epoch=spec.epoch)
        interval = float(spec.telemetry_interval_s)
        next_ship = time.monotonic() + interval

    def _ship(force: bool = False) -> None:
        frame = shipper.frame(force=force)
        if frame is not None:
            send(("telemetry", rank, frame))

    send(("up", rank))
    try:
        while True:
            wait = None
            if shipper is not None:
                now = time.monotonic()
                if now >= next_ship:
                    _ship()
                    next_ship = now + interval
                wait = max(next_ship - now, 1e-3)
            try:
                message = request_q.get(timeout=wait)
            except queue.Empty:
                continue
            kind = message[0]
            if kind == "extract":
                _, request_id, clip, clip_hash, timeout_s = message
                now = time.monotonic()
                job = _Job(request_id, clip, now, now + timeout_s,
                           clip_hash)
                try:
                    replica.admit(job)
                except Exception as exc:  # never drop a request
                    post(job, job.outcome(
                        "error", replica.model_version,
                        error=f"{type(exc).__name__}: {exc}"))
            elif kind == "reload":
                _, probe_id, candidate = message
                try:
                    version = replica.swap(candidate)
                except Exception as exc:
                    send(("reload_err", rank, probe_id,
                          f"{type(exc).__name__}: {exc}"))
                else:
                    send(("reload_ok", rank, probe_id, version))
            elif kind == "health":
                send(("health", rank, message[1], {
                    "model_version": replica.model_version,
                    **replica.health()}))
            elif kind == "stop":
                break
    except (KeyboardInterrupt, EOFError):  # pragma: no cover
        pass
    finally:
        replica.stop(drain=True)
        if shipper is not None:
            # Forced final flush *after* the drain, so the last batch's
            # metrics and events reach the parent before the worker
            # exits.
            _ship(force=True)


__all__ = ["WorkerSpec", "worker_main"]
