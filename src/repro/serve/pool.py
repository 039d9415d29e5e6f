"""Multi-worker sharded serving pool.

:class:`ServicePool` is the process transport of the serving front-end
(:class:`~repro.serve.service._Frontend`): the parent owns request ids,
accounting, SLO/quality/events, canary-gated reload and the health
envelope exactly as :class:`~repro.serve.service.ExtractionService`
does, and routes each request to one of N process-based workers (see
:mod:`repro.serve.worker`).  Each worker hosts one
:class:`~repro.serve.service.Replica` — its own model replica,
micro-batch queue, retry/backoff, circuit breaker, fallback model and
cache shard — and nothing above it.  Requests are sharded by clip
content hash (:func:`~repro.serve.router.shard_of`), so a given clip
always lands on the worker whose
:class:`~repro.core.cache.ExtractionCache` shard already holds it:
cache coherence across processes with zero cross-process locking.

What the process transport adds:

- **In-place reload.**  After the front-end's canary gate, ``reload``
  sends the candidate extractor to every live rank at once and each
  worker swaps its replica exactly as the in-process service does: a
  batch already running finishes on the old model, every later batch
  uses the new one, and each result carries the version that served
  it.  Routing never pauses.
- **Health rolls up.**  :meth:`health` carries ``role: "pool"``,
  per-worker sub-documents (each its replica's, ``role: "replica"``,
  plus the rank's ``routed`` count) and the worst breaker state and
  summed cache stats of the pool.
- **Worker internals ship home.**  Each worker runs the telemetry
  plane (:mod:`repro.obs.telemetry`): seq-numbered frames of metric
  deltas and whitelisted internal events flow back over the result
  channel and merge into the parent registry under ``worker=<rank>``
  labels (and into the pool event log).  Disable with
  ``telemetry_interval_s=None``.

A worker holds the only write end of its result channel, so its death
reads as EOF on the collector, even halfway through a message (the
torn message is dropped).  Workers that die resolve their in-flight
requests as ``"error"`` and are then **auto-restarted** (bounded by
``max_worker_restarts`` per rank) with the same rank and world size,
so a replacement re-attaches the exact ``shard-RR-of-WW/`` cache
directory its predecessor populated.  Replacements start from a
``spawn`` context: they launch from a restart thread while the
collector thread runs, and forking then could copy a held lock into
the child.  The window between death and recovery fails static
(requests for the shard are refused with ``"error"``); a rank that
exhausts its restart budget stays down until the pool restarts.  See
``docs/serving.md``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
from multiprocessing import connection
from typing import Dict, List, Optional, Tuple, Union

from repro.core.cache import ExtractionCache, clip_content_hash
from repro.core.pipeline import ScenarioExtractor
from repro.nn.module import Module
from repro.obs import metrics
from repro.obs.events import EventLog
from repro.obs.quality import QualityConfig, QualityMonitor
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.telemetry import TelemetryMerger
from repro.serve.config import ServiceConfig
from repro.serve.faults import FaultInjector
from repro.serve.router import shard_of
from repro.serve.service import (
    HEALTH_SCHEMA,
    ServeResult,
    RequestFuture,
    _Frontend,
)
from repro.serve.worker import WorkerSpec, worker_main

#: Breaker states ordered by severity for the pool rollup.
_BREAKER_SEVERITY = {"closed": 0, "half-open": 1, "open": 2}

#: How long :meth:`ServicePool.health` waits for the worker health probes.
_HEALTH_PROBE_TIMEOUT_S = 5.0

#: How long a worker may take to come up (at start or after a restart)
#: and to answer a reload.
_WORKER_REPLY_TIMEOUT_S = 60.0


def _replica_doc(rank: int, status: str, **fields) -> Dict[str, object]:
    """A rank's health sub-document: ``status`` is ``"unreachable"`` for
    a rank that is down or did not answer, else the replica's breaker
    verdict."""
    return {"schema": HEALTH_SCHEMA, "role": "replica", "rank": rank,
            "status": status, **fields}


def _close_queue(q) -> None:
    """Close ``q`` without waiting for its feeder thread to flush."""
    try:
        q.close()
        q.cancel_join_thread()
    except Exception:  # already torn down
        pass


def _mp_context():
    """Fork when the platform has it (cheap, inherits the built model);
    spawn otherwise — the :class:`WorkerSpec` is fully picklable either
    way, mirroring ``generate_dataset(workers=N)``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class ServicePool(_Frontend):
    """N-replica sharded serving pool (see module docstring).

    Parameters
    ----------
    extractor:
        The primary extractor, or a bare model.  Each worker serves a
        copy of it, decoding settings included; the parent keeps it for
        canary gating and client-side codec access.
    config:
        Per-worker :class:`ServiceConfig` (each replica runs its own
        micro-batch queue with these knobs; ``max_queue`` bounds each
        worker's outstanding requests at the router).
    workers:
        Pool width — the shard count.  Changing it changes every shard
        assignment, so per-shard cache directories are keyed by it
        (:func:`~repro.core.cache.shard_cache_dir`).
    fault_injector:
        Optional :class:`FaultInjector` template.  Its ``spec()`` is
        shipped to every worker with a per-rank seed offset (the live
        injector holds a thread lock and cannot cross processes).
    cache:
        ``ExtractionCache | str | PathLike | None``.  A directory (or a
        disk-backed cache, whose directory is borrowed) becomes the
        root under which each worker opens its own shard store; a
        memory-only cache enables per-worker in-memory shards.
    events / slo / quality:
        Parent-side observability, same types as the single service.
        Lifecycle events, SLO accounting and quality monitoring happen
        once, in the parent, over re-stamped worker results; the canary
        reload gate is applied once at pool level.
    telemetry_interval_s:
        Wall-clock cadence of the worker telemetry plane
        (:mod:`repro.obs.telemetry`): every worker ships metric-delta +
        internal-event frames at this interval (plus a final flush on
        stop), and the parent merges them into the process registry
        under ``worker=<rank>`` labels and re-emits worker events into
        the pool event log.  ``None`` disables shipping entirely.
    """

    _role = "pool"

    def __init__(self, extractor: Union[ScenarioExtractor, Module],
                 config: Optional[ServiceConfig] = None,
                 workers: int = 2,
                 fault_injector: Optional[FaultInjector] = None,
                 cache: Union[ExtractionCache, str, os.PathLike,
                              None] = None,
                 events: Optional[EventLog] = None,
                 slo: Optional[Union[SLOConfig, SLOTracker]] = None,
                 quality: Optional[Union[QualityConfig,
                                         QualityMonitor]] = None,
                 max_worker_restarts: int = 2,
                 telemetry_interval_s: Optional[float] = 0.25) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        if telemetry_interval_s is not None and telemetry_interval_s <= 0:
            raise ValueError("telemetry_interval_s must be positive")
        if isinstance(extractor, Module):
            extractor = ScenarioExtractor(extractor)
        super().__init__(extractor, config, events, slo, quality)
        # The reference extractor restarted workers boot from and the
        # canary gate compares against; both change under the lock.
        self._primary = extractor
        self._model_version = 1
        self._model_lock = threading.Lock()
        self.world_size = workers
        self._fault_spec = (fault_injector.spec()
                            if fault_injector is not None else None)
        self._cache_dir: Optional[str] = None
        self._cache_memory = False
        if isinstance(cache, ExtractionCache):
            if cache.cache_dir is not None:
                self._cache_dir = cache.cache_dir
            else:
                self._cache_memory = True
        elif cache is not None:
            self._cache_dir = os.fspath(cache)
        self.max_worker_restarts = max_worker_restarts
        self.telemetry_interval_s = telemetry_interval_s
        self._telemetry: Optional[TelemetryMerger] = None
        self._restarts: List[int] = [0] * workers
        self._restarting: set = set()
        # Per-rank spawn counts: the telemetry epoch of each worker
        # incarnation, so a restarted replica's deltas never
        # double-count against its predecessor's.
        self._spawns: List[int] = [0] * workers
        self._pool_ready = False

        self._mp = _mp_context()
        # Replacement workers launch from a restart thread while the
        # collector runs, so they must not fork: spawn starts a clean
        # interpreter.  A spawned child cannot inherit fork-context
        # locks, so each worker gets its own queue and channel, made by
        # the context that starts it.
        self._respawn_mp = multiprocessing.get_context("spawn")
        self._procs: List = []
        self._request_qs: List = []
        self._channels: List = []
        self._collector: Optional[threading.Thread] = None
        self._collector_stop = threading.Event()

        # All routing state lives under one condition variable: the
        # collector notifies it on every completion and every ``up``,
        # which is what the start and restart handshakes block on.
        self._cond = threading.Condition()
        self._outstanding: List[int] = [0] * workers
        # request id -> (request, rank it was routed to)
        self._inflight: Dict[int, Tuple[RequestFuture, int]] = {}
        self._dead: Dict[int, str] = {}
        self._up: set = set()
        # probe id -> [reply event, (reply kind, payload) or None]
        self._probes: Dict[int, list] = {}
        self._next_probe = 0

        self._workers_gauge = metrics.gauge("serve.pool.workers")
        self._outstanding_gauge = metrics.gauge("serve.pool.outstanding")
        # Per-rank routing/shed counters (cached handles — the hot
        # dispatch path pays one attribute bump): worker-labelled so
        # exposition has per-rank breakdowns without parsing events.
        self._routed_counters = [
            metrics.counter("serve.pool.routed", worker=str(rank))
            for rank in range(workers)]
        self._shed_counters = [
            metrics.counter("serve.pool.shed", worker=str(rank))
            for rank in range(workers)]

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServicePool":
        """Spawn the workers and wait until every replica is serving."""
        with self._cond:
            if self._running:
                return self
            self._running = True
            self._started_at = time.monotonic()
            self._up.clear()
            self._dead.clear()
            self._restarts = [0] * self.world_size
            self._restarting.clear()
        self._telemetry = (
            TelemetryMerger(metrics, events=self.events)
            if self.telemetry_interval_s is not None else None)
        # Fork *before* starting the collector thread (forking with a
        # live thread that may hold locks can deadlock the child) and
        # before installing the parent event log as process-wide active
        # (workers must not inherit it — their cache events stay local).
        # One launch at a time, so no fork inherits a sibling's channel.
        workers = [self._launch(rank, self._mp)
                   for rank in range(self.world_size)]
        self._procs, self._request_qs, self._channels = (
            list(column) for column in zip(*workers))
        self._install_events()
        self._collector_stop.clear()
        self._collector = threading.Thread(target=self._collect_loop,
                                           name="repro-pool-collector",
                                           daemon=True)
        self._collector.start()
        with self._cond:
            # ``up`` messages and deaths both notify.
            self._cond.wait_for(
                lambda: len(self._up) == self.world_size or self._dead,
                timeout=_WORKER_REPLY_TIMEOUT_S)
            up = len(self._up)
            dead = dict(self._dead)
        if up < self.world_size:
            self.stop(drain=False, timeout=2.0)
            detail = (f"worker errors: {dead}" if dead
                      else f"only {up}/{self.world_size} workers came up "
                           f"within {_WORKER_REPLY_TIMEOUT_S:g}s")
            raise RuntimeError(f"pool failed to start ({detail})")
        self._workers_gauge.set(float(self.world_size))
        with self._cond:
            self._pool_ready = True
        # ``cache`` tells a replay that each worker-stamped ``result``
        # is one shard-cache verdict (its ``cached`` field).
        self._emit("pool_start", workers=self.world_size,
                   cache=self._cache_dir is not None or self._cache_memory)
        return self

    def _launch(self, rank: int, context) -> tuple:
        """Start a worker process for ``rank``; return it with its fresh
        request queue and the read end of its result channel, all made
        by ``context`` (a spawned child can only inherit spawn-context
        locks).  The parent closes its copy of the write end once the
        worker has started, so the worker holds the only one."""
        self._spawns[rank] += 1
        request_q = context.Queue()
        reader, writer = context.Pipe(duplex=False)
        proc = context.Process(
            target=worker_main,
            args=(self._worker_spec(rank), request_q, writer),
            name=f"repro-pool-worker-{rank}", daemon=True)
        try:
            proc.start()
        finally:
            writer.close()
        return proc, request_q, reader

    def _worker_spec(self, rank: int) -> WorkerSpec:
        """The spec a (re)spawn of ``rank`` boots from.

        Built from the *current* serving extractor and model version —
        a worker restarted after a hot reload comes back on the
        reloaded model and stamps its version — and the same
        rank/world_size, so it re-opens the identical
        ``shard-RR-of-WW/`` cache directory its predecessor used.
        """
        primary, version = self._serving()
        return WorkerSpec(
            rank=rank, world_size=self.world_size, extractor=primary,
            config=self.config,
            fault_spec=self._fault_spec,
            cache_dir=self._cache_dir,
            cache_memory=self._cache_memory,
            telemetry_interval_s=self.telemetry_interval_s,
            epoch=self._spawns[rank],
            model_version=version,
        )

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop every worker and the collector.

        ``drain=True`` lets each worker finish everything already routed
        to it first; otherwise in-flight requests resolve as
        ``"error"`` immediately and the workers are terminated.
        """
        with self._cond:
            if not self._running:
                return
            self._running = False
            self._pool_ready = False
            orphans = [] if drain else self._take_inflight_locked()
        self._fail(orphans, "service stopped")
        for rank, request_q in enumerate(self._request_qs):
            if rank not in self._dead:
                try:
                    request_q.put(("stop",))
                except Exception:  # queue torn down with a dead worker
                    pass
        join_deadline = time.monotonic() + (timeout if drain else 1.0)
        for proc in self._procs:
            proc.join(max(0.0, join_deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        # Workers are gone: anything still unresolved never will be.
        with self._cond:
            orphans = self._take_inflight_locked()
        self._fail(orphans, "service stopped")
        self._collector_stop.set()
        if self._collector is not None:
            self._collector.join(5.0)
            self._collector = None
        for request_q, channel in zip(self._request_qs, self._channels):
            _close_queue(request_q)
            channel.close()
        self._request_qs = []
        self._channels = []
        self._procs = []
        self._workers_gauge.set(0.0)
        self._emit("pool_stop")
        self._restore_events()

    # -- transport hooks -----------------------------------------------
    def _admit(self, request: RequestFuture) -> None:
        """Route to the worker that owns the clip's content hash: fail
        static while it is down, shed when its outstanding requests
        reach ``max_queue``.  The ``enqueue`` event carries the rank,
        and its ``outstanding`` count only when the request was routed
        there."""
        request.clip_hash = clip_content_hash(request.clip)
        rank = shard_of(request.clip_hash, self.world_size)
        with self._cond:
            if not self._running:
                raise RuntimeError("service is not running")
            queue_depth = sum(self._outstanding)
            if rank in self._dead:
                down = self._dead[rank]
            elif self._outstanding[rank] < self.config.max_queue:
                self._dispatch_locked(request, rank, queue_depth)
                return
            else:
                down, depth = None, self._outstanding[rank]
            self._emit("enqueue", request, queue_depth=queue_depth,
                       worker=rank)
        if down is not None:
            self._fail([request], f"worker {rank} is down ({down})")
            return
        self._shed_counters[rank].inc()
        self._emit("shed", request, worker=rank, queue_depth=depth)
        self._finish(request, request.outcome(
            "shed", self.model_version,
            error=f"queue full ({self.config.max_queue})"))

    def _fail(self, requests: List[RequestFuture], error: str) -> None:
        """Resolve every request in ``requests`` as ``"error"``."""
        version = self.model_version
        for request in requests:
            self._finish(request, request.outcome("error", version,
                                                  error=error))

    def _take_inflight_locked(self) -> List[RequestFuture]:
        """Forget every routed request; caller holds ``_cond``."""
        orphans = [request for request, _ in self._inflight.values()]
        self._inflight.clear()
        self._outstanding = [0] * self.world_size
        return orphans

    def _dispatch_locked(self, request: RequestFuture, rank: int,
                         queue_depth: int) -> None:
        """Hand ``request`` to its worker; caller holds ``_cond``."""
        self._outstanding[rank] += 1
        self._inflight[request.request_id] = (request, rank)
        self._outstanding_gauge.set(float(sum(self._outstanding)))
        self._routed_counters[rank].inc()
        self._emit("enqueue", request, queue_depth=queue_depth,
                   worker=rank, outstanding=self._outstanding[rank])
        remaining = max(0.0, request.deadline - time.monotonic())
        self._request_qs[rank].put(
            ("extract", request.request_id, request.clip,
             request.clip_hash, remaining))

    def _swap(self, candidate: ScenarioExtractor) -> int:
        """Send ``candidate`` to every live rank at once; each worker
        swaps its replica in place, so a running batch finishes on the
        old model and every later batch uses the new one.  ``candidate``
        then becomes the reference restarted workers boot from."""
        with self._cond:
            if not self._running:
                raise RuntimeError("service is not running")
            live = [rank for rank in range(self.world_size)
                    if rank not in self._dead]
        replies = self._ask(live, "reload", candidate,
                            timeout=_WORKER_REPLY_TIMEOUT_S)
        failures = []
        for rank, reply in replies.items():
            if reply is None:
                failures.append(f"worker {rank} reload timed out")
            elif reply[0] == "reload_err":
                failures.append(f"worker {rank} reload failed: {reply[1]}")
            else:
                self._emit("worker_reload", worker=rank, version=reply[1])
        if failures:
            raise RuntimeError("; ".join(failures))
        with self._model_lock:
            self._primary = candidate
            self._model_version += 1
            return self._model_version

    def _serving(self) -> Tuple[ScenarioExtractor, int]:
        with self._model_lock:
            return self._primary, self._model_version

    def ready(self) -> bool:
        """Readiness: running, every worker alive, router not saturated."""
        with self._cond:
            return (self._running and not self._dead
                    and all(depth < self.config.max_queue
                            for depth in self._outstanding))

    def _replica_health(self, running: bool) -> Dict[str, object]:
        """The pool rollup.

        ``workers`` maps rank → that worker's replica document
        (``repro.health/v1``, ``role: "replica"``: rank, status, model
        version, queue depth, in-flight, breaker, and cache/reuse stats
        when present) plus ``routed``, the rank's
        ``serve.pool.routed{worker}`` count; ``breaker`` is the worst
        of the pool and ``cache`` sums the shard stats.  A rank that
        died or failed to answer reports ``status: "unreachable"``.
        """
        with self._cond:
            outstanding = list(self._outstanding)
            dead = dict(self._dead)
        workers: Dict[str, dict] = {}
        if running:
            live = [rank for rank in range(self.world_size)
                    if rank not in dead]
            replies = self._ask(live, "health",
                                timeout=_HEALTH_PROBE_TIMEOUT_S)
            for rank, reply in replies.items():
                fields = reply[1] if reply is not None else {}
                status = ("unreachable" if reply is None
                          else "ok" if fields["breaker"] == "closed"
                          else "degraded")
                workers[str(rank)] = _replica_doc(rank, status, **fields)
        for rank, message in dead.items():
            workers[str(rank)] = _replica_doc(rank, "unreachable",
                                              error=message)
        for rank, doc in workers.items():
            doc["routed"] = int(self._routed_counters[int(rank)].value)
        breaker = max(["closed"] + [doc.get("breaker", "closed")
                                    for doc in workers.values()],
                      key=lambda state: _BREAKER_SEVERITY.get(state, 0))
        fields: Dict[str, object] = {
            "world_size": self.world_size,
            "workers": workers,
            "workers_up": self.world_size - len(dead),
            "queue_depth": sum(outstanding),
            "inflight": sum(outstanding),
            "outstanding": {str(i): d for i, d in enumerate(outstanding)},
            "breaker": breaker,
        }
        cache_docs = [doc["cache"] for doc in workers.values()
                      if isinstance(doc.get("cache"), dict)]
        if cache_docs:
            totals: Dict[str, float] = {}
            for doc in cache_docs:
                for key, value in doc.items():
                    if isinstance(value, (int, float)):
                        totals[key] = totals.get(key, 0) + value
            lookups = totals.get("hits", 0) + totals.get("misses", 0)
            totals["hit_rate"] = (totals.get("hits", 0) / lookups
                                  if lookups else 0.0)
            fields["cache"] = totals
        return fields

    # -- worker messaging ----------------------------------------------
    def _ask(self, ranks: List[int], kind: str, *args,
             timeout: float) -> Dict[int, Optional[tuple]]:
        """Send ``(kind, probe_id, *args)`` to every rank in ``ranks``
        and wait, ``timeout`` in all, for the replies: rank → ``(reply
        kind, payload)``, or ``None`` for a rank that did not answer."""
        probes: Dict[int, int] = {}
        with self._cond:
            for rank in ranks:
                self._next_probe += 1
                probes[rank] = self._next_probe
                self._probes[self._next_probe] = [threading.Event(), None]
        for rank, probe_id in probes.items():
            self._request_qs[rank].put((kind, probe_id) + args)
        deadline = time.monotonic() + timeout
        replies = {}
        for rank, probe_id in probes.items():
            self._probes[probe_id][0].wait(
                max(0.0, deadline - time.monotonic()))
            with self._cond:
                replies[rank] = self._probes.pop(probe_id)[1]
        return replies

    # -- collector -----------------------------------------------------
    def _collect_loop(self) -> None:
        """Read every worker's result channel; single consumer,
        parent-side.  A worker's death surfaces here as EOF on its
        channel (see :meth:`_read`)."""
        while True:
            # A restart swaps a rank's channel: wait on this snapshot.
            channels = {channel: rank
                        for rank, channel in enumerate(self._channels)
                        if not channel.closed}
            try:
                ready = connection.wait(list(channels), timeout=0.1)
            except (OSError, ValueError):  # a channel closed under us
                ready = []
            if not ready and self._collector_stop.is_set():
                return
            for channel in ready:
                self._read(channels[channel], channel)

    def _read(self, rank: int, channel) -> None:
        """Act on the next message from ``rank``.

        The worker holds the only write end, so EOF means it exited,
        after everything it wrote was read; a message its exit cut
        short raises ``OSError`` and is dropped.  Either way the channel
        is closed, never polled again, and while the pool runs the rank
        is marked dead."""
        try:
            message = channel.recv()
        except (EOFError, OSError) as exc:
            channel.close()
            with self._cond:
                running = self._running
            if running:
                proc = self._procs[rank]
                proc.join(1.0)
                reason = f"worker exited with code {proc.exitcode}"
                if not isinstance(exc, EOFError):
                    reason += "; torn result message dropped"
                self._mark_dead(rank, reason)
            return
        self._on_message(message)

    def _on_message(self, message: tuple) -> None:
        """Act on one worker → parent message (see
        :mod:`repro.serve.worker` for the protocol)."""
        kind = message[0]
        if kind == "result":
            _, rank, request_id, result = message
            self._on_result(rank, request_id, result)
        elif kind == "telemetry":
            if self._telemetry is not None:
                self._telemetry.merge(message[2])
        elif kind in ("health", "reload_ok", "reload_err"):
            _, rank, probe_id, payload = message
            with self._cond:
                entry = self._probes.get(probe_id)
                if entry is not None:
                    entry[1] = (kind, payload)
                    entry[0].set()
        elif kind == "up":
            with self._cond:
                self._up.add(message[1])
                self._cond.notify_all()
        elif kind == "worker_error":
            self._mark_dead(message[1], message[2])

    def _on_result(self, rank: int, request_id: int,
                   result: ServeResult) -> None:
        with self._cond:
            request, _ = self._inflight.pop(request_id, (None, rank))
            if self._outstanding[rank] > 0:
                self._outstanding[rank] -= 1
            self._outstanding_gauge.set(float(sum(self._outstanding)))
            self._cond.notify_all()
        if self._cache_dir is not None or self._cache_memory:
            # One cache-objective sample per replica lookup, as on the
            # single service: every request a worker admits looks its
            # shard cache up first, whatever status it ends in.
            self.slo.record_cache(result.cached)
        if request is None:  # resolved parent-side already (stop path)
            return
        # Stamp the trace id and end-to-end latency; the worker's
        # status / retries / batch / model_version stand.
        stamped = dataclasses.replace(
            result, trace_id=request.trace_id,
            latency_s=time.monotonic() - request.enqueued_at)
        self._finish(request, stamped, worker=rank)

    def _mark_dead(self, rank: int, message: str) -> None:
        """Resolve the rank's in-flight work as errors, then schedule a
        bounded auto-restart (requests arriving before the replacement
        comes up still fail static).

        Runs on the collector once the rank's channel is at EOF (or the
        worker reported a fatal error before coming up), so only
        requests the worker never answered fail."""
        with self._cond:
            if rank in self._dead:
                return
            self._dead[rank] = message
            orphans = [self._inflight.pop(rid)[0]
                       for rid, (_, r) in list(self._inflight.items())
                       if r == rank]
            self._outstanding[rank] = 0
            # Restart only once the pool has fully started (a rank that
            # dies during the start handshake keeps fail-to-start
            # semantics) and while the per-rank budget lasts.
            restart = (self._running and self._pool_ready
                       and rank not in self._restarting
                       and self._restarts[rank] < self.max_worker_restarts)
            if restart:
                self._restarting.add(rank)
                self._restarts[rank] += 1
                attempt = self._restarts[rank]
            self._cond.notify_all()
        self._emit("worker_dead", worker=rank, error=message)
        self._fail(orphans, f"worker {rank} died ({message})")
        if restart:
            threading.Thread(
                target=self._restart_rank, args=(rank, attempt),
                name=f"repro-pool-restart-{rank}", daemon=True).start()

    def _restart_rank(self, rank: int, attempt: int) -> None:
        """Spawn a replacement worker for a dead rank.

        The replacement starts from the spawn context (this runs on a
        restart thread) and boots from :meth:`_worker_spec` with the same
        rank and world size, so it re-attaches the predecessor's
        ``shard-RR-of-WW/`` cache directory — warm entries survive the
        crash.  On a successful ``up`` handshake the rank is removed
        from the dead set and a ``worker_restart`` event is emitted; if
        the replacement never comes up, the rank stays failed static.
        """
        try:
            with self._cond:
                if not self._running:
                    return
                self._up.discard(rank)
            # Spawning pickles the spec, weights included, so the
            # launch can take a while.  Only a started process is
            # published where stop() joins it.
            proc, request_q, channel = self._launch(rank,
                                                    self._respawn_mp)
            with self._cond:
                replaced = self._running
                if replaced:
                    retired = (self._request_qs[rank],
                               self._channels[rank])
                    self._procs[rank] = proc
                    self._request_qs[rank] = request_q
                    self._channels[rank] = channel
                else:  # stopped meanwhile: stop() never saw this worker
                    retired = (request_q, channel)
            _close_queue(retired[0])
            retired[1].close()
            if not replaced:
                proc.terminate()
                proc.join(1.0)
                return
            deadline = time.monotonic() + _WORKER_REPLY_TIMEOUT_S
            with self._cond:
                while (self._running and rank not in self._up
                       and proc.exitcode is None):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(min(remaining, 0.2))
                recovered = self._running and rank in self._up
                if recovered:
                    self._dead.pop(rank, None)
                    self._outstanding[rank] = 0
                    self._cond.notify_all()
                elif not self._running and proc.is_alive():
                    proc.terminate()
            if recovered:
                metrics.counter("serve.pool.worker_restarts",
                                worker=str(rank)).inc()
                self._emit("worker_restart", worker=rank,
                           attempt=attempt,
                           restarts_remaining=(self.max_worker_restarts
                                               - attempt))
        finally:
            with self._cond:
                self._restarting.discard(rank)
                self._cond.notify_all()


__all__ = ["HEALTH_SCHEMA", "ServicePool"]
