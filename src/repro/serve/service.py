"""Fault-tolerant extraction serving: one request core over replicas.

:class:`_Frontend` is the request core both serving surfaces share: it
owns request and trace ids, submit validation, per-status accounting,
the SLO tracker and quality monitor, lifecycle events, canary-gated
reload and the ``repro.health/v1`` envelope.  :class:`Replica` is the
model side: a dynamic micro-batching queue (flush on ``max_batch`` or
the ``max_wait_s`` deadline, whichever first) feeding
:meth:`~repro.core.pipeline.ScenarioExtractor.extract_batch`, behind
bounded retry with exponential backoff, a queue-depth admission limit
that sheds load (``"shed"``), a circuit breaker that degrades to a
cheap per-frame fallback model, and an optional extraction cache
answered before the queue.  :class:`ExtractionService` is the
front-end over one in-thread replica;
:class:`~repro.serve.pool.ServicePool` routes each request to one of N
worker processes, each hosting a replica (:mod:`repro.serve.worker`).

Every request resolves to exactly one :class:`ServeResult` carrying a
correlation ``trace_id`` (:mod:`repro.obs.context`); the ``serve.*``
metrics account for each one.  With an
:class:`~repro.obs.events.EventLog` attached, each request's lifecycle
is recorded (``enqueue`` → ``flush``/``cache_hit``/``retry``/... →
``result``, batch events carrying the member ``request_ids``) and the
flight recorder is dumped when the breaker opens or a batch exhausts
its retries.  With a :class:`~repro.obs.quality.QualityMonitor`, served
results feed per-model-version scorecards and drift detection, clips
that reached a forward pass are reservoir-sampled into a canary slice,
and ``reload`` is gated behind a shadow canary.  See
``docs/serving.md`` and ``docs/observability.md``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.cache import (
    ExtractionCache,
    cache_key,
    clip_content_hash,
    extractor_version,
)
from repro.core.pipeline import ExtractionResult, ScenarioExtractor
from repro.nn.module import Module
from repro.obs import metrics, span
from repro.obs import context as obs_context
from repro.obs import events as obs_events
from repro.obs.events import EventLog
from repro.obs.quality import (
    CanaryRefusedError,
    QualityConfig,
    QualityMonitor,
)
from repro.obs.slo import RollingQuantile, SLOConfig, SLOTracker
from repro.serve.config import ServiceConfig
from repro.serve.faults import FaultInjector, TransientWorkerError

#: Bucket bounds for the ``serve.batch_size`` histogram (request counts,
#: not seconds).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Every status a request can resolve to.
STATUSES = ("ok", "degraded", "shed", "timeout", "error")

_EXPIRED = "deadline expired before completion"


@dataclass(frozen=True)
class ServeResult:
    """The service's answer to one request — always delivered.

    ``status`` is one of :data:`STATUSES`:

    - ``"ok"`` — primary model, bit-identical to a direct
      ``extract_batch`` call (``retries`` > 0 when transient failures
      were retried away; ``cached`` when answered from the extraction
      cache without touching the queue);
    - ``"degraded"`` — served by the fallback model while the circuit
      breaker was open; ``result`` is present but flagged;
    - ``"shed"`` — rejected at admission (queue full), never queued;
    - ``"timeout"`` — the per-request deadline expired first;
    - ``"error"`` — a non-retryable failure; ``error`` has the message.
    """

    request_id: int
    status: str
    result: Optional[ExtractionResult] = None
    retries: int = 0
    batch_size: int = 0
    latency_s: float = 0.0
    model_version: int = 0
    cached: bool = False
    error: str = ""
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        """True when a result was produced (primary or degraded)."""
        return self.status in ("ok", "degraded")

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"

    @property
    def tag_confidences(self) -> Dict[str, Dict[str, float]]:
        """Per-tag decode probabilities of the served extraction.

        Stamped at decode time on every path that yields a result
        (primary, degraded fallback, cache hit) so quality monitors
        read probabilities directly instead of re-running the decode.
        Empty for shed/timeout/error outcomes.
        """
        if self.result is None:
            return {}
        return self.result.tag_confidences


class _Job:
    """What a :class:`Replica` needs of one request.

    ``request_id`` and ``trace_id`` only label the result and batch
    events; ``clip_hash`` keys the cache and is set by whoever admits
    the job when the replica has one."""

    __slots__ = ("request_id", "trace_id", "clip", "clip_hash",
                 "enqueued_at", "deadline", "retries")

    def __init__(self, request_id: int, clip: np.ndarray,
                 enqueued_at: float, deadline: float,
                 clip_hash: Optional[str] = None,
                 trace_id: str = "") -> None:
        self.request_id = request_id
        self.trace_id = trace_id
        self.clip = clip
        self.clip_hash = clip_hash
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.retries = 0

    def outcome(self, status: str, version: int,
                result: Optional[ExtractionResult] = None,
                batch_size: int = 0, cached: bool = False,
                error: str = "") -> ServeResult:
        """This job's :class:`ServeResult`, timed from ``enqueued_at``."""
        return ServeResult(
            request_id=self.request_id, status=status, result=result,
            retries=self.retries, batch_size=batch_size,
            latency_s=time.monotonic() - self.enqueued_at,
            model_version=version, cached=cached, error=error,
            trace_id=self.trace_id)


class RequestFuture(_Job):
    """Handle returned by ``submit`` on either serving surface — the
    front-end's request itself; resolution is first-writer-wins."""

    __slots__ = ("_frontend", "_event", "_lock", "_result")

    def __init__(self, frontend: "_Frontend", request_id: int,
                 clip: np.ndarray, enqueued_at: float,
                 deadline: float) -> None:
        super().__init__(request_id, clip, enqueued_at, deadline,
                         trace_id=obs_context.mint_trace_id(request_id))
        self._frontend = frontend
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result: Optional[ServeResult] = None

    def try_resolve(self, result: ServeResult) -> bool:
        """Install ``result`` unless already resolved; True if we won."""
        with self._lock:
            if self._result is not None:
                return False
            self._result = result
        self._event.set()
        return True

    def done(self) -> bool:
        return self._result is not None

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """Block for the outcome; never raises for service-side faults.

        Waits until the request's own deadline (plus a small grace for
        an in-flight batch to land) or ``timeout``, whichever is
        shorter, then resolves to ``"timeout"`` if the worker has not.
        """
        deadline_wait = max(0.0, self.deadline - time.monotonic()) + 0.05
        wait = deadline_wait if timeout is None else min(timeout,
                                                         deadline_wait)
        while not self._event.wait(wait):
            if time.monotonic() >= self.deadline:
                self._frontend._resolve_timeout(self)
                break
            if timeout is not None:
                break
            wait = max(0.0, self.deadline - time.monotonic()) + 0.05
        if self._result is None:
            raise TimeoutError(
                f"request {self.request_id} not resolved within wait"
            )
        return self._result


class CircuitBreaker:
    """Closed → open on repeated failure or blown p95 latency budget;
    open → half-open probe after a cooldown; probe success closes.

    The p95 check uses the shared
    :class:`~repro.obs.slo.RollingQuantile` — same nearest-rank
    definition as the historical full-sort (bit-identical trip
    decisions, pinned by test), but each observation costs a binary
    search instead of an O(n log n) sort of the window.

    ``on_open`` / ``on_close`` callbacks (set by the replica for
    event-log emission and flight dumps) are invoked *outside* the
    breaker lock, with a short reason string.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self._config = config
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._latencies = RollingQuantile(window=config.breaker_window)
        self._gauge = metrics.gauge("serve.breaker_open")
        self._trips = metrics.counter("serve.breaker_trips")
        self.on_open: Optional[Callable[[str], None]] = None
        self.on_close: Optional[Callable[[str], None]] = None

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow_primary(self) -> bool:
        """Whether the next batch may try the primary model."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                cooled = (time.monotonic() - self._opened_at
                          >= self._config.breaker_cooldown_s)
                if cooled:
                    self._state = "half-open"
                    return True
                return False
            return True  # half-open: keep probing

    def record_success(self) -> None:
        closed = False
        with self._lock:
            self._consecutive_failures = 0
            if self._state != "closed":
                self._state = "closed"
                self._latencies.clear()
                self._gauge.set(0.0)
                closed = True
        if closed and self.on_close is not None:
            self.on_close("probe_success")

    def record_failure(self) -> None:
        opened = None
        with self._lock:
            self._consecutive_failures += 1
            tripped = (self._state == "half-open"
                       or self._consecutive_failures
                       >= self._config.breaker_failures)
            if tripped:
                self._trip_locked()
                opened = "consecutive_failures"
        if opened is not None and self.on_open is not None:
            self.on_open(opened)

    def record_latency(self, seconds: float) -> None:
        budget = self._config.breaker_latency_budget_s
        opened = None
        with self._lock:
            self._latencies.add(seconds)
            if (budget is not None and self._state == "closed"
                    and len(self._latencies)
                    >= self._config.breaker_min_samples):
                if self._latencies.value(0.95) > budget:
                    self._trip_locked()
                    opened = "latency_budget"
        if opened is not None and self.on_open is not None:
            self.on_open(opened)

    def reset(self) -> None:
        """Back to closed (used after a checkpoint hot-reload)."""
        closed = False
        with self._lock:
            closed = self._state != "closed"
            self._state = "closed"
            self._consecutive_failures = 0
            self._latencies.clear()
            self._gauge.set(0.0)
        if closed and self.on_close is not None:
            self.on_close("reset")

    def _trip_locked(self) -> None:
        self._state = "open"
        self._opened_at = time.monotonic()
        self._consecutive_failures = 0
        self._gauge.set(1.0)
        self._trips.inc()


#: Health documents from the single service and the pool carry this
#: schema tag; consumers (``repro top``, the smoke tests) key on it.
HEALTH_SCHEMA = "repro.health/v1"


def _record(result: ServeResult,
            breaker: Optional[CircuitBreaker]) -> None:
    """The metrics and breaker latency of one resolution, recorded once
    per request: by the front-end, or by a pool worker for its rank."""
    metrics.counter("serve.requests", status=result.status).inc()
    metrics.histogram("serve.latency_seconds").observe(result.latency_s)
    if breaker is not None and result.status != "shed":
        breaker.record_latency(result.latency_s)


class _Frontend:
    """The request core shared by :class:`ExtractionService` and
    :class:`~repro.serve.pool.ServicePool` (see module docstring).

    A transport subclass implements:

    - ``_admit(request)``: check that it is running, emit ``enqueue``,
      then answer, queue, route or shed the request.  The request must
      end up resolved exactly once, through :meth:`_finish`.
    - ``_serving()``: the serving extractor and its model version.
    - ``_swap(candidate)``: install an extractor that already passed
      the canary gate; return the new model version.
    - ``_replica_health(running)``: the transport's health
      fields, ``breaker`` included; replica sub-documents go under
      ``workers``.
    - ``ready()``, ``start()`` and ``stop()``; the last two call
      :meth:`_install_events` / :meth:`_restore_events`.
    """

    #: The ``role`` field of the health document.
    _role = "service"
    #: In-process transports trip a circuit breaker on resolved
    #: latencies; a pool's breakers live in its workers.
    breaker: Optional[CircuitBreaker] = None

    def __init__(self, extractor: ScenarioExtractor,
                 config: Optional[ServiceConfig],
                 events: Optional[EventLog],
                 slo: Optional[Union[SLOConfig, SLOTracker]],
                 quality: Optional[Union[QualityConfig, QualityMonitor]]
                 ) -> None:
        self.config = config or ServiceConfig()
        model_cfg = extractor.model.config
        self.clip_shape = (model_cfg.frames, model_cfg.channels,
                           model_cfg.height, model_cfg.width)
        self.events = events
        self.slo = (slo if isinstance(slo, SLOTracker)
                    else SLOTracker(slo))
        if isinstance(quality, QualityMonitor):
            self.quality: Optional[QualityMonitor] = quality
        elif quality is not None:
            self.quality = QualityMonitor(extractor.codec, quality,
                                          events=events)
        else:
            self.quality = None
        self._prev_active_events: Optional[EventLog] = None
        self._running = False
        self._started_at = 0.0
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._status_counts: Dict[str, int] = {s: 0 for s in STATUSES}
        self._counts_lock = threading.Lock()
        self._reload_counter = metrics.counter("serve.reloads")

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request intake ------------------------------------------------
    def submit(self, clip: np.ndarray,
               timeout: Optional[float] = None) -> RequestFuture:
        """Admit one clip ``(T, C, H, W)``; returns immediately.

        Shape mismatches raise ``ValueError`` (caller bug, not a serve
        outcome); submitting to a stopped front-end raises
        ``RuntimeError``.  Every admitted request resolves to exactly
        one :class:`ServeResult`, ``"shed"`` when admission is full.
        """
        clip = np.asarray(clip)
        if clip.shape != self.clip_shape:
            raise ValueError(
                f"expected clip of shape {self.clip_shape}, "
                f"got {clip.shape}"
            )
        if timeout is None:
            timeout = self.config.default_timeout_s
        now = time.monotonic()
        request = RequestFuture(self, self._allocate_id(), clip, now,
                                now + timeout)
        # The bound context makes the cache's hit/miss events and any
        # request-scoped spans carry this request's ids; ``enqueue`` is
        # the intake event for *every* request (cached, shed, queued),
        # so each lifecycle reads enqueue -> terminal ``result``.
        with obs_context.bind(request.request_id, request.trace_id):
            self._admit(request)
        return request

    def extract(self, clip: np.ndarray,
                timeout: Optional[float] = None) -> ServeResult:
        """Blocking submit-and-wait convenience."""
        return self.submit(clip, timeout=timeout).result()

    # -- hot reload ----------------------------------------------------
    def reload(self, source: Union[str, Module],
               force: bool = False) -> int:
        """Swap in new model weights without dropping a request; returns
        the new model version.

        ``source`` is a self-describing checkpoint path (rebuilt via
        :func:`repro.models.factory.load_model`) or an in-memory model.
        The clip shape must be unchanged (queued clips were validated
        against it).  The candidate extractor is cloned once from the
        serving one, keeping its decoding knobs.

        When a quality monitor is attached and its canary slice holds
        enough sampled live clips, the swap is **canary-gated**: the
        candidate shadow-infers the slice, its tag agreement and
        confidence shift against the serving model are scored
        (``canary_start`` / ``canary_verdict`` events), and a verdict
        below the agreement floor raises
        :class:`~repro.obs.quality.CanaryRefusedError` with the serving
        model untouched.  ``force=True`` skips the gate (operator
        override — the rollback path when the gate itself misfires).
        How the candidate is installed is the transport's ``_swap``.
        """
        if isinstance(source, Module):
            model = source
        else:
            from repro.models.factory import load_model

            model = load_model(source)
        cfg = model.config
        new_shape = (cfg.frames, cfg.channels, cfg.height, cfg.width)
        if new_shape != self.clip_shape:
            raise ValueError(
                f"reload would change clip shape {self.clip_shape} -> "
                f"{new_shape}; start a new {self._role} instead"
            )
        serving, serving_version = self._serving()
        candidate = serving.clone_with_model(model)
        if (not force and self.quality is not None
                and self.quality.canary_ready):
            # Shadow inference runs outside the model lock: live
            # batches keep flowing on the serving model meanwhile.
            verdict = self.quality.canary(
                serving, candidate, serving_version=serving_version)
            if not verdict["accepted"]:
                metrics.counter("serve.reloads_refused").inc()
                raise CanaryRefusedError(verdict)
        version = self._swap(candidate)
        self._reload_counter.inc()
        self._emit("reload", version=version)
        if self.quality is not None:
            # New model, new output distribution: re-pin the drift
            # reference so the swap itself doesn't read as drift.
            self.quality.on_reload(version)
        return version

    @property
    def model_version(self) -> int:
        return self._serving()[1]

    # -- probes --------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """Versioned ``repro.health/v1`` liveness/health snapshot.

        JSON-serialisable.  The front-end fills the envelope (schema,
        role, status, readiness, model version, precision — always
        ``"fp32"`` — uptime, per-status counts, SLO/quality/events
        reports); the transport adds its replica fields.  ``status`` is
        ``"degraded"`` when a breaker is not closed or a replica
        sub-document is not ``"ok"``.
        See ``docs/serving.md`` for the documented field set.
        """
        running = self._running
        replicas = self._replica_health(running)
        if not running:
            status = "stopped"
        elif replicas["breaker"] != "closed" or any(
                doc.get("status") != "ok"
                for doc in replicas.get("workers", {}).values()):
            status = "degraded"
        else:
            status = "ok"
        report: Dict[str, object] = {
            "schema": HEALTH_SCHEMA,
            "role": self._role,
            "status": status,
            "ready": self.ready(),
            **replicas,
            "model_version": self.model_version,
            "precision": "fp32",
            "uptime_s": (time.monotonic() - self._started_at
                         if running else 0.0),
            "requests": self.status_counts(),
            "slo": self.slo.report(),
        }
        if self.quality is not None:
            report["quality"] = self.quality.report()
        if self.events is not None:
            report["events"] = self.events.stats()
        return report

    def status_counts(self) -> Dict[str, int]:
        """Requests resolved so far, keyed by status."""
        with self._counts_lock:
            return dict(self._status_counts)

    # -- internals -----------------------------------------------------
    def _install_events(self) -> None:
        """Make ``events`` the process-wide active log, so cache and
        span events correlate with this front-end's requests."""
        if self.events is not None:
            self._prev_active_events = obs_events.set_active(self.events)

    def _restore_events(self) -> None:
        if self.events is not None:
            obs_events.set_active(self._prev_active_events)
            self._prev_active_events = None

    def _emit(self, event: str, request: Optional[RequestFuture] = None,
              **fields) -> None:
        """Record a lifecycle event when an event log is attached.

        With ``request`` the event is stamped explicitly (works from
        any thread, bound context or not); without, ids come from the
        bound context if any (system-scoped events stay unstamped)."""
        if self.events is None:
            return
        if request is not None:
            self.events.emit(event, request_id=request.request_id,
                             trace_id=request.trace_id, **fields)
        else:
            self.events.emit(event, **fields)

    def _allocate_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _finish(self, request: RequestFuture, result: ServeResult,
                worker: Optional[int] = None) -> bool:
        """Resolve + account; False when the request already resolved.

        ``worker`` is stamped on the ``result`` event when a pool
        worker served the request."""
        if not request.try_resolve(result):
            return False
        _record(result, self.breaker)
        with self._counts_lock:
            self._status_counts[result.status] += 1
        self.slo.record_request(result.ok, result.latency_s)
        extraction = result.result
        mean_confidence = None
        if extraction is not None and extraction.confidences:
            mean_confidence = (sum(extraction.confidences.values())
                               / len(extraction.confidences))
            self.slo.record_confidence(mean_confidence)
        if self.quality is not None and extraction is not None:
            self.quality.observe(result)
            if not result.cached:
                # Reservoir-sample the clips that reached a forward
                # pass: the canary's shadow-traffic slice.
                self.quality.sample_clip(request.clip)
        event_fields = dict(status=result.status,
                            latency_s=result.latency_s,
                            retries=result.retries,
                            batch_size=result.batch_size,
                            cached=result.cached,
                            model_version=result.model_version,
                            error=result.error)
        if worker is not None:
            event_fields["worker"] = worker
        if mean_confidence is not None:
            # Stamped so ``repro top --from-events`` can replay the
            # confidence objective offline.
            event_fields["mean_confidence"] = mean_confidence
        self._emit("result", request, **event_fields)
        return True

    def _resolve_timeout(self, request: RequestFuture) -> None:
        self._finish(request, request.outcome("timeout", self.model_version,
                                              error=_EXPIRED))


class Replica:
    """One model replica behind a micro-batch queue (see module
    docstring).

    Every job it admits resolves exactly once, through
    ``on_result(job, result)``: on the admitting thread for a cache hit
    or a shed, on the batch thread otherwise.  The host accounts for
    the result.

    Parameters
    ----------
    fallback:
        Extractor used while the circuit breaker is open.  Defaults to
        a ``frame-mlp`` per-frame baseline built from the primary's
        ``ModelConfig`` — cheap, always available, clearly flagged.
    fault_injector:
        Optional :class:`FaultInjector` applied to primary attempts.
    cache:
        Optional :class:`~repro.core.cache.ExtractionCache`, or a
        directory path to open one in.  Hits are answered at admission
        — before the micro-batch queue — with ``cached=True``;
        successful primary results populate it.  Entries are keyed by
        the primary model's content fingerprint, so a hot-reload to
        different weights never serves stale descriptions (degraded
        fallback results are never cached).
    events:
        Receives the batch events (``flush``/``retry``/``degrade``/
        ``model_forward`` carry the member ``request_ids``) and
        ``breaker_open``/``breaker_close``; the flight recorder is
        dumped when the breaker opens or a batch exhausts its retries.
    model_version:
        The version the replica starts at; each :meth:`swap` adds one.
    """

    def __init__(self, extractor: ScenarioExtractor, config: ServiceConfig,
                 on_result: Callable[[_Job, ServeResult], None],
                 fallback: Optional[Union[ScenarioExtractor,
                                          Module]] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 cache: Union[ExtractionCache, str, os.PathLike,
                              None] = None,
                 events: Optional[EventLog] = None,
                 model_version: int = 1) -> None:
        self.config = config
        self._on_result = on_result
        # ``_primary``, ``_model_version`` and ``_cache_version`` change
        # together, under ``_model_lock``.
        self._primary = extractor
        self._model_version = model_version
        self._model_lock = threading.Lock()
        if cache is not None and not isinstance(cache, ExtractionCache):
            cache = ExtractionCache(os.fspath(cache))
        self.cache = cache
        self._cache_version = (extractor_version(extractor)
                               if cache is not None else "")
        if fallback is None:
            from repro.models.factory import build_model

            fallback = build_model("frame-mlp", extractor.model.config,
                                   codec=extractor.codec)
        if isinstance(fallback, Module):
            fallback = extractor.clone_with_model(fallback)
        self.fallback = fallback
        self.fault_injector = fault_injector
        self.events = events
        self.breaker = CircuitBreaker(config)
        self.breaker.on_open = self._on_breaker_open
        self.breaker.on_close = self._on_breaker_close

        self._queue: deque = deque()
        self._queue_cond = threading.Condition()
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._inflight = 0

        self._retry_counter = metrics.counter("serve.retries")
        self._cache_hit_counter = metrics.counter("serve.cache_hits")
        self._depth_gauge = metrics.gauge("serve.queue_depth")
        self._batch_hist = metrics.histogram("serve.batch_size",
                                             bounds=BATCH_SIZE_BUCKETS)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> bool:
        """Start the batch thread; False when already running."""
        with self._queue_cond:
            if self._running:
                return False
            self._running = True
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-worker",
                                        daemon=True)
        self._thread.start()
        return True

    def stop(self, drain: bool = True, timeout: float = 10.0) -> bool:
        """Stop admitting and shut the batch thread down; False when not
        running.  ``drain=True`` serves everything already queued
        first; otherwise queued jobs resolve as ``"error"``."""
        with self._queue_cond:
            if not self._running:
                return False
            dropped = [] if drain else list(self._queue)
            if dropped:
                self._queue.clear()
                self._depth_gauge.set(0.0)
            self._running = False
            self._queue_cond.notify_all()
        self._fail(dropped, "service stopped")
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        return True

    # -- intake, model, health -----------------------------------------
    def admit(self, job: _Job) -> None:
        """Answer ``job`` from the cache, else queue it for the batch
        thread, else shed it; raises ``RuntimeError`` once stopping."""
        if self.cache is not None:
            hit = self.cache.get(self._cache_key(job.clip_hash))
            if hit is not None:
                self._cache_hit_counter.inc()
                self._on_result(job, job.outcome(
                    "ok", self.model_version, result=hit, cached=True))
                return
        with self._queue_cond:
            if not self._running:
                raise RuntimeError("service is not running")
            full = len(self._queue) >= self.config.max_queue
            if not full:
                self._queue.append(job)
                self._depth_gauge.set(float(len(self._queue)))
                self._queue_cond.notify()
        if full:
            self._on_result(job, job.outcome(
                "shed", self.model_version,
                error=f"queue full ({self.config.max_queue})"))

    def serving(self) -> Tuple[ScenarioExtractor, int]:
        """The serving extractor and its model version, read together."""
        with self._model_lock:
            return self._primary, self._model_version

    @property
    def model_version(self) -> int:
        return self.serving()[1]

    @property
    def depth(self) -> int:
        """Jobs waiting in the queue."""
        with self._queue_cond:
            return len(self._queue)

    def swap(self, candidate: ScenarioExtractor) -> int:
        """Install ``candidate`` under the model lock and return the new
        model version: the in-flight batch finishes on the old model,
        every later batch uses the new one."""
        with self._model_lock:
            self._primary = candidate
            self._model_version += 1
            version = self._model_version
            if self.cache is not None:
                # New weights → new content fingerprint: entries cached
                # under the old model can never be served again.
                self._cache_version = extractor_version(candidate)
        self.breaker.reset()
        return version

    def health(self) -> Dict[str, object]:
        """Queue depth, in-flight batch size, breaker state, and the
        cache and frame-reuse stats when present."""
        fields: Dict[str, object] = {
            "queue_depth": self.depth,
            "inflight": self._inflight,
            "breaker": self.breaker.state,
        }
        reuse_stats = getattr(self.serving()[0], "reuse_stats", None)
        if reuse_stats is not None:
            fields["reuse"] = reuse_stats()
        if self.cache is not None:
            fields["cache"] = self.cache.stats()
        return fields

    # -- internals -----------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(event, **fields)

    def _on_breaker_open(self, reason: str) -> None:
        self._emit("breaker_open", reason=reason)
        if self.events is not None:
            self.events.dump_flight(f"breaker_open-{reason}")

    def _on_breaker_close(self, reason: str) -> None:
        self._emit("breaker_close", reason=reason)

    def _cache_key(self, clip_hash: str) -> str:
        with self._model_lock:
            primary, version = self._primary, self._cache_version
        return cache_key(clip_hash, version,
                         primary.codec.vocab.content_hash,
                         primary.threshold)

    def _fail(self, jobs: List[_Job], error: str, version: int = 0,
              batch_size: int = 0) -> None:
        """Resolve every job in ``jobs`` as ``"error"``."""
        version = version or self.model_version
        for job in jobs:
            self._on_result(job, job.outcome(
                "error", version, batch_size=batch_size, error=error))

    def _loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            if batch:
                self._inflight = len(batch)
                try:
                    self._process_batch(batch)
                finally:
                    self._inflight = 0

    def _collect_batch(self) -> Optional[List[_Job]]:
        """Block for the first job, then coalesce until the batch is
        full or the micro-batch deadline passes.  ``None`` = shut down."""
        config = self.config
        with self._queue_cond:
            while not self._queue:
                if not self._running:
                    return None
                self._queue_cond.wait(0.1)
            batch = [self._queue.popleft()]
            flush_at = time.monotonic() + config.max_wait_s
            while len(batch) < config.max_batch:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                remaining = flush_at - time.monotonic()
                if remaining <= 0:
                    break
                self._queue_cond.wait(remaining)
            self._depth_gauge.set(float(len(self._queue)))
        return batch

    def _process_batch(self, batch: List[_Job]) -> None:
        now = time.monotonic()
        live = []
        for job in batch:
            if now >= job.deadline:
                self._on_result(job, job.outcome(
                    "timeout", self.model_version, error=_EXPIRED))
            else:
                live.append(job)
        if not live:
            return
        self._batch_hist.observe(float(len(live)))
        clips = np.stack([job.clip for job in live])
        member_ids = [job.request_id for job in live]
        self._emit("flush", batch_size=len(live), request_ids=member_ids)

        with self._model_lock:
            primary = self._primary
            version = self._model_version
            cache_version = self._cache_version

        backoff = self.config.backoff_s
        attempts = 0
        force_fallback = False
        while True:
            use_primary = (not force_fallback
                           and self.breaker.allow_primary())
            extractor = primary if use_primary else self.fallback
            try:
                with span("serve/batch"):
                    if use_primary and self.fault_injector is not None:
                        self.fault_injector(len(live))
                    results = extractor.extract_batch(clips)
            except TransientWorkerError as exc:
                if use_primary:
                    self.breaker.record_failure()
                    attempts += 1
                    if attempts <= self.config.max_retries:
                        for job in live:
                            job.retries += 1
                        self._retry_counter.inc(len(live))
                        self._emit("retry", attempt=attempts,
                                   request_ids=member_ids,
                                   error=str(exc))
                        if backoff > 0:
                            time.sleep(backoff)
                        backoff *= self.config.backoff_multiplier
                    else:
                        # retries exhausted: degrade this batch
                        force_fallback = True
                        self._emit("degrade",
                                   reason="retries_exhausted",
                                   request_ids=member_ids,
                                   error=str(exc))
                        if self.events is not None:
                            self.events.dump_flight("retries_exhausted")
                    continue
                # fallback itself failed transiently: give up explicitly
                self._fail(live, str(exc), version, len(live))
                return
            except Exception as exc:  # non-retryable worker bug
                if use_primary:
                    self.breaker.record_failure()
                self._fail(live, f"{type(exc).__name__}: {exc}",
                           version, len(live))
                return
            if use_primary:
                self.breaker.record_success()
            status = "ok" if use_primary else "degraded"
            self._emit("model_forward",
                       model="primary" if use_primary else "fallback",
                       batch_size=len(live), model_version=version,
                       request_ids=member_ids)
            for job, extraction in zip(live, results):
                if (use_primary and self.cache is not None
                        and job.clip_hash is not None):
                    # Keyed by the snapshot taken with the model that
                    # actually ran — consistent across a mid-batch
                    # reload.  Fallback results are never cached.
                    self.cache.put(
                        cache_key(job.clip_hash, cache_version,
                                  primary.codec.vocab.content_hash,
                                  primary.threshold),
                        extraction)
                self._on_result(job, job.outcome(
                    status, version, result=extraction,
                    batch_size=len(live)))
            return


class ExtractionService(_Frontend):
    """In-process serving surface: the front-end over one in-thread
    :class:`Replica` (see module docstring).

    Parameters
    ----------
    extractor:
        The primary extractor, or a bare model.
    config:
        Batching/robustness knobs; see :class:`ServiceConfig`.
    fallback / fault_injector / cache:
        The replica's; see :class:`Replica`.  Cache hits are answered
        at ``submit`` time.
    events:
        Optional :class:`~repro.obs.events.EventLog`.  When attached,
        every request's lifecycle is recorded (``enqueue`` →
        terminal ``result``), batch events carry member
        ``request_ids``, and the flight recorder is dumped on breaker
        opens / exhausted retries.  ``start()`` installs it as the
        process-wide active log (so cache and span events correlate);
        ``stop()`` restores the previous one.
    slo:
        :class:`~repro.obs.slo.SLOConfig` (or a prebuilt
        :class:`~repro.obs.slo.SLOTracker`) for the objectives
        evaluated in :meth:`health`; defaults to availability-only.
    quality:
        :class:`~repro.obs.quality.QualityConfig` (or a prebuilt
        :class:`~repro.obs.quality.QualityMonitor`) enabling model-
        quality observability: every served result feeds per-version
        scorecards and the drift detector, live clips are reservoir-
        sampled for the canary slice, and :meth:`reload` is gated
        behind a shadow-canary agreement check.  ``None`` (default)
        disables monitoring entirely — the hot path stays bare.
    """

    def __init__(self, extractor: Union[ScenarioExtractor, Module],
                 config: Optional[ServiceConfig] = None,
                 fallback: Optional[Union[ScenarioExtractor,
                                          Module]] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 cache: Union[ExtractionCache, str, os.PathLike,
                              None] = None,
                 events: Optional[EventLog] = None,
                 slo: Optional[Union[SLOConfig, SLOTracker]] = None,
                 quality: Optional[Union[QualityConfig,
                                         QualityMonitor]] = None
                 ) -> None:
        if isinstance(extractor, Module):
            extractor = ScenarioExtractor(extractor)
        super().__init__(extractor, config, events, slo, quality)
        self._replica = Replica(extractor, self.config,
                                self._from_replica, fallback=fallback,
                                fault_injector=fault_injector,
                                cache=cache, events=events)
        self.breaker = self._replica.breaker
        self._fallback = self._replica.fallback

    @property
    def _primary(self) -> ScenarioExtractor:
        return self._replica.serving()[0]

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ExtractionService":
        """Start the replica's batch thread; idempotent."""
        if self._replica.start():
            self._started_at = time.monotonic()
            self._install_events()
            self._running = True
        return self

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting requests and shut the replica down.

        ``drain=True`` serves everything already queued first;
        otherwise queued requests resolve as ``"error"``.
        """
        self._running = False
        if self._replica.stop(drain, timeout):
            self._restore_events()

    def ready(self) -> bool:
        """Readiness: accepting work and not saturated."""
        return (self._running
                and self._replica.depth < self.config.max_queue)

    # -- transport hooks -----------------------------------------------
    def _admit(self, request: RequestFuture) -> None:
        """Hand the request to the replica: answered from its cache,
        queued for its micro-batcher, or shed."""
        if not self._running:
            raise RuntimeError("service is not running")
        self._emit("enqueue", request, queue_depth=self._replica.depth)
        if self._replica.cache is not None:
            request.clip_hash = clip_content_hash(request.clip)
        self._replica.admit(request)

    def _from_replica(self, request: RequestFuture,
                      result: ServeResult) -> None:
        """Everything the replica resolves: one cache-objective sample
        per replica lookup, whatever status it ends in."""
        if self._replica.cache is not None:
            self.slo.record_cache(result.cached)
        if result.status == "shed":
            self._emit("shed", request, queue_depth=self.config.max_queue)
        self._finish(request, result)

    def _serving(self) -> Tuple[ScenarioExtractor, int]:
        return self._replica.serving()

    def _swap(self, candidate: ScenarioExtractor) -> int:
        return self._replica.swap(candidate)

    def _replica_health(self, running: bool) -> Dict[str, object]:
        return self._replica.health()
