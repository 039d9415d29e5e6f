"""repro.serve — fault-tolerant extraction service (``docs/serving.md``).

A long-running, in-process service over
:class:`~repro.core.pipeline.ScenarioExtractor`:

- :class:`ExtractionService` — dynamic micro-batching worker with
  per-request timeouts, bounded retry, load shedding, a circuit breaker
  degrading to a cheap fallback model, and atomic checkpoint hot-reload;
- :class:`ServicePool` — N process-based replicas behind
  deterministic content-hash sharding (:func:`shard_of`), a drop-in
  for :class:`ExtractionService` with the same in-place hot-reload and
  a ``repro.health/v1`` pool health rollup;
- :class:`ServiceClient` — the in-process caller API
  (``extract`` / ``extract_many`` / ``mine`` / ``health``);
- :class:`FaultInjector` — configurable failure/latency injection used
  to prove the robustness paths (tests, ``repro serve --inject-*``);
- :class:`QualityMonitor` (re-exported from :mod:`repro.obs.quality`)
  — streaming model-quality scorecards, drift alerts and the shadow
  canary that gates :meth:`ExtractionService.reload` (refusals raise
  :class:`CanaryRefusedError`).

Exposed on the CLI as ``repro serve``.
"""

from repro.obs.drift import DriftConfig
from repro.obs.quality import (
    CanaryRefusedError,
    QualityConfig,
    QualityMonitor,
)
from repro.serve.client import ServiceClient
from repro.serve.config import ServiceConfig
from repro.serve.faults import FaultInjector, InjectedFault, TransientWorkerError
from repro.serve.pool import HEALTH_SCHEMA, ServicePool
from repro.serve.router import shard_of
from repro.serve.service import (
    BATCH_SIZE_BUCKETS,
    STATUSES,
    CircuitBreaker,
    ExtractionService,
    RequestFuture,
    ServeResult,
)

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "STATUSES",
    "CanaryRefusedError",
    "CircuitBreaker",
    "DriftConfig",
    "ExtractionService",
    "FaultInjector",
    "HEALTH_SCHEMA",
    "InjectedFault",
    "QualityConfig",
    "QualityMonitor",
    "RequestFuture",
    "ServeResult",
    "ServiceClient",
    "ServiceConfig",
    "ServicePool",
    "TransientWorkerError",
    "shard_of",
]
