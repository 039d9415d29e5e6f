"""repro.obs — telemetry and request-scoped observability.

The subsystem has seven pieces (see ``docs/observability.md``):

- a process-global :class:`~repro.obs.registry.MetricsRegistry` of
  counters / gauges / histograms with labels (``metrics``), renderable
  in Prometheus text format (:mod:`repro.obs.exposition`);
- named stage :func:`~repro.obs.tracing.span`\\ s on the train / data /
  pipeline / attention / serve hot paths: the one in-process stage
  timer, observed into the ``span.seconds{name=...}`` histogram (so it
  reaches Prometheus, the pool telemetry plane and, for request-bound
  spans, the event log);
- a contextvar-propagated request **correlation context**
  (:mod:`repro.obs.context`): request/trace ids minted at intake and
  stamped onto logs, events and request-scoped spans;
- the structured **event log** (:mod:`repro.obs.events`): append-only
  ``repro.events/v1`` JSONL of request lifecycle events with a
  flight-recorder ring buffer dumped on incidents;
- **SLOs** (:mod:`repro.obs.slo`): rolling-window objectives with
  multi-window burn-rate alerts, surfaced by ``service.health()`` and
  the ``repro top`` dashboard (:mod:`repro.obs.top`);
- **model quality** (:mod:`repro.obs.quality` +
  :mod:`repro.obs.drift`): per-model-version scorecards, PSI/KL drift
  detection against a pinned reference window, and the shadow canary
  that gates checkpoint hot-reloads;
- the **pool telemetry plane** (:mod:`repro.obs.telemetry`): workers
  ship seq-numbered metric-delta + event frames that the pool parent
  merges into its registry under ``worker=<rank>`` labels, so one
  exposition covers every replica.

Everything is **off by default**: :func:`span` is a no-op until
:func:`enable` is called; events are recorded only when an
:class:`~repro.obs.events.EventLog` is attached.  Speed is measured by
the ``bench/`` harness (``bench/README.md``), not by this package.
"""

from __future__ import annotations

from repro.obs import (
    context,
    events,
    exposition,
    slo,
    telemetry,
    top,
)
from repro.obs.context import RequestContext
from repro.obs.drift import DriftConfig, DriftDetector, kl_divergence, psi
from repro.obs.events import EventLog, read_event_log, request_timeline
from repro.obs.exposition import render_prometheus, write_prometheus
from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    SnapshotRing,
    TelemetryMerger,
    TelemetryShipper,
)
from repro.obs.logs import (
    ConsoleHandler,
    JsonFormatter,
    TelemetryHandler,
    get_logger,
    set_console,
)
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.slo import (
    BurnWindow,
    RollingQuantile,
    SLOConfig,
    SLOTracker,
    quantile,
)
from repro.obs.tracing import _set_enabled, is_enabled, span

#: The process-global default registry; hot paths cache series handles.
metrics: MetricsRegistry = get_registry()


def enable() -> None:
    """Turn telemetry on: activate spans and hot-path metric recording."""
    _set_enabled(True)


def disable() -> None:
    """Turn telemetry off: spans become no-ops again."""
    _set_enabled(False)


def reset() -> None:
    """Zero all metric series of the default registry in place."""
    metrics.reset()


__all__ = [
    "BurnWindow",
    "ConsoleHandler",
    "DriftConfig",
    "DriftDetector",
    "EventLog",
    "JsonFormatter",
    "MetricsRegistry",
    "RequestContext",
    "RollingQuantile",
    "SLOConfig",
    "SLOTracker",
    "SnapshotRing",
    "TELEMETRY_FORMAT",
    "TelemetryHandler",
    "TelemetryMerger",
    "TelemetryShipper",
    "context",
    "disable",
    "enable",
    "events",
    "exposition",
    "get_logger",
    "get_registry",
    "is_enabled",
    "kl_divergence",
    "metrics",
    "psi",
    "quantile",
    "read_event_log",
    "render_prometheus",
    "request_timeline",
    "reset",
    "set_console",
    "slo",
    "span",
    "telemetry",
    "top",
    "write_prometheus",
]
