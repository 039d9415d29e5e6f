"""repro.obs — telemetry and request-scoped observability.

The subsystem has six pieces (see ``docs/observability.md``):

- a process-global :class:`~repro.obs.registry.MetricsRegistry` of
  counters / gauges / histograms with labels (``metrics``), renderable
  in Prometheus text format (:mod:`repro.obs.exposition`);
- hierarchical tracing :func:`~repro.obs.tracing.span`\\ s that build an
  aggregated per-thread trace tree;
- patch-on-enable instrumentation of the autograd op-dispatch surface
  (:mod:`repro.obs.instrument`) plus always-present spans on the
  train / data / pipeline hot paths;
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

Everything is **off by default**: :func:`span` is a no-op and the
autograd ops are the pristine unpatched originals until
:func:`enable` is called; events are recorded only when an
:class:`~repro.obs.events.EventLog` is attached.  Speed is measured by
the ``bench/`` harness (``bench/README.md``), not by this package.
"""

from __future__ import annotations

from repro.obs import (
    context,
    events,
    exposition,
    instrument,
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
from repro.obs.tracing import (
    SpanNode,
    _set_enabled,
    flatten_trace,
    format_trace,
    get_trace,
    is_enabled,
    reset_trace,
    span,
    trace_dict,
    traced,
)

#: The process-global default registry; hot paths cache series handles.
metrics: MetricsRegistry = get_registry()


def enable(autograd: bool = True) -> None:
    """Turn telemetry on: activate spans + metric recording and (by
    default) patch the autograd per-op timers in."""
    _set_enabled(True)
    if autograd:
        instrument.install(metrics)


def disable() -> None:
    """Turn telemetry off and restore the unpatched autograd ops."""
    _set_enabled(False)
    instrument.uninstall()


def reset() -> None:
    """Zero all metric series and drop the current trace tree."""
    metrics.reset()
    reset_trace()


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
    "SpanNode",
    "TELEMETRY_FORMAT",
    "TelemetryHandler",
    "TelemetryMerger",
    "TelemetryShipper",
    "context",
    "disable",
    "enable",
    "events",
    "exposition",
    "flatten_trace",
    "format_trace",
    "get_logger",
    "get_registry",
    "get_trace",
    "instrument",
    "is_enabled",
    "kl_divergence",
    "metrics",
    "psi",
    "quantile",
    "read_event_log",
    "render_prometheus",
    "request_timeline",
    "reset",
    "reset_trace",
    "set_console",
    "slo",
    "span",
    "telemetry",
    "top",
    "trace_dict",
    "traced",
    "write_prometheus",
]
