"""Prometheus text exposition of the metrics registry.

:func:`render_prometheus` renders every series of a
:class:`~repro.obs.registry.MetricsRegistry` in the Prometheus text
format (version 0.0.4):

- metric names are sanitised (``serve.batch_size`` →
  ``serve_batch_size``) and counters get the conventional ``_total``
  suffix;
- label values are escaped (``\\`` → ``\\\\``, ``"`` → ``\\"``,
  newline → ``\\n``);
- histograms expand to *cumulative* ``_bucket{le="..."}`` series ending
  in ``le="+Inf"``, plus ``_sum`` and ``_count`` — exactly the shape
  ``histogram_quantile()`` expects.

Output is deterministic: families sorted by name, series by label set,
so a scrape (or the golden-file test) is reproducible byte for byte.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional

from repro.durable import atomic_write
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    get_registry,
)

__all__ = ["render_prometheus", "write_prometheus",
           "sanitize_metric_name", "escape_label"]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """A valid Prometheus metric name for a registry series name.

    Dots (the registry's namespace separator) and any other invalid
    character become underscores; a leading digit gets a ``_`` prefix.
    """
    name = _NAME_BAD_CHARS.sub("_", name)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def escape_label(value: str) -> str:
    """Escape a label value per the text-format rules."""
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Dict[str, str],
                 extra: Optional[List[str]] = None) -> str:
    parts = [f'{sanitize_metric_name(k)}="{escape_label(v)}"'
             for k, v in sorted(labels.items())]
    if extra:
        parts += extra
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: Optional[MetricsRegistry] = None,
                      prefix: str = "") -> str:
    """The registry in Prometheus text format (trailing newline incl.).

    ``prefix`` is prepended to every metric name (e.g. ``"repro_"``)
    after sanitisation.
    """
    registry = registry or get_registry()
    families: Dict[str, List[Metric]] = {}
    kinds: Dict[str, str] = {}
    for metric in registry.series():
        base = prefix + sanitize_metric_name(metric.name)
        families.setdefault(base, []).append(metric)
        kinds[base] = metric.kind
    lines: List[str] = []
    for base in sorted(families):
        kind = kinds[base]
        sample_name = base + "_total" if kind == "counter" else base
        lines.append(f"# TYPE {sample_name} {kind}")
        for metric in families[base]:
            if isinstance(metric, Counter):
                lines.append(f"{base}_total{_labels_text(metric.labels)} "
                             f"{_format_value(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"{base}{_labels_text(metric.labels)} "
                             f"{_format_value(metric.value)}")
            elif isinstance(metric, Histogram):
                lines.extend(_histogram_lines(base, metric))
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(path: str,
                     registry: Optional[MetricsRegistry] = None,
                     prefix: str = "") -> str:
    """Atomically write the exposition to ``path``; returns the text.

    Publishes through :func:`repro.durable.atomic_write`, so a scraper
    (or a crash mid-write) never observes a truncated exposition — the
    file is always the complete output of some past render.
    """
    text = render_prometheus(registry, prefix=prefix)
    atomic_write(path, text)
    return text


def _histogram_lines(base: str, hist: Histogram) -> List[str]:
    lines = []
    cumulative = 0
    for bound, count in zip(hist.bounds, hist.bucket_counts):
        cumulative += count
        le = f'le="{_format_value(bound)}"'
        lines.append(f"{base}_bucket{_labels_text(hist.labels, [le])} "
                     f"{cumulative}")
    cumulative += hist.bucket_counts[-1]
    inf_labels = _labels_text(hist.labels, ['le="+Inf"'])
    lines.append(f"{base}_bucket{inf_labels} {cumulative}")
    lines.append(f"{base}_sum{_labels_text(hist.labels)} "
                 f"{_format_value(hist.sum)}")
    lines.append(f"{base}_count{_labels_text(hist.labels)} {hist.count}")
    return lines
