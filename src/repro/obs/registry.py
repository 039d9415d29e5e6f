"""Process-global metrics registry: counters, gauges, histograms.

A metric *series* is identified by ``(name, labels)`` — the same name
with different label values yields independent series, Prometheus-style::

    metrics = get_registry()
    metrics.counter("serve.requests", status="ok").inc()
    metrics.histogram("span.seconds", name="train/forward").observe(dt)

Series are created lazily on first access and cached, so hot paths can
hold a direct reference to a :class:`Counter`/:class:`Histogram` and pay
only an attribute bump per event.  :meth:`MetricsRegistry.reset` zeroes
every series *in place* (cached handles stay valid); :meth:`clear`
drops them entirely.

Export formats: :meth:`snapshot` (plain dicts), :meth:`export_jsonl`
(one JSON object per series per line) and :meth:`format_table`
(human-readable, aligned columns).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.durable import atomic_write

LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds — log-spaced and tuned for
#: wall-clock seconds from ~10µs ops up to ~10s stages.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
    3.0, 10.0,
)


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (events, calls, items)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class Gauge:
    """A value that can move both ways (learning rate, queue depth)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class Histogram:
    """Bucketed distribution of observations (latencies, sizes).

    Tracks count / sum / min / max plus per-bucket counts against fixed
    upper bounds; observations above the last bound land in the
    overflow bucket (``+inf``).
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "sum", "min", "max")

    def __init__(self, name: str, labels: Dict[str, str],
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError("bucket bounds must be non-empty and sorted")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {
                ("+inf" if i == len(self.bounds) else repr(self.bounds[i])): n
                for i, n in enumerate(self.bucket_counts) if n
            },
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Thread-safe get-or-create store of metric series."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], Metric] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, dict(self._labelset_dict(key[1])),
                                 **kwargs)
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r}{dict(key[1])!r} already registered as "
                f"{metric.kind}, not {cls.kind}"
            )
        return metric

    @staticmethod
    def _labelset_dict(labelset: LabelSet) -> Dict[str, str]:
        return dict(labelset)

    # -- accessors -----------------------------------------------------
    def counter(self, name: str, /, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, /, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, /,
                  bounds: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels,
                         bounds=bounds or DEFAULT_BUCKETS)

    # -- bulk operations -----------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def series(self) -> List[Metric]:
        """All series, sorted by (name, labels)."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> List[Dict[str, object]]:
        """Plain-data view of every series (JSON-serialisable)."""
        return [
            {"kind": m.kind, "name": m.name, "labels": dict(m.labels),
             **m.snapshot()}
            for m in self.series()
        ]

    def reset(self) -> None:
        """Zero every series in place; cached handles stay valid."""
        for metric in self._metrics.values():
            metric.reset()

    # -- cross-process telemetry (see ``repro.obs.telemetry``) ---------
    def snapshot_delta(self, baseline: Optional[dict] = None):
        """Change since *baseline* as plain rows, plus a new baseline.

        Returns ``(rows, new_baseline)``.  Counters and histograms ship
        the *increase* since the baseline (rows with zero change are
        omitted); gauges ship their current value (omitted only when
        unchanged and already present in the baseline).  Histogram rows
        carry cumulative ``min``/``max`` — merging with ``min()`` /
        ``max()`` stays correct because cumulative extrema only widen.

        ``baseline=None`` means "delta from zero": every live series is
        emitted in full.  The returned baseline is an opaque dict —
        pass it back to the next call.  Baselines are process-local
        bookkeeping; only the rows are meant to cross a process
        boundary (they are JSON/pickle-safe plain data).
        """
        baseline = baseline or {}
        rows: List[Dict[str, object]] = []
        new_baseline: Dict[Tuple[str, LabelSet], object] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            prev = baseline.get(key)
            if isinstance(metric, Counter):
                new_baseline[key] = metric.value
                delta = metric.value - (prev or 0.0)
                if delta:
                    rows.append({"kind": "counter", "name": metric.name,
                                 "labels": dict(metric.labels),
                                 "delta": delta})
            elif isinstance(metric, Gauge):
                new_baseline[key] = metric.value
                if prev is None or metric.value != prev:
                    rows.append({"kind": "gauge", "name": metric.name,
                                 "labels": dict(metric.labels),
                                 "value": metric.value})
            else:
                counts = tuple(metric.bucket_counts)
                new_baseline[key] = (counts, metric.count, metric.sum)
                prev_counts, prev_count, prev_sum = \
                    prev or ((0,) * len(counts), 0, 0.0)
                if metric.count != prev_count:
                    rows.append({
                        "kind": "histogram", "name": metric.name,
                        "labels": dict(metric.labels),
                        "bounds": list(metric.bounds),
                        "bucket_deltas": [n - p for n, p
                                          in zip(counts, prev_counts)],
                        "count": metric.count - prev_count,
                        "sum": metric.sum - prev_sum,
                        "min": metric.min, "max": metric.max,
                    })
        return rows, new_baseline

    def merge_frame(self, rows: Sequence[Dict[str, object]],
                    **extra_labels) -> int:
        """Fold :meth:`snapshot_delta` rows into this registry.

        ``extra_labels`` (typically ``worker=<rank>``) are stamped onto
        every merged series, which keeps shipped series collision-safe
        with this registry's native ones — a worker's
        ``serve.cache_hits`` lands as ``serve.cache_hits{worker="1"}``
        next to (never on top of) the parent's own counter.  Returns
        the number of rows merged.
        """
        merged = 0
        for row in rows:
            labels = dict(row["labels"])
            labels.update({k: str(v) for k, v in extra_labels.items()})
            kind = row["kind"]
            if kind == "counter":
                self.counter(row["name"], **labels).inc(float(row["delta"]))
            elif kind == "gauge":
                self.gauge(row["name"], **labels).set(float(row["value"]))
            elif kind == "histogram":
                hist = self.histogram(row["name"],
                                      bounds=tuple(row["bounds"]), **labels)
                if tuple(hist.bounds) != tuple(row["bounds"]):
                    raise ValueError(
                        f"histogram {row['name']!r} bucket bounds differ "
                        "from the already-registered series")
                for i, delta in enumerate(row["bucket_deltas"]):
                    hist.bucket_counts[i] += int(delta)
                hist.count += int(row["count"])
                hist.sum += float(row["sum"])
                hist.min = min(hist.min, float(row["min"]))
                hist.max = max(hist.max, float(row["max"]))
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
            merged += 1
        return merged

    def clear(self) -> None:
        """Drop all series (cached handles detach from the registry)."""
        with self._lock:
            self._metrics.clear()

    # -- export --------------------------------------------------------
    def export_jsonl(self, path_or_file) -> int:
        """Write one JSON object per series per line; returns the line
        count.  Accepts a path (published atomically) or an open text
        file."""
        rows = self.snapshot()
        text = "".join(json.dumps(row) + "\n" for row in rows)
        if hasattr(path_or_file, "write"):
            path_or_file.write(text)
        else:
            atomic_write(path_or_file, text)
        return len(rows)

    def format_table(self) -> str:
        """Aligned human-readable dump of every series."""
        header = ("kind", "name", "labels", "count", "total", "mean")
        rows = []
        for m in self.series():
            labels = ",".join(f"{k}={v}" for k, v in sorted(m.labels.items()))
            if isinstance(m, Histogram):
                rows.append((m.kind, m.name, labels, str(m.count),
                             f"{m.sum:.6g}", f"{m.mean:.6g}"))
            else:
                rows.append((m.kind, m.name, labels, "-",
                             f"{m.value:.6g}", "-"))
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
                 "  ".join("-" * w for w in widths)]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
                  for row in rows]
        return "\n".join(lines)


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _DEFAULT_REGISTRY
