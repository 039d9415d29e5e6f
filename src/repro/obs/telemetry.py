"""Cross-process telemetry plane for pools and fleets.

The serving pool (``repro.serve.pool``) runs each replica in its own OS
process, so every worker's :class:`~repro.obs.registry.MetricsRegistry`
— cache hits, breaker trips, batch/latency histograms — and its
internal event stream are invisible to the parent except through
point-in-time ``health()`` probes.  This module closes that gap with a
ship-and-merge protocol over the pool's existing result channel:

* Workers run a :class:`TelemetryShipper`: on a wall-clock cadence it
  snapshots the *delta* of its local registry since the last frame
  (:meth:`MetricsRegistry.snapshot_delta`), drains whitelisted internal
  events from an in-memory :class:`~repro.obs.events.EventLog` ring,
  and emits a seq-numbered :data:`TELEMETRY_FORMAT` frame.
* The parent runs a :class:`TelemetryMerger`: frames fold into the
  parent registry under a ``worker=<rank>`` label
  (:meth:`MetricsRegistry.merge_frame`, collision-safe with
  parent-native series) and worker events re-emit into the pool event
  log stamped ``worker=<rank>`` with the original worker-side ``seq``
  preserved as ``worker_seq``.

Why deltas, and why epochs
--------------------------
Shipping deltas (not cumulative values) makes the merge a plain
``inc`` — no per-series last-seen bookkeeping on the parent — but it
means a frame applied twice double-counts.  Two guards prevent that:
every frame carries a per-shipper monotone ``seq`` (the merger drops
``<=`` the last applied), and every worker *incarnation* carries an
``epoch`` (its spawn count).  A restarted worker starts a fresh shipper
whose baseline is its brand-new (empty) registry, so its deltas start
from zero under a higher epoch — late frames from the dead predecessor
compare ``(epoch, seq)``-older and are dropped.  The shipper's
construction baseline also swallows whatever the child registry
inherited from the parent at ``fork`` time, so parent-accumulated
counts are never re-shipped.

The same frame schema doubles as the fleet-side snapshot record:
:class:`SnapshotRing` keeps a bounded JSONL ring of periodic merged
registry snapshots next to a long ``extract_corpus`` run (see
``repro.core.fleet``), rewritten atomically so readers never observe a
torn file.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.durable import atomic_write, read_records
from repro.obs.events import EventLog
from repro.obs.registry import MetricsRegistry

#: Versioned schema tag carried by every telemetry frame and every
#: snapshot-ring record.  Readers accept any ``repro.telemetry/*``.
TELEMETRY_FORMAT = "repro.telemetry/v1"

#: Worker-internal events worth shipping to the pool log.  Request
#: lifecycle events (``enqueue`` / ``result`` / ``shed``) belong to the
#: parent, which records each request's once; a second copy from a
#: worker would break the lifecycle join that
#: ``repro top --from-events`` verifies.
WORKER_EVENT_WHITELIST = frozenset({
    "flush", "retry", "cache_hit", "cache_miss", "breaker_open",
    "breaker_close", "model_forward", "degrade",
})

#: Request-correlation fields stripped from shipped events: the
#: parent's own events carry each request's ids, so shipped internal
#: events stay unstamped.
_STRIP_FIELDS = ("schema", "seq", "mono", "request_id", "request_ids",
                 "trace_id")


class TelemetryShipper:
    """Worker-side frame producer (single-threaded use by the worker
    intake loop).

    The registry baseline is captured at construction: counts
    accumulated before the shipper exists — including everything a
    forked child inherited from its parent — are never shipped.
    """

    def __init__(self, registry: MetricsRegistry,
                 events: Optional[EventLog] = None,
                 rank: int = 0, epoch: int = 0) -> None:
        self.registry = registry
        self.events = events
        self.rank = int(rank)
        self.epoch = int(epoch)
        self._seq = 0
        self._last_event_seq = 0
        self._dropped = 0
        _, self._baseline = registry.snapshot_delta()

    def _drain_events(self) -> List[dict]:
        """Whitelisted ring events newer than the last shipped frame.

        The ring is bounded, so a slow cadence can lose events; the
        gap between the last shipped seq and the oldest surviving ring
        record is accounted in ``events_dropped`` (an upper bound — the
        lost span may have held non-whitelisted events too)."""
        if self.events is None:
            return []
        records = self.events.recent()
        fresh = [r for r in records if r["seq"] > self._last_event_seq]
        if fresh:
            self._dropped += max(0, fresh[0]["seq"]
                                 - self._last_event_seq - 1)
            self._last_event_seq = fresh[-1]["seq"]
        shipped = []
        for record in fresh:
            if record["event"] not in WORKER_EVENT_WHITELIST:
                continue
            clean = {k: v for k, v in record.items()
                     if k not in _STRIP_FIELDS}
            clean["seq"] = record["seq"]
            shipped.append(clean)
        return shipped

    def frame(self, force: bool = False) -> Optional[dict]:
        """Build the next telemetry frame, or ``None`` when nothing
        changed (unless ``force``, for the final flush on shutdown)."""
        rows, baseline = self.registry.snapshot_delta(self._baseline)
        events = self._drain_events()
        if not rows and not events and not force:
            return None
        self._baseline = baseline
        self._seq += 1
        return {
            "schema": TELEMETRY_FORMAT,
            "rank": self.rank,
            "epoch": self.epoch,
            "seq": self._seq,
            "metrics": rows,
            "events": events,
            "events_dropped": self._dropped,
        }


class TelemetryMerger:
    """Parent-side frame consumer (called from the pool's collector
    thread; per-rank ordering is the queue's FIFO guarantee).

    Frames merge into ``registry`` under a ``worker=<rank>`` label and
    worker events re-emit into ``events`` (when attached) with the
    original worker-side ``seq`` preserved as ``worker_seq``.  Stale
    or duplicate frames — ``(epoch, seq)`` not strictly newer than the
    last applied for that rank — are dropped, so a delta is never
    folded in twice even across worker restarts.
    """

    def __init__(self, registry: MetricsRegistry,
                 events: Optional[EventLog] = None) -> None:
        self.registry = registry
        self.events = events
        self._last: Dict[int, Tuple[int, int]] = {}

    def merge(self, frame: dict) -> bool:
        """Apply one frame; returns ``False`` if it was dropped."""
        schema = str(frame.get("schema", ""))
        if not schema.startswith("repro.telemetry/"):
            return False
        rank = int(frame["rank"])
        stamp = (int(frame.get("epoch", 0)), int(frame["seq"]))
        last = self._last.get(rank)
        if last is not None and stamp <= last:
            return False
        self._last[rank] = stamp
        worker = str(rank)
        self.registry.merge_frame(frame.get("metrics", ()), worker=worker)
        self.registry.counter("telemetry.frames", worker=worker).inc()
        dropped = int(frame.get("events_dropped", 0))
        if dropped:
            self.registry.gauge("telemetry.events_dropped",
                                worker=worker).set(dropped)
        if self.events is not None:
            for record in frame.get("events", ()):
                fields = {k: v for k, v in record.items()
                          if k not in ("event", "seq", "ts")}
                self.events.emit(record["event"], worker=rank,
                                 worker_seq=record["seq"],
                                 worker_ts=record.get("ts"), **fields)
        return True

    def last_applied(self, rank: int) -> Optional[Tuple[int, int]]:
        """``(epoch, seq)`` of the newest frame applied for ``rank``."""
        return self._last.get(rank)


class SnapshotRing:
    """Bounded JSONL ring of merged telemetry snapshots on disk.

    Each :meth:`append` republishes the file atomically
    (:func:`repro.durable.atomic_write`) keeping only the newest
    ``capacity`` records, so a reader — or a crash — always sees a
    complete, parseable file whose tail is the current state.
    """

    def __init__(self, path: str, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.path = os.fspath(path)
        self.capacity = int(capacity)
        self._records: List[dict] = list(self.read(self.path))[-capacity:]

    def append(self, record: dict) -> dict:
        record = dict(record)
        record.setdefault("schema", TELEMETRY_FORMAT)
        self._records.append(record)
        del self._records[:-self.capacity]
        atomic_write(self.path, "".join(json.dumps(r, sort_keys=True)
                                        + "\n" for r in self._records))
        return record

    def __len__(self) -> int:
        return len(self._records)

    @staticmethod
    def read(path: str) -> List[dict]:
        """Records of a ring file; corrupt or foreign lines skipped."""
        if not os.path.exists(path):
            return []
        return [r for r in read_records(path, on_corrupt=lambda *_: None)
                if isinstance(r, dict) and str(r.get("schema", ""))
                .startswith("repro.telemetry/")]


__all__ = [
    "TELEMETRY_FORMAT",
    "WORKER_EVENT_WHITELIST",
    "TelemetryShipper",
    "TelemetryMerger",
    "SnapshotRing",
]
