"""Structured, append-only request event log (``repro.events/v1``).

The event log is the persisted record of request lifecycles through the
serving stack: one JSON object per line, appended as one record write
(:func:`repro.durable.append_record`, the extraction cache's
crash-tolerance argument), rotated by size, and read back
corruption-tolerantly — a torn or garbled line is skipped and counted,
never fatal.

Every record carries:

- ``schema``  — :data:`EVENTS_FORMAT`;
- ``seq``     — per-log monotonically increasing sequence number (the
  total order events were emitted in);
- ``ts``      — wall-clock epoch seconds (for humans and cross-process
  alignment);
- ``mono``    — ``time.monotonic()`` seconds (for intra-process
  latency arithmetic, immune to clock steps);
- ``event``   — the lifecycle event name (``enqueue`` / ``flush`` /
  ``cache_hit`` / ``model_forward`` / ``retry`` / ``shed`` /
  ``degrade`` / ``reload`` / ``result`` / ``breaker_open`` / ...);
- ``request_id`` / ``trace_id`` — from the argument or the bound
  :mod:`repro.obs.context`; batch-scoped events carry ``request_ids``
  (the member requests) instead.

A bounded in-memory **flight recorder** ring buffer keeps the most
recent events even when the log is memory-only; :meth:`dump_flight`
writes the ring to its own file — the service triggers this
automatically when the circuit breaker opens or a request exhausts its
retries, so the moments leading up to an incident survive the incident.

See ``docs/observability.md`` for the full event schema.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional

from repro.durable import append_record, atomic_write, read_records, torn_tail
from repro.obs import context
from repro.obs.registry import get_registry

#: Schema tag written into every event record.
EVENTS_FORMAT = "repro.events/v1"

#: Active segment file name inside the log directory.
EVENTS_FILE = "events.jsonl"

#: Rotated segments: ``events-000001.jsonl`` sorts before the active
#: segment and in rotation order.
ROTATED_PREFIX = "events-"

#: Default size-based rotation threshold for one segment.
DEFAULT_ROTATE_BYTES = 8 * 1024 * 1024

#: Default flight-recorder ring capacity (events).
DEFAULT_RECORDER_SIZE = 256


class EventLog:
    """Append-only JSONL event sink with rotation and a flight recorder.

    Parameters
    ----------
    log_dir:
        Directory for the JSONL segments; created on demand.  ``None``
        keeps events in the flight-recorder ring only (memory mode).
    rotate_bytes:
        Size threshold after which the active segment is rotated to
        ``events-NNNNNN.jsonl`` and a fresh one started.
    recorder_size:
        Capacity of the in-memory flight-recorder ring buffer.
    """

    def __init__(self, log_dir: Optional[str] = None,
                 rotate_bytes: int = DEFAULT_ROTATE_BYTES,
                 recorder_size: int = DEFAULT_RECORDER_SIZE) -> None:
        if rotate_bytes <= 0:
            raise ValueError("rotate_bytes must be positive")
        if recorder_size <= 0:
            raise ValueError("recorder_size must be positive")
        self.log_dir = os.fspath(log_dir) if log_dir else None
        self.rotate_bytes = rotate_bytes
        self._lock = threading.Lock()
        self._seq = 0
        self._bytes = 0
        self._rotations = 0
        self._dumps = 0
        self._ring: "deque[dict]" = deque(maxlen=recorder_size)
        self._counter = get_registry().counter("events.emitted")
        self._sep = b""  # b"\n" while the active segment ends mid-line
        if self.log_dir is not None:
            segments = self._rotated_paths()
            self._rotations = len(segments)
            if os.path.exists(self.path):
                self._bytes = os.path.getsize(self.path)
                self._sep = b"\n" if torn_tail(self.path) else b""
                segments.append(self.path)
            # Continue ``seq`` after the newest segment holding a record
            # so it stays a total order across process restarts, also
            # after a crash between a rotation and the next append.
            for path in reversed(segments):
                self._seq = max((int(r.get("seq", 0))
                                 for r in read_events(path)), default=0)
                if self._seq:
                    break

    # -- paths ---------------------------------------------------------
    @property
    def path(self) -> Optional[str]:
        """The active segment path (``None`` in memory mode)."""
        if self.log_dir is None:
            return None
        return os.path.join(self.log_dir, EVENTS_FILE)

    def _rotated_paths(self) -> List[str]:
        if self.log_dir is None or not os.path.isdir(self.log_dir):
            return []
        names = sorted(
            name for name in os.listdir(self.log_dir)
            if name.startswith(ROTATED_PREFIX)
            and name.endswith(".jsonl")
        )
        return [os.path.join(self.log_dir, name) for name in names]

    # -- emission ------------------------------------------------------
    def emit(self, event: str, request_id: Optional[int] = None,
             trace_id: Optional[str] = None, **fields) -> dict:
        """Record one event; returns the full record that was written.

        ``request_id`` / ``trace_id`` default to the bound
        :mod:`repro.obs.context` (both omitted when there is none —
        system-scoped events like ``breaker_open`` have no request).
        Extra keyword fields are stored verbatim and must be
        JSON-serialisable.
        """
        if request_id is None:
            request_id = context.current_request_id()
        if trace_id is None:
            trace_id = context.current_trace_id()
        record: Dict[str, object] = {
            "schema": EVENTS_FORMAT,
            "event": event,
            "ts": time.time(),
            "mono": time.monotonic(),
        }
        if request_id is not None:
            record["request_id"] = request_id
        if trace_id is not None:
            record["trace_id"] = trace_id
        record.update(fields)
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            self._ring.append(record)
            if self.log_dir is not None:
                line = (json.dumps(record, sort_keys=True) + "\n") \
                    .encode("utf-8")
                if (self._bytes and
                        self._bytes + len(line) > self.rotate_bytes):
                    self._rotate_locked()
                # After a torn tail the first record starts a new line.
                line, self._sep = self._sep + line, b""
                append_record(self.path, line)
                self._bytes += len(line)
        self._counter.inc()
        return record

    def _rotate_locked(self) -> None:
        self._rotations += 1
        rotated = os.path.join(
            self.log_dir, f"{ROTATED_PREFIX}{self._rotations:06d}.jsonl")
        os.replace(self.path, rotated)
        self._bytes = 0
        self._sep = b""

    # -- flight recorder -----------------------------------------------
    def recent(self, n: Optional[int] = None) -> List[dict]:
        """The last ``n`` events (all ring contents by default)."""
        with self._lock:
            records = list(self._ring)
        return records if n is None else records[-n:]

    def dump_flight(self, reason: str) -> Optional[str]:
        """Write the flight-recorder ring to its own file.

        The dump is a standalone JSONL file (``flight-NNNN-<reason>``),
        published atomically, whose first line is a header record
        describing the trigger; the ring contents follow in emission
        order.  Returns the dump path, or ``None`` in memory mode (the
        ring is still available via :meth:`recent`).  A ``flight_dump``
        event is appended to the main log either way, so dumps are
        discoverable from the stream itself.
        """
        with self._lock:
            records = list(self._ring)
            self._dumps += 1
            dump_index = self._dumps
        path = None
        if self.log_dir is not None:
            safe = "".join(c if c.isalnum() or c in "-_" else "-"
                           for c in reason)
            path = os.path.join(self.log_dir,
                                f"flight-{dump_index:04d}-{safe}.jsonl")
            header = {
                "schema": EVENTS_FORMAT,
                "event": "flight_header",
                "reason": reason,
                "ts": time.time(),
                "mono": time.monotonic(),
                "events": len(records),
            }
            lines = [json.dumps(header, sort_keys=True)]
            lines += [json.dumps(r, sort_keys=True) for r in records]
            atomic_write(path, "\n".join(lines) + "\n")
        self.emit("flight_dump", reason=reason, events=len(records),
                  path=path)
        return path

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "events": self._seq,
                "segment_bytes": self._bytes,
                "rotations": self._rotations,
                "flight_dumps": self._dumps,
                "recorder_len": len(self._ring),
            }

    def read(self) -> Iterator[dict]:
        """Every persisted event in order (rotated segments first)."""
        if self.log_dir is None:
            yield from self.recent()
            return
        for path in self._rotated_paths() + [self.path]:
            if os.path.exists(path):
                yield from read_events(path)


# ----------------------------------------------------------------------
# Active-log plumbing (cache hits, correlated spans)
# ----------------------------------------------------------------------
_ACTIVE: Optional[EventLog] = None
_ACTIVE_LOCK = threading.Lock()


def set_active(log: Optional[EventLog]) -> Optional[EventLog]:
    """Install ``log`` as the process-wide event sink; returns the
    previous one.  Components that cannot be handed a log directly
    (the extraction cache, correlated spans) emit through the active
    log; ``None`` deactivates."""
    global _ACTIVE
    from repro.obs import tracing

    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = log
    tracing.set_span_hook(_span_hook if log is not None else None)
    return previous


def get_active() -> Optional[EventLog]:
    return _ACTIVE


def emit(event: str, **fields) -> Optional[dict]:
    """Emit through the active log; no-op (returns ``None``) without
    one.  The cheap-miss path for always-on call sites."""
    log = _ACTIVE
    if log is None:
        return None
    return log.emit(event, **fields)


def _span_hook(name: str, seconds: float) -> None:
    """Span-exit hook: persist request-correlated spans as events.

    Installed only while a log is active, and records only spans that
    ran under a bound request context — anonymous hot-path spans
    (per-op autograd timers, per-batch attention stages) stay in the
    aggregated trace tree and never flood the log.
    """
    ctx = context.current()
    if ctx is None:
        return
    log = _ACTIVE
    if log is not None:
        log.emit("span", request_id=ctx.request_id,
                 trace_id=ctx.trace_id, name=name, seconds=seconds)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_events(path: str) -> Iterator[dict]:
    """Yield events from one JSONL segment, skipping corrupt lines.

    Mirrors the extraction-cache loader: a torn write or garbled line
    increments ``events.corrupt`` and is skipped — never fatal, so a
    crash mid-write costs at most the final record.

    Forward-compatible: records from any *newer* ``repro.events/*``
    schema revision are yielded (counting ``events.forward_compat``),
    not rejected — a dashboard built against v1 must keep rendering a
    log written by a newer writer, ignoring fields and event types it
    does not know.  Only records from a different format family (or
    with no ``event`` name) count as corrupt.
    """
    registry = get_registry()
    corrupt = registry.counter("events.corrupt")
    forward = registry.counter("events.forward_compat")
    family = EVENTS_FORMAT.rsplit("/", 1)[0] + "/"

    def parse(record: dict) -> dict:
        schema = record.get("schema")
        if not (isinstance(schema, str) and schema.startswith(family)):
            raise ValueError(f"unknown event schema {schema!r}")
        if "event" not in record:
            raise ValueError("record missing 'event'")
        if schema != EVENTS_FORMAT:
            forward.inc()
        return record

    return read_records(path, parse, lambda lineno, exc: corrupt.inc())


def read_event_log(path: str) -> List[dict]:
    """All events under ``path`` (a log directory or one JSONL file),
    in emission order."""
    if os.path.isdir(path):
        # rotated segments (events-NNNNNN) precede the active segment
        files = sorted(
            (name for name in os.listdir(path)
             if name.endswith(".jsonl") and not name.startswith("flight-")),
            key=lambda name: (name == EVENTS_FILE, name))
        return [event for name in files
                for event in read_events(os.path.join(path, name))]
    return list(read_events(path))


def request_timeline(events: List[dict],
                     request_id: int) -> List[dict]:
    """Every event belonging to one request, in ``seq`` order.

    Includes request-stamped events and batch-scoped events whose
    ``request_ids`` member list contains the id — the join that
    reconstructs one request across coalesced batches.
    """
    timeline = [
        record for record in events
        if record.get("request_id") == request_id
        or request_id in record.get("request_ids", ())
    ]
    timeline.sort(key=lambda r: r.get("seq", 0))
    return timeline


__all__ = [
    "DEFAULT_RECORDER_SIZE",
    "DEFAULT_ROTATE_BYTES",
    "EVENTS_FILE",
    "EVENTS_FORMAT",
    "EventLog",
    "emit",
    "get_active",
    "read_event_log",
    "read_events",
    "request_timeline",
    "set_active",
]
