"""Tests for the request-observability layer (PR 5): correlation
context, structured event log + flight recorder, Prometheus exposition,
SLO burn-rate alerts, the ``repro top`` dashboard, exclusive op
self-time, structured console logging, and the end-to-end lifecycle
join guarantee of the serving stack."""

import json
import logging
import os
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.models import ModelConfig, build_model
from repro.obs import context as obs_context
from repro.obs import events as obs_events
from repro.obs.events import EventLog, read_event_log, request_timeline
from repro.obs.exposition import (
    escape_label,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.logs import get_logger, set_console
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    BurnWindow,
    RollingQuantile,
    SLOConfig,
    SLOTracker,
    quantile,
)
from repro.obs.top import (
    render,
    run_top,
    snapshot_from_events,
    snapshot_from_service,
)
from repro.serve.config import ServiceConfig
from repro.serve.faults import FaultInjector
from repro.serve.service import CircuitBreaker, ExtractionService


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Telemetry off/zeroed and no active event log around every test."""
    obs.disable()
    obs.metrics.clear()
    obs.reset_trace()
    obs_events.set_active(None)
    yield
    obs.disable()
    obs.metrics.clear()
    obs.reset_trace()
    obs_events.set_active(None)


CFG = ModelConfig(frames=4, dim=16, depth=1, num_heads=2, seed=0)


def make_model():
    return build_model("vt-divided", CFG)


def make_clips(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, CFG.frames, CFG.channels, CFG.height,
                       CFG.width)).astype(np.float32)


# ----------------------------------------------------------------------
# Correlation context
# ----------------------------------------------------------------------
class TestContext:
    def test_unbound_is_none(self):
        assert obs_context.current() is None
        assert obs_context.current_request_id() is None
        assert obs_context.current_trace_id() is None

    def test_bind_and_restore(self):
        with obs_context.bind(7) as ctx:
            assert obs_context.current_request_id() == 7
            assert obs_context.current_trace_id() == ctx.trace_id
            assert ctx.trace_id.endswith("-000007")
        assert obs_context.current() is None

    def test_nested_bind_shadows(self):
        with obs_context.bind(1) as outer:
            with obs_context.bind(2):
                assert obs_context.current_request_id() == 2
            assert obs_context.current() is outer

    def test_trace_ids_unique_and_prefixed(self):
        ids = {obs_context.mint_trace_id() for _ in range(100)}
        assert len(ids) == 100
        prefix = obs_context.run_id()
        assert all(t.startswith(prefix + "-") for t in ids)

    def test_explicit_trace_id_reenters(self):
        with obs_context.bind(3, trace_id="abc-000003") as ctx:
            assert ctx.trace_id == "abc-000003"

    def test_bind_propagates_into_threads_via_copy_context(self):
        import contextvars

        seen = []
        with obs_context.bind(9):
            snapshot = contextvars.copy_context()
        thread = threading.Thread(
            target=lambda: seen.append(
                snapshot.run(obs_context.current_request_id)))
        thread.start()
        thread.join()
        assert seen == [9]


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_emit_and_read_roundtrip(self, tmp_path):
        log = EventLog(str(tmp_path))
        log.emit("enqueue", request_id=1, trace_id="t-1", queue_depth=0)
        log.emit("result", request_id=1, trace_id="t-1", status="ok")
        events = read_event_log(str(tmp_path))
        assert [e["event"] for e in events] == ["enqueue", "result"]
        assert [e["seq"] for e in events] == [1, 2]
        assert all(e["schema"] == "repro.events/v1" for e in events)
        assert events[0]["queue_depth"] == 0

    def test_ids_default_from_bound_context(self, tmp_path):
        log = EventLog(str(tmp_path))
        with obs_context.bind(42) as ctx:
            record = log.emit("cache_hit")
        assert record["request_id"] == 42
        assert record["trace_id"] == ctx.trace_id

    def test_system_events_unstamped_without_context(self, tmp_path):
        log = EventLog(str(tmp_path))
        record = log.emit("breaker_open", reason="failures")
        assert "request_id" not in record
        assert "trace_id" not in record

    def test_corrupt_lines_skipped_not_fatal(self, tmp_path):
        log = EventLog(str(tmp_path))
        log.emit("a", request_id=1)
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write("{torn json\n")
            fh.write(json.dumps({"schema": "other/v9", "event": "x"})
                     + "\n")
        log.emit("b", request_id=1)
        events = read_event_log(str(tmp_path))
        assert [e["event"] for e in events] == ["a", "b"]
        assert obs.metrics.counter("events.corrupt").value == 2

    def test_rotation_by_size_preserves_order(self, tmp_path):
        log = EventLog(str(tmp_path), rotate_bytes=400)
        for i in range(20):
            log.emit("tick", request_id=i)
        assert log.stats()["rotations"] >= 1
        rotated = [name for name in os.listdir(tmp_path)
                   if name.startswith("events-")]
        assert rotated
        events = read_event_log(str(tmp_path))
        assert [e["seq"] for e in events] == list(range(1, 21))

    def test_seq_resumes_across_instances(self, tmp_path):
        EventLog(str(tmp_path)).emit("a")
        log2 = EventLog(str(tmp_path))
        record = log2.emit("b")
        assert record["seq"] == 2

    def test_event_after_torn_tail_survives(self, tmp_path):
        # The first emit after reopening a log whose last line was torn
        # starts a fresh line, so only the torn record is lost.
        EventLog(str(tmp_path)).emit("a", request_id=1)
        with open(tmp_path / "events.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.events/v1", "event": "to')
        EventLog(str(tmp_path)).emit("b", request_id=1)
        corrupt = obs.metrics.counter("events.corrupt")
        before = corrupt.value
        events = read_event_log(str(tmp_path))
        assert [e["event"] for e in events] == ["a", "b"]
        assert corrupt.value - before == 1

    def test_restart_after_rotation_keeps_segments_and_seq(self, tmp_path):
        # A crash between a rotation's rename and the next append leaves
        # no active segment.  The restarted log must continue both the
        # rotation numbering (no rotated segment overwritten) and seq.
        log = EventLog(str(tmp_path), rotate_bytes=400)
        for i in range(8):
            log.emit("tick", request_id=i)
        rotations = log.stats()["rotations"]
        assert rotations >= 1
        os.replace(log.path, tmp_path / f"events-{rotations + 1:06d}.jsonl")
        restarted = EventLog(str(tmp_path), rotate_bytes=400)
        for i in range(8, 16):
            restarted.emit("tick", request_id=i)
        assert restarted.stats()["rotations"] > rotations + 1
        events = read_event_log(str(tmp_path))
        assert [e["request_id"] for e in events] == list(range(16))
        seqs = [e["seq"] for e in events]
        assert seqs == list(range(1, 17))

    def test_memory_mode_keeps_ring_only(self):
        log = EventLog(None)
        for i in range(5):
            log.emit("tick", request_id=i)
        assert log.path is None
        assert [e["request_id"] for e in log.recent()] == list(range(5))
        assert list(log.read())[0]["event"] == "tick"

    def test_ring_is_bounded(self):
        log = EventLog(None, recorder_size=3)
        for i in range(10):
            log.emit("tick", request_id=i)
        assert [e["request_id"] for e in log.recent()] == [7, 8, 9]

    def test_request_timeline_joins_batch_events(self, tmp_path):
        log = EventLog(str(tmp_path))
        log.emit("enqueue", request_id=1)
        log.emit("enqueue", request_id=2)
        log.emit("flush", request_ids=[1, 2], batch_size=2)
        log.emit("result", request_id=1, status="ok")
        log.emit("result", request_id=2, status="ok")
        timeline = request_timeline(read_event_log(str(tmp_path)), 1)
        assert [e["event"] for e in timeline] == ["enqueue", "flush",
                                                  "result"]

    def test_flight_dump_writes_ring_with_header(self, tmp_path):
        log = EventLog(str(tmp_path), recorder_size=4)
        for i in range(6):
            log.emit("tick", request_id=i)
        path = log.dump_flight("breaker_open")
        assert path is not None and os.path.exists(path)
        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert lines[0]["event"] == "flight_header"
        assert lines[0]["reason"] == "breaker_open"
        # ring held the last 4 ticks at dump time
        assert [r["request_id"] for r in lines[1:]] == [2, 3, 4, 5]
        # discoverable from the main stream
        assert read_event_log(str(tmp_path))[-1]["event"] == "flight_dump"

    def test_active_log_module_emit(self, tmp_path):
        assert obs_events.emit("noop") is None  # no active log: no-op
        log = EventLog(str(tmp_path))
        previous = obs_events.set_active(log)
        assert previous is None
        try:
            obs_events.emit("via_active", request_id=5)
        finally:
            obs_events.set_active(previous)
        assert read_event_log(str(tmp_path))[0]["event"] == "via_active"

    def test_span_events_only_under_bound_context(self, tmp_path):
        log = EventLog(str(tmp_path))
        obs_events.set_active(log)
        obs.enable(autograd=False)
        with obs.span("anonymous/hot"):
            pass
        with obs_context.bind(11):
            with obs.span("request/work"):
                pass
        obs_events.set_active(None)
        events = read_event_log(str(tmp_path))
        spans = [e for e in events if e["event"] == "span"]
        assert [s["name"] for s in spans] == ["request/work"]
        assert spans[0]["request_id"] == 11


# ----------------------------------------------------------------------
# Quantiles + SLO
# ----------------------------------------------------------------------
class TestQuantiles:
    def test_nearest_rank_definition(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert quantile(values, 0.95) == 4.0  # sorted[int(.95 * 4)]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            RollingQuantile(4).value(0.5)

    def test_rolling_matches_full_sort_reference(self):
        rng = np.random.default_rng(7)
        window = 32
        rolling = RollingQuantile(window)
        seen = []
        for value in rng.random(500):
            rolling.add(float(value))
            seen.append(float(value))
            reference = quantile(seen[-window:], 0.95)
            assert rolling.value(0.95) == reference

    def test_rolling_evicts_oldest(self):
        rolling = RollingQuantile(2)
        for v in (10.0, 1.0, 2.0):
            rolling.add(v)
        assert len(rolling) == 2
        assert rolling.value(1.0) == 2.0  # the 10.0 left the window


class TestSLO:
    WINDOWS = (BurnWindow(long_s=30.0, short_s=5.0, factor=2.0),)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(availability_target=1.5)
        with pytest.raises(ValueError):
            SLOConfig(latency_threshold_s=-1.0)
        with pytest.raises(ValueError):
            BurnWindow(long_s=1.0, short_s=2.0, factor=1.0)

    def test_all_good_no_alerts(self):
        tracker = SLOTracker(SLOConfig(windows=self.WINDOWS))
        for i in range(50):
            tracker.record_request(True, 0.01, now=float(i) * 0.1)
        report = tracker.report(now=5.0)
        assert report["alerts"] == []
        assert report["objectives"]["availability"]["observed"] == 1.0

    def test_sustained_burn_fires_both_windows(self):
        tracker = SLOTracker(SLOConfig(availability_target=0.99,
                                       windows=self.WINDOWS))
        for i in range(100):
            tracker.record_request(i % 2 == 0, 0.01, now=float(i) * 0.2)
        report = tracker.report(now=20.0)
        assert any(a["objective"] == "availability"
                   for a in report["alerts"])
        alert = report["alerts"][0]
        assert alert["long_burn_rate"] > 2.0
        assert alert["short_burn_rate"] > 2.0

    def test_old_blip_outside_short_window_does_not_fire(self):
        tracker = SLOTracker(SLOConfig(availability_target=0.99,
                                       windows=self.WINDOWS))
        # burst of failures early, then a healthy tail filling the
        # short window
        for i in range(20):
            tracker.record_request(False, 0.01, now=float(i) * 0.1)
        for i in range(200):
            tracker.record_request(True, 0.01, now=10.0 + i * 0.1)
        assert tracker.report(now=30.0)["alerts"] == []

    def test_latency_objective_counts_served_only(self):
        tracker = SLOTracker(SLOConfig(latency_threshold_s=0.1,
                                       windows=self.WINDOWS))
        tracker.record_request(True, 0.5, now=1.0)    # served, slow
        tracker.record_request(False, 9.9, now=1.1)   # shed: not counted
        latency = tracker.report(now=2.0)["objectives"]["latency"]
        assert latency["samples"] == 1
        assert latency["observed"] == 0.0

    def test_p95_latency_reported(self):
        tracker = SLOTracker(SLOConfig(windows=self.WINDOWS))
        for value in (0.01, 0.02, 0.03):
            tracker.record_request(True, value, now=1.0)
        # nearest rank: sorted[int(0.95 * 2)] == sorted[1]
        assert tracker.report(now=1.0)["p95_latency_s"] == 0.02

    def test_cache_objective_gated_on_floor(self):
        tracker = SLOTracker(SLOConfig(cache_hit_floor=0.5,
                                       windows=self.WINDOWS))
        tracker.record_cache(True, now=1.0)
        tracker.record_cache(False, now=1.1)
        objectives = tracker.report(now=2.0)["objectives"]
        assert objectives["cache_hit_rate"]["observed"] == 0.5
        plain = SLOTracker(SLOConfig(windows=self.WINDOWS))
        assert "cache_hit_rate" not in plain.report(now=1.0)["objectives"]


# ----------------------------------------------------------------------
# Circuit breaker: shared quantile helper (S3)
# ----------------------------------------------------------------------
class _ReferenceP95:
    """The breaker's historical p95: deque window + full sort."""

    def __init__(self, config):
        from collections import deque

        self._latencies = deque(maxlen=config.breaker_window)
        self._config = config

    def record(self, seconds):
        """Returns True when this observation would trip the breaker."""
        self._latencies.append(seconds)
        if len(self._latencies) < self._config.breaker_min_samples:
            return False
        ordered = sorted(self._latencies)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
        return p95 > self._config.breaker_latency_budget_s


class TestBreakerQuantile:
    def test_trip_decisions_identical_to_historical_sort(self):
        config = ServiceConfig(breaker_window=24, breaker_min_samples=8,
                               breaker_latency_budget_s=0.05,
                               breaker_failures=10 ** 6)
        rng = np.random.default_rng(42)
        latencies = np.where(rng.random(400) < 0.08,
                             rng.uniform(0.06, 0.2, 400),
                             rng.uniform(0.001, 0.04, 400))
        breaker = CircuitBreaker(config)
        reference = _ReferenceP95(config)
        trips, ref_trips = [], []
        for i, value in enumerate(latencies):
            if breaker.state == "open":
                # keep both models aligned: reference window also resets
                breaker.reset()
                reference = _ReferenceP95(config)
            tripped_ref = reference.record(float(value))
            breaker.record_latency(float(value))
            if breaker.state == "open":
                trips.append(i)
            if tripped_ref:
                ref_trips.append(i)
        assert trips == ref_trips
        assert trips  # the stream actually exercised the trip path

    def test_latency_trip_reports_reason_via_callback(self):
        config = ServiceConfig(breaker_window=8, breaker_min_samples=4,
                               breaker_latency_budget_s=0.01,
                               breaker_failures=10 ** 6)
        breaker = CircuitBreaker(config)
        reasons = []
        breaker.on_open = reasons.append
        for _ in range(4):
            breaker.record_latency(0.5)
        assert breaker.state == "open"
        assert reasons == ["latency_budget"]

    def test_failure_trip_and_close_callbacks(self):
        config = ServiceConfig(breaker_failures=2,
                               breaker_cooldown_s=0.0)
        breaker = CircuitBreaker(config)
        opened, closed = [], []
        breaker.on_open = opened.append
        breaker.on_close = closed.append
        breaker.record_failure()
        breaker.record_failure()
        assert opened == ["consecutive_failures"]
        assert breaker.allow_primary()  # cooldown 0: half-open probe
        breaker.record_success()
        assert closed == ["probe_success"]


# ----------------------------------------------------------------------
# Prometheus exposition (S4)
# ----------------------------------------------------------------------
GOLDEN_EXPOSITION = """\
# TYPE cache_hit_total counter
cache_hit_total 3
# TYPE serve_batch_size histogram
serve_batch_size_bucket{le="1"} 1
serve_batch_size_bucket{le="4"} 3
serve_batch_size_bucket{le="+Inf"} 4
serve_batch_size_sum 14
serve_batch_size_count 4
# TYPE serve_queue_depth gauge
serve_queue_depth 2.5
# TYPE serve_requests_total counter
serve_requests_total{status="degraded"} 1
serve_requests_total{status="ok"} 7
"""


class TestExposition:
    def build_registry(self):
        reg = MetricsRegistry()
        reg.counter("cache.hit").inc(3)
        reg.counter("serve.requests", status="ok").inc(7)
        reg.counter("serve.requests", status="degraded").inc()
        reg.gauge("serve.queue_depth").set(2.5)
        hist = reg.histogram("serve.batch_size", bounds=(1.0, 4.0))
        for value in (1.0, 2.0, 4.0, 7.0):
            hist.observe(value)
        return reg

    def test_golden_file(self):
        assert render_prometheus(self.build_registry()) == \
            GOLDEN_EXPOSITION

    def test_rendering_is_deterministic(self):
        assert render_prometheus(self.build_registry()) == \
            render_prometheus(self.build_registry())

    def test_name_sanitisation(self):
        assert sanitize_metric_name("serve.batch_size") == \
            "serve_batch_size"
        assert sanitize_metric_name("9lives") == "_9lives"

    def test_label_escaping(self):
        assert escape_label('a"b') == 'a\\"b'
        assert escape_label("a\\b") == "a\\\\b"
        assert escape_label("a\nb") == "a\\nb"
        reg = MetricsRegistry()
        reg.counter("evil", msg='say "hi"\nback\\slash').inc()
        text = render_prometheus(reg)
        assert 'msg="say \\"hi\\"\\nback\\\\slash"' in text

    def test_histogram_buckets_cumulative_and_complete(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", bounds=(0.1, 1.0, 10.0))
        rng = np.random.default_rng(0)
        for value in rng.uniform(0.0, 20.0, 200):
            hist.observe(float(value))
        lines = render_prometheus(reg).splitlines()
        buckets = [int(line.rsplit(" ", 1)[1]) for line in lines
                   if line.startswith("lat_bucket")]
        assert buckets == sorted(buckets)  # monotone non-decreasing
        assert buckets[-1] == 200          # le="+Inf" == count
        assert "lat_count 200" in lines

    def test_prefix(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(1.0)
        assert "repro_depth 1" in render_prometheus(reg, prefix="repro_")


# ----------------------------------------------------------------------
# Exclusive self-time (S1)
# ----------------------------------------------------------------------
class TestSelfTime:
    def test_nested_op_time_excluded_from_parent_self(self):
        from repro.autograd.tensor import Tensor

        obs.enable()
        try:
            t = Tensor(np.random.default_rng(0).random((64, 64)))
            for _ in range(3):
                t.mean()  # mean -> sum, __mul__ nested underneath
        finally:
            obs.disable()
        incl = obs.metrics.histogram("autograd.op.seconds", op="mean")
        excl = obs.metrics.histogram("autograd.op.self_seconds",
                                     op="mean")
        child_incl = (
            obs.metrics.histogram("autograd.op.seconds", op="sum").sum
            + obs.metrics.histogram("autograd.op.seconds", op="mul").sum
        )
        assert excl.count == incl.count == 3
        assert excl.sum <= incl.sum
        # self = inclusive - direct children, measured with the same
        # clock readings, so the identity is exact
        assert excl.sum == pytest.approx(incl.sum - child_incl)

    def test_leaf_op_self_equals_inclusive(self):
        from repro.autograd.tensor import Tensor

        obs.enable()
        try:
            a = Tensor(np.ones((8, 8)))
            b = Tensor(np.ones((8, 8)))
            a @ b
        finally:
            obs.disable()
        incl = obs.metrics.histogram("autograd.op.seconds", op="matmul")
        excl = obs.metrics.histogram("autograd.op.self_seconds",
                                     op="matmul")
        assert excl.sum == pytest.approx(incl.sum)

    def test_op_totals_include_self_seconds(self):
        from repro.obs.instrument import op_totals

        obs.enable()
        try:
            from repro.autograd.tensor import Tensor

            Tensor(np.ones(4)).sum()
        finally:
            obs.disable()
        totals = op_totals(obs.metrics)
        assert "self_seconds" in totals["sum"]
        assert totals["sum"]["self_seconds"] > 0


# ----------------------------------------------------------------------
# Structured console logging (S2)
# ----------------------------------------------------------------------
class TestStructuredLogs:
    def test_jsonl_records_carry_context_ids(self, capsys):
        logger = get_logger("serve.test")
        handler = set_console(logger, structured=True)
        try:
            with obs_context.bind(5) as ctx:
                logger.info("request %d accepted", 5)
            logger.info("no context here")
        finally:
            set_console(logger, enabled=False)
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        first, second = lines
        assert first["message"] == "request 5 accepted"
        assert first["request_id"] == 5
        assert first["trace_id"] == ctx.trace_id
        assert first["logger"] == "repro.serve.test"
        assert first["level"] == "INFO"
        assert first["ts"] > 0 and first["mono"] > 0
        assert "request_id" not in second
        assert handler is not None

    def test_structured_toggle_reformats_in_place(self, capsys):
        logger = get_logger("serve.toggle")
        first = set_console(logger, structured=True)
        second = set_console(logger, structured=False)
        try:
            assert first is second  # re-formatted, not re-added
            logger.info("plain again")
        finally:
            set_console(logger, enabled=False)
        assert capsys.readouterr().out == "plain again\n"

    def test_exception_type_recorded(self, capsys):
        logger = get_logger("serve.err")
        set_console(logger, structured=True)
        try:
            try:
                raise ValueError("boom")
            except ValueError:
                logger.exception("failed")
        finally:
            set_console(logger, enabled=False)
        record = json.loads(
            capsys.readouterr().out.strip().splitlines()[0])
        assert record["exc_type"] == "ValueError"
        assert record["level"] == "ERROR"


# ----------------------------------------------------------------------
# repro top snapshots
# ----------------------------------------------------------------------
def synthetic_events():
    """A hand-written two-request lifecycle (one ok, one shed)."""
    base = {"schema": "repro.events/v1"}
    records = [
        {"event": "enqueue", "request_id": 1, "trace_id": "t-1",
         "queue_depth": 0, "mono": 1.0},
        {"event": "cache_miss", "request_id": 1, "trace_id": "t-1",
         "mono": 1.0},
        {"event": "enqueue", "request_id": 2, "trace_id": "t-2",
         "queue_depth": 1, "mono": 1.1},
        {"event": "shed", "request_id": 2, "trace_id": "t-2",
         "queue_depth": 1, "mono": 1.1},
        {"event": "result", "request_id": 2, "trace_id": "t-2",
         "status": "shed", "latency_s": 0.0, "mono": 1.1},
        {"event": "flush", "request_ids": [1], "batch_size": 1,
         "mono": 1.2},
        {"event": "model_forward", "model": "primary", "batch_size": 1,
         "request_ids": [1], "mono": 1.3},
        {"event": "result", "request_id": 1, "trace_id": "t-1",
         "status": "ok", "latency_s": 0.3, "mono": 1.3},
    ]
    return [dict(base, seq=i + 1, ts=100.0 + i / 10.0, **r)
            for i, r in enumerate(records)]


class TestTop:
    def test_snapshot_accounts_per_status(self):
        snap = snapshot_from_events(synthetic_events())
        assert snap["schema"] == "repro.top/v1"
        assert snap["requests"]["statuses"] == {"ok": 1, "shed": 1}
        assert snap["requests"]["served"] == 1
        assert snap["cache"] == {"hits": 0, "misses": 1, "hit_rate": 0.0}
        assert snap["batches"]["count"] == 1
        assert snap["model_forwards"]["primary"] == 1
        assert snap["lifecycles"]["fully_joined"] is True

    def test_missing_terminal_breaks_join(self):
        events = [e for e in synthetic_events()
                  if not (e["event"] == "result"
                          and e.get("request_id") == 1)]
        lifecycles = snapshot_from_events(events)["lifecycles"]
        assert lifecycles["fully_joined"] is False
        assert lifecycles["incomplete_ids"] == [1]

    def test_duplicate_terminal_breaks_join(self):
        events = synthetic_events()
        events.append(dict(events[-1], seq=99))
        lifecycles = snapshot_from_events(events)["lifecycles"]
        assert lifecycles["fully_joined"] is False
        assert lifecycles["duplicate_terminal_ids"] == [1]

    def test_mixed_trace_ids_break_join(self):
        events = synthetic_events()
        events[-1] = dict(events[-1], trace_id="t-OTHER")
        lifecycles = snapshot_from_events(events)["lifecycles"]
        assert lifecycles["multi_trace_ids"] == [1]
        assert lifecycles["fully_joined"] is False

    def test_render_mentions_key_figures(self):
        text = render(snapshot_from_events(synthetic_events()))
        assert "repro top" in text
        assert "ok=1" in text and "shed=1" in text
        assert "breaker" in text and "lifecycle" in text

    def test_run_top_json_from_directory(self, tmp_path, capsys):
        log = EventLog(str(tmp_path))
        for record in synthetic_events():
            payload = {k: v for k, v in record.items()
                       if k not in ("schema", "seq", "ts", "mono")}
            log.emit(payload.pop("event"), **payload)
        assert run_top(str(tmp_path), json_mode=True) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["requests"]["statuses"] == {"ok": 1, "shed": 1}
        assert snap["lifecycles"]["fully_joined"] is True

    def test_cli_top_command(self, tmp_path, capsys):
        from repro.cli import main

        log = EventLog(str(tmp_path))
        log.emit("enqueue", request_id=1, trace_id="t", queue_depth=0)
        log.emit("result", request_id=1, trace_id="t", status="ok",
                 latency_s=0.01)
        code = main(["top", "--from-events", str(tmp_path), "--json"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["requests"]["total"] == 1


# ----------------------------------------------------------------------
# Service integration: the lifecycle join guarantee
# ----------------------------------------------------------------------
class _GatedInjector(FaultInjector):
    """A :class:`FaultInjector` that can hold the worker: while ``gate``
    is clear, a primary attempt sets ``held`` and waits for the gate
    before drawing its usual faults."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.gate.set()
        self.held = threading.Event()

    def __call__(self, batch_size: int) -> None:
        if not self.gate.is_set():
            self.held.set()
            self.gate.wait(30.0)
        super().__call__(batch_size)


def run_service_burst(tmp_path, failure_rate=0.4, seed=42):
    """A 200-request fault-injected burst in two phases on one service.

    Phase A (160 requests, concurrency matched to the queue) exercises
    cache hits, retries and breaker-driven degradation; phase B floods
    40 fresh clips through ``submit`` without waiting.  The worker is
    held in the injector on the first flood clip while the other 39 are
    submitted, so 16 fill the queue and the admission limit sheds the
    rest deterministically.  All 200 lifecycles land in the same event
    log.
    """
    from repro.core.cache import ExtractionCache
    from repro.serve.client import ServiceClient

    events = EventLog(str(tmp_path))
    injector = _GatedInjector(failure_rate=failure_rate, latency_s=0.01,
                              latency_rate=0.1, seed=seed)
    config = ServiceConfig(max_batch=4, max_wait_s=0.002, max_queue=16,
                           max_retries=1, breaker_failures=2,
                           breaker_cooldown_s=0.02)
    service = ExtractionService(
        make_model(), config,
        fault_injector=injector,
        cache=ExtractionCache(None),
        events=events,
        slo=SLOConfig(latency_threshold_s=1.0, cache_hit_floor=0.01))
    clips = make_clips(64)
    burst = [clips[i % len(clips)] for i in range(160)]
    flood = make_clips(40, seed=2)
    with service:
        client = ServiceClient(service)
        results = client.extract_many(burst, concurrency=16,
                                      timeout=30.0)
        # Past the cooldown an open breaker lets the next batch probe
        # the primary, so that batch is sure to reach the injector.
        time.sleep(config.breaker_cooldown_s)
        injector.gate.clear()
        futures = [service.submit(flood[0], timeout=30.0)]
        assert injector.held.wait(30.0), "worker never reached the gate"
        futures += [service.submit(clip, timeout=30.0)
                    for clip in flood[1:]]
        injector.gate.set()
        results += [f.result() for f in futures]
        health = service.health()
    return results, events, health


class TestServiceLifecycles:
    def test_every_result_joins_a_complete_lifecycle(self, tmp_path):
        results, events, health = run_service_burst(tmp_path)
        assert len(results) == 200
        assert all(r.trace_id for r in results)
        assert len({r.trace_id for r in results}) == 200

        records = read_event_log(str(tmp_path))
        snap = snapshot_from_events(records)
        assert snap["lifecycles"]["fully_joined"], snap["lifecycles"]
        assert snap["lifecycles"]["ids_seen"] == 200

        # per-status accounting in the log matches the returned results
        from collections import Counter

        returned = Counter(r.status for r in results)
        assert snap["requests"]["statuses"] == {
            k: v for k, v in sorted(returned.items())}

        # each request: enqueue strictly first, one terminal result last
        for result in results:
            timeline = request_timeline(records, result.request_id)
            assert timeline[0]["event"] == "enqueue"
            terminals = [e for e in timeline if e["event"] == "result"]
            assert len(terminals) == 1
            assert terminals[0]["status"] == result.status
            assert terminals[0]["trace_id"] == result.trace_id
            assert terminals[0]["seq"] == timeline[-1]["seq"]

    def test_burst_exercises_degraded_shed_and_cached(self, tmp_path):
        results, events, health = run_service_burst(tmp_path)
        statuses = {r.status for r in results}
        assert "shed" in statuses      # the phase-B flood overruns the queue
        assert "degraded" in statuses  # breaker trips under 40% faults
        assert statuses <= {"ok", "degraded", "shed"}
        assert any(r.cached for r in results)
        assert any(r.retries > 0 for r in results)

    def test_health_reports_slo_and_events(self, tmp_path):
        results, events, health = run_service_burst(tmp_path)
        assert "availability" in health["slo"]["objectives"]
        assert "latency" in health["slo"]["objectives"]
        assert health["events"]["events"] == events.stats()["events"]
        assert health["events"]["events"] > 0

    def test_cached_result_lifecycle_has_cache_hit(self, tmp_path):
        results, events, health = run_service_burst(tmp_path)
        records = read_event_log(str(tmp_path))
        cached = next(r for r in results if r.cached)
        timeline = request_timeline(records, cached.request_id)
        assert [e["event"] for e in timeline] == ["enqueue", "cache_hit",
                                                  "result"]

    def test_stop_restores_previous_active_log(self, tmp_path):
        outer = EventLog(None)
        obs_events.set_active(outer)
        service = ExtractionService(
            make_model(), ServiceConfig(),
            events=EventLog(str(tmp_path)))
        with service:
            assert obs_events.get_active() is service.events
        assert obs_events.get_active() is outer
        obs_events.set_active(None)

    def test_service_without_events_emits_nothing(self, tmp_path):
        from repro.serve.client import ServiceClient

        service = ExtractionService(make_model(), ServiceConfig())
        with service:
            result = ServiceClient(service).extract(make_clips(1)[0])
        assert result.status == "ok"
        assert result.trace_id  # correlation ids minted regardless
        assert obs.metrics.counter("events.emitted").value == 0


# ----------------------------------------------------------------------
# Flight-recorder dump on incidents (S4)
# ----------------------------------------------------------------------
def run_deterministic_incident(tmp_path):
    """Serial requests against an always-failing injector: retries,
    degradation, breaker trip and flight dumps are all deterministic."""
    events = EventLog(str(tmp_path))
    service = ExtractionService(
        make_model(),
        ServiceConfig(max_batch=1, max_wait_s=0.0, max_retries=1,
                      breaker_failures=2, breaker_cooldown_s=60.0),
        fault_injector=FaultInjector(failure_rate=1.0, seed=42),
        events=events)
    clips = make_clips(4, seed=1)
    with service:
        results = [service.extract(clip, timeout=30.0)
                   for clip in clips]
    return results, read_event_log(str(tmp_path))


class TestFlightDumps:
    def test_breaker_open_dumps_flight_recorder(self, tmp_path):
        results, records = run_deterministic_incident(tmp_path)
        assert [r.status for r in results] == ["degraded"] * 4
        dumps = [e for e in records if e["event"] == "flight_dump"]
        reasons = [d["reason"] for d in dumps]
        assert "breaker_open-consecutive_failures" in reasons
        assert "retries_exhausted" in reasons
        flight_files = [name for name in os.listdir(tmp_path)
                        if name.startswith("flight-")]
        assert len(flight_files) == len(dumps)
        # dump contents are a prefix-consistent snapshot of the stream
        with open(os.path.join(str(tmp_path), sorted(flight_files)[0]),
                  "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert lines[0]["event"] == "flight_header"
        main_by_seq = {e["seq"]: e["event"] for e in records}
        assert all(main_by_seq.get(r["seq"]) == r["event"]
                   for r in lines[1:])

    def test_incident_event_sequence_is_deterministic(self, tmp_path):
        _, first = run_deterministic_incident(tmp_path / "a")
        _, second = run_deterministic_incident(tmp_path / "b")

        def signature(records):
            keep = ("enqueue", "flush", "retry", "degrade",
                    "breaker_open", "flight_dump", "model_forward",
                    "result")
            return [(e["event"], e.get("status"), e.get("reason"),
                     e.get("model")) for e in records
                    if e["event"] in keep]

        assert signature(first) == signature(second)

    def test_flight_dump_files_not_replayed_as_events(self, tmp_path):
        results, records = run_deterministic_incident(tmp_path)
        # reading the directory must skip flight-*.jsonl: no
        # flight_header records and no duplicated seq numbers
        assert all(e["event"] != "flight_header" for e in records)
        seqs = [e["seq"] for e in records]
        assert seqs == sorted(set(seqs))


# ----------------------------------------------------------------------
# api facade correlation
# ----------------------------------------------------------------------
class TestApiCorrelation:
    def test_extract_clip_binds_context(self, tmp_path):
        import repro.api as api

        log = EventLog(str(tmp_path))
        obs_events.set_active(log)
        obs.enable(autograd=False)
        try:
            api.extract_clip(make_model(), make_clips(1)[0])
        finally:
            obs.disable()
            obs_events.set_active(None)
        spans = [e for e in read_event_log(str(tmp_path))
                 if e["event"] == "span"]
        assert spans
        assert len({s["trace_id"] for s in spans}) == 1
        assert all(s["request_id"] == spans[0]["request_id"]
                   for s in spans)

    def test_extract_video_cache_events_share_one_trace(self, tmp_path):
        import repro.api as api

        log = EventLog(str(tmp_path))
        obs_events.set_active(log)
        try:
            video = make_clips(1)[0].repeat(3, axis=0)[:8]
            api.extract_video(make_model(), video, window=4, stride=2,
                              cache_dir=str(tmp_path / "cache"))
        finally:
            obs_events.set_active(None)
        cache_events = [e for e in read_event_log(str(tmp_path))
                        if e["event"] in ("cache_hit", "cache_miss")]
        assert cache_events
        assert len({e["trace_id"] for e in cache_events}) == 1
