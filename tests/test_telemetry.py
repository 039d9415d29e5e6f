"""Tests for the pool-wide telemetry plane (``repro.obs.telemetry``).

Covers the ship-and-merge protocol end to end: registry delta
snapshots and their label-stamped merge, the worker-side shipper
(baseline swallowing, seq numbering, event whitelisting), the
parent-side merger (stale/duplicate/epoch drop rules, event
re-emission), the on-disk snapshot ring, the periodic atomic
Prometheus writer, a golden-file + parse-roundtrip check of a merged
multi-worker exposition, and the live pool integration guarantee: the
cross-rank sums of worker-shipped series are bit-identical to the same
burst on a single-replica registry.
"""

import json
import os
import re
import threading
import time

import numpy as np
import pytest

from repro.core import ScenarioExtractor
from repro.models import ModelConfig, build_model
from repro.obs import metrics
from repro.obs.events import EventLog
from repro.obs.exposition import render_prometheus, write_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    WORKER_EVENT_WHITELIST,
    SnapshotRing,
    TelemetryMerger,
    TelemetryShipper,
)
from repro.serve import ServiceClient, ServiceConfig, ServicePool

CFG = ModelConfig(frames=4, dim=16, depth=1, num_heads=2)


@pytest.fixture(scope="module")
def model():
    # vt-divided at this config is bitwise batch-size invariant (see
    # test_serve), so pooled and single-replica runs of the same burst
    # agree bit for bit no matter how the micro-batcher sliced it.
    return build_model("vt-divided", CFG)


@pytest.fixture(scope="module")
def extractor(model):
    return ScenarioExtractor(model)


@pytest.fixture(scope="module")
def clips():
    rng = np.random.default_rng(0)
    return rng.random((24, 4, 3, 32, 32)).astype(np.float32)


# ----------------------------------------------------------------------
# Registry delta snapshots and frame merging
class TestSnapshotDelta:
    def test_none_baseline_emits_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        rows, baseline = reg.snapshot_delta()
        assert {row["kind"] for row in rows} \
            == {"counter", "gauge", "histogram"}
        assert baseline  # opaque, but non-empty

    def test_counter_ships_increase_only(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        _, baseline = reg.snapshot_delta()
        reg.counter("c").inc(2)
        rows, _ = reg.snapshot_delta(baseline)
        assert rows == [{"kind": "counter", "name": "c", "labels": {},
                         "delta": 2.0}]

    def test_unchanged_series_omitted(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2.0)
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        _, baseline = reg.snapshot_delta()
        rows, _ = reg.snapshot_delta(baseline)
        assert rows == []

    def test_gauge_ships_current_value_when_changed(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(2.0)
        _, baseline = reg.snapshot_delta()
        reg.gauge("g").set(7.0)
        rows, _ = reg.snapshot_delta(baseline)
        assert rows == [{"kind": "gauge", "name": "g", "labels": {},
                         "value": 7.0}]

    def test_histogram_ships_bucket_deltas(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", bounds=(1.0, 4.0))
        hist.observe(0.5)
        _, baseline = reg.snapshot_delta()
        hist.observe(2.0)
        hist.observe(9.0)
        (row,), _ = reg.snapshot_delta(baseline)
        assert row["kind"] == "histogram"
        assert row["bucket_deltas"] == [0, 1, 1]
        assert row["count"] == 2
        assert row["sum"] == pytest.approx(11.0)
        # min/max are cumulative extrema — they only widen.
        assert row["min"] == 0.5
        assert row["max"] == 9.0


class TestMergeFrame:
    def test_extra_labels_keep_series_collision_safe(self):
        parent = MetricsRegistry()
        parent.counter("cache.hit").inc(100)  # parent-native series
        worker = MetricsRegistry()
        worker.counter("cache.hit").inc(3)
        rows, _ = worker.snapshot_delta()
        assert parent.merge_frame(rows, worker="1") == 1
        assert parent.counter("cache.hit").value == 100
        assert parent.counter("cache.hit", worker="1").value == 3

    def test_merge_is_additive_across_frames(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("c").inc(2)
        rows, baseline = worker.snapshot_delta()
        parent.merge_frame(rows, worker="0")
        worker.counter("c").inc(5)
        rows, _ = worker.snapshot_delta(baseline)
        parent.merge_frame(rows, worker="0")
        assert parent.counter("c", worker="0").value == 7

    def test_histogram_merge_accumulates_and_widens_extrema(self):
        parent = MetricsRegistry()
        a = MetricsRegistry()
        a.histogram("h", bounds=(1.0, 4.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", bounds=(1.0, 4.0)).observe(9.0)
        parent.merge_frame(a.snapshot_delta()[0], worker="0")
        parent.merge_frame(b.snapshot_delta()[0], worker="0")
        merged = parent.histogram("h", bounds=(1.0, 4.0), worker="0")
        assert merged.count == 2
        assert merged.sum == pytest.approx(9.5)
        assert merged.min == 0.5
        assert merged.max == 9.0

    def test_bounds_mismatch_rejected(self):
        parent = MetricsRegistry()
        parent.histogram("h", bounds=(1.0, 2.0), worker="0")
        worker = MetricsRegistry()
        worker.histogram("h", bounds=(1.0, 4.0)).observe(0.5)
        rows, _ = worker.snapshot_delta()
        with pytest.raises(ValueError, match="bounds"):
            parent.merge_frame(rows, worker="0")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            MetricsRegistry().merge_frame(
                [{"kind": "summary", "name": "x", "labels": {}}])


# ----------------------------------------------------------------------
# Golden file: two worker registries with overlapping series, merged
# into a parent with native series, rendered and parsed back.
GOLDEN_MERGED_EXPOSITION = """\
# TYPE cache_hit_total counter
cache_hit_total{worker="0"} 2
cache_hit_total{worker="1"} 1
# TYPE serve_batch_size histogram
serve_batch_size_bucket{worker="0",le="1"} 1
serve_batch_size_bucket{worker="0",le="4"} 2
serve_batch_size_bucket{worker="0",le="+Inf"} 2
serve_batch_size_sum{worker="0"} 4
serve_batch_size_count{worker="0"} 2
serve_batch_size_bucket{worker="1",le="1"} 0
serve_batch_size_bucket{worker="1",le="4"} 1
serve_batch_size_bucket{worker="1",le="+Inf"} 2
serve_batch_size_sum{worker="1"} 7
serve_batch_size_count{worker="1"} 2
# TYPE serve_pool_routed_total counter
serve_pool_routed_total{worker="0"} 5
serve_pool_routed_total{worker="1"} 3
# TYPE serve_queue_depth gauge
serve_queue_depth{worker="0"} 0
serve_queue_depth{worker="1"} 1
# TYPE serve_requests_total counter
serve_requests_total{status="degraded\\nmode",worker="1"} 1
serve_requests_total{status="ok",worker="0"} 5
serve_requests_total{status="ok",worker="1"} 2
"""


def _build_merged_registry() -> MetricsRegistry:
    parent = MetricsRegistry()
    parent.counter("serve.pool.routed", worker="0").inc(5)
    parent.counter("serve.pool.routed", worker="1").inc(3)

    worker0 = MetricsRegistry()
    worker0.counter("cache.hit").inc(2)
    worker0.counter("serve.requests", status="ok").inc(5)
    worker0.gauge("serve.queue_depth").set(0.0)
    hist = worker0.histogram("serve.batch_size", bounds=(1.0, 4.0))
    hist.observe(1.0)
    hist.observe(3.0)

    worker1 = MetricsRegistry()
    worker1.counter("cache.hit").inc(1)
    worker1.counter("serve.requests", status="ok").inc(2)
    worker1.counter("serve.requests", status="degraded\nmode").inc()
    worker1.gauge("serve.queue_depth").set(1.0)
    hist = worker1.histogram("serve.batch_size", bounds=(1.0, 4.0))
    hist.observe(2.0)
    hist.observe(5.0)

    parent.merge_frame(worker0.snapshot_delta()[0], worker="0")
    parent.merge_frame(worker1.snapshot_delta()[0], worker="1")
    return parent


_SERIES_RE = re.compile(
    r'^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})? (?P<value>\S+)$')


def _parse_exposition(text: str):
    """Exposition text → ``{(name, labels...): float}`` plus the
    family order, with label escapes undone."""
    series = {}
    families = []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            families.append(line.split()[2])
            continue
        match = _SERIES_RE.match(line)
        assert match, f"unparseable series line: {line!r}"
        labels = []
        raw = match.group("labels") or ""
        for part in re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', raw):
            value = (part[1].replace('\\n', '\n')
                     .replace('\\"', '"').replace('\\\\', '\\'))
            labels.append((part[0], value))
        key = (match.group("name"), tuple(sorted(labels)))
        assert key not in series, f"duplicate series {key}"
        series[key] = float(match.group("value"))
    return series, families


class TestMergedExpositionGolden:
    def test_golden_file(self):
        assert render_prometheus(_build_merged_registry()) \
            == GOLDEN_MERGED_EXPOSITION

    def test_families_sorted(self):
        _, families = _parse_exposition(GOLDEN_MERGED_EXPOSITION)
        assert families == sorted(families)

    def test_parse_roundtrip_values(self):
        series, _ = _parse_exposition(
            render_prometheus(_build_merged_registry()))
        assert series[("cache_hit_total",
                       (("worker", "0"),))] == 2
        assert series[("cache_hit_total",
                       (("worker", "1"),))] == 1
        assert series[("serve_requests_total",
                       (("status", "ok"), ("worker", "0")))] == 5
        # The escaped label parses back to its original newline form.
        assert series[("serve_requests_total",
                       (("status", "degraded\nmode"),
                        ("worker", "1")))] == 1

    def test_merged_buckets_cumulative_with_inf_equal_to_count(self):
        series, _ = _parse_exposition(
            render_prometheus(_build_merged_registry()))
        for rank in ("0", "1"):
            buckets = [value for (name, labels), value
                       in series.items()
                       if name == "serve_batch_size_bucket"
                       and ("worker", rank) in labels]
            assert buckets == sorted(buckets)
            count = series[("serve_batch_size_count",
                            (("worker", rank),))]
            inf = series[("serve_batch_size_bucket",
                          (("le", "+Inf"), ("worker", rank)))]
            assert inf == count


# ----------------------------------------------------------------------
# Worker-side shipper
class TestShipper:
    def test_construction_baseline_swallows_inherited_counts(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(50)  # pre-fork / pre-shipper history
        shipper = TelemetryShipper(reg)
        assert shipper.frame() is None
        reg.counter("c").inc(2)
        frame = shipper.frame()
        assert frame["metrics"] == [{"kind": "counter", "name": "c",
                                     "labels": {}, "delta": 2.0}]

    def test_seq_increments_only_on_emitted_frames(self):
        reg = MetricsRegistry()
        shipper = TelemetryShipper(reg, rank=3, epoch=2)
        assert shipper.frame() is None
        reg.counter("c").inc()
        first = shipper.frame()
        reg.counter("c").inc()
        second = shipper.frame()
        assert (first["seq"], second["seq"]) == (1, 2)
        assert first["rank"] == 3 and first["epoch"] == 2
        assert first["schema"] == TELEMETRY_FORMAT

    def test_force_emits_empty_frame(self):
        frame = TelemetryShipper(MetricsRegistry()).frame(force=True)
        assert frame["metrics"] == [] and frame["events"] == []

    def test_events_whitelisted_and_stripped(self):
        events = EventLog(None, recorder_size=32)
        shipper = TelemetryShipper(MetricsRegistry(), events=events)
        events.emit("breaker_open", request_id=7, reason="failures")
        events.emit("enqueue", request_id=7)  # lifecycle: never ships
        # The parent's ``result`` carries the verdict: never ships.
        events.emit("cache_hit", request_id=7, key="k1")
        events.emit("flush", request_ids=[7], batch_size=1)
        frame = shipper.frame()
        shipped = frame["events"]
        assert [record["event"] for record in shipped] \
            == ["breaker_open", "flush"]
        for record in shipped:
            assert "request_id" not in record
            assert "request_ids" not in record
            assert "mono" not in record
            assert "schema" not in record
            assert record["event"] in WORKER_EVENT_WHITELIST
        assert shipped[0]["reason"] == "failures"
        assert shipped[1]["batch_size"] == 1
        # worker-side seq survives (the merger republishes it).
        assert [record["seq"] for record in shipped] == [1, 4]

    def test_each_event_ships_exactly_once(self):
        events = EventLog(None, recorder_size=32)
        shipper = TelemetryShipper(MetricsRegistry(), events=events)
        events.emit("flush", batch_size=2)
        assert len(shipper.frame()["events"]) == 1
        assert shipper.frame() is None
        events.emit("flush", batch_size=3)
        (record,) = shipper.frame()["events"]
        assert record["batch_size"] == 3

    def test_ring_overflow_counted_as_dropped(self):
        events = EventLog(None, recorder_size=4)
        shipper = TelemetryShipper(MetricsRegistry(), events=events)
        for _ in range(10):
            events.emit("flush", batch_size=1)
        frame = shipper.frame()
        assert len(frame["events"]) == 4
        assert frame["events_dropped"] == 6


# ----------------------------------------------------------------------
# Parent-side merger
class TestMerger:
    def _frame(self, rank=0, epoch=1, seq=1, delta=1.0, events=()):
        return {"schema": TELEMETRY_FORMAT, "rank": rank,
                "epoch": epoch, "seq": seq,
                "metrics": [{"kind": "counter", "name": "c",
                             "labels": {}, "delta": delta}],
                "events": list(events), "events_dropped": 0}

    def test_merges_under_worker_label(self):
        reg = MetricsRegistry()
        merger = TelemetryMerger(reg)
        assert merger.merge(self._frame(rank=1, delta=4.0))
        assert reg.counter("c", worker="1").value == 4.0
        assert reg.counter("telemetry.frames", worker="1").value == 1
        assert merger.last_applied(1) == (1, 1)

    def test_duplicate_and_stale_frames_dropped(self):
        reg = MetricsRegistry()
        merger = TelemetryMerger(reg)
        frame = self._frame(seq=2)
        assert merger.merge(frame)
        assert not merger.merge(frame)          # exact duplicate
        assert not merger.merge(self._frame(seq=1))  # older seq
        assert reg.counter("c", worker="0").value == 1.0

    def test_restart_epoch_resets_seq_without_double_count(self):
        reg = MetricsRegistry()
        merger = TelemetryMerger(reg)
        assert merger.merge(self._frame(epoch=1, seq=5, delta=3.0))
        # Fresh incarnation: higher epoch, seq restarts at 1 — applied.
        assert merger.merge(self._frame(epoch=2, seq=1, delta=2.0))
        # Straggler from the dead incarnation — dropped.
        assert not merger.merge(self._frame(epoch=1, seq=6, delta=9.0))
        assert reg.counter("c", worker="0").value == 5.0

    def test_ranks_tracked_independently(self):
        merger = TelemetryMerger(MetricsRegistry())
        assert merger.merge(self._frame(rank=0, seq=3))
        assert merger.merge(self._frame(rank=1, seq=1))
        assert merger.last_applied(0) == (1, 3)
        assert merger.last_applied(1) == (1, 1)

    def test_foreign_schema_rejected(self):
        frame = self._frame()
        frame["schema"] = "someone.else/v1"
        assert not TelemetryMerger(MetricsRegistry()).merge(frame)

    def test_events_reemitted_with_rank_and_worker_seq(self):
        events = EventLog(None, recorder_size=16)
        merger = TelemetryMerger(MetricsRegistry(), events=events)
        merger.merge(self._frame(rank=2, events=[
            {"event": "cache_hit", "seq": 9, "ts": 123.0, "key": "k"}]))
        (record,) = [r for r in events.recent()
                     if r["event"] == "cache_hit"]
        assert record["worker"] == 2
        assert record["worker_seq"] == 9
        assert record["worker_ts"] == 123.0
        assert record["key"] == "k"
        # The pool log assigns its own seq — the worker's never leaks.
        assert record["seq"] == 1
        assert record["schema"].startswith("repro.events/")


# ----------------------------------------------------------------------
# Snapshot ring
class TestSnapshotRing:
    def test_append_and_read(self, tmp_path):
        path = str(tmp_path / "ring.jsonl")
        ring = SnapshotRing(path)
        ring.append({"kind": "fleet_progress", "n": 1})
        ring.append({"kind": "fleet_progress", "n": 2})
        records = SnapshotRing.read(path)
        assert [r["n"] for r in records] == [1, 2]
        assert all(r["schema"] == TELEMETRY_FORMAT for r in records)

    def test_capacity_trims_oldest(self, tmp_path):
        path = str(tmp_path / "ring.jsonl")
        ring = SnapshotRing(path, capacity=3)
        for n in range(7):
            ring.append({"n": n})
        assert [r["n"] for r in SnapshotRing.read(path)] == [4, 5, 6]
        assert len(ring) == 3

    def test_reopen_resumes_existing_file(self, tmp_path):
        path = str(tmp_path / "ring.jsonl")
        SnapshotRing(path, capacity=4).append({"n": 1})
        ring = SnapshotRing(path, capacity=4)
        ring.append({"n": 2})
        assert [r["n"] for r in SnapshotRing.read(path)] == [1, 2]

    def test_corrupt_and_foreign_lines_skipped(self, tmp_path):
        path = str(tmp_path / "ring.jsonl")
        with open(path, "w") as fh:
            fh.write('{"schema": "repro.telemetry/v1", "n": 1}\n')
            fh.write("not json at all\n")
            fh.write('{"schema": "other/v1", "n": 2}\n')
        assert [r["n"] for r in SnapshotRing.read(path)] == [1]
        # A reopened ring keeps only what it could read.
        ring = SnapshotRing(path)
        assert len(ring) == 1

    def test_file_always_complete_jsonl(self, tmp_path):
        path = str(tmp_path / "ring.jsonl")
        ring = SnapshotRing(path, capacity=5)
        for n in range(20):
            ring.append({"n": n})
            with open(path) as fh:
                for line in fh:
                    json.loads(line)  # never a torn line
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]


# ----------------------------------------------------------------------
# Atomic exposition writer
class TestWritePrometheus:
    def test_writes_rendered_text(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        path = str(tmp_path / "metrics.prom")
        text = write_prometheus(path, reg)
        with open(path) as fh:
            assert fh.read() == text == render_prometheus(reg)

    def test_overwrites_atomically(self, tmp_path):
        reg = MetricsRegistry()
        path = str(tmp_path / "metrics.prom")
        for n in range(5):
            reg.counter("c").inc()
            write_prometheus(path, reg)
        with open(path) as fh:
            assert "c_total 5" in fh.read()
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]


# ----------------------------------------------------------------------
# Live pool integration: the acceptance guarantee.
class TestPoolTelemetryIntegration:
    def _value(self, name, rank, **labels):
        return metrics.counter(name, worker=str(rank), **labels).value

    def test_worker_series_sum_matches_single_replica(
            self, model, extractor, clips):
        """Cross-rank sums of shipped series are bit-identical to the
        same burst on a single-replica registry (the in-process
        service), and to the pool's own routing accounting."""
        from repro.serve import BATCH_SIZE_BUCKETS, ExtractionService

        config = ServiceConfig(max_batch=8, max_wait_s=0.02,
                               max_queue=64)

        # Arm 1: single replica — the reference registry deltas.
        single_requests = metrics.counter("serve.requests",
                                          status="ok").value
        single_hist = metrics.histogram("serve.batch_size",
                                        bounds=BATCH_SIZE_BUCKETS)
        single_sum = single_hist.sum
        with ExtractionService(extractor, config) as service:
            ServiceClient(service).extract_many(
                list(clips), concurrency=len(clips))
        single_requests = metrics.counter(
            "serve.requests", status="ok").value - single_requests
        single_sum = single_hist.sum - single_sum
        assert single_requests == len(clips)

        # Arm 2: two pooled replicas shipping telemetry home.
        workers = 2
        before_req = [self._value("serve.requests", r, status="ok")
                      for r in range(workers)]
        before_routed = [self._value("serve.pool.routed", r)
                         for r in range(workers)]
        hists = [metrics.histogram("serve.batch_size",
                                   bounds=BATCH_SIZE_BUCKETS,
                                   worker=str(r))
                 for r in range(workers)]
        before_hist_sum = [h.sum for h in hists]
        before_frames = [self._value("telemetry.frames", r)
                         for r in range(workers)]
        with ServicePool(model, config, workers=workers,
                         telemetry_interval_s=0.05) as pool:
            results = ServiceClient(pool).extract_many(
                list(clips), concurrency=len(clips))
        assert [r.status for r in results] == ["ok"] * len(clips)

        req_delta = [self._value("serve.requests", r, status="ok")
                     - before_req[r] for r in range(workers)]
        routed_delta = [self._value("serve.pool.routed", r)
                        - before_routed[r] for r in range(workers)]
        hist_delta = [h.sum - before_hist_sum[r]
                      for r, h in enumerate(hists)]
        frames_delta = [self._value("telemetry.frames", r)
                        - before_frames[r] for r in range(workers)]

        # Every rank shipped at least one frame, and every rank that
        # was routed work reported it.
        assert all(delta >= 1 for delta in frames_delta)
        assert req_delta == routed_delta
        # The acceptance sums: pooled per-worker series, summed across
        # ranks, equal the single-replica burst bit for bit.
        assert sum(req_delta) == single_requests == len(clips)
        assert sum(hist_delta) == single_sum == float(len(clips))

    def test_worker_internal_events_land_in_pool_log(
            self, model, clips, tmp_path):
        events = EventLog(str(tmp_path / "events"))
        config = ServiceConfig(max_batch=8, max_wait_s=0.02,
                               max_queue=64)
        with ServicePool(model, config, workers=2, events=events,
                         telemetry_interval_s=0.05) as pool:
            ServiceClient(pool).extract_many(
                list(clips[:12]), concurrency=12)
        records = []
        with open(events.path) as fh:
            for line in fh:
                records.append(json.loads(line))
        shipped = [r for r in records if "worker_seq" in r]
        assert shipped, "no worker-internal events were shipped"
        assert {r["event"] for r in shipped} <= WORKER_EVENT_WHITELIST
        assert {r["worker"] for r in shipped} <= {0, 1}
        for record in shipped:
            assert "request_id" not in record
            assert "request_ids" not in record
        # Replay sees the internals per worker, and the shipped events
        # never corrupt the request lifecycle join.
        from repro.obs.top import snapshot_from_events

        snapshot = snapshot_from_events(str(tmp_path / "events"))
        per_worker = snapshot["pool"]["per_worker"]
        assert sum(stats["forwards"]
                   for stats in per_worker.values()) > 0
        assert snapshot["lifecycles"]["fully_joined"]

    def test_worker_spans_reach_parent_registry(self, model, clips):
        """Spans on when the pool starts: each replica times its batches
        into span.seconds, and the telemetry plane carries that series
        home under worker=<rank> -- the one stage timer crosses the
        process boundary."""
        from repro import obs

        obs.enable()
        try:
            with ServicePool(model, workers=2,
                             telemetry_interval_s=0.05) as pool:
                ServiceClient(pool).extract_many(
                    list(clips[:12]), concurrency=12)
                routed = [self._value("serve.pool.routed", r)
                          for r in range(2)]
        finally:
            obs.disable()
        assert all(routed), routed
        for rank in range(2):
            batches = metrics.histogram("span.seconds", name="serve/batch",
                                        worker=str(rank))
            assert batches.count > 0, rank
            assert batches.sum > 0.0, rank

    def test_telemetry_disabled_ships_nothing(self, model, clips):
        before = metrics.snapshot()
        frames_before = {
            (row["name"], tuple(sorted(row["labels"].items())))
            for row in before if row["name"] == "telemetry.frames"}
        with ServicePool(model, workers=2,
                         telemetry_interval_s=None) as pool:
            ServiceClient(pool).extract_many(
                list(clips[:8]), concurrency=8)
        frames_after = {
            (row["name"], tuple(sorted(row["labels"].items()))):
            row.get("value")
            for row in metrics.snapshot()
            if row["name"] == "telemetry.frames"}
        for key, value in frames_after.items():
            if key not in frames_before:
                pytest.fail(f"telemetry series appeared while "
                            f"disabled: {key} = {value}")

    def test_invalid_interval_rejected(self, model):
        with pytest.raises(ValueError, match="telemetry_interval_s"):
            ServicePool(model, workers=2, telemetry_interval_s=0.0)


# ----------------------------------------------------------------------
# Fleet heartbeats
class TestFleetHeartbeats:
    def test_heartbeats_fire_with_monotone_clips(
            self, extractor, clips, tmp_path):
        from repro.core import fleet

        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(clips[:12], corpus, shard_size=4)
        beats = []
        stats = fleet.extract_corpus(extractor, corpus,
                                     heartbeat_s=1e-6,
                                     on_progress=beats.append)
        assert beats, "no heartbeats fired"
        assert beats[-1]["final"]
        assert beats[-1]["clips_done"] == 12
        assert beats[-1]["shards_done"] == beats[-1]["shards_total"] == 3
        assert beats[-1]["forwards"] == 12
        done = [beat["clips_done"] for beat in beats]
        assert done == sorted(done)
        # The merged snapshot ring sits next to the store.
        ring_path = os.path.join(stats.store_root, fleet.TELEMETRY_FILE)
        records = SnapshotRing.read(ring_path)
        assert len(records) == len(beats)
        assert records[-1]["progress"]["final"]
        assert any(row["name"].startswith("fleet.")
                   for row in records[-1]["metrics"])

    def test_final_beat_always_fires_even_under_interval(
            self, extractor, clips, tmp_path):
        from repro.core import fleet

        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(clips[:4], corpus, shard_size=4)
        beats = []
        fleet.extract_corpus(extractor, corpus, heartbeat_s=3600.0,
                             on_progress=beats.append)
        assert len(beats) == 1 and beats[0]["final"]

    def test_resumed_pass_reports_skips_without_forwards(
            self, extractor, clips, tmp_path):
        from repro.core import fleet

        corpus = str(tmp_path / "corpus")
        fleet.write_corpus(clips[:8], corpus, shard_size=4)
        fleet.extract_corpus(extractor, corpus)
        beats = []
        fleet.extract_corpus(extractor, corpus, heartbeat_s=1e-6,
                             on_progress=beats.append)
        assert beats[-1]["shards_skipped"] == 2
        assert beats[-1]["forwards"] == 0
        assert beats[-1]["clips_done"] == 8

    def test_invalid_heartbeat_rejected(self, extractor, tmp_path):
        from repro.core import fleet

        with pytest.raises(ValueError, match="heartbeat_s"):
            fleet.extract_corpus(extractor, str(tmp_path),
                                 heartbeat_s=0.0)

    def test_fleet_progress_events_feed_top_replay(
            self, extractor, clips, tmp_path):
        from repro.core import fleet
        from repro.obs import events as obs_events
        from repro.obs.top import render, snapshot_from_events

        corpus = str(tmp_path / "corpus")
        events_dir = str(tmp_path / "events")
        fleet.write_corpus(clips[:8], corpus, shard_size=4)
        log = EventLog(events_dir)
        previous = obs_events.set_active(log)
        try:
            fleet.extract_corpus(extractor, corpus, heartbeat_s=1e-6)
        finally:
            obs_events.set_active(previous)
        snapshot = snapshot_from_events(events_dir)
        assert snapshot["fleet"]["heartbeats"] >= 2
        assert snapshot["fleet"]["monotone"]
        assert snapshot["fleet"]["last"]["final"]
        assert snapshot["fleet"]["last"]["clips_done"] == 8
        text = render(snapshot)
        assert "fleet" in text and "[done]" in text
