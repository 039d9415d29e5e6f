"""Output pins for ``repro top``.

A fixed synthetic ``repro.events/v1`` stream — a 2-worker pool with
worker-internal activity, a fleet pass, the quality lifecycle (windows,
a drift alert, two canary runs), firing SLO alerts and a few broken
lifecycles — is replayed by :func:`snapshot_from_events`.  The
``--json`` snapshot and the :func:`render` text are compared byte for
byte with ``tests/golden/top-replay.{json,txt}``; regenerate those
files only for an intended output change.
"""

import io
import json
import os

from repro.obs.events import EVENTS_FORMAT
from repro.obs.slo import SLOConfig
from repro.obs.top import render, run_top, snapshot_from_events

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: Every objective on, so each one is replayed and rendered.
SLO = SLOConfig(latency_threshold_s=0.05, cache_hit_floor=0.5,
                confidence_floor=0.5)

MEAN_CONF = {"scene": 0.875, "ego_action": 0.75, "actors": 0.625,
             "actor_actions": 0.5}


def _request(rid, worker, status, latency_s, cached=False, trace=None,
             confidence=0.75, outstanding=1):
    """One routed request: enqueue, the worker's internals, result."""
    trace = trace or f"t{rid}"
    return [
        ("enqueue", {"request_id": rid, "trace_id": trace,
                     "queue_depth": rid % 3, "worker": worker,
                     "outstanding": outstanding}),
        ("flush", {"worker": worker, "batch_size": 1 + rid % 4,
                   "request_ids": [rid]}),
        ("model_forward", {"worker": worker, "model": "primary"}),
        ("result", {"request_id": rid, "trace_id": trace,
                    "worker": worker, "status": status,
                    "latency_s": latency_s, "cached": cached,
                    "mean_confidence": confidence}),
    ]


def pinned_stream():
    """The fixed stream, stamped with ``seq`` and 1/8 s ``mono`` steps."""
    spec = [
        ("pool_start", {"workers": 2, "cache": True}),
        ("fleet_progress", {"fingerprint": "abc123", "shards_done": 1,
                            "shards_total": 3, "shards_skipped": 0,
                            "shards_extracted": 1, "clips_done": 5,
                            "clips_extracted": 5, "forwards": 2,
                            "elapsed_s": 0.5, "clips_per_s": 10.0,
                            "eta_s": 1.0, "final": False}),
    ]
    for rid in range(8):
        spec += _request(rid, rid % 2, "ok", 0.01 + rid / 1000.0,
                         cached=rid in (2, 5), confidence=0.25 + rid / 10)
    spec += [
        ("quality_window", {"window": 1, "requests": 8,
                            "mean_confidence": MEAN_CONF,
                            "model_version": 1}),
        ("retry", {"worker": 1, "request_ids": [8], "attempt": 1}),
        ("breaker_open", {"worker": 1}),
    ]
    spec += _request(8, 1, "failed", 0.5)
    spec += _request(9, 1, "degraded", 0.25, confidence=0.125)
    spec += [
        ("breaker_close", {"worker": 1}),
        ("enqueue", {"request_id": 10, "trace_id": "t10",
                     "queue_depth": 4}),
        ("shed", {"worker": 0, "request_id": 10, "trace_id": "t10"}),
        ("result", {"request_id": 10, "trace_id": "t10", "worker": 0,
                    "status": "shed", "latency_s": 0.0,
                    "cached": False}),
        ("drift_alert", {"tag_psi_max": 1.25, "confidence_psi": 2.5,
                         "confidence_kl": 1.125, "model_version": 1}),
        ("canary_start", {"samples": 8, "serving_version": 1}),
        ("canary_verdict", {"accepted": False, "samples": 8,
                            "agreement": 0.375,
                            "confidence_shift": 0.25,
                            "agreement_floor": 0.8}),
        ("canary_start", {"samples": 8, "serving_version": 1}),
        ("canary_verdict", {"accepted": True, "samples": 8,
                            "agreement": 0.875,
                            "confidence_shift": 0.0625,
                            "agreement_floor": 0.8}),
        ("reload", {"model_version": 2}),
        ("worker_reload", {"worker": 0}),
        ("worker_reload", {"worker": 1}),
        ("worker_dead", {"worker": 1}),
        ("flight_dump", {"reason": "worker_dead"}),
        ("worker_restart", {"worker": 1}),
        ("worker_dead", {"worker": 0}),
        ("quality_window", {"window": 2, "requests": 8,
                            "mean_confidence": MEAN_CONF,
                            "model_version": 2}),
        ("fleet_progress", {"fingerprint": "abc123", "shards_done": 3,
                            "shards_total": 3, "shards_skipped": 1,
                            "shards_extracted": 2, "clips_done": 12,
                            "clips_extracted": 7, "forwards": 4,
                            "elapsed_s": 1.25, "clips_per_s": 9.6,
                            "eta_s": 0.0, "final": True}),
    ]
    # Broken lifecycles: a result with no enqueue, a duplicate
    # terminal, and one request seen under two trace ids.
    spec += [
        ("result", {"request_id": 11, "worker": 1, "status": "ok",
                    "latency_s": 0.02, "cached": False}),
        ("result", {"request_id": 3, "trace_id": "t3", "worker": 1,
                    "status": "ok", "latency_s": 0.02, "cached": True}),
    ]
    spec += _request(12, 0, "ok", 0.03, trace="t12")
    spec.append(("flush", {"worker": 0, "batch_size": 1,
                           "request_id": 12, "request_ids": [12],
                           "trace_id": "other"}))
    return [dict({"schema": EVENTS_FORMAT, "seq": i + 1,
                  "mono": 100.0 + i / 8.0, "event": event}, **fields)
            for i, (event, fields) in enumerate(spec)]


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return handle.read()


def test_json_snapshot_matches_golden():
    snapshot = snapshot_from_events(pinned_stream(), slo_config=SLO)
    assert json.dumps(snapshot, indent=2) + "\n" == \
        _golden("top-replay.json")


def test_render_matches_golden():
    snapshot = snapshot_from_events(pinned_stream(), slo_config=SLO)
    assert render(snapshot) + "\n" == _golden("top-replay.txt")


def test_run_top_reads_the_log_back_byte_for_byte(tmp_path):
    """``repro top --json`` on the stream written as JSONL prints the
    pinned snapshot."""
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in pinned_stream()),
                    encoding="utf-8")
    out = io.StringIO()
    assert run_top(str(path), json_mode=True, stream=out,
                   slo_config=SLO) == 0
    assert out.getvalue() == _golden("top-replay.json")
