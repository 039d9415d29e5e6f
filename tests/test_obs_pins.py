"""Pins on what the serving observability reports, whatever it costs.

- **Replay parity**: a fixed 2-worker burst with a shard cache (some
  hits, some misses) replayed by ``repro top --from-events`` gives the
  request, per-worker, SLO and lifecycle numbers the pool itself
  measured.  The event count is free to change; these numbers are not.
- **Drift pin**: a fixed stream with a mid-stream shift and a reload
  fires every ``drift_alert`` at the same result index, and every
  :meth:`DriftDetector.scores` value is bitwise equal to :func:`psi` /
  :func:`kl_divergence` over the same windows.
- **Scorecard pin**: the same stream gives per-version scorecards and
  ``quality_window`` events equal to tallies kept by hand, and a
  service's ``health()`` with quality on is plain JSON.
- **Event budget**: a healthy pool burst writes at most ``enqueue`` and
  ``result`` per request, ``flush`` and ``model_forward`` per batch,
  plus the pool's own system events.
"""

import json
from collections import Counter, deque

import numpy as np
import pytest

from repro.core import ScenarioExtractor
from repro.core.cache import clip_content_hash
from repro.core.pipeline import ExtractionResult
from repro.models import ModelConfig, build_model
from repro.obs import events as obs_events
from repro.obs.drift import DriftConfig, confidence_bin, kl_divergence, psi
from repro.obs.events import EventLog, read_event_log
from repro.obs.quality import QualityConfig, QualityMonitor
from repro.obs.slo import BurnWindow, SLOConfig
from repro.obs.top import snapshot_from_events
from repro.sdl.codec import LabelCodec
from repro.sdl.description import ScenarioDescription
from repro.serve import (
    ExtractionService,
    ServeResult,
    ServiceClient,
    ServiceConfig,
    shard_of,
)
from repro.serve.pool import ServicePool

CFG = ModelConfig(frames=4, dim=16, depth=1, num_heads=2)

#: Windows wide enough that a slow host keeps the whole burst inside
#: both, so live and replayed objectives see the same samples.
SLO = SLOConfig(latency_threshold_s=30.0, cache_hit_floor=0.5,
                confidence_floor=0.0,
                windows=(BurnWindow(long_s=3600.0, short_s=600.0,
                                    factor=14.4),))


@pytest.fixture(autouse=True)
def no_active_log():
    obs_events.set_active(None)
    yield
    obs_events.set_active(None)


@pytest.fixture(scope="module")
def extractor():
    return ScenarioExtractor(build_model("vt-divided", CFG))


def _clips(n, seed):
    rng = np.random.default_rng(seed)
    return rng.random((n, 4, 3, 32, 32)).astype(np.float32)


# ----------------------------------------------------------------------
# Replay parity
class TestReplayParity:
    #: Eight distinct clips, then four repeats: with one request in
    #: flight at a time every miss is one batch of one.
    ORDER = list(range(8)) + [0, 3, 5, 6]

    def test_top_replay_matches_the_pool(self, extractor, tmp_path):
        clips = _clips(8, seed=3)
        events_dir = str(tmp_path / "events")
        config = ServiceConfig(max_batch=8, max_wait_s=0.002)
        with ServicePool(extractor, config, workers=2,
                         cache=str(tmp_path / "cache"),
                         events=EventLog(events_dir), slo=SLO,
                         telemetry_interval_s=0.05) as pool:
            seen = set()
            for index in self.ORDER:
                result = pool.submit(clips[index], timeout=30.0).result()
                assert result.status == "ok"
                assert result.cached == (index in seen)
                seen.add(index)
            live = pool.slo.report()["objectives"]
        snapshot = snapshot_from_events(events_dir, slo_config=SLO)

        ranks = [shard_of(clip_content_hash(clip), 2) for clip in clips]
        misses = Counter(ranks)
        hits = Counter(ranks[i] for i in self.ORDER[8:])
        n = len(self.ORDER)
        assert snapshot["requests"] == {"total": n, "statuses": {"ok": n},
                                        "served": n, "retried": 0}
        assert snapshot["cache"]["hits"] == 4
        assert snapshot["cache"]["misses"] == 8
        per_worker = snapshot["pool"]["per_worker"]
        assert sorted(per_worker) == ["0", "1"]
        for rank in (0, 1):
            stats = per_worker[str(rank)]
            assert stats["routed"] == misses[rank] + hits[rank], rank
            assert stats["statuses"] == {"ok": misses[rank] + hits[rank]}
            assert stats["cache_hits"] == hits[rank], rank
            assert stats["cache_misses"] == misses[rank], rank
            assert stats["flushes"] == misses[rank], rank
            assert stats["forwards"] == misses[rank], rank
        assert snapshot["slo"]["objectives"] == live
        assert live["cache_hit_rate"]["observed"] == 4 / n
        assert snapshot["lifecycles"] == {
            "ids_seen": n, "complete": n, "incomplete_ids": [],
            "duplicate_terminal_ids": [], "multi_trace_ids": [],
            "fully_joined": True}


# ----------------------------------------------------------------------
# Event budget
#: Events a pool writes once per run, whatever its traffic.
POOL_SYSTEM_EVENTS = ("pool_start", "pool_stop")


def test_pool_burst_stays_within_event_budget(extractor, tmp_path):
    clips = _clips(32, seed=4)
    events = EventLog(str(tmp_path / "events"))
    config = ServiceConfig(max_batch=8, max_wait_s=0.002, max_queue=64)
    with ServicePool(extractor, config, workers=2, events=events,
                     cache=str(tmp_path / "cache"),
                     telemetry_interval_s=0.05) as pool:
        results = ServiceClient(pool).extract_many(list(clips),
                                                   concurrency=8)
    assert [r.status for r in results] == ["ok"] * 32
    kinds = Counter(r["event"] for r in read_event_log(events.log_dir))
    batches = kinds["flush"]
    assert 4 <= batches <= 32
    assert kinds["enqueue"] == kinds["result"] == 32
    assert kinds["model_forward"] == batches
    allowed = 2 * 32 + 2 * batches + len(POOL_SYSTEM_EVENTS)
    assert sum(kinds.values()) <= allowed, dict(kinds)
    assert events.stats()["events"] == sum(kinds.values())


# ----------------------------------------------------------------------
# Drift pin
VOCAB = LabelCodec().vocab
HEAD_TAGS = {"scene": VOCAB.scenes, "ego_action": VOCAB.ego_actions,
             "actors": VOCAB.actor_types,
             "actor_actions": VOCAB.actor_actions}


def _drift_stream(n, seed):
    """``n`` results whose tag and confidence mix shifts at 160, shifts
    back at 260 and shifts again at 390 (the test reloads at 300,
    re-pinning the reference)."""
    rng = np.random.default_rng(seed)
    stream = []
    for i in range(n):
        shifted = 160 <= i < 260 or i >= 390
        scene = VOCAB.scenes[int(rng.random()
                                 < (0.8 if shifted else 0.3))]
        egos = (("stop", "decelerate") if shifted
                else ("drive-straight", "decelerate"))
        ego = egos[int(rng.random() < 0.4)]
        actors = [a for a in ("car", "pedestrian")
                  if rng.random() < (0.8 if shifted else 0.5)]
        actions = [a for a in ("leading", "braking")
                   if rng.random() < (0.2 if shifted else 0.5)]
        low, high = (0.2, 0.7) if shifted else (0.5, 1.0)
        confidences = {head: float(rng.uniform(low, high))
                       for head in HEAD_TAGS}
        stream.append((ScenarioDescription(scene, ego, frozenset(actors),
                                           frozenset(actions)),
                       confidences))
    return stream


class _Windows:
    """The detector's reference and current windows, kept by hand."""

    def __init__(self, config):
        self.config = config
        self.restart()

    def restart(self):
        bins = self.config.confidence_bins
        self.ref = {head: np.zeros(len(tags)) for head, tags
                    in HEAD_TAGS.items()}
        self.ref["conf"] = np.zeros(bins)
        self.ref_n = 0
        self.window = deque()

    def _counts(self, description, confidences):
        counts = {head: np.zeros(len(tags)) for head, tags
                  in HEAD_TAGS.items()}
        counts["scene"][VOCAB.scenes.index(description.scene)] += 1
        counts["ego_action"][
            VOCAB.ego_actions.index(description.ego_action)] += 1
        for actor in description.actors:
            counts["actors"][VOCAB.actor_types.index(actor)] += 1
        for action in description.actor_actions:
            counts["actor_actions"][
                VOCAB.actor_actions.index(action)] += 1
        counts["conf"] = np.zeros(self.config.confidence_bins)
        for head in sorted(confidences):
            counts["conf"][confidence_bin(
                confidences[head], self.config.confidence_bins)] += 1
        return counts

    def observe(self, description, confidences):
        counts = self._counts(description, confidences)
        if self.ref_n < self.config.reference_size:
            self.ref_n += 1
            for key, value in counts.items():
                self.ref[key] += value
            return
        self.window.append(counts)
        if len(self.window) > self.config.window_size:
            self.window.popleft()

    def scores(self, observed):
        cfg = self.config
        if (self.ref_n < cfg.reference_size
                or len(self.window) < cfg.min_samples):
            return None
        cur = {key: sum(c[key] for c in self.window) for key in self.ref}
        tag_psi = {}
        for head in HEAD_TAGS:
            if self.ref[head].sum() <= 0 or cur[head].sum() <= 0:
                tag_psi[head] = 0.0
            else:
                tag_psi[head] = psi(self.ref[head], cur[head], cfg.epsilon)
        return {
            "tag_psi": tag_psi,
            "tag_psi_max": max(tag_psi.values()),
            "confidence_psi": psi(self.ref["conf"], cur["conf"],
                                  cfg.epsilon),
            "confidence_kl": kl_divergence(cur["conf"], self.ref["conf"],
                                           cfg.epsilon),
            "reference_samples": self.ref_n,
            "window_samples": len(self.window),
            "observed": observed,
        }


def test_drift_alerts_and_scores_pinned():
    config = DriftConfig()
    monitor = QualityMonitor(LabelCodec(), QualityConfig(drift=config),
                             events=EventLog(None))
    windows = _Windows(config)
    alerts, scored, version = [], 0, 1
    for index, (description, confidences) in enumerate(
            _drift_stream(420, seed=7)):
        if index == 300:
            version = 2
            monitor.on_reload(version)
            windows.restart()
        before = len(monitor.alerts())
        extraction = ExtractionResult(
            description=description,
            sentence=description.to_sentence(),
            confidences=confidences, frame_range=(0, 4))
        monitor.observe(ServeResult(request_id=index, status="ok",
                                    result=extraction,
                                    model_version=version))
        windows.observe(description, confidences)
        if len(monitor.alerts()) > before:
            alerts.append(index)
        want = windows.scores(index + 1)
        assert monitor.drift.scores() == want, index
        scored += want is not None
    assert scored == 420 - 2 * (64 + 24 - 1)
    assert alerts == [164, 390]


class _Scorecards:
    """Per-version scorecards and ``quality_window`` events, kept by
    hand."""

    def __init__(self, bins, window):
        self.bins = bins
        self.window = window
        self.cards = {}
        self.windows = []
        self.current = self._empty()
        self.last_version = 0

    def _empty(self):
        return {"requests": 0, "statuses": {}, "cached": 0,
                "sums": {head: 0.0 for head in HEAD_TAGS},
                "hist": {head: [0] * self.bins for head in HEAD_TAGS},
                "tags": {head: dict.fromkeys(tags, 0)
                         for head, tags in HEAD_TAGS.items()}}

    def _add(self, tally, status, cached, description, confidences):
        tally["requests"] += 1
        tally["statuses"][status] = tally["statuses"].get(status, 0) + 1
        tally["cached"] += cached
        for head in HEAD_TAGS:
            tally["sums"][head] += confidences[head]
            tally["hist"][head][
                confidence_bin(confidences[head], self.bins)] += 1
        tally["tags"]["scene"][description.scene] += 1
        tally["tags"]["ego_action"][description.ego_action] += 1
        for actor in description.actors:
            tally["tags"]["actors"][actor] += 1
        for action in description.actor_actions:
            tally["tags"]["actor_actions"][action] += 1

    @staticmethod
    def _mean(tally):
        return {head: total / tally["requests"]
                for head, total in tally["sums"].items()}

    def reload(self, version):
        self.last_version = max(self.last_version, version)

    def observe(self, version, status, cached, description, confidences):
        self.reload(version)
        card = self.cards.setdefault(version, self._empty())
        for tally in (card, self.current):
            self._add(tally, status, cached, description, confidences)
        if self.current["requests"] == self.window:
            self.windows.append({
                "window": len(self.windows) + 1,
                "requests": self.window,
                "statuses": dict(sorted(self.current["statuses"].items())),
                "mean_confidence": self._mean(self.current),
                "model_version": self.last_version,
            })
            self.current = self._empty()

    def _report(self, card):
        n = card["requests"]
        return {
            "requests": n,
            "statuses": dict(sorted(card["statuses"].items())),
            "cached": card["cached"],
            "mean_confidence": self._mean(card),
            "confidence_histogram": card["hist"],
            "tag_positive_rate": {
                head: {tag: count / n for tag, count in tags.items()}
                for head, tags in card["tags"].items()},
        }

    def models(self):
        return {str(version): self._report(card)
                for version, card in sorted(self.cards.items())}


#: Event-log envelope fields of a ``quality_window`` record.
ENVELOPE = ("schema", "event", "ts", "mono", "seq")


def test_scorecards_and_quality_windows_pinned():
    config = QualityConfig()
    log = EventLog(None)
    monitor = QualityMonitor(LabelCodec(), config, events=log)
    tallies = _Scorecards(config.drift.confidence_bins, config.window)
    version = 1
    for index, (description, confidences) in enumerate(
            _drift_stream(420, seed=7)):
        if index == 300:
            version = 2
            monitor.on_reload(version)
            tallies.reload(version)
        # One late result of the old model after the reload.
        served_by = 1 if index == 305 else version
        status = "degraded" if index % 7 == 3 else "ok"
        cached = index % 5 == 0
        extraction = ExtractionResult(
            description=description,
            sentence=description.to_sentence(),
            confidences=confidences, frame_range=(0, 4))
        monitor.observe(ServeResult(request_id=index, status=status,
                                    result=extraction, cached=cached,
                                    model_version=served_by))
        tallies.observe(served_by, status, cached, description,
                        confidences)
    models = monitor.report()["models"]
    for card in models.values():
        # Gone from the scorecard: no served result carries a label.
        card.pop("ece", None)
        card.pop("labeled_samples", None)
    assert models == tallies.models()
    windows = [{key: value for key, value in record.items()
                if key not in ENVELOPE}
               for record in log.recent()
               if record["event"] == "quality_window"]
    assert len(windows) == 420 // config.window
    assert windows == tallies.windows


def test_quality_health_is_plain_json(extractor):
    service = ExtractionService(extractor, ServiceConfig(max_batch=4),
                                quality=QualityConfig())
    with service:
        for clip in _clips(6, seed=5):
            assert service.submit(clip).result(timeout=30.0).ok
        health = service.health()
    assert health["quality"]["models"]["1"]["requests"] == 6
    assert json.loads(json.dumps(health)) == health
